// Streaming forms of the Section-IV preprocessing filters: the same
// predicates and derived-trace name suffixes as the batch PacketTrace
// methods, applied as selection-vector passes over column chunks. A
// filtered chunk is built in two vectorizable loops (select indices,
// then gather columns). Each source wraps an upstream
// PacketColumnSource (non-owning — the caller keeps the stages alive,
// typically on the stack), and collect(filtered stream) equals the
// batch-filtered trace record for record (the `stream` tests pin this
// against the PacketTrace oracle).
#pragma once

#include <optional>
#include <set>
#include <string>

#include "src/stream/columnar.hpp"

namespace wan::stream {

/// The name suffixes the batch filters stack, in their stacking order:
/// "/<protocol>", "/orig-data", "/no-outliers".
std::string filter_suffix(const std::optional<trace::Protocol>& protocol,
                          bool orig_data, bool no_outliers = false);

/// Stateless columnar row filter: by protocol (if set), then
/// originator-data (if requested) — the same predicates, order and
/// derived-name suffixes as stacking the batch filters, but the
/// predicates compose on one selection vector and a single gather
/// materializes the surviving rows (no intermediate chunk per
/// predicate). next() keeps pulling upstream chunks until at least one
/// row survives, so false still means exhausted even when the filter
/// is very selective.
class ColumnFilterSource final : public PacketColumnSource {
 public:
  ColumnFilterSource(PacketColumnSource& inner,
                     std::optional<trace::Protocol> protocol, bool orig_data);

  const StreamInfo& info() const override { return info_; }
  bool next(PacketColumns& chunk) override;
  void reset() override { inner_->reset(); }

 private:
  PacketColumnSource* inner_;
  StreamInfo info_;
  std::optional<trace::Protocol> protocol_;
  bool orig_data_;
  PacketColumns buf_;
  std::vector<std::uint32_t> sel_;
};

/// Columnar PacketTrace::filter(protocol): name gains "/<protocol>".
ColumnFilterSource protocol_filter_columns(PacketColumnSource& inner,
                                           trace::Protocol protocol);

/// Columnar PacketTrace::originator_data_packets(): name gains
/// "/orig-data".
ColumnFilterSource originator_data_filter_columns(PacketColumnSource& inner);

/// Columnar PacketTrace::remove_bulk_outliers(). The outlier rule needs
/// a connection's total bytes before deciding, so this is an explicit
/// two-pass source: the first next() drains the upstream through
/// trace::BulkOutlierDetector (observing rows in order, so the outlier
/// set is identical to the batch method's; O(#connections) state),
/// resets it, then streams the second pass dropping the flagged
/// connections via a selection pass over the conn-id column. Name
/// gains "/no-outliers".
class ColumnBulkOutlierSource final : public PacketColumnSource {
 public:
  ColumnBulkOutlierSource(PacketColumnSource& inner,
                          double max_bytes = 1024.0, double max_rate = 8.0);

  const StreamInfo& info() const override { return info_; }
  bool next(PacketColumns& chunk) override;
  void reset() override;

 private:
  void scan_outliers();

  PacketColumnSource* inner_;
  StreamInfo info_;
  double max_bytes_;
  double max_rate_;
  bool scanned_ = false;
  std::set<std::uint32_t> outliers_;
  PacketColumns buf_;
  std::vector<std::uint32_t> sel_;
};

}  // namespace wan::stream
