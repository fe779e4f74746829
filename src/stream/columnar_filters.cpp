#include "src/stream/columnar_filters.hpp"

#include <utility>

namespace wan::stream {

std::string filter_suffix(const std::optional<trace::Protocol>& protocol,
                          bool orig_data, bool no_outliers) {
  std::string s;
  if (protocol) {
    s += '/';
    s += trace::to_string(*protocol);
  }
  if (orig_data) s += "/orig-data";
  if (no_outliers) s += "/no-outliers";
  return s;
}

namespace {

// ColumnFilterSource's kernel on one chunk: returns `in` itself when no
// predicate is set or every row survives, otherwise gathers the
// survivors into `out` and returns it. `sel` is scratch.
const PacketColumns& filter_rows(const PacketColumns& in,
                                 const std::optional<trace::Protocol>& protocol,
                                 bool orig_data,
                                 std::vector<std::uint32_t>& sel,
                                 PacketColumns& out) {
  if (!protocol && !orig_data) return in;
  sel.clear();
  if (protocol && orig_data) {
    select_protocol_orig_data(in, *protocol, sel);
  } else if (protocol) {
    select_equal(in.protocol, *protocol, sel);
  } else {
    select_orig_data(in, sel);
  }
  if (sel.size() == in.size()) return in;
  gather(in, sel, out);
  return out;
}

// ColumnBulkOutlierSource's second-pass kernel on one chunk: drops the
// rows of flagged connections, with filter_rows' return convention.
const PacketColumns& drop_outlier_rows(const PacketColumns& in,
                                       const std::set<std::uint32_t>& outliers,
                                       std::vector<std::uint32_t>& sel,
                                       PacketColumns& out) {
  if (outliers.empty()) return in;
  sel.clear();
  sel.resize(in.size());
  std::size_t k = 0;
  const std::uint32_t* conn = in.conn_id.data();
  for (std::size_t i = 0; i < in.size(); ++i) {
    sel[k] = static_cast<std::uint32_t>(i);
    k += outliers.contains(conn[i]) ? 0 : 1;
  }
  sel.resize(k);
  if (sel.size() == in.size()) return in;
  gather(in, sel, out);
  return out;
}

}  // namespace

ColumnFilterSource::ColumnFilterSource(PacketColumnSource& inner,
                                       std::optional<trace::Protocol> protocol,
                                       bool orig_data)
    : inner_(&inner),
      info_{inner.info().name + filter_suffix(protocol, orig_data),
            inner.info().t_begin, inner.info().t_end},
      protocol_(protocol),
      orig_data_(orig_data) {}

bool ColumnFilterSource::next(PacketColumns& chunk) {
  chunk.clear();
  while (chunk.empty()) {
    if (!inner_->next(buf_)) return false;
    if (&filter_rows(buf_, protocol_, orig_data_, sel_, chunk) == &buf_) {
      // Everything survived: move the chunk through instead of gathering.
      chunk = std::move(buf_);
      buf_.clear();
      return true;
    }
  }
  return true;
}

ColumnBulkOutlierSource::ColumnBulkOutlierSource(PacketColumnSource& inner,
                                                 double max_bytes,
                                                 double max_rate)
    : inner_(&inner),
      info_{inner.info().name + filter_suffix(std::nullopt, false, true),
            inner.info().t_begin, inner.info().t_end},
      max_bytes_(max_bytes),
      max_rate_(max_rate) {}

void ColumnBulkOutlierSource::scan_outliers() {
  trace::BulkOutlierDetector det(max_bytes_, max_rate_);
  while (inner_->next(buf_)) {
    // The detector aggregates per connection from (time, conn, orig,
    // payload); rows are observed in order, as the batch method does.
    for (std::size_t i = 0; i < buf_.size(); ++i) det.observe(buf_.row(i));
  }
  outliers_ = det.outliers();
  inner_->reset();
  scanned_ = true;
}

bool ColumnBulkOutlierSource::next(PacketColumns& chunk) {
  if (!scanned_) scan_outliers();
  chunk.clear();
  while (chunk.empty()) {
    if (!inner_->next(buf_)) return false;
    if (&drop_outlier_rows(buf_, outliers_, sel_, chunk) == &buf_) {
      chunk = std::move(buf_);
      buf_.clear();
      return true;
    }
  }
  return true;
}

void ColumnBulkOutlierSource::reset() {
  // The outlier set is a function of the (replayable) upstream, so a
  // second pass reuses it rather than rescanning.
  inner_->reset();
}

}  // namespace wan::stream
