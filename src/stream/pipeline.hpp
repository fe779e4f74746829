// End-to-end count-process analysis over a packet stream: Section-IV
// filters → binned counts → variance-time / moments / burst-lull, all
// single-pass (the outlier filter's second pass excepted).
//
// analyze_columns is the one whole-stream analysis of a chunk source.
// analyze_batch is the independent reference on an in-memory
// PacketTrace via the span-based statistics. Both feed the identical
// accumulator arithmetic (VtLevelAccumulator, BinCounts, BurstLull), so
// their results — and the figure CSVs rendered from them — are
// byte-identical. The `stream`-labeled tests pin this.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "src/stats/counting.hpp"
#include "src/stats/descriptive.hpp"
#include "src/stats/variance_time.hpp"
#include "src/stream/chunk.hpp"
#include "src/stream/columnar.hpp"
#include "src/stream/columnar_filters.hpp"

namespace wan::stream {

struct PipelineOptions {
  double bin = 0.1;  ///< count-process bin width, seconds

  // Filters, applied in this order (matching the batch path).
  std::optional<trace::Protocol> protocol;
  bool orig_data_only = false;
  bool remove_outliers = false;
  double outlier_max_bytes = 1024.0;
  double outlier_max_rate = 8.0;
};

struct PipelineResult {
  StreamInfo info;  ///< after filters (name carries the filter suffixes)
  double bin = 0.1;
  std::uint64_t packets = 0;  ///< records surviving the filters
  std::vector<double> counts;
  stats::VarianceTimePlot vt;
  stats::BurstLull burst_lull;
  stats::MomentAccumulator count_moments;
};

/// The filter stack every whole-stream analysis drains: the protocol
/// and originator-data predicates fused into one ColumnFilterSource
/// (same record sequence and derived name as stacking them), then the
/// bulk-outlier two-pass, each only when configured. top() is the
/// source itself when no filter is set. The stages point at each
/// other, so the stack stays where it is built.
class FilterStack {
 public:
  FilterStack(PacketColumnSource& source, const PipelineOptions& options);
  FilterStack(const FilterStack&) = delete;
  FilterStack& operator=(const FilterStack&) = delete;

  PacketColumnSource& top() { return *top_; }

 private:
  PacketColumnSource* top_;
  std::optional<ColumnFilterSource> filter_;
  std::optional<ColumnBulkOutlierSource> no_outliers_;
};

/// Streams the source through the configured filters and accumulators.
/// Filters are selection-vector passes (columnar_filters.hpp) and the
/// accumulators consume whole columns (BinCountsAccumulator::add(span)
/// etc.). Throws std::invalid_argument if the count series would be
/// shorter than 16 bins (same limit as variance_time_plot). With
/// remove_outliers the source is drained twice (reset() between
/// passes).
PipelineResult analyze_columns(PacketColumnSource& source,
                               const PipelineOptions& options = {});

/// The finish every whole-stream analysis shares: variance-time,
/// burst-lull and moments over the binned count series.
PipelineResult finish_counts(StreamInfo info, double bin,
                             std::uint64_t packets,
                             std::vector<double> counts);

/// The batch reference: same analysis via PacketTrace filters and the
/// span-based statistics.
PipelineResult analyze_batch(const trace::PacketTrace& trace,
                             const PipelineOptions& options = {});

/// Renders the variance-time plot as a figure CSV. Doubles print with
/// %.17g (round-trip exact), so byte-equal CSVs mean bit-equal plots.
std::string vt_csv(const PipelineResult& result);

}  // namespace wan::stream
