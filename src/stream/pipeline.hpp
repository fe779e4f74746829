// End-to-end count-process analysis over a packet stream: Section-IV
// filters → binned counts → variance-time / moments / burst-lull, all
// single-pass (the outlier filter's second pass excepted).
//
// analyze_stream and analyze_batch are the two implementations of the
// same analysis — the streamed one in bounded memory, the batch one on
// an in-memory PacketTrace via the span-based statistics. Both feed the
// identical accumulator arithmetic (VtLevelAccumulator, BinCounts,
// BurstLull), so their results — and the figure CSVs rendered from them
// — are byte-identical. The `stream`-labeled tests pin this.
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

namespace wan::stream {

struct PipelineOptions {
  double bin = 0.1;  ///< count-process bin width, seconds

  // Filters, applied in this order (matching the batch path).
  std::optional<trace::Protocol> protocol;
  bool orig_data_only = false;
  bool remove_outliers = false;
  double outlier_max_bytes = 1024.0;
  double outlier_max_rate = 8.0;

  std::size_t chunk_size = kDefaultChunkSize;
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

/// Row-source convenience: the source is adapted through
/// ColumnsFromRows and analyzed by analyze_columns.
PipelineResult analyze_stream(PacketChunkSource& source,
                              const PipelineOptions& options = {});

/// Streams the source through the configured filters and accumulators.
/// Filters are selection-vector passes (columnar_filters.hpp) and the
/// accumulators consume whole columns (BinCountsAccumulator::add(span)
/// etc.). Throws std::invalid_argument if the count series would be
/// shorter than 16 bins (same limit as variance_time_plot).
PipelineResult analyze_columns(PacketColumnSource& source,
                               const PipelineOptions& options = {});

/// The batch reference: same analysis via PacketTrace filters and the
/// span-based statistics.
PipelineResult analyze_batch(const trace::PacketTrace& trace,
                             const PipelineOptions& options = {});

/// Renders the variance-time plot as a figure CSV. Doubles print with
/// %.17g (round-trip exact), so byte-equal CSVs mean bit-equal plots.
std::string vt_csv(const PipelineResult& result);

}  // namespace wan::stream
