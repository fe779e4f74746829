// Count-process helpers: turning event (arrival) time sequences into the
// binned count series that variance-time plots, Whittle estimation and
// Appendix C analyses operate on.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <span>
#include <vector>

namespace wan::stats {

/// Number of events in each bin of width `bin` covering [t0, t1).
/// Events outside [t0, t1) are ignored. times need not be sorted.
std::vector<double> bin_counts(std::span<const double> times, double t0,
                               double t1, double bin);

/// Streaming sink form of bin_counts: feed event times chunk by chunk
/// (any order) and take the finished count series. Memory is bounded by
/// the number of bins — duration/bin — never by the number of events,
/// and the result is identical to bin_counts on the concatenated times
/// (bin increments are exact integer adds, so order cannot matter).
class BinCountsAccumulator {
 public:
  /// Throws std::invalid_argument unless bin > 0 and t1 > t0.
  BinCountsAccumulator(double t0, double t1, double bin);

  void add(double t);

  /// Column form: identical counts to calling add(t) per element (bin
  /// increments are exact integer adds), but the bin-index computation
  /// runs as a tight two-phase loop over the contiguous time column —
  /// compute indices (vectorizes: compare, subtract, divide, convert),
  /// then scatter the increments — instead of a branchy divide per call.
  void add(std::span<const double> times);

  std::size_t bins() const { return counts_.size(); }
  const std::vector<double>& counts() const { return counts_; }
  /// Moves the counts out; the accumulator is empty afterwards.
  std::vector<double> take() { return std::move(counts_); }

  double t0() const { return t0_; }
  double t1() const { return t1_; }
  double bin() const { return bin_; }

 private:
  double t0_ = 0.0;
  double t1_ = 0.0;
  double bin_ = 1.0;
  std::vector<double> counts_;
  std::vector<std::int32_t> idx_scratch_;  ///< add(span) phase-1 output
};

/// BinCountsAccumulator for a grid whose END is not known yet: same t0,
/// same bin width, same per-element quotient arithmetic, but the count
/// vector grows as later events arrive instead of being sized from a
/// known t1. The single-pass ingest path speculates that the stream is
/// in time order (so t0 = the first event) and bins as it goes; once
/// the true end is known, finish(t1) either returns counts identical —
/// bin for bin, bit for bit — to what BinCountsAccumulator(t0, t1, bin)
/// fed the same events would hold, or returns nullopt when it cannot
/// prove that (an event before t0, or a floating-point grid edge where
/// the fixed accumulator would have dropped or clamped an event this
/// one binned). nullopt means "redo the two-pass way", never "wrong".
/// The grid grows in fixed blocks rather than by reallocating one
/// vector, and finish() moves it into the exact-length result block by
/// block, so at no point are two copies of the grid resident.
class SpeculativeBinCounts {
 public:
  /// 1 MiB blocks: large enough for the allocator to map each one on
  /// its own, so a block released in finish() leaves the process
  /// (smaller blocks land in the heap, which keeps them resident).
  static constexpr std::size_t kBlockBins = std::size_t{1} << 17;

  /// Throws std::invalid_argument unless bin > 0 (t1 is not needed).
  SpeculativeBinCounts(double t0, double bin);

  /// Bins every event, growing the vector to reach the latest one. An
  /// event below t0 — possible only for out-of-order input, which the
  /// caller's speculation already rules out — poisons the speculation:
  /// finish() will return nullopt.
  void add(std::span<const double> times);

  /// The counts, iff they are bit-identical to the fixed-grid
  /// accumulator's over [t0, t1). The object is spent afterwards.
  std::optional<std::vector<double>> finish(double t1);

 private:
  double t0_ = 0.0;
  double bin_ = 1.0;
  bool poisoned_ = false;  ///< saw an event the fixed grid treats differently
  std::size_t size_ = 0;   ///< grid length grown to so far
  std::vector<std::unique_ptr<double[]>> blocks_;  ///< kBlockBins each
  std::vector<std::int32_t> idx_scratch_;
};

/// Aggregates a count series by non-overlapping blocks of m, *averaging*
/// within each block (the paper's "smoothed" process of aggregation
/// level M). A trailing partial block is dropped.
std::vector<double> aggregate_mean(std::span<const double> x, std::size_t m);

/// Same but summing within blocks (the count view at coarser resolution).
std::vector<double> aggregate_sum(std::span<const double> x, std::size_t m);

/// Burst/lull structure of a count series in the sense of Appendix C:
/// a bin is "occupied" if its count exceeds zero; a burst is a maximal
/// run of occupied bins and a lull a maximal run of empty bins.
struct BurstLull {
  std::vector<std::size_t> burst_lengths;  ///< in bins
  std::vector<std::size_t> lull_lengths;   ///< in bins
  double mean_burst_bins() const;
  double mean_lull_bins() const;
};

BurstLull burst_lull_structure(std::span<const double> counts);

/// Online form of burst_lull_structure: push bin counts one at a time;
/// finish() closes the open run. State between pushes is O(1); the
/// result holds one length per run (kept in series order so that two
/// accumulators over adjacent sub-series merge by concatenation, the
/// boundary runs fusing when their occupancy matches).
/// burst_lull_structure delegates here, so streamed and in-memory
/// analyses agree exactly.
class BurstLullAccumulator {
 public:
  void push(double count);
  /// Column form: same run-length results as push(count) per element,
  /// as one sequential scan of the contiguous count series.
  void push(std::span<const double> counts) {
    for (double c : counts) push(c);
  }
  /// Snapshot including the currently open run; push() may continue
  /// afterwards (finish does not mutate).
  BurstLull finish() const;

  /// Appends the other accumulator's run sequence to this one, as if its
  /// observations had been pushed here next. Run lengths are exact
  /// integer adds and the splice is pure concatenation (the boundary
  /// pair fusing when occupancy matches), so merge is truly associative:
  /// any merge tree over an ordered bucket partition of the series gives
  /// the same bits as one serial pass — but only when each operand saw a
  /// contiguous slice and operands arrive in series order.
  void merge(const BurstLullAccumulator& other);

 private:
  struct Run {
    std::size_t length = 0;
    bool occupied = false;
  };
  std::vector<Run> runs_;   ///< closed runs, series order
  std::size_t run_ = 0;     ///< open run length; 0 iff nothing pushed
  bool occupied_ = false;   ///< open run occupancy
};

}  // namespace wan::stats
