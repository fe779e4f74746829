// Descriptive statistics used throughout the analyses: moments,
// geometric mean (Fig. 3's "fit #1" anchors an exponential to it),
// quantiles of samples.
#pragma once

#include <cmath>
#include <cstdint>
#include <span>
#include <vector>

namespace wan::stats {

/// Arithmetic mean; 0 for empty input.
double mean(std::span<const double> x);

/// Unbiased sample variance (n-1 denominator); 0 if n < 2.
double variance(std::span<const double> x);

double stddev(std::span<const double> x);

/// Geometric mean; requires all x > 0.
double geometric_mean(std::span<const double> x);

double max_value(std::span<const double> x);

/// p-quantile (0 <= p <= 1) by linear interpolation of order statistics
/// (type-7, the R default). Copies and sorts internally.
double quantile(std::span<const double> x, double p);

/// Median = quantile(x, 0.5).
double median(std::span<const double> x);

/// Lightweight summary for report tables.
struct Summary {
  std::size_t n = 0;
  double mean = 0.0;
  double variance = 0.0;
  double stddev = 0.0;
  double min = 0.0;
  double p25 = 0.0;
  double median = 0.0;
  double p75 = 0.0;
  double max = 0.0;
};

Summary summarize(std::span<const double> x);

/// Differences t[i+1] - t[i]; the interarrival view of an arrival-time
/// sequence. times must be nondecreasing.
std::vector<double> interarrivals(std::span<const double> times);

/// Appends the interarrivals of `times` to `out` — the adjacent
/// differences as one vectorizable pass over the contiguous time
/// column (no allocation when out has capacity).
void interarrivals_into(std::span<const double> times,
                        std::vector<double>& out);

/// Streaming interarrival extraction: feed a nondecreasing time column
/// chunk by chunk; gaps() equals interarrivals() of the concatenated
/// times exactly (the same subtractions in the same order, including
/// the one bridging each chunk boundary).
class InterarrivalAccumulator {
 public:
  void push_times(std::span<const double> times) {
    if (times.empty()) return;
    if (has_last_) gaps_.push_back(times[0] - last_);
    interarrivals_into(times, gaps_);
    last_ = times[times.size() - 1];
    has_last_ = true;
  }

  const std::vector<double>& gaps() const { return gaps_; }
  /// Moves the gaps out; the accumulator keeps its boundary state.
  std::vector<double> take() { return std::move(gaps_); }

 private:
  std::vector<double> gaps_;
  double last_ = 0.0;
  bool has_last_ = false;
};

/// Single-pass Welford moment accumulator for streamed data: mean,
/// variance, extrema in O(1) state. Welford's recurrence is numerically
/// stabler than the two-pass span functions but groups the floating-point
/// work differently, so its variance agrees with variance(span) only to
/// rounding — use it where the data cannot be held, not where bitwise
/// reproduction of the span results is required.
///
/// Header-only so the layers below wan_stats (the periodogram's
/// single-pass centering in wan_fft) can use it without a library cycle.
class MomentAccumulator {
 public:
  void push(double x) {
    if (n_ == 0) {
      min_ = max_ = x;
    } else {
      if (x < min_) min_ = x;
      if (x > max_) max_ = x;
    }
    ++n_;
    const double delta = x - mean_;
    mean_ += delta / static_cast<double>(n_);
    m2_ += delta * (x - mean_);
  }

  /// Column form: Welford per element in order (bit-identical to push(x)
  /// per element); the loop body is branch-light once min/max start.
  void push(std::span<const double> xs) {
    for (double x : xs) push(x);
  }

  std::size_t count() const { return n_; }
  double mean() const { return n_ ? mean_ : 0.0; }
  /// Unbiased (n-1) variance; 0 if n < 2.
  double variance_sample() const {
    return n_ < 2 ? 0.0 : m2_ / static_cast<double>(n_ - 1);
  }
  /// Population (n) variance; 0 if empty.
  double variance_population() const {
    return n_ == 0 ? 0.0 : m2_ / static_cast<double>(n_);
  }
  /// sqrt of the sample variance.
  double stddev() const { return std::sqrt(variance_sample()); }
  double min() const { return n_ ? min_ : 0.0; }
  double max() const { return n_ ? max_ : 0.0; }

  /// Folds another accumulator's state into this one (Chan's parallel
  /// Welford combination). The result is a pure function of the two
  /// operand states — merging the same pair always yields the same bits
  /// — so a reduction over buckets is reproducible whenever the fold
  /// order is fixed (bucket 0 <- 1 <- 2 ...). It is NOT bit-equal to
  /// having pushed the concatenated stream serially; agreement with
  /// that is to rounding, like everything Welford.
  void merge(const MomentAccumulator& other) {
    if (other.n_ == 0) return;
    if (n_ == 0) {
      *this = other;
      return;
    }
    if (other.min_ < min_) min_ = other.min_;
    if (other.max_ > max_) max_ = other.max_;
    const double delta = other.mean_ - mean_;
    const auto na = static_cast<double>(n_);
    const auto nb = static_cast<double>(other.n_);
    const double nt = na + nb;
    mean_ += delta * (nb / nt);
    m2_ += other.m2_ + delta * delta * (na * nb / nt);
    n_ += other.n_;
  }

 private:
  std::size_t n_ = 0;
  double mean_ = 0.0;
  double m2_ = 0.0;
  double min_ = 0.0;
  double max_ = 0.0;
};

}  // namespace wan::stats
