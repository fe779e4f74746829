// Periodogram estimation — the raw spectral input to Whittle's estimator
// and Beran's goodness-of-fit test (Section VII).
#pragma once

#include <complex>
#include <cstdint>
#include <span>
#include <vector>

namespace wan::fft {

/// Result of periodogram(): ordinates I(lambda_j) at the Fourier
/// frequencies lambda_j = 2*pi*j/n, j = 1..floor((n-1)/2).
struct Periodogram {
  std::vector<double> frequency;  ///< lambda_j in (0, pi)
  std::vector<double> ordinate;   ///< I(lambda_j)
};

/// Computes I(lambda_j) = |sum_t (x_t - mean) e^{-i lambda_j t}|^2 / (2 pi n).
/// The mean is removed so the j = 0 ordinate (which would be dominated by
/// the level of the series) is excluded, as is standard. The mean is
/// accumulated in one Welford pass and subtracted while the series is
/// packed into the real-input FFT's half-size workspace — no widened or
/// centered copy of the series is made. An odd-length series is trimmed
/// by one trailing sample so the transform size is always even and rfft
/// never needs its widened odd-length fallback.
Periodogram periodogram(std::span<const double> x);

/// Shares one real FFT across 2x aggregation levels of a series.
///
/// An aggregation-stability sweep (paper Section VII: a self-similar
/// process shows the same H at every aggregation level M) needs the
/// periodogram of aggregate_mean(x, 2^k) for k = 0, 1, 2, ... The naive
/// path re-runs an FFT per level; but block-averaging by 2 is a linear
/// filter-and-decimate, so each halved level's DFT follows from the
/// previous level's in closed form. With w = e^{-2 pi i / n} and X the
/// length-n spectrum, the length-n/2 spectrum of the pairwise means is
///   Y_k = [(X_k + X_{k+n/2}) + w^{-k} (X_k - X_{k+n/2})] / 4,
/// an O(n) pass on the stored half-spectrum (the k+n/2 entries come from
/// the conjugate mirror of real input). The cascade therefore costs one
/// FFT total, with level k ordinates equal in exact arithmetic to
/// periodogram(aggregate_mean(x, 2^k)) — floating point puts them within
/// ~1e-12 relative, and level 0 is bitwise identical to periodogram(x)
/// because the construction replicates its trim / mean-removal / rfft
/// steps exactly.
///
/// Halving stops when the current length is not a multiple of 4: the
/// time-domain path would then trim one sample before its FFT, which has
/// no spectral counterpart. Callers fall back to aggregate_mean there.
class SpectrumCascade {
 public:
  /// One real FFT of the (even-trimmed, mean-removed) series; throws
  /// std::invalid_argument below 4 samples, like periodogram().
  explicit SpectrumCascade(std::span<const double> x);

  /// Series length at the current level (base length / factor()).
  std::size_t length() const { return n_; }

  /// Aggregation block size of the current level relative to the base
  /// series: 1, 2, 4, ... doubling per halve().
  std::size_t factor() const { return factor_; }

  /// True while the next halving is representable: current length a
  /// multiple of 4 (so the halved length stays even) and >= 8 (so the
  /// halved periodogram keeps at least one ordinate).
  bool can_halve() const { return n_ >= 8 && n_ % 4 == 0; }

  /// Descends one aggregation level in O(length()); throws
  /// std::logic_error when !can_halve().
  void halve();

  /// Periodogram of the current level, on the same frequency grid and
  /// normalization as periodogram() of the aggregated series.
  Periodogram current() const;

 private:
  std::vector<std::complex<double>> half_;  ///< mean-removed half-spectrum
  std::size_t n_ = 0;
  std::size_t factor_ = 1;
};

/// Serializable state of an AveragedPeriodogram: per-frequency ordinate
/// sums plus the segment count. Exact-sum doubles, so it round-trips
/// bit-exactly.
struct AveragedPeriodogramSnapshot {
  std::uint64_t segment_length = 0;
  std::uint64_t segments = 0;
  std::vector<double> ordinate_sum;
};

/// Bartlett-style averaged periodogram: push fixed-length segments of a
/// count series and finish() with per-segment periodograms averaged
/// ordinate by ordinate. Each segment is centered on its own mean
/// (Welch's segment convention), so a segment's contribution depends
/// only on its own samples — which is what lets the rolling SegmentRing
/// add and evict segments and still match this accumulator bit for bit.
class AveragedPeriodogram {
 public:
  /// Throws std::invalid_argument unless segment_length >= 4 and even
  /// (periodogram() trims odd lengths, which would silently change the
  /// frequency grid).
  explicit AveragedPeriodogram(std::size_t segment_length);

  /// Accumulates one segment; throws unless x.size() == segment_length().
  void push(std::span<const double> x);

  std::size_t segment_length() const { return segment_length_; }
  std::size_t segments() const { return segments_; }

  static AveragedPeriodogram from_snapshot(
      const AveragedPeriodogramSnapshot& s);

  /// The averaged periodogram on the segment-length frequency grid;
  /// throws std::logic_error before any segment has been pushed.
  Periodogram finish() const;

 private:
  std::size_t segment_length_ = 0;
  std::size_t segments_ = 0;
  std::vector<double> frequency_;
  std::vector<double> ordinate_sum_;
};

}  // namespace wan::fft
