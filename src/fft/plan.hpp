// Planned FFT execution: an FftPlan caches everything about a transform
// size that is pure trigonometry/bookkeeping — the bit-reversal
// permutation and the per-stage twiddle tables — so repeated transforms
// of the same length (Whittle likelihood evaluations, per-block fGn
// synthesis, Bluestein's three same-size inner FFTs) stop recomputing
// cos/sin. Plans are shared through a small thread-safe LRU cache.
//
// Real-input transforms get their own RfftPlan: N reals are packed into
// N/2 complex points, transformed with the (cached) half-size complex
// plan, and unpacked with a cached e^{-2*pi*i*k/N} table — half the
// work and memory of widening the series to complex.
//
// Determinism contract: butterfly stages may run in parallel on the
// src/par pool, but every butterfly writes a disjoint pair of slots and
// performs arithmetic that depends only on the plan tables, so the
// output is bit-identical at any thread count (and identical to the
// serial loop nest the plan replaced).
#pragma once

#include <complex>
#include <cstdint>
#include <memory>
#include <span>
#include <vector>

namespace wan::fft {

using cd = std::complex<double>;

/// A reusable radix-2 plan for one power-of-two transform size.
class FftPlan {
 public:
  /// Builds the bit-reversal permutation and per-stage twiddle tables
  /// for size n. Throws std::invalid_argument unless n is a power of
  /// two (n >= 1).
  explicit FftPlan(std::size_t n);

  std::size_t size() const noexcept { return n_; }

  /// In-place unnormalized DFT of exactly size() points.
  void forward(std::span<cd> data) const { transform(data, false); }

  /// In-place unnormalized inverse DFT (divide by size() yourself for
  /// the unitary convention).
  void inverse(std::span<cd> data) const { transform(data, true); }

 private:
  void transform(std::span<cd> data, bool inverse) const;

  std::size_t n_;
  std::vector<std::uint32_t> bitrev_;  ///< bit-reversed index of each i
  /// Stage tables concatenated smallest stage first; the table for
  /// butterfly span `len` starts at offset len/2 - 1 and holds len/2
  /// entries (total n - 1).
  std::vector<cd> stages_;
};

/// Fetches (or builds and caches) the plan for power-of-two size n.
/// Thread-safe; the cache keeps the most recently used sizes and evicts
/// least-recently-used plans beyond its capacity. Callers keep their
/// shared_ptr, so eviction never invalidates a plan in use.
std::shared_ptr<const FftPlan> plan_for(std::size_t n);

/// A plan for real-input transforms of even length n: the cached
/// half-size complex plan (when n/2 is a power of two) plus the
/// pack/unpack twiddle table exp(-2*pi*i*k/n).
class RfftPlan {
 public:
  /// Throws std::invalid_argument unless n is even and >= 2.
  explicit RfftPlan(std::size_t n);

  std::size_t size() const noexcept { return n_; }

  /// Spectrum of the real series (x - subtract) at k = 0..n/2
  /// (n/2 + 1 entries; the remaining half is the conjugate mirror).
  /// `subtract` lets callers center in place while packing, with no
  /// separate centered copy (the periodogram path).
  std::vector<cd> forward(std::span<const double> x,
                          double subtract = 0.0) const;

  /// Inverse of forward(): reconstructs the n real points from the
  /// half spectrum (n/2 + 1 entries), normalized by 1/n.
  std::vector<double> inverse(std::span<const cd> half_spectrum) const;

 private:
  std::size_t n_;  ///< real length (even)
  std::size_t h_;  ///< n / 2, the complex transform size
  std::shared_ptr<const FftPlan> half_plan_;  ///< null when h_ is not 2^k
  std::vector<cd> unpack_;  ///< exp(-2*pi*i*k/n), k = 0..h_
};

/// Fetches (or builds and caches) the real-transform plan for even n.
std::shared_ptr<const RfftPlan> rfft_plan_for(std::size_t n);

/// Cache observability (tests and diagnostics).
struct PlanCacheStats {
  std::size_t hits = 0;
  std::size_t misses = 0;
  std::size_t entries = 0;  ///< currently cached plans
};

PlanCacheStats plan_cache_stats();        ///< complex-plan cache
PlanCacheStats rfft_plan_cache_stats();   ///< real-plan cache

}  // namespace wan::fft
