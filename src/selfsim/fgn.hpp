// Fractional Gaussian noise — the "simplest type of self-similar
// process" the paper tests traces against (Section VII). Exact sampling
// via Davies-Harte circulant embedding (Davies & Harte 1987), which is
// O(n log n) and reproduces the target autocovariance exactly.
//
// The embedding is padded to the next power of two (the standard
// fast-fGn practice, cf. Paxson 1997), so every transform runs on the
// radix-2 planned FFT path; the circulant eigenvalues are cached per
// (embedding size, H) and the spectral noise is drawn from per-chunk
// RNG streams (src/selfsim/chunk_rng.hpp), so synthesis parallelizes
// with bit-identical output at any thread count.
#pragma once

#include <cstddef>
#include <memory>
#include <vector>

#include "src/rng/rng.hpp"

namespace wan::selfsim {

/// Autocovariance of fGn with Hurst H and unit variance:
///   gamma(k) = 1/2 (|k+1|^{2H} - 2|k|^{2H} + |k-1|^{2H}).
/// Exactly self-similar: the aggregated process has the same correlation
/// structure (the r(k) of Appendix D's "exactly self-similar" display).
double fgn_autocovariance(std::size_t lag, double hurst);

/// Generates n points of zero-mean fGn with the given Hurst parameter and
/// marginal standard deviation. Throws if the circulant embedding is not
/// nonnegative definite (does not happen for fGn with 0 < H < 1, but the
/// check guards numerical trouble).
///
/// Consumes exactly one u64 from rng per call (the chunk-stream key), so
/// repeated calls yield independent paths; the path itself is a pure
/// function of (that key, n, hurst, sigma) and identical at any thread
/// count.
std::vector<double> generate_fgn(rng::Rng& rng, std::size_t n, double hurst,
                                 double sigma = 1.0);

/// Eigenvalues of the power-of-two circulant embedding used for n-point
/// generation: the real FFT of the covariance circle
///   c = [g(0) .. g(M/2), g(M/2 - 1) .. g(1)],  M = next_pow2(2 (n - 1)),
/// returned as the M/2 + 1 nonnegative-frequency values (tiny negative
/// roundoff clipped to zero). Results are shared through a small
/// thread-safe LRU keyed by (M, H) — the one-shot trigonometry/pow cost
/// per size, not per generated path. Exposed for tests and diagnostics.
std::shared_ptr<const std::vector<double>> fgn_circulant_eigenvalues(
    std::size_t n, double hurst);

/// Observability for the eigenvalue cache (tests).
struct FgnEigenCacheStats {
  std::size_t hits = 0;
  std::size_t misses = 0;
  std::size_t entries = 0;
};
FgnEigenCacheStats fgn_eigen_cache_stats();

}  // namespace wan::selfsim
