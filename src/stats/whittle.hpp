// Whittle's approximate maximum-likelihood estimator of the Hurst
// parameter of fractional Gaussian noise — the estimator the paper uses
// (via Beran's S code) to gauge self-similarity in Section VII.
//
// The estimator minimizes the discrete Whittle objective
//   Q(H) = (1/m) sum_j [ log f*(lambda_j; H) + I(lambda_j) / f*(lambda_j; H) ]
// over H in (1/2, 1), where I is the periodogram and f* the unit-scale
// fGn spectral density; the innovation scale is profiled out.
#pragma once

#include <cstddef>
#include <memory>
#include <optional>
#include <span>
#include <vector>

namespace wan::fft {
struct Periodogram;
}

namespace wan::stats {

/// Spectral density of fractional Gaussian noise at frequency
/// lambda in (0, pi], for unit sigma^2:
///   f(lambda; H) = 2 c_f (1 - cos lambda) sum_j |lambda + 2 pi j|^(-2H-1),
/// with c_f = sin(pi H) Gamma(2H + 1) / (2 pi). The infinite sum is
/// evaluated with a truncated series plus an integral tail correction
/// (accurate to ~1e-8 over H in [0.5, 0.99]).
double fgn_spectral_density(double lambda, double hurst);

struct WhittleResult {
  double hurst = 0.5;
  double stderr_hurst = 0.0;   ///< from the observed curvature of Q
  double ci_low = 0.0;         ///< 95% confidence interval
  double ci_high = 0.0;
  double scale = 0.0;          ///< profiled innovation scale sigma^2
  double objective = 0.0;      ///< Q at the minimum
};

/// Estimates H of an fGn model for the (stationary) series x by Whittle's
/// method. The series is centered internally. For very long series,
/// aggregate first (the estimator is asymptotically unaffected for exact
/// fGn, and aggregation keeps the periodogram affordable).
WhittleResult whittle_fgn(std::span<const double> x);

/// Warm-start options for the golden-section search inside the Whittle
/// fit. The search normally localizes the minimum with a 21-point coarse
/// grid before refining; a caller that already holds a nearby fit — the
/// adjacent level of an aggregation-stability sweep, or the previous
/// window of a re-fit stream — passes it as `hurst_hint` and the grid is
/// replaced by a 3-point bracket check around the hint. A hint that
/// fails to bracket a minimum (the new fit moved, or the hint was junk)
/// falls back to the full grid, so the result is the same minimizer
/// either way — the hint only changes how many density passes localizing
/// it costs (3 instead of 21).
struct WhittleOptions {
  std::optional<double> hurst_hint;
};

/// Same, but starting from a precomputed periodogram. `options` may
/// carry a warm-start hint from a neighboring fit.
WhittleResult whittle_fgn_from_periodogram(const fft::Periodogram& pg,
                                           const WhittleOptions& options = {});

/// Reference path that re-evaluates fgn_spectral_density at every
/// ordinate for every candidate H. whittle_fgn* instead evaluate the
/// smooth part of the density once per H on a coarse grid and
/// interpolate (~1e-9 relative error, far below the series truncation
/// already inside fgn_spectral_density), which drops the per-candidate
/// cost from m * 100 pow() calls to ~50k regardless of m. Kept for
/// accuracy cross-checks and the before/after perf row in
/// BENCH_perf.json.
WhittleResult whittle_fgn_direct_from_periodogram(const fft::Periodogram& pg);

/// Block-update Whittle refitter for a fixed periodogram frequency
/// grid — the amortized fit behind the sliding-window analyzer.
///
/// whittle_fgn_from_periodogram rebuilds the fGn density interpolation
/// grid for every candidate H of every call (~30 candidates through the
/// golden-section refinement, ~50k pow-equivalents each), which is the
/// right trade for one-shot fits but dominates a monitor that refits
/// the same frequency grid every slide. A rolling window's grid never
/// changes (the segment length is fixed), so this class evaluates the
/// density ONCE per candidate at construction: an H lattice of spacing
/// `h_step` over the full fit range, storing per candidate the
/// log-density sum and the reciprocal density at every ordinate. A
/// refit is then a lattice scan (m multiply-adds per candidate — the
/// periodogram is the only thing that changed), a parabolic refinement
/// between the winning candidate's neighbors, and one exact density
/// pass at the refined H for the reported scale and objective:
/// microseconds against the ~20-40 ms of a from-scratch fit.
///
/// Accuracy: the lattice-parabola minimizer lands within O(h_step^2) of
/// the golden-section minimizer (itself resolved to ~1e-5); at the
/// default spacing the observed difference is ~1e-5 in H — an order
/// below the estimator's own standard error at any realistic m.
/// `WhittleOptions::hurst_hint` restricts the scan to a neighborhood of
/// the previous fit (the 3-point-bracket idea on the lattice), falling
/// back to the full scan when the minimum escapes the neighborhood.
class WhittleRefitter {
 public:
  /// Builds the density tables for `frequency` (a periodogram grid:
  /// every lambda in (0, pi], at least 8 ordinates). Construction costs
  /// one density-grid pass per lattice candidate (~0.4 s at the default
  /// spacing) — pay it once, refit for the life of the stream.
  explicit WhittleRefitter(std::span<const double> frequency,
                           double h_step = 2e-3);
  ~WhittleRefitter();

  /// Fits H for a periodogram on the SAME frequency grid the refitter
  /// was built for (throws std::invalid_argument otherwise — the tables
  /// are grid-specific). All SegmentRing / SegmentRingCascade levels of
  /// one analyzer share a grid, so one refitter serves them all.
  WhittleResult fit(const fft::Periodogram& pg,
                    const WhittleOptions& options = {});

 private:
  struct Impl;
  std::unique_ptr<Impl> impl_;
};

/// Unit-scale spectral density of fractional ARIMA(0, d, 0):
///   f(lambda; d) = |2 sin(lambda/2)|^{-2d} / (2 pi).
/// The alternative long-memory family Section VII-D mentions when traces
/// fail the fGn fit.
double farima_spectral_density(double lambda, double d);

/// Whittle estimation under the fARIMA(0,d,0) model. The returned
/// `hurst` is d + 1/2 (the LRD correspondence); `stderr_hurst`/CI are in
/// the same units.
WhittleResult whittle_farima(std::span<const double> x);
WhittleResult whittle_farima_from_periodogram(const fft::Periodogram& pg);

}  // namespace wan::stats
