// Sample autocorrelation — the independence half of Appendix A's Poisson
// test (lag-1 checks) and the correlation structure behind Section VII.
#pragma once

#include <span>
#include <vector>

namespace wan::stats {

/// Sample autocorrelation r(k) for k = 0..max_lag, with the standard
/// biased normalization r(k) = c(k)/c(0),
/// c(k) = (1/n) sum_{t} (x_t - mean)(x_{t+k} - mean).
/// Uses the FFT for long series.
std::vector<double> autocorrelation(std::span<const double> x,
                                    std::size_t max_lag);

/// Just r(1); returns 0 for series shorter than 2 or with zero variance.
double lag1_autocorrelation(std::span<const double> x);

/// Appendix A's magnitude criterion: for an i.i.d. (white) series of
/// length n, |r(1)| exceeds this asymptotic 5% threshold, 1.96/sqrt(n),
/// with probability ~5%.
double lag1_threshold(std::size_t n);

/// Small-sample bias of the sample autocorrelation of an i.i.d. series:
/// E[r(1)] ~ -1/n. Sign tests must compare r(1) against this, not 0,
/// or truly-independent data drifts toward a spurious "-" verdict.
double lag1_bias(std::size_t n);

}  // namespace wan::stats
