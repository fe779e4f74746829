// Special functions needed by the distribution library: the standard
// normal CDF/quantile used by the log-normal distribution and by
// confidence intervals in wan::stats, and the standard normal sampler
// the Gaussian generators in wan::selfsim draw from.
#pragma once

#include "src/rng/rng.hpp"

namespace wan::dist {

/// Standard normal cumulative distribution function Phi(x).
double normal_cdf(double x) noexcept;

/// Inverse of normal_cdf. Acklam's rational approximation with one
/// Halley refinement step; |relative error| < 1e-9 over (0,1).
/// p must lie in (0,1).
double normal_quantile(double p) noexcept;

/// One standard normal variate by inverse transform (monotone in the
/// driving uniform, which keeps common-random-number experiments paired).
double standard_normal(rng::Rng& rng);

}  // namespace wan::dist
