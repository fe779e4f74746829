// Heavy-tail estimation: the Hill estimator and log-log CCDF regression
// used to reproduce the paper's Pareto fits (TELNET interarrival body
// beta = 0.9 / tail 0.95; FTPDATA burst bytes 0.9 <= beta <= 1.4), and the
// Appendix-B tail-mass facts (an exponential's upper 0.5% tail always
// holds ~3% of the mass, a Pareto's far more).
#pragma once

#include <span>
#include <vector>

#include "src/stats/regression.hpp"

namespace wan::stats {

/// Hill estimator of the tail index beta from the top-k order statistics.
/// Returns the classic 1/mean-of-log-excesses estimate and its asymptotic
/// standard error beta/sqrt(k).
struct HillEstimate {
  double beta = 0.0;
  double stderr_beta = 0.0;
  std::size_t k = 0;
};

HillEstimate hill_estimator(std::span<const double> x, std::size_t k);

/// Least-squares fit of the upper `tail_fraction` of the sample's CCDF on
/// log-log axes: log10 P[X > x] ~ intercept - beta * log10 x. Robust,
/// visualizable version of the Hill fit; matches the paper's "fits well to
/// a Pareto with shape ..." statements.
struct CcdfTailFit {
  double beta = 0.0;
  LinearFit fit;            ///< the underlying regression (slope = -beta)
  double x_tail_start = 0.0;///< smallest x included in the fit
};

CcdfTailFit ccdf_tail_fit(std::span<const double> x, double tail_fraction);

/// Fraction of the total mass (sum) contributed by the largest
/// `top_fraction` of the observations — the Fig. 9 "upper 0.5% of bursts
/// hold 30-60% of the bytes" computation.
double mass_in_top_fraction(std::span<const double> x, double top_fraction);

/// Full Fig. 9 curve: for fractions f in (0, max_fraction], the share of
/// total mass held by the largest f of observations, evaluated at each
/// order statistic.
std::vector<std::pair<double, double>> mass_curve(std::span<const double> x,
                                                  double max_fraction);

}  // namespace wan::stats
