// Anderson-Darling (A^2) goodness-of-fit test — the exponentiality test
// at the heart of Appendix A. Stephens (in D'Agostino & Stephens,
// "Goodness-of-Fit Techniques", 1986) recommends A^2 over
// Kolmogorov-Smirnov and chi-square; it weights the tails heavily, which
// is exactly where heavy-tailed interarrivals betray themselves.
//
// The null is exponential with mean estimated from the data — the
// situation in Appendix A, which changes the significance points
// (D'Agostino & Stephens Table 4.14) and requires the small-sample
// modification A^2 * (1 + 0.6/n).
#pragma once

#include <span>

namespace wan::stats {

/// Result of an A^2 test.
struct AdResult {
  double a2 = 0.0;          ///< raw statistic
  double a2_modified = 0.0; ///< small-sample modified statistic
  bool pass = false;        ///< null not rejected at the chosen level
  double critical = 0.0;    ///< the critical value used
};

/// Tests whether x is exponential with *unknown* mean (estimated from the
/// sample), at significance `alpha` in {0.25, 0.15, 0.10, 0.05, 0.025,
/// 0.01}. This is the Appendix A exponentiality test.
AdResult ad_test_exponential(std::span<const double> x, double alpha = 0.05);

/// Critical value lookup (exposed for tests).
double ad_critical_exponential(double alpha);

}  // namespace wan::stats
