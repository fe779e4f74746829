#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "src/dist/exponential.hpp"
#include "src/dist/pareto.hpp"
#include "src/rng/rng.hpp"
#include "src/stats/tail_fit.hpp"

namespace wan::stats {
namespace {

std::vector<double> pareto_sample(double a, double beta, std::size_t n,
                                  std::uint64_t seed) {
  rng::Rng rng(seed);
  const dist::Pareto p(a, beta);
  std::vector<double> xs(n);
  for (double& x : xs) x = p.sample(rng);
  return xs;
}

class HillSweep : public ::testing::TestWithParam<double> {};

TEST_P(HillSweep, RecoversParetoShape) {
  const double beta = GetParam();
  const auto xs =
      pareto_sample(1.0, beta, 50000, 7 + static_cast<std::uint64_t>(beta * 10));
  const auto h = hill_estimator(xs, 2000);
  EXPECT_NEAR(h.beta, beta, 3.0 * h.stderr_beta + 0.05) << "beta=" << beta;
}

INSTANTIATE_TEST_SUITE_P(Shapes, HillSweep,
                         ::testing::Values(0.9, 0.95, 1.06, 1.4, 2.0));

TEST(Hill, StderrShrinksWithK) {
  const auto xs = pareto_sample(1.0, 1.2, 50000, 5);
  const auto small_k = hill_estimator(xs, 100);
  const auto big_k = hill_estimator(xs, 5000);
  EXPECT_GT(small_k.stderr_beta, big_k.stderr_beta);
}

TEST(Hill, RejectsBadK) {
  const auto xs = pareto_sample(1.0, 1.2, 100, 9);
  EXPECT_THROW(hill_estimator(xs, 1), std::invalid_argument);
  EXPECT_THROW(hill_estimator(xs, 100), std::invalid_argument);
}

TEST(CcdfTailFit, SlopeMatchesShape) {
  const auto xs = pareto_sample(1.0, 1.1, 100000, 13);
  const auto fit = ccdf_tail_fit(xs, 0.05);
  EXPECT_NEAR(fit.beta, 1.1, 0.15);
  EXPECT_GT(fit.x_tail_start, 1.0);
  EXPECT_GT(fit.fit.r2, 0.97);
}

TEST(CcdfTailFit, ExponentialTailIsNotPowerLaw) {
  rng::Rng rng(17);
  const dist::Exponential e(1.0);
  std::vector<double> xs(100000);
  for (double& x : xs) x = e.sample(rng);
  const auto fit = ccdf_tail_fit(xs, 0.05);
  // The log-log CCDF of an exponential is strongly concave: a straight
  // line fits poorly and/or the implied "beta" is large.
  EXPECT_GT(fit.beta, 3.0);
}

TEST(CcdfTailFit, Validation) {
  const auto xs = pareto_sample(1.0, 1.0, 100, 19);
  EXPECT_THROW(ccdf_tail_fit(xs, 0.0), std::invalid_argument);
  EXPECT_THROW(ccdf_tail_fit(std::vector<double>{1.0, 2.0}, 0.5),
               std::invalid_argument);
}

// ------------------------------------------------- tail-mass machinery

TEST(MassInTop, HandComputedCase) {
  const std::vector<double> x = {1.0, 2.0, 3.0, 4.0, 90.0};
  EXPECT_DOUBLE_EQ(mass_in_top_fraction(x, 0.2), 0.9);
  EXPECT_DOUBLE_EQ(mass_in_top_fraction(x, 1.0), 1.0);
  EXPECT_DOUBLE_EQ(mass_in_top_fraction(x, 0.0), 0.0);
}

TEST(MassInTop, CeilIncludesAtLeastOne) {
  const std::vector<double> x = {1.0, 1.0, 1.0, 97.0};
  // 0.5% of 4 observations rounds up to 1 observation.
  EXPECT_DOUBLE_EQ(mass_in_top_fraction(x, 0.005), 0.97);
}

TEST(MassInTop, PaperContrastExponentialVsPareto) {
  // Fig. 9's engine: the top 0.5% of a Pareto(beta ~ 1.06) sample holds a
  // large share of the mass; an exponential's top 0.5% holds ~3%.
  rng::Rng rng(23);
  const dist::Exponential e(1000.0);
  std::vector<double> exp_xs(40000);
  for (double& x : exp_xs) x = e.sample(rng);
  const double exp_share = mass_in_top_fraction(exp_xs, 0.005);
  EXPECT_NEAR(exp_share, 0.031, 0.012);

  const auto par_xs = pareto_sample(1.0, 1.06, 40000, 29);
  const double par_share = mass_in_top_fraction(par_xs, 0.005);
  EXPECT_GT(par_share, 0.25);
}

TEST(MassCurve, MonotoneAndBounded) {
  const auto xs = pareto_sample(1.0, 1.2, 5000, 31);
  const auto curve = mass_curve(xs, 0.10);
  ASSERT_GT(curve.size(), 100u);
  double prev = 0.0;
  for (const auto& [frac, share] : curve) {
    EXPECT_GE(share, prev);
    EXPECT_LE(share, 1.0);
    EXPECT_LE(frac, 0.10 + 1e-9);
    prev = share;
  }
}

TEST(MassCurve, EmptyRejected) {
  EXPECT_THROW(mass_curve({}, 0.1), std::invalid_argument);
}

}  // namespace
}  // namespace wan::stats
