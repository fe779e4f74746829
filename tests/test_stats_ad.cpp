#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "src/dist/exponential.hpp"
#include "src/dist/lognormal.hpp"
#include "src/dist/pareto.hpp"
#include "src/rng/rng.hpp"
#include "src/stats/anderson_darling.hpp"
#include "src/stats/binomial.hpp"

namespace wan::stats {
namespace {

TEST(AndersonDarling, CriticalTablesLookUp) {
  EXPECT_DOUBLE_EQ(ad_critical_exponential(0.05), 1.321);
  EXPECT_DOUBLE_EQ(ad_critical_exponential(0.01), 1.959);
  EXPECT_THROW(ad_critical_exponential(0.123), std::invalid_argument);
}

TEST(AndersonDarling, ExponentialCalibrationNear95Percent) {
  // The Appendix A premise: truly exponential interarrivals should pass
  // the 5%-level test ~95% of the time.
  rng::Rng rng(3);
  const dist::Exponential e(2.0);
  int passes = 0;
  const int trials = 400;
  for (int t = 0; t < trials; ++t) {
    std::vector<double> x(60);
    for (double& v : x) v = e.sample(rng);
    passes += ad_test_exponential(x, 0.05).pass ? 1 : 0;
  }
  const double rate = passes / static_cast<double>(trials);
  EXPECT_GT(rate, 0.90);
  EXPECT_LT(rate, 0.99);
}

TEST(AndersonDarling, ParetoInterarrivalsRejected) {
  // Heavy-tailed gaps must fail the exponentiality test almost always —
  // this is exactly how the paper catches non-Poisson arrivals.
  rng::Rng rng(4);
  const dist::Pareto p(0.1, 0.9);
  int passes = 0;
  const int trials = 200;
  for (int t = 0; t < trials; ++t) {
    std::vector<double> x(80);
    for (double& v : x) v = p.sample(rng);
    passes += ad_test_exponential(x, 0.05).pass ? 1 : 0;
  }
  EXPECT_LT(passes / static_cast<double>(trials), 0.2);
}

TEST(AndersonDarling, LognormalGapsMostlyRejectedAtModerateN) {
  rng::Rng rng(5);
  const dist::LogNormal ln(0.0, 1.5);
  int passes = 0;
  const int trials = 200;
  for (int t = 0; t < trials; ++t) {
    std::vector<double> x(100);
    for (double& v : x) v = ln.sample(rng);
    passes += ad_test_exponential(x, 0.05).pass ? 1 : 0;
  }
  EXPECT_LT(passes / static_cast<double>(trials), 0.5);
}

TEST(AndersonDarling, StatisticGrowsWithDeviation) {
  rng::Rng rng(6);
  std::vector<double> exp_sample(200), pareto_sample(200);
  const dist::Exponential e(1.0);
  const dist::Pareto p(0.05, 0.8);
  for (double& v : exp_sample) v = e.sample(rng);
  for (double& v : pareto_sample) v = p.sample(rng);
  const double a_exp = ad_test_exponential(exp_sample).a2_modified;
  const double a_pareto = ad_test_exponential(pareto_sample).a2_modified;
  EXPECT_GT(a_pareto, a_exp);
}

TEST(AndersonDarling, RejectsTinySamples) {
  EXPECT_THROW(ad_test_exponential(std::vector<double>{1.0}),
               std::invalid_argument);
}

// ---------------------------------------------------------- binomial

TEST(Binomial, PmfSumsToOne) {
  double total = 0.0;
  for (std::uint64_t k = 0; k <= 20; ++k) total += binomial_pmf(20, k, 0.3);
  EXPECT_NEAR(total, 1.0, 1e-12);
}

TEST(Binomial, CdfSfComplementary) {
  for (std::uint64_t k = 0; k <= 10; ++k) {
    EXPECT_NEAR(binomial_cdf(10, k, 0.4) + binomial_sf(10, k + 1, 0.4), 1.0,
                1e-12);
  }
}

TEST(Binomial, DegenerateP) {
  EXPECT_DOUBLE_EQ(binomial_pmf(5, 0, 0.0), 1.0);
  EXPECT_DOUBLE_EQ(binomial_pmf(5, 5, 1.0), 1.0);
  EXPECT_DOUBLE_EQ(binomial_pmf(5, 3, 0.0), 0.0);
}

TEST(Binomial, ConsistencyRuleMatchesPaperLogic) {
  // 95 of 100 passing at p=0.95 is obviously consistent.
  EXPECT_TRUE(binomial_consistent(100, 95));
  // 100 of 100 as well (upper side is never a failure).
  EXPECT_TRUE(binomial_consistent(100, 100));
  // 80 of 100 at p=0.95 is wildly improbable.
  EXPECT_FALSE(binomial_consistent(100, 80));
  EXPECT_THROW(binomial_consistent(0, 0), std::invalid_argument);
}

TEST(Binomial, SignBiasDetection) {
  EXPECT_EQ(sign_bias(100, 50), 0);
  EXPECT_EQ(sign_bias(100, 75), +1);
  EXPECT_EQ(sign_bias(100, 25), -1);
  EXPECT_EQ(sign_bias(0, 0), 0);
  // Small n: 3 of 4 positive is not significant.
  EXPECT_EQ(sign_bias(4, 3), 0);
}

}  // namespace
}  // namespace wan::stats
