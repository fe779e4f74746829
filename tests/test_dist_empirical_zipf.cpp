#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "src/dist/zipf.hpp"
#include "src/rng/rng.hpp"
#include "src/stats/descriptive.hpp"

namespace wan::dist {
namespace {

// ------------------------------------------------------- DiscretePareto

TEST(DiscretePareto, PmfMatchesPaperFormula) {
  // Appendix B: P[r = n] = 1 / ((n+1)(n+2)).
  EXPECT_DOUBLE_EQ(DiscretePareto::pmf(0), 0.5);
  EXPECT_DOUBLE_EQ(DiscretePareto::pmf(1), 1.0 / 6.0);
  EXPECT_DOUBLE_EQ(DiscretePareto::pmf(2), 1.0 / 12.0);
}

TEST(DiscretePareto, CdfTelescopes) {
  double cum = 0.0;
  for (std::uint64_t n = 0; n < 50; ++n) {
    cum += DiscretePareto::pmf(n);
    EXPECT_NEAR(DiscretePareto::cdf(n), cum, 1e-12);
  }
}

TEST(DiscretePareto, QuantileIsLeftInverse) {
  for (double p : {0.1, 0.5, 0.6, 0.9, 0.99}) {
    const auto n = DiscretePareto::quantile(p);
    EXPECT_GE(DiscretePareto::cdf(n), p);
    if (n > 0) {
      EXPECT_LT(DiscretePareto::cdf(n - 1), p);
    }
  }
}

TEST(DiscretePareto, SampleFrequencies) {
  DiscretePareto dp;
  rng::Rng rng(8);
  const int n = 200000;
  int zeros = 0, ones = 0;
  for (int i = 0; i < n; ++i) {
    const auto v = dp.sample(rng);
    zeros += v == 0 ? 1 : 0;
    ones += v == 1 ? 1 : 0;
  }
  EXPECT_NEAR(zeros / static_cast<double>(n), 0.5, 0.01);
  EXPECT_NEAR(ones / static_cast<double>(n), 1.0 / 6.0, 0.01);
}

TEST(DiscretePareto, HeavyTailProducesHugeValues) {
  // Infinite mean: large samples should contain very large platoons.
  DiscretePareto dp;
  rng::Rng rng(9);
  std::uint64_t max_v = 0;
  for (int i = 0; i < 100000; ++i) max_v = std::max(max_v, dp.sample(rng));
  EXPECT_GT(max_v, 1000u);
}

}  // namespace
}  // namespace wan::dist
