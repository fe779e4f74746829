#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "src/dist/lognormal.hpp"
#include "src/rng/rng.hpp"
#include "src/stats/descriptive.hpp"

namespace wan::dist {
namespace {

// ------------------------------------------------------------ lognormal

TEST(LogNormal, ClosedFormMoments) {
  LogNormal ln(0.5, 0.75);
  EXPECT_NEAR(ln.mean(), std::exp(0.5 + 0.75 * 0.75 / 2.0), 1e-12);
  const double s2 = 0.75 * 0.75;
  EXPECT_NEAR(ln.variance(),
              (std::exp(s2) - 1.0) * std::exp(2.0 * 0.5 + s2), 1e-9);
}

TEST(LogNormal, MedianIsExpMu) {
  LogNormal ln(1.2, 2.0);
  EXPECT_NEAR(ln.quantile(0.5), std::exp(1.2), 1e-9);
}

TEST(LogNormal, FromLog2MatchesPaperParameterization) {
  // Section V: log2-normal, log2-mean = log2(100), log2-sd = 2.24.
  const auto ln = LogNormal::from_log2(std::log2(100.0), 2.24);
  // Median in natural units must be 100 packets.
  EXPECT_NEAR(ln.quantile(0.5), 100.0, 1e-6);
  // One log2-sd up: median * 2^2.24.
  rng::Rng rng(3);
  std::vector<double> xs(100000);
  for (double& x : xs) x = std::log2(ln.sample(rng));
  EXPECT_NEAR(stats::mean(xs), std::log2(100.0), 0.03);
  EXPECT_NEAR(stats::stddev(xs), 2.24, 0.03);
}

TEST(LogNormal, SampleQuantilesMatch) {
  LogNormal ln(0.0, 1.0);
  rng::Rng rng(7);
  std::vector<double> xs(100000);
  for (double& x : xs) x = ln.sample(rng);
  EXPECT_NEAR(stats::quantile(xs, 0.5), 1.0, 0.03);
  EXPECT_NEAR(stats::quantile(xs, 0.8413), std::exp(1.0), 0.1);
}

TEST(LogNormal, RejectsBadSigma) {
  EXPECT_THROW(LogNormal(0.0, 0.0), std::invalid_argument);
  EXPECT_THROW(LogNormal(0.0, -1.0), std::invalid_argument);
}

TEST(LogNormal, AppendixE_NotHeavyTailedInPowerLawSense) {
  // Appendix E: for any beta, x^beta * P[X > x] -> 0: the log-normal tail
  // decays faster than every power law (eventually).
  LogNormal ln(1.0, 1.0);
  for (double beta : {0.5, 1.0, 2.0, 5.0}) {
    const double r1 = std::pow(1e4, beta) * ln.tail(1e4);
    const double r2 = std::pow(1e6, beta) * ln.tail(1e6);
    const double r3 = std::pow(1e8, beta) * ln.tail(1e8);
    EXPECT_LT(r3, r2) << "beta=" << beta;
    EXPECT_LT(r2, r1) << "beta=" << beta;
  }
}

TEST(LogNormal, ButLongTailedSubexponential) {
  // [38]'s sense: tail decreases more slowly than any exponential —
  // e^{lambda x} * P[X > x] -> inf for every lambda > 0.
  LogNormal ln(0.0, 2.0);
  const double lambda = 0.5;
  const double r1 = std::exp(lambda * 10.0) * ln.tail(10.0);
  const double r2 = std::exp(lambda * 40.0) * ln.tail(40.0);
  const double r3 = std::exp(lambda * 160.0) * ln.tail(160.0);
  EXPECT_GT(r2, r1);
  EXPECT_GT(r3, r2);
}

}  // namespace
}  // namespace wan::dist
