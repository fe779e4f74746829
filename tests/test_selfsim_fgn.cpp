#include <gtest/gtest.h>

#include <cmath>
#include <numeric>
#include <vector>

#include "src/rng/rng.hpp"
#include "src/selfsim/fgn.hpp"
#include "src/stats/autocorr.hpp"
#include "src/stats/counting.hpp"
#include "src/stats/descriptive.hpp"

namespace wan::selfsim {
namespace {

TEST(FgnAutocovariance, KnownValues) {
  // H = 1/2: white noise, gamma(k) = 0 for k > 0.
  EXPECT_DOUBLE_EQ(fgn_autocovariance(0, 0.5), 1.0);
  EXPECT_NEAR(fgn_autocovariance(1, 0.5), 0.0, 1e-12);
  EXPECT_NEAR(fgn_autocovariance(5, 0.5), 0.0, 1e-12);
  // H = 0.75, k = 1: (2^1.5 - 2)/2.
  EXPECT_NEAR(fgn_autocovariance(1, 0.75),
              0.5 * (std::pow(2.0, 1.5) - 2.0), 1e-12);
}

TEST(FgnAutocovariance, PositiveForPersistentNegativeForAnti) {
  EXPECT_GT(fgn_autocovariance(1, 0.8), 0.0);
  EXPECT_GT(fgn_autocovariance(10, 0.8), 0.0);
  EXPECT_LT(fgn_autocovariance(1, 0.3), 0.0);
}

TEST(FgnAutocovariance, HyperbolicDecay) {
  // gamma(k) ~ H(2H-1) k^{2H-2}: ratio gamma(2k)/gamma(k) -> 2^{2H-2}.
  const double h = 0.85;
  const double ratio =
      fgn_autocovariance(2000, h) / fgn_autocovariance(1000, h);
  EXPECT_NEAR(ratio, std::pow(2.0, 2.0 * h - 2.0), 1e-3);
}

class FgnGeneration : public ::testing::TestWithParam<double> {};

TEST_P(FgnGeneration, SampleMomentsAndAcfMatchTheory) {
  const double h = GetParam();
  rng::Rng rng(1000 + static_cast<std::uint64_t>(h * 100));
  const std::size_t n = 1 << 16;
  // Average ACF estimates over a few independent paths.
  std::vector<double> acf_acc(6, 0.0);
  double var_acc = 0.0;
  const int reps = 4;
  for (int rep = 0; rep < reps; ++rep) {
    const auto x = generate_fgn(rng, n, h);
    var_acc += stats::variance(x);
    const auto r = stats::autocorrelation(x, 5);
    for (std::size_t k = 0; k <= 5; ++k) acf_acc[k] += r[k];
  }
  // Long-range dependence biases the *sample* variance low: the sample
  // mean absorbs low-frequency power, E[s^2] ~ sigma^2 (1 - n^{2H-2}).
  // The same mean-removal biases sample autocorrelations low by a
  // similar margin. Compare against the bias-adjusted expectations.
  const double mean_bias =
      std::pow(static_cast<double>(n), 2.0 * h - 2.0);
  EXPECT_NEAR(var_acc / reps, 1.0 - mean_bias, 0.05) << "H=" << h;
  for (std::size_t k = 1; k <= 5; ++k) {
    // Both the lag covariance and the variance shrink by ~mean_bias, so
    // the sample autocorrelation centers on the ratio.
    const double expect =
        (fgn_autocovariance(k, h) - mean_bias) / (1.0 - mean_bias);
    EXPECT_NEAR(acf_acc[k] / reps, expect, 0.05) << "H=" << h << " k=" << k;
  }
}

INSTANTIATE_TEST_SUITE_P(HurstValues, FgnGeneration,
                         ::testing::Values(0.5, 0.6, 0.7, 0.8, 0.9));

TEST(FgnGeneration, MeanIsZero) {
  rng::Rng rng(3);
  const auto x = generate_fgn(rng, 1 << 15, 0.8);
  EXPECT_NEAR(stats::mean(x), 0.0, 0.15);
}

TEST(FgnGeneration, SigmaScalesOutput) {
  rng::Rng rng(4);
  const auto x = generate_fgn(rng, 1 << 14, 0.7, 5.0);
  EXPECT_NEAR(stats::variance(x), 25.0, 3.0);
}

TEST(FgnGeneration, ExactSelfSimilarityOfAggregates) {
  // The defining property (Appendix D): the aggregated (block-mean)
  // process has the same autocorrelation function. Variance of the
  // m-aggregate is m^{2H-2} * variance.
  rng::Rng rng(5);
  const double h = 0.8;
  double v1 = 0.0, v16 = 0.0;
  const int reps = 6;
  for (int rep = 0; rep < reps; ++rep) {
    const auto x = generate_fgn(rng, 1 << 16, h);
    v1 += stats::variance(x);
    const auto agg = stats::aggregate_mean(x, 16);
    v16 += stats::variance(agg);
  }
  const double ratio = (v16 / reps) / (v1 / reps);
  EXPECT_NEAR(ratio, std::pow(16.0, 2.0 * h - 2.0), 0.05);
}

TEST(FgnGeneration, EdgeCases) {
  rng::Rng rng(6);
  EXPECT_TRUE(generate_fgn(rng, 0, 0.7).empty());
  EXPECT_EQ(generate_fgn(rng, 1, 0.7).size(), 1u);
  EXPECT_EQ(generate_fgn(rng, 17, 0.7).size(), 17u);  // non power of two
  EXPECT_THROW(generate_fgn(rng, 16, 0.0), std::invalid_argument);
  EXPECT_THROW(generate_fgn(rng, 16, 1.0), std::invalid_argument);
}

TEST(FgnPartialSums, VarianceGrowsAsT2H) {
  // The partial sums of fGn are fBm, Var B(t) = t^{2H}: estimate from
  // many short independent paths.
  rng::Rng rng(8);
  const double h = 0.7;
  const std::size_t t1 = 64, t2 = 256;
  std::vector<double> b1, b2;
  for (int rep = 0; rep < 400; ++rep) {
    const auto noise = generate_fgn(rng, t2, h);
    const double s1 = std::accumulate(noise.begin(), noise.begin() + t1, 0.0);
    b1.push_back(s1);
    b2.push_back(std::accumulate(noise.begin() + t1, noise.end(), s1));
  }
  const double ratio = stats::variance(b2) / stats::variance(b1);
  EXPECT_NEAR(ratio, std::pow(static_cast<double>(t2) / t1, 2.0 * h),
              0.2 * ratio);
}

}  // namespace
}  // namespace wan::selfsim
