#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "src/rng/rng.hpp"
#include "src/selfsim/fgn.hpp"
#include "src/stats/autocorr.hpp"
#include "src/stats/rs_analysis.hpp"
#include "src/stats/variance_time.hpp"

namespace wan::stats {
namespace {

std::vector<double> white_noise(std::size_t n, std::uint64_t seed) {
  rng::Rng rng(seed);
  std::vector<double> x(n);
  for (double& v : x) v = rng.uniform(0.0, 2.0);
  return x;
}

// ------------------------------------------------------------- variance

TEST(VarianceTime, DefaultLevelsAreLogSpaced) {
  const auto levels = default_aggregation_levels(100000);
  ASSERT_GT(levels.size(), 10u);
  EXPECT_EQ(levels.front(), 1u);
  for (std::size_t i = 1; i < levels.size(); ++i)
    EXPECT_GT(levels[i], levels[i - 1]);
  EXPECT_LE(levels.back(), 100000u / 8u);
}

TEST(VarianceTime, DefaultLevelsNeverGenerateSkippedLevels) {
  // Regression: with min_blocks < 2 the generator used to emit a final
  // level with fewer than 2 blocks, which variance_time_plot then
  // silently dropped. Every generated level must be usable.
  for (std::size_t n : {16u, 20u, 33u, 100u, 1000u}) {
    for (std::size_t min_blocks : {1u, 2u, 8u}) {
      const auto levels = default_aggregation_levels(n, 5, min_blocks);
      for (std::size_t m : levels) {
        ASSERT_GE(m, 1u);
        EXPECT_GE(n / m, 2u) << "n=" << n << " min_blocks=" << min_blocks
                             << " m=" << m;
      }
    }
  }
  // And the plot keeps every default level — none are skipped.
  const auto x = white_noise(100, 7);
  const auto vt = variance_time_plot(x);
  EXPECT_EQ(vt.points.size(), default_aggregation_levels(100).size());
}

TEST(VarianceTime, IidSeriesHasSlopeMinusOne) {
  // The Poisson/SRD signature: variance of the aggregated process decays
  // as 1/M -> log-log slope -1, Hurst 1/2.
  const auto x = white_noise(200000, 11);
  const auto vt = variance_time_plot(x);
  const auto fit = vt.fit_slope();
  EXPECT_NEAR(fit.slope, -1.0, 0.1);
  EXPECT_NEAR(vt.hurst(), 0.5, 0.05);
}

class FgnHurstSweep : public ::testing::TestWithParam<double> {};

TEST_P(FgnHurstSweep, VarianceTimeRecoversHurst) {
  const double h = GetParam();
  rng::Rng rng(101 + static_cast<std::uint64_t>(h * 100));
  const auto x = selfsim::generate_fgn(rng, 1 << 17, h);
  const auto vt = variance_time_plot(x);
  // Exclude the largest aggregations (few blocks, noisy).
  EXPECT_NEAR(vt.hurst(1, 2000), h, 0.08) << "H=" << h;
}

INSTANTIATE_TEST_SUITE_P(HurstValues, FgnHurstSweep,
                         ::testing::Values(0.5, 0.6, 0.7, 0.8, 0.9));

TEST(VarianceTime, NormalizationDividesBySquaredMean) {
  const auto x = white_noise(50000, 13);
  const auto vt = variance_time_plot(x);
  ASSERT_FALSE(vt.points.empty());
  const auto& p0 = vt.points.front();
  EXPECT_NEAR(p0.normalized, p0.variance / (vt.base_mean * vt.base_mean),
              1e-12);
}

TEST(VarianceTime, ShortSeriesRejected) {
  EXPECT_THROW(variance_time_plot(std::vector<double>(8, 1.0)),
               std::invalid_argument);
}

TEST(VarianceTime, CustomLevelsHonored) {
  const auto x = white_noise(10000, 17);
  const std::vector<std::size_t> levels = {1, 10, 100};
  const auto vt = variance_time_plot(x, levels);
  ASSERT_EQ(vt.points.size(), 3u);
  EXPECT_EQ(vt.points[1].m, 10u);
  EXPECT_EQ(vt.points[1].n_blocks, 1000u);
}

TEST(VarianceTime, FitRangeRestriction) {
  const auto x = white_noise(100000, 19);
  const auto vt = variance_time_plot(x);
  const auto narrow = vt.fit_slope(10, 1000);
  EXPECT_NEAR(narrow.slope, -1.0, 0.15);
  EXPECT_THROW(vt.fit_slope(1, 1), std::invalid_argument);
}

// ----------------------------------------------------------------- R/S

TEST(RsAnalysis, WhiteNoiseNearHalf) {
  const auto x = white_noise(1 << 16, 23);
  const auto rs = rs_analysis(x);
  // R/S is biased upward in small windows; accept a generous band around
  // the theoretical 0.5.
  EXPECT_GT(rs.hurst(), 0.45);
  EXPECT_LT(rs.hurst(), 0.65);
}

TEST(RsAnalysis, DetectsStrongLongMemory) {
  rng::Rng rng(29);
  const auto x = selfsim::generate_fgn(rng, 1 << 16, 0.9);
  const auto rs = rs_analysis(x);
  EXPECT_GT(rs.hurst(), 0.75);
}

TEST(RsAnalysis, OrdersHurstCorrectly) {
  rng::Rng rng(31);
  const auto lo = selfsim::generate_fgn(rng, 1 << 15, 0.55);
  const auto hi = selfsim::generate_fgn(rng, 1 << 15, 0.9);
  EXPECT_LT(rs_analysis(lo).hurst(), rs_analysis(hi).hurst());
}

TEST(RsAnalysis, RejectsShortSeries) {
  EXPECT_THROW(rs_analysis(std::vector<double>(16, 1.0)),
               std::invalid_argument);
}

// ------------------------------------------------------------- autocorr

TEST(Autocorr, WhiteNoiseLag1Small) {
  const auto x = white_noise(50000, 37);
  EXPECT_LT(std::abs(lag1_autocorrelation(x)), lag1_threshold(x.size()) * 2);
}

TEST(Autocorr, Ar1HasExpectedLag1) {
  rng::Rng rng(41);
  std::vector<double> x(100000);
  double prev = 0.0;
  const double phi = 0.6;
  for (double& v : x) {
    prev = phi * prev + rng.uniform(-1.0, 1.0);
    v = prev;
  }
  const auto r = autocorrelation(x, 3);
  EXPECT_NEAR(r[1], phi, 0.02);
  EXPECT_NEAR(r[2], phi * phi, 0.03);
  EXPECT_DOUBLE_EQ(r[0], 1.0);
}

TEST(Autocorr, FftAndDirectPathsAgree) {
  const auto x = white_noise(5000, 43);
  // Direct path (short max_lag) vs FFT path (long series, many lags).
  const auto direct = autocorrelation(std::span(x).subspan(0, 1000), 10);
  std::vector<double> copy(x.begin(), x.begin() + 1000);
  // Force comparability by computing on the same data using both code
  // paths: the FFT path kicks in only for n > 2048, so extend the data.
  const auto fft_based = autocorrelation(x, 50);
  EXPECT_DOUBLE_EQ(fft_based[0], 1.0);
  EXPECT_DOUBLE_EQ(direct[0], 1.0);
  // Cross-check FFT result against a hand-rolled sum on the same series.
  const double n = static_cast<double>(x.size());
  double mean = 0.0;
  for (double v : x) mean += v;
  mean /= n;
  double c0 = 0.0, c1 = 0.0;
  for (std::size_t i = 0; i < x.size(); ++i) {
    c0 += (x[i] - mean) * (x[i] - mean);
    if (i + 1 < x.size()) c1 += (x[i] - mean) * (x[i + 1] - mean);
  }
  EXPECT_NEAR(fft_based[1], c1 / c0, 1e-9);
}

TEST(Autocorr, ConstantSeriesDefined) {
  const std::vector<double> x(100, 5.0);
  const auto r = autocorrelation(x, 3);
  EXPECT_DOUBLE_EQ(r[0], 1.0);
  EXPECT_DOUBLE_EQ(r[1], 0.0);
  EXPECT_DOUBLE_EQ(lag1_autocorrelation(x), 0.0);
}

TEST(Autocorr, MaxLagClamped) {
  const std::vector<double> x = {1.0, 2.0, 1.5, 3.0};
  const auto r = autocorrelation(x, 100);
  EXPECT_EQ(r.size(), 4u);
}

}  // namespace
}  // namespace wan::stats
