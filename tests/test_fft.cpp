#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <complex>
#include <span>
#include <vector>

#include "src/fft/fft.hpp"
#include "src/fft/periodogram.hpp"
#include "src/fft/plan.hpp"
#include "src/rng/rng.hpp"
#include "src/stats/counting.hpp"
#include "src/stats/descriptive.hpp"

namespace wan::fft {
namespace {

std::vector<cd> naive_dft(const std::vector<cd>& x) {
  const std::size_t n = x.size();
  std::vector<cd> out(n, cd(0.0, 0.0));
  for (std::size_t k = 0; k < n; ++k) {
    for (std::size_t t = 0; t < n; ++t) {
      const double ang = -2.0 * M_PI * static_cast<double>(k * t) /
                         static_cast<double>(n);
      out[k] += x[t] * cd(std::cos(ang), std::sin(ang));
    }
  }
  return out;
}

std::vector<cd> random_signal(std::size_t n, std::uint64_t seed) {
  rng::Rng rng(seed);
  std::vector<cd> x(n);
  for (auto& v : x) v = cd(rng.uniform(-1.0, 1.0), rng.uniform(-1.0, 1.0));
  return x;
}

TEST(Fft, PowerOfTwoHelpers) {
  EXPECT_TRUE(is_power_of_two(1));
  EXPECT_TRUE(is_power_of_two(1024));
  EXPECT_FALSE(is_power_of_two(0));
  EXPECT_FALSE(is_power_of_two(3));
  EXPECT_EQ(next_power_of_two(1), 1u);
  EXPECT_EQ(next_power_of_two(5), 8u);
  EXPECT_EQ(next_power_of_two(1024), 1024u);
}

class FftMatchesDft : public ::testing::TestWithParam<std::size_t> {};

TEST_P(FftMatchesDft, AgreesWithNaiveDft) {
  const auto x = random_signal(GetParam(), 42 + GetParam());
  const auto fast = fft(x);
  const auto slow = naive_dft(x);
  ASSERT_EQ(fast.size(), slow.size());
  for (std::size_t k = 0; k < fast.size(); ++k) {
    EXPECT_NEAR(fast[k].real(), slow[k].real(), 1e-8) << "k=" << k;
    EXPECT_NEAR(fast[k].imag(), slow[k].imag(), 1e-8) << "k=" << k;
  }
}

// Mix of powers of two (radix-2 path) and awkward sizes (Bluestein).
INSTANTIATE_TEST_SUITE_P(Sizes, FftMatchesDft,
                         ::testing::Values(1, 2, 4, 8, 16, 64, 3, 5, 7, 12,
                                           15, 17, 31, 100, 127));

class FftRoundtrip : public ::testing::TestWithParam<std::size_t> {};

TEST_P(FftRoundtrip, IfftInvertsFft) {
  const auto x = random_signal(GetParam(), 1000 + GetParam());
  const auto back = ifft(fft(x));
  for (std::size_t i = 0; i < x.size(); ++i) {
    EXPECT_NEAR(back[i].real(), x[i].real(), 1e-9);
    EXPECT_NEAR(back[i].imag(), x[i].imag(), 1e-9);
  }
}

INSTANTIATE_TEST_SUITE_P(Sizes, FftRoundtrip,
                         ::testing::Values(2, 8, 256, 6, 30, 1000));

TEST(Fft, ParsevalHolds) {
  const auto x = random_signal(512, 7);
  const auto spec = fft(x);
  double time_energy = 0.0, freq_energy = 0.0;
  for (const auto& v : x) time_energy += std::norm(v);
  for (const auto& v : spec) freq_energy += std::norm(v);
  EXPECT_NEAR(freq_energy / 512.0, time_energy, 1e-8);
}

TEST(Fft, CircularAutocorrelationMatchesDirect) {
  rng::Rng rng(4);
  std::vector<double> x(64);
  for (double& v : x) v = rng.uniform(-1.0, 1.0);
  const auto fast = circular_autocorrelation(x);
  for (std::size_t k = 0; k < x.size(); ++k) {
    double direct = 0.0;
    for (std::size_t i = 0; i < x.size(); ++i)
      direct += x[i] * x[(i + k) % x.size()];
    EXPECT_NEAR(fast[k], direct, 1e-8) << "k=" << k;
  }
}

TEST(Fft, Pow2ThrowsOnBadSize) {
  std::vector<cd> x(3);
  EXPECT_THROW(fft_pow2(x, false), std::invalid_argument);
}

TEST(Periodogram, WhiteNoiseIsFlat) {
  // For white noise with variance s^2 the expected ordinate is
  // s^2 / (2 pi) at every frequency.
  rng::Rng rng(11);
  std::vector<double> x(8192);
  for (double& v : x) v = rng.uniform(-1.0, 1.0);  // var = 1/3
  const auto pg = periodogram(x);
  const double avg = stats::mean(pg.ordinate);
  EXPECT_NEAR(avg, (1.0 / 3.0) / (2.0 * M_PI), 0.01);
  // First and last frequencies are within (0, pi).
  EXPECT_GT(pg.frequency.front(), 0.0);
  EXPECT_LE(pg.frequency.back(), M_PI);
}

TEST(Periodogram, DetectsSinusoid) {
  const std::size_t n = 1024;
  std::vector<double> x(n);
  const std::size_t j0 = 100;
  for (std::size_t t = 0; t < n; ++t)
    x[t] = std::sin(2.0 * M_PI * static_cast<double>(j0 * t) /
                    static_cast<double>(n));
  const auto pg = periodogram(x);
  // The ordinate at frequency index j0-1 should dominate all others.
  std::size_t argmax = 0;
  for (std::size_t j = 1; j < pg.ordinate.size(); ++j) {
    if (pg.ordinate[j] > pg.ordinate[argmax]) argmax = j;
  }
  EXPECT_EQ(argmax, j0 - 1);
}

TEST(Periodogram, MeanRemovalKillsDcLeakage) {
  std::vector<double> x(512, 100.0);  // constant series
  x[0] = 100.0;
  const auto pg = periodogram(x);
  for (double v : pg.ordinate) EXPECT_NEAR(v, 0.0, 1e-12);
}

TEST(Periodogram, RejectsTinyInput) {
  std::vector<double> x(3, 1.0);
  EXPECT_THROW(periodogram(x), std::invalid_argument);
}

TEST(Periodogram, OddLengthTrimsToEvenPlannedTransform) {
  rng::Rng rng(13);
  std::vector<double> x(1001);
  for (double& v : x) v = rng.uniform(-1.0, 1.0);

  const auto before = rfft_plan_cache_stats();
  const auto odd = periodogram(x);
  const auto even = periodogram(std::span<const double>(x).first(1000));

  // The odd series is trimmed by one sample, so the two calls see the
  // same data and must agree bitwise.
  ASSERT_EQ(odd.ordinate.size(), even.ordinate.size());
  for (std::size_t j = 0; j < odd.ordinate.size(); ++j) {
    EXPECT_EQ(odd.frequency[j], even.frequency[j]) << "j=" << j;
    EXPECT_EQ(odd.ordinate[j], even.ordinate[j]) << "j=" << j;
  }

  // Both transforms went through the planned even-size real path: one
  // miss built the n = 1000 plan and the second call hit it. Had the
  // odd call taken rfft's widened fallback, the real-plan cache would
  // have seen only one access total.
  const auto rs = rfft_plan_cache_stats();
  EXPECT_EQ(rs.misses, before.misses + 1);
  EXPECT_EQ(rs.hits, before.hits + 1);
  EXPECT_EQ(rs.entries, before.entries + 1);
}

TEST(SpectrumCascade, LevelZeroIsBitwisePeriodogram) {
  rng::Rng rng(17);
  std::vector<double> x(4096);
  for (double& v : x) v = rng.uniform(-1.0, 1.0);

  SpectrumCascade cascade(x);
  const auto direct = periodogram(x);
  const auto derived = cascade.current();
  EXPECT_EQ(cascade.length(), x.size());
  EXPECT_EQ(cascade.factor(), 1u);
  ASSERT_EQ(derived.ordinate.size(), direct.ordinate.size());
  for (std::size_t j = 0; j < direct.ordinate.size(); ++j) {
    EXPECT_EQ(derived.frequency[j], direct.frequency[j]) << "j=" << j;
    EXPECT_EQ(derived.ordinate[j], direct.ordinate[j]) << "j=" << j;
  }
}

TEST(SpectrumCascade, HalvedLevelsMatchTimeDomainAggregation) {
  // Three successive halvings against aggregate_mean + a fresh FFT: the
  // spectral identity is exact in real arithmetic, so the ordinates may
  // differ only by accumulated rounding (~1e-12 relative).
  rng::Rng rng(19);
  std::vector<double> x(1 << 12);
  for (double& v : x) v = rng.uniform(0.0, 4.0);

  SpectrumCascade cascade(x);
  std::vector<double> agg(x);
  for (int level = 1; level <= 3; ++level) {
    ASSERT_TRUE(cascade.can_halve());
    cascade.halve();
    agg = wan::stats::aggregate_mean(agg, 2);
    EXPECT_EQ(cascade.length(), agg.size());
    EXPECT_EQ(cascade.factor(), std::size_t{1} << level);

    const auto direct = periodogram(agg);
    const auto derived = cascade.current();
    ASSERT_EQ(derived.ordinate.size(), direct.ordinate.size());
    double scale = 0.0;
    for (double v : direct.ordinate) scale = std::max(scale, v);
    for (std::size_t j = 0; j < direct.ordinate.size(); ++j) {
      EXPECT_EQ(derived.frequency[j], direct.frequency[j]) << "j=" << j;
      EXPECT_NEAR(derived.ordinate[j], direct.ordinate[j], 1e-9 * scale)
          << "level=" << level << " j=" << j;
    }
  }
}

TEST(SpectrumCascade, HalvingGuards) {
  // 12 = 4 * 3: one halving leaves length 6, whose time-domain sibling
  // would trim a sample before its FFT — so the cascade must refuse.
  std::vector<double> x(12, 0.0);
  for (std::size_t i = 0; i < x.size(); ++i) x[i] = static_cast<double>(i);
  SpectrumCascade cascade(x);
  ASSERT_TRUE(cascade.can_halve());
  cascade.halve();
  EXPECT_EQ(cascade.length(), 6u);
  EXPECT_FALSE(cascade.can_halve());
  EXPECT_THROW(cascade.halve(), std::logic_error);

  // Too short for even one ordinate after halving.
  std::vector<double> tiny(4, 1.0);
  SpectrumCascade small(tiny);
  EXPECT_FALSE(small.can_halve());

  std::vector<double> nothing(3, 1.0);
  EXPECT_THROW(SpectrumCascade{nothing}, std::invalid_argument);
}

TEST(SpectrumCascade, OddInputTrimsLikePeriodogram) {
  rng::Rng rng(23);
  std::vector<double> x(1025);
  for (double& v : x) v = rng.uniform(-1.0, 1.0);
  SpectrumCascade cascade(x);
  EXPECT_EQ(cascade.length(), 1024u);
  const auto trimmed = periodogram(std::span<const double>(x).first(1024));
  const auto derived = cascade.current();
  ASSERT_EQ(derived.ordinate.size(), trimmed.ordinate.size());
  for (std::size_t j = 0; j < trimmed.ordinate.size(); ++j)
    EXPECT_EQ(derived.ordinate[j], trimmed.ordinate[j]) << "j=" << j;
}

}  // namespace
}  // namespace wan::fft
