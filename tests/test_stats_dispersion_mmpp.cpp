#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "src/dist/exponential.hpp"
#include "src/rng/rng.hpp"
#include "src/selfsim/fgn.hpp"
#include "src/stats/counting.hpp"
#include "src/stats/descriptive.hpp"
#include "src/stats/dispersion.hpp"
#include "src/stats/regression.hpp"
#include "src/synth/mmpp.hpp"

namespace wan::stats {
namespace {

std::vector<double> poisson_counts(std::uint64_t seed, std::size_t n,
                                   double rate_per_bin) {
  rng::Rng rng(seed);
  std::vector<double> c(n, 0.0);
  double t = 0.0;
  const double horizon = static_cast<double>(n);
  while (true) {
    t += -std::log(rng.uniform01_open_below()) / rate_per_bin;
    if (t >= horizon) break;
    c[static_cast<std::size_t>(t)] += 1.0;
  }
  return c;
}

// ------------------------------------------------------------------ IDC

TEST(Idc, PoissonIsFlatAtOne) {
  const auto c = poisson_counts(1, 100000, 5.0);
  const auto curve = idc_curve(c);
  ASSERT_GT(curve.size(), 8u);
  for (const auto& p : curve) {
    // The variance estimate at window t rests on n/t blocks; only check
    // points with enough blocks for a meaningful estimate.
    if (p.t > 100000.0 / 256.0) continue;  // >= 256 blocks: sd(IDC) ~ 9%
    EXPECT_NEAR(p.index, 1.0, 0.25) << "t=" << p.t;
  }
  EXPECT_NEAR(idc_slope(curve), 0.0, 0.15);
}

TEST(Idc, LrdCountsGrowAsPowerLaw) {
  // For an LRD count process IDC(t) grows ~ t^{2H-1} (0.7 here); the
  // finite-sample estimate is biased low at the largest windows
  // (mean-removal plus few blocks), so assert a clearly positive slope
  // and strong overall growth rather than the exact exponent.
  rng::Rng rng(2);
  auto x = selfsim::generate_fgn(rng, 1 << 17, 0.85);
  for (double& v : x) v = v + 10.0;
  const auto curve = idc_curve(x);
  const double slope = idc_slope(curve);
  EXPECT_GT(slope, 0.25);
  EXPECT_LT(slope, 0.9);
  EXPECT_GT(curve.back().index, 3.0 * curve.front().index);
}

TEST(Idc, Validation) {
  EXPECT_THROW(idc_curve(std::vector<double>(4, 1.0)),
               std::invalid_argument);
  std::vector<DispersionPoint> tiny = {{1.0, 1.0}};
  EXPECT_THROW(idc_slope(tiny), std::invalid_argument);
}

// ----------------------------------------------------------------- MMPP

TEST(Mmpp, MeanRateMatchesStationaryMixture) {
  synth::MmppConfig cfg;
  cfg.rates = {2.0, 20.0};
  cfg.mean_sojourns = {30.0, 10.0};
  const synth::MmppSource src(cfg);
  // Stationary: state probability proportional to the mean sojourn,
  // (2*30 + 20*10) / 40 = 6.5.
  rng::Rng rng(4);
  const auto t = src.generate(rng, 0.0, 20000.0);
  EXPECT_NEAR(static_cast<double>(t.size()) / 20000.0, 6.5, 0.4);
}

TEST(Mmpp, ArrivalsSortedWithinWindow) {
  synth::MmppSource src{synth::MmppConfig{}};
  rng::Rng rng(5);
  const auto t = src.generate(rng, 100.0, 500.0);
  ASSERT_GT(t.size(), 100u);
  for (std::size_t i = 1; i < t.size(); ++i) EXPECT_GT(t[i], t[i - 1]);
  EXPECT_GE(t.front(), 100.0);
  EXPECT_LT(t.back(), 500.0);
}

TEST(Mmpp, BurstierThanPoissonAtShortScalesOnly) {
  // The indictment: MMPP raises IDC over its sojourn timescale but
  // plateaus beyond it, whereas LRD traffic keeps climbing.
  synth::MmppConfig cfg;
  cfg.rates = {1.0, 30.0};
  cfg.mean_sojourns = {40.0, 10.0};
  const synth::MmppSource src(cfg);
  rng::Rng rng(6);
  const auto t = src.generate(rng, 0.0, 200000.0);
  const auto counts = stats::bin_counts(t, 0.0, 200000.0, 1.0);
  const auto curve = idc_curve(counts);
  ASSERT_GT(curve.size(), 10u);
  // Burstier than Poisson at moderate scales...
  bool above_two = false;
  for (const auto& p : curve) above_two |= p.index > 2.0;
  EXPECT_TRUE(above_two);
  // ...but the log-log slope of the top decade flattens (geometric
  // mixing), far below a strongly LRD slope like 0.7.
  std::vector<DispersionPoint> top(curve.end() - curve.size() / 3,
                                   curve.end());
  // Build a mini-fit on the final third.
  std::vector<double> lx, ly;
  for (const auto& p : top) {
    lx.push_back(std::log10(p.t));
    ly.push_back(std::log10(p.index));
  }
  const auto fit = linear_fit(lx, ly);
  EXPECT_LT(fit.slope, 0.35);
}

TEST(Mmpp, Validation) {
  synth::MmppConfig bad;
  bad.rates = {1.0};
  bad.mean_sojourns = {1.0};
  EXPECT_THROW(synth::MmppSource{bad}, std::invalid_argument);
  synth::MmppConfig bad2;
  bad2.rates = {1.0, -2.0};
  bad2.mean_sojourns = {1.0, 1.0};
  EXPECT_THROW(synth::MmppSource{bad2}, std::invalid_argument);
}

}  // namespace
}  // namespace wan::stats
