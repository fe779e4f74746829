// Appendix A's choice of goodness-of-fit test (A^2 against the KS oracle,
// after Stephens) and the fARIMA Whittle estimator.
#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "src/dist/exponential.hpp"
#include "src/dist/pareto.hpp"
#include "src/rng/rng.hpp"
#include "src/selfsim/farima.hpp"
#include "src/selfsim/fgn.hpp"
#include "src/stats/anderson_darling.hpp"
#include "src/stats/whittle.hpp"
#include "tests/ks_oracle.hpp"

namespace wan::stats {
namespace {

using testing_oracle::kolmogorov_sf;
using testing_oracle::ks_test;

// -------------------------------------------------------------- KS test

TEST(KsTest, CorrectNullPasses) {
  rng::Rng rng(4);
  const dist::Exponential e(2.0);
  std::vector<double> x(2000);
  for (double& v : x) v = e.sample(rng);
  const auto r = ks_test(x, [&e](double v) { return e.cdf(v); });
  EXPECT_TRUE(r.pass) << "p=" << r.p_value;
}

TEST(KsTest, WrongNullRejected) {
  rng::Rng rng(5);
  const dist::Pareto p(0.5, 1.2);
  const dist::Exponential e(1.0);
  std::vector<double> x(2000);
  for (double& v : x) v = p.sample(rng);
  const auto r = ks_test(x, [&e](double v) { return e.cdf(v); });
  EXPECT_FALSE(r.pass);
}

TEST(KsTest, KolmogorovSfSane) {
  EXPECT_DOUBLE_EQ(kolmogorov_sf(0.0), 1.0);
  EXPECT_NEAR(kolmogorov_sf(1.36), 0.05, 0.002);  // classic 5% point
  EXPECT_LT(kolmogorov_sf(2.0), 0.001);
}

// ---------------------------- the Appendix-A power comparison (Stephens)

TEST(PowerComparison, A2BeatsKsOnHeavyTails) {
  // Stephens' recommendation, reproduced: against a Pareto alternative
  // with exponential null, A^2 rejects at least as often as KS at the
  // same n (it weights tails more heavily).
  rng::Rng rng(8);
  const dist::Pareto alt(0.3, 1.6);
  int a2_rejects = 0, ks_rejects = 0;
  const int trials = 150;
  for (int t = 0; t < trials; ++t) {
    std::vector<double> x(40);
    for (double& v : x) v = alt.sample(rng);
    if (!ad_test_exponential(x, 0.05).pass) ++a2_rejects;
    // KS with the *estimated* mean (same information as the A^2 test).
    double mean = 0.0;
    for (double v : x) mean += v;
    mean /= static_cast<double>(x.size());
    const dist::Exponential e(mean);
    if (!ks_test(x, [&e](double v) { return e.cdf(v); }).pass) ++ks_rejects;
  }
  EXPECT_GE(a2_rejects, ks_rejects);
  EXPECT_GT(a2_rejects, trials / 4);
}

// --------------------------------------------------- fARIMA Whittle

TEST(WhittleFarima, SpectralDensityBasics) {
  // d = 0: flat spectrum 1/(2 pi).
  EXPECT_NEAR(farima_spectral_density(1.0, 0.0), 1.0 / (2.0 * M_PI), 1e-12);
  // d > 0: diverges at the origin.
  EXPECT_GT(farima_spectral_density(1e-4, 0.3),
            100.0 * farima_spectral_density(0.5, 0.3));
  EXPECT_THROW(farima_spectral_density(0.0, 0.3), std::invalid_argument);
  EXPECT_THROW(farima_spectral_density(1.0, 0.6), std::invalid_argument);
}

class WhittleFarimaSweep : public ::testing::TestWithParam<double> {};

TEST_P(WhittleFarimaSweep, RecoversD) {
  const double d = GetParam();
  rng::Rng rng(100 + static_cast<std::uint64_t>(d * 1000));
  const auto x = selfsim::generate_farima(rng, 8192, d, 1.0, 2048);
  const auto r = whittle_farima(x);
  EXPECT_NEAR(r.hurst, d + 0.5, 0.05) << "d=" << d;
}

INSTANTIATE_TEST_SUITE_P(DValues, WhittleFarimaSweep,
                         ::testing::Values(0.0, 0.1, 0.25, 0.4));

TEST(WhittleFarima, AgreesWithFgnOnFgnData) {
  // Both models should place H in the same ballpark on exact fGn.
  rng::Rng rng(9);
  const auto x = selfsim::generate_fgn(rng, 8192, 0.8);
  const auto f = whittle_fgn(x);
  const auto a = whittle_farima(x);
  EXPECT_NEAR(f.hurst, a.hurst, 0.08);
}

}  // namespace
}  // namespace wan::stats
