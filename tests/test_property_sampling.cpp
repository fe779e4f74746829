// Cross-cutting property tests: every distribution's sampler must agree
// with its own CDF (KS at generous n), quantile must be monotone, and
// the arrival-process generators must produce sorted in-window times for
// arbitrary parameter draws. These catch transcription errors between
// cdf/quantile/sample that unit tests with fixed constants can miss.
#include <gtest/gtest.h>

#include <cmath>
#include <memory>
#include <vector>

#include "src/dist/exponential.hpp"
#include "src/dist/lognormal.hpp"
#include "src/dist/pareto.hpp"
#include "src/dist/tcplib.hpp"
#include "src/rng/rng.hpp"
#include "src/stats/ecdf.hpp"
#include "src/synth/arrivals.hpp"
#include "tests/ks_oracle.hpp"

namespace wan {
namespace {

struct LawCase {
  std::string name;
  std::shared_ptr<const dist::Distribution> law;
};

class SamplerLawAgreement : public ::testing::TestWithParam<LawCase> {};

TEST_P(SamplerLawAgreement, KsAgainstOwnCdf) {
  const auto& d = *GetParam().law;
  rng::Rng rng(rng::hash_label(GetParam().name));
  std::vector<double> xs(8000);
  for (double& x : xs) x = d.sample(rng);
  const auto r = testing_oracle::ks_test(
      xs, [&d](double v) { return d.cdf(v); }, 0.01);
  EXPECT_TRUE(r.pass) << GetParam().name << " D=" << r.statistic
                      << " p=" << r.p_value;
}

TEST_P(SamplerLawAgreement, QuantileMonotone) {
  const auto& d = *GetParam().law;
  double prev = -std::numeric_limits<double>::infinity();
  for (double p = 0.01; p < 1.0; p += 0.01) {
    const double q = d.quantile(p);
    EXPECT_GE(q, prev) << GetParam().name << " p=" << p;
    prev = q;
  }
}

TEST_P(SamplerLawAgreement, TailComplementsCdf) {
  const auto& d = *GetParam().law;
  for (double p : {0.1, 0.5, 0.9}) {
    const double x = d.quantile(p);
    EXPECT_NEAR(d.cdf(x) + d.tail(x), 1.0, 1e-9) << GetParam().name;
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllLaws, SamplerLawAgreement,
    ::testing::Values(
        LawCase{"exp", std::make_shared<dist::Exponential>(1.3)},
        LawCase{"pareto09", std::make_shared<dist::Pareto>(1.0, 0.9)},
        LawCase{"pareto21", std::make_shared<dist::Pareto>(2.0, 2.1)},
        LawCase{"tpareto",
                std::make_shared<dist::TruncatedPareto>(1.0, 1.06, 1e6)},
        LawCase{"lognormal", std::make_shared<dist::LogNormal>(0.4, 1.2)},
        LawCase{"tcplib",
                std::make_shared<dist::TcplibTelnetInterarrival>()}),
    [](const auto& info) { return info.param.name; });

// --------------------------------------------- generator sweep property

class ArrivalSweep : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(ArrivalSweep, RenewalArrivalsSortedInWindowForRandomLaws) {
  rng::Rng rng(GetParam());
  // Random Pareto gap law each repetition.
  const double a = 0.01 + rng.uniform01();
  const double beta = 0.6 + 1.5 * rng.uniform01();
  const dist::Pareto gaps(a, beta);
  const double t0 = rng.uniform(0.0, 100.0);
  const double t1 = t0 + rng.uniform(10.0, 1000.0);
  const auto t = synth::renewal_arrivals(rng, gaps, t0, t1, 50000);
  double prev = t0;
  for (double v : t) {
    EXPECT_GE(v, prev);
    EXPECT_LT(v, t1);
    prev = v;
  }
}

TEST_P(ArrivalSweep, HourlyPoissonCountWithinPoissonBand) {
  rng::Rng rng(GetParam() * 7919);
  const double per_day = 500.0 + rng.uniform(0.0, 20000.0);
  const auto t = synth::poisson_arrivals_hourly(
      rng, synth::DiurnalProfile::telnet(), per_day, 0.0, 86400.0);
  // Total daily count ~ Poisson(per_day): 6-sigma band.
  EXPECT_NEAR(static_cast<double>(t.size()), per_day,
              6.0 * std::sqrt(per_day) + 1.0);
}

INSTANTIATE_TEST_SUITE_P(Seeds, ArrivalSweep,
                         ::testing::Values(1, 2, 3, 4, 5, 6, 7, 8));

}  // namespace
}  // namespace wan
