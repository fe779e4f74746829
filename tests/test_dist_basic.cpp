#include <gtest/gtest.h>

#include <cmath>
#include <memory>
#include <vector>

#include "src/dist/exponential.hpp"
#include "src/dist/special.hpp"
#include "src/rng/rng.hpp"
#include "src/stats/descriptive.hpp"

namespace wan::dist {
namespace {

// ------------------------------------------------------------- special

TEST(Special, NormalCdfKnownValues) {
  EXPECT_NEAR(normal_cdf(0.0), 0.5, 1e-12);
  EXPECT_NEAR(normal_cdf(1.959963985), 0.975, 1e-6);
  EXPECT_NEAR(normal_cdf(-1.959963985), 0.025, 1e-6);
  EXPECT_NEAR(normal_cdf(3.0), 0.99865, 1e-5);
}

TEST(Special, NormalQuantileInvertsCdf) {
  for (double p : {0.001, 0.01, 0.1, 0.25, 0.5, 0.75, 0.9, 0.99, 0.999}) {
    EXPECT_NEAR(normal_cdf(normal_quantile(p)), p, 1e-9) << "p=" << p;
  }
}

TEST(Special, NormalQuantileTails) {
  EXPECT_LT(normal_quantile(1e-10), -6.0);
  EXPECT_GT(normal_quantile(1.0 - 1e-10), 6.0);
  EXPECT_EQ(normal_quantile(0.0), -std::numeric_limits<double>::infinity());
  EXPECT_EQ(normal_quantile(1.0), std::numeric_limits<double>::infinity());
}

// ------------------------------------------- generic roundtrip property

struct DistCase {
  std::string name;
  std::shared_ptr<const Distribution> dist;
};

class RoundtripTest : public ::testing::TestWithParam<DistCase> {};

TEST_P(RoundtripTest, QuantileInvertsCdf) {
  const auto& d = *GetParam().dist;
  for (double p = 0.02; p < 0.999; p += 0.02) {
    const double x = d.quantile(p);
    EXPECT_NEAR(d.cdf(x), p, 1e-6) << GetParam().name << " p=" << p;
  }
}

TEST_P(RoundtripTest, CdfIsMonotoneNondecreasing) {
  const auto& d = *GetParam().dist;
  double prev = -1e-12;
  for (double p = 0.05; p <= 0.95; p += 0.05) {
    const double f = d.cdf(d.quantile(p));
    EXPECT_GE(f, prev - 1e-12) << GetParam().name;
    prev = f;
  }
}

TEST_P(RoundtripTest, SampleMeanMatchesAnalyticWhenFinite) {
  const auto& d = *GetParam().dist;
  if (!std::isfinite(d.mean())) GTEST_SKIP() << "infinite mean";
  rng::Rng rng(99);
  std::vector<double> xs(20000);
  for (double& x : xs) x = d.sample(rng);
  const double m = stats::mean(xs);
  const double sd_of_mean =
      std::isfinite(d.variance())
          ? std::sqrt(d.variance() / static_cast<double>(xs.size()))
          : d.mean();
  EXPECT_NEAR(m, d.mean(), std::max(6.0 * sd_of_mean, 0.02 * d.mean()))
      << GetParam().name;
}

TEST_P(RoundtripTest, NameIsNonEmpty) {
  EXPECT_FALSE(GetParam().dist->name().empty());
}

INSTANTIATE_TEST_SUITE_P(
    Laws, RoundtripTest,
    ::testing::Values(
        DistCase{"exp", std::make_shared<Exponential>(1.1)},
        DistCase{"exp_small", std::make_shared<Exponential>(0.01)}),
    [](const auto& info) { return info.param.name; });

// ---------------------------------------------------------- exponential

TEST(Exponential, MemorylessCmex) {
  Exponential e(2.5);
  EXPECT_DOUBLE_EQ(e.cmex(0.0), 2.5);
  EXPECT_DOUBLE_EQ(e.cmex(10.0), 2.5);
}

TEST(Exponential, FromRate) {
  const auto e = Exponential::from_rate(4.0);
  EXPECT_DOUBLE_EQ(e.mean(), 0.25);
  EXPECT_DOUBLE_EQ(e.rate(), 4.0);
}

TEST(Exponential, RejectsBadMean) {
  EXPECT_THROW(Exponential(0.0), std::invalid_argument);
  EXPECT_THROW(Exponential(-1.0), std::invalid_argument);
}

TEST(Exponential, VarianceEqualsMeanSquared) {
  Exponential e(3.0);
  EXPECT_DOUBLE_EQ(e.variance(), 9.0);
}

// --------------------------------------------------------------- normal

TEST(Normal, StandardNormalSampleMoments) {
  rng::Rng rng(5);
  std::vector<double> xs(50000);
  for (double& x : xs) x = standard_normal(rng);
  EXPECT_NEAR(stats::mean(xs), 0.0, 0.02);
  EXPECT_NEAR(stats::variance(xs), 1.0, 0.03);
}

// ---------------------------------------------- default-implementation

TEST(Distribution, DefaultQuantileBisectsCdf) {
  // A distribution that only provides cdf() exercises the base-class
  // bisection.
  struct OnlyCdf final : Distribution {
    double cdf(double x) const override {
      if (x <= 0.0) return 0.0;
      return 1.0 - std::exp(-x);  // Exponential(1)
    }
    double mean() const override { return 1.0; }
    double variance() const override { return 1.0; }
    std::string name() const override { return "only-cdf"; }
  };
  OnlyCdf d;
  EXPECT_NEAR(d.quantile(0.5), std::log(2.0), 1e-9);
  EXPECT_NEAR(d.quantile(0.99), -std::log(0.01), 1e-6);
}

TEST(Distribution, DefaultCmexMatchesExponential) {
  struct OnlyCdf final : Distribution {
    double cdf(double x) const override {
      return x <= 0.0 ? 0.0 : 1.0 - std::exp(-x / 2.0);
    }
    double mean() const override { return 2.0; }
    double variance() const override { return 4.0; }
    std::string name() const override { return "only-cdf"; }
  };
  OnlyCdf d;
  EXPECT_NEAR(d.cmex(1.0), 2.0, 0.02);
  EXPECT_NEAR(d.cmex(5.0), 2.0, 0.02);
}

}  // namespace
}  // namespace wan::dist
