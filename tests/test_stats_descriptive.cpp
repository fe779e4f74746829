#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "src/stats/counting.hpp"
#include "src/stats/descriptive.hpp"
#include "src/stats/ecdf.hpp"
#include "src/stats/regression.hpp"

namespace wan::stats {
namespace {

// ----------------------------------------------------------- descriptive

TEST(Descriptive, MeanVarianceStddev) {
  const std::vector<double> x = {1.0, 2.0, 3.0, 4.0, 5.0};
  EXPECT_DOUBLE_EQ(mean(x), 3.0);
  EXPECT_DOUBLE_EQ(variance(x), 2.5);
  EXPECT_DOUBLE_EQ(stddev(x), std::sqrt(2.5));
}

TEST(Descriptive, EmptyAndSingletonEdges) {
  EXPECT_DOUBLE_EQ(mean({}), 0.0);
  EXPECT_DOUBLE_EQ(variance({}), 0.0);
  const std::vector<double> one = {7.0};
  EXPECT_DOUBLE_EQ(mean(one), 7.0);
  EXPECT_DOUBLE_EQ(variance(one), 0.0);
}

TEST(Descriptive, GeometricMean) {
  const std::vector<double> x = {1.0, 10.0, 100.0};
  EXPECT_NEAR(geometric_mean(x), 10.0, 1e-9);
  EXPECT_THROW(geometric_mean(std::vector<double>{1.0, 0.0}),
               std::invalid_argument);
}

TEST(Descriptive, QuantilesType7) {
  const std::vector<double> x = {3.0, 1.0, 2.0, 4.0};
  EXPECT_DOUBLE_EQ(quantile(x, 0.0), 1.0);
  EXPECT_DOUBLE_EQ(quantile(x, 1.0), 4.0);
  EXPECT_DOUBLE_EQ(quantile(x, 0.5), 2.5);
  EXPECT_DOUBLE_EQ(median(x), 2.5);
  EXPECT_THROW(quantile(x, 1.5), std::invalid_argument);
}

TEST(Descriptive, SummaryAgrees) {
  std::vector<double> x;
  for (int i = 1; i <= 101; ++i) x.push_back(static_cast<double>(i));
  const Summary s = summarize(x);
  EXPECT_EQ(s.n, 101u);
  EXPECT_DOUBLE_EQ(s.median, 51.0);
  EXPECT_DOUBLE_EQ(s.min, 1.0);
  EXPECT_DOUBLE_EQ(s.max, 101.0);
  EXPECT_DOUBLE_EQ(s.p25, 26.0);
  EXPECT_DOUBLE_EQ(s.p75, 76.0);
}

TEST(Descriptive, Interarrivals) {
  const std::vector<double> t = {1.0, 1.5, 4.0};
  const auto gaps = interarrivals(t);
  ASSERT_EQ(gaps.size(), 2u);
  EXPECT_DOUBLE_EQ(gaps[0], 0.5);
  EXPECT_DOUBLE_EQ(gaps[1], 2.5);
  EXPECT_THROW(interarrivals(std::vector<double>{2.0, 1.0}),
               std::invalid_argument);
  EXPECT_TRUE(interarrivals(std::vector<double>{1.0}).empty());
}

// -------------------------------------------------------------- counting

TEST(Counting, BinCountsBasics) {
  const std::vector<double> t = {0.05, 0.15, 0.16, 0.95, 2.0};
  const auto c = bin_counts(t, 0.0, 1.0, 0.1);
  ASSERT_EQ(c.size(), 10u);
  EXPECT_DOUBLE_EQ(c[0], 1.0);
  EXPECT_DOUBLE_EQ(c[1], 2.0);
  EXPECT_DOUBLE_EQ(c[9], 1.0);
  double total = 0.0;
  for (double v : c) total += v;
  EXPECT_DOUBLE_EQ(total, 4.0);  // the 2.0 event is out of window
}

TEST(Counting, BinCountsRejectsBadArgs) {
  const std::vector<double> t = {0.5};
  EXPECT_THROW(bin_counts(t, 0.0, 1.0, 0.0), std::invalid_argument);
  EXPECT_THROW(bin_counts(t, 1.0, 1.0, 0.1), std::invalid_argument);
}

TEST(Counting, AggregateMeanAndSum) {
  const std::vector<double> x = {1, 2, 3, 4, 5, 6, 7};
  const auto m = aggregate_mean(x, 3);
  ASSERT_EQ(m.size(), 2u);  // trailing partial block dropped
  EXPECT_DOUBLE_EQ(m[0], 2.0);
  EXPECT_DOUBLE_EQ(m[1], 5.0);
  const auto s = aggregate_sum(x, 2);
  ASSERT_EQ(s.size(), 3u);
  EXPECT_DOUBLE_EQ(s[0], 3.0);
  EXPECT_THROW(aggregate_mean(x, 0), std::invalid_argument);
}

TEST(Counting, BurstLullStructure) {
  const std::vector<double> c = {0, 0, 1, 2, 0, 3, 3, 3, 0, 0, 0, 1};
  const auto bl = burst_lull_structure(c);
  ASSERT_EQ(bl.burst_lengths.size(), 3u);
  EXPECT_EQ(bl.burst_lengths[0], 2u);
  EXPECT_EQ(bl.burst_lengths[1], 3u);
  EXPECT_EQ(bl.burst_lengths[2], 1u);
  ASSERT_EQ(bl.lull_lengths.size(), 3u);
  EXPECT_EQ(bl.lull_lengths[0], 2u);
  EXPECT_EQ(bl.lull_lengths[1], 1u);
  EXPECT_EQ(bl.lull_lengths[2], 3u);
  EXPECT_DOUBLE_EQ(bl.mean_burst_bins(), 2.0);
  EXPECT_DOUBLE_EQ(bl.mean_lull_bins(), 2.0);
}

// ------------------------------------------------------------------ ecdf

TEST(Ecdf, Evaluation) {
  const std::vector<double> x = {3.0, 1.0, 2.0, 2.0};
  Ecdf e(x);
  EXPECT_DOUBLE_EQ(e(0.5), 0.0);
  EXPECT_DOUBLE_EQ(e(1.0), 0.25);
  EXPECT_DOUBLE_EQ(e(2.0), 0.75);
  EXPECT_DOUBLE_EQ(e(10.0), 1.0);
}

// ------------------------------------------------------------ regression

TEST(Regression, ExactLineRecovered) {
  const std::vector<double> x = {1.0, 2.0, 3.0, 4.0};
  std::vector<double> y;
  for (double v : x) y.push_back(2.0 - 3.0 * v);
  const auto f = linear_fit(x, y);
  EXPECT_NEAR(f.slope, -3.0, 1e-12);
  EXPECT_NEAR(f.intercept, 2.0, 1e-12);
  EXPECT_NEAR(f.r2, 1.0, 1e-12);
}

TEST(Regression, NoisyFitHasReasonableErrorBars) {
  std::vector<double> x, y;
  for (int i = 0; i < 100; ++i) {
    x.push_back(i);
    y.push_back(5.0 + 0.5 * i + ((i % 3) - 1.0) * 0.2);
  }
  const auto f = linear_fit(x, y);
  EXPECT_NEAR(f.slope, 0.5, 0.01);
  EXPECT_GT(f.slope_stderr, 0.0);
  EXPECT_GT(f.r2, 0.99);
}

TEST(Regression, RejectsDegenerateInput) {
  EXPECT_THROW(
      linear_fit(std::vector<double>{1.0}, std::vector<double>{1.0}),
      std::invalid_argument);
  EXPECT_THROW(linear_fit(std::vector<double>{1.0, 1.0},
                          std::vector<double>{1.0, 2.0}),
               std::invalid_argument);
}

}  // namespace
}  // namespace wan::stats
