#include <gtest/gtest.h>

#include <cmath>
#include <set>
#include <vector>

#include "src/rng/rng.hpp"
#include "src/rng/splitmix64.hpp"
#include "src/rng/xoshiro256.hpp"

namespace wan::rng {
namespace {

TEST(SplitMix64, IsDeterministicAndAdvances) {
  SplitMix64 a(42), b(42);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next(), b.next());
  SplitMix64 c(43);
  EXPECT_NE(SplitMix64(42).next(), c.next());
}

TEST(SplitMix64, ZeroSeedIsFine) {
  SplitMix64 z(0);
  const auto v1 = z.next();
  const auto v2 = z.next();
  EXPECT_NE(v1, 0u);
  EXPECT_NE(v1, v2);
}

TEST(Xoshiro256, SeedExpansionAvoidsDegenerateState) {
  Xoshiro256 g(0);
  // All-zero state would return 0 forever; SplitMix seeding prevents it.
  std::set<std::uint64_t> seen;
  for (int i = 0; i < 64; ++i) seen.insert(g.next());
  EXPECT_GT(seen.size(), 60u);
}

TEST(Rng, Uniform01InHalfOpenUnitInterval) {
  Rng r(1);
  for (int i = 0; i < 10000; ++i) {
    const double u = r.uniform01();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
  }
}

TEST(Rng, Uniform01OpenBelowNeverZero) {
  Rng r(2);
  for (int i = 0; i < 10000; ++i) {
    const double u = r.uniform01_open_below();
    EXPECT_GT(u, 0.0);
    EXPECT_LE(u, 1.0);
    EXPECT_TRUE(std::isfinite(-std::log(u)));
  }
}

TEST(Rng, UniformMeanAndRange) {
  Rng r(3);
  double sum = 0.0;
  const int n = 100000;
  for (int i = 0; i < n; ++i) {
    const double u = r.uniform(-2.0, 6.0);
    EXPECT_GE(u, -2.0);
    EXPECT_LT(u, 6.0);
    sum += u;
  }
  EXPECT_NEAR(sum / n, 2.0, 0.05);
}

TEST(Rng, UniformIntIsUnbiasedAcrossBuckets) {
  Rng r(4);
  const std::uint64_t k = 7;
  std::vector<int> counts(k, 0);
  const int n = 140000;
  for (int i = 0; i < n; ++i) ++counts[r.uniform_int(k)];
  for (std::uint64_t b = 0; b < k; ++b) {
    EXPECT_NEAR(static_cast<double>(counts[b]), n / 7.0, 5.0 * std::sqrt(n / 7.0));
  }
}

TEST(Rng, UniformIntUpperBoundExclusive) {
  Rng r(5);
  for (int i = 0; i < 1000; ++i) EXPECT_LT(r.uniform_int(3), 3u);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(r.uniform_int(1), 0u);
}

TEST(Rng, BernoulliFrequencyMatchesP) {
  Rng r(6);
  int hits = 0;
  const int n = 100000;
  for (int i = 0; i < n; ++i) hits += r.bernoulli(0.3) ? 1 : 0;
  EXPECT_NEAR(hits / static_cast<double>(n), 0.3, 0.01);
}

TEST(Rng, ChildIsDeterministicGivenSameLabelAndState) {
  Rng a(21), b(21);
  Rng ca = a.child("telnet");
  Rng cb = b.child("telnet");
  EXPECT_EQ(ca.next_u64(), cb.next_u64());

  Rng c(21);
  Rng cc = c.child("ftp");
  Rng d(21);
  Rng cd = d.child("telnet");
  EXPECT_NE(cc.next_u64(), cd.next_u64());
}

TEST(Rng, HashLabelDistinguishesStrings) {
  EXPECT_NE(hash_label("telnet"), hash_label("ftp"));
  EXPECT_EQ(hash_label("x"), hash_label("x"));
  EXPECT_NE(hash_label(""), hash_label("a"));
}

}  // namespace
}  // namespace wan::rng
