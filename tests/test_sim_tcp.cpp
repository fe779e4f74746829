#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>

#include "src/sim/tcp.hpp"
#include "src/stats/descriptive.hpp"

namespace wan::sim {
namespace {

TEST(TcpTransfer, CompletesAndConserves) {
  TcpConfig cfg;
  const auto t = simulate_tcp_transfer(2000, cfg);
  EXPECT_EQ(t.packets_delivered, 2000u);
  EXPECT_EQ(t.departure_times.size(), 2000u);
  EXPECT_GT(t.completion_time, 0.0);
  for (std::size_t i = 1; i < t.departure_times.size(); ++i)
    EXPECT_GE(t.departure_times[i], t.departure_times[i - 1]);
}

TEST(TcpTransfer, ThroughputBoundedByBottleneck) {
  TcpConfig cfg;
  cfg.bottleneck_rate = 100.0;
  const auto t = simulate_tcp_transfer(5000, cfg);
  EXPECT_LE(t.mean_throughput, 100.0 * 1.01);
  // A long transfer should also *achieve* a large share of the capacity.
  EXPECT_GT(t.mean_throughput, 60.0);
}

TEST(TcpTransfer, SlowStartDoublesInitially) {
  TcpConfig cfg;
  cfg.initial_ssthresh = 1e9;  // never leave slow start artificially
  cfg.buffer_packets = 1000000;
  cfg.bottleneck_rate = 1e9;
  const auto t = simulate_tcp_transfer(100000, cfg);
  ASSERT_GE(t.cwnd_by_round.size(), 5u);
  EXPECT_DOUBLE_EQ(t.cwnd_by_round[0], 1.0);
  EXPECT_DOUBLE_EQ(t.cwnd_by_round[1], 2.0);
  EXPECT_DOUBLE_EQ(t.cwnd_by_round[2], 4.0);
  EXPECT_DOUBLE_EQ(t.cwnd_by_round[3], 8.0);
}

TEST(TcpTransfer, SmallBufferForcesAimdOscillation) {
  // The "long-term oscillations" Section VII attributes to congestion
  // control: with a small buffer the window saws between halving and
  // linear growth.
  TcpConfig cfg;
  cfg.bottleneck_rate = 50.0;
  cfg.buffer_packets = 5;
  const auto t = simulate_tcp_transfer(20000, cfg);
  ASSERT_GT(t.cwnd_by_round.size(), 50u);
  EXPECT_GT(t.packets_dropped, 0u);
  // After warmup, the window should repeatedly rise and fall.
  double lo = 1e9, hi = 0.0;
  for (std::size_t i = t.cwnd_by_round.size() / 2;
       i < t.cwnd_by_round.size(); ++i) {
    lo = std::min(lo, t.cwnd_by_round[i]);
    hi = std::max(hi, t.cwnd_by_round[i]);
  }
  EXPECT_GT(hi, 1.5 * lo);
}

TEST(TcpTransfer, LargerBufferFewerDrops) {
  TcpConfig small;
  small.buffer_packets = 3;
  TcpConfig large;
  large.buffer_packets = 200;
  const auto ts = simulate_tcp_transfer(20000, small);
  const auto tl = simulate_tcp_transfer(20000, large);
  EXPECT_LT(tl.packets_dropped, ts.packets_dropped);
}

TEST(TcpTransfer, EmptyTransferTrivial) {
  const auto t = simulate_tcp_transfer(0);
  EXPECT_EQ(t.packets_delivered, 0u);
  EXPECT_TRUE(t.departure_times.empty());
}

TEST(TcpTransfer, QueueBoundedByBuffer) {
  TcpConfig cfg;
  cfg.buffer_packets = 10;
  const auto t = simulate_tcp_transfer(10000, cfg);
  for (double q : t.queue_by_round) EXPECT_LE(q, 10.0 + 1e-9);
}

}  // namespace
}  // namespace wan::sim
