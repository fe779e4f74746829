#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <span>
#include <stdexcept>
#include <vector>

#include "src/dist/exponential.hpp"
#include "src/rng/rng.hpp"
#include "src/sim/fifo.hpp"
#include "src/stats/descriptive.hpp"

namespace wan::sim {
namespace {

// The oracle simulate_fifo is checked against: waiting times (time in
// queue, excluding own service) for a FIFO single-server queue fed by
// sorted `arrivals`, where packet i needs `services[i]` seconds of
// service. Lindley's recursion:
//   W_0 = 0;  W_{i+1} = max(0, W_i + S_i - (A_{i+1} - A_i)).
std::vector<double> fifo_wait_times(std::span<const double> arrivals,
                                    std::span<const double> services) {
  if (arrivals.size() != services.size())
    throw std::invalid_argument("fifo_wait_times: size mismatch");
  std::vector<double> waits(arrivals.size(), 0.0);
  for (std::size_t i = 1; i < arrivals.size(); ++i) {
    const double gap = arrivals[i] - arrivals[i - 1];
    if (gap < 0.0)
      throw std::invalid_argument("fifo_wait_times: arrivals not sorted");
    waits[i] = std::max(0.0, waits[i - 1] + services[i - 1] - gap);
  }
  return waits;
}

// ----------------------------------------------------------- Lindley FIFO

TEST(FifoWaitTimes, DeterministicUnderloadedHasNoWait) {
  const std::vector<double> arrivals = {0.0, 1.0, 2.0, 3.0};
  const std::vector<double> services = {0.5, 0.5, 0.5, 0.5};
  const auto w = fifo_wait_times(arrivals, services);
  for (double v : w) EXPECT_DOUBLE_EQ(v, 0.0);
}

TEST(FifoWaitTimes, BackToBackQueueing) {
  const std::vector<double> arrivals = {0.0, 0.1, 0.2};
  const std::vector<double> services = {1.0, 1.0, 1.0};
  const auto w = fifo_wait_times(arrivals, services);
  EXPECT_DOUBLE_EQ(w[0], 0.0);
  EXPECT_DOUBLE_EQ(w[1], 0.9);
  EXPECT_DOUBLE_EQ(w[2], 1.8);
}

TEST(FifoWaitTimes, MM1MeanWaitMatchesTheory) {
  // M/M/1: Wq = rho / (mu - lambda) with rho = lambda/mu.
  rng::Rng rng(1);
  const double lambda = 0.7, mu = 1.0;
  std::vector<double> arrivals, services;
  double t = 0.0;
  const dist::Exponential gap(1.0 / lambda), svc(1.0 / mu);
  for (int i = 0; i < 300000; ++i) {
    t += gap.sample(rng);
    arrivals.push_back(t);
    services.push_back(svc.sample(rng));
  }
  const auto w = fifo_wait_times(arrivals, services);
  const double expect = (lambda / mu) / (mu - lambda);  // = 2.333
  EXPECT_NEAR(stats::mean(w), expect, 0.15);
}

TEST(FifoWaitTimes, Validation) {
  EXPECT_THROW(fifo_wait_times(std::vector<double>{1.0},
                               std::vector<double>{1.0, 2.0}),
               std::invalid_argument);
  EXPECT_THROW(fifo_wait_times(std::vector<double>{2.0, 1.0},
                               std::vector<double>{1.0, 1.0}),
               std::invalid_argument);
}

// ------------------------------------------------------- event-driven FIFO

TEST(SimulateFifo, AgreesWithLindleyOnInfiniteBuffer) {
  rng::Rng rng(2);
  std::vector<double> arrivals, services;
  double t = 0.0;
  const dist::Exponential gap(1.2), svc(1.0);
  for (int i = 0; i < 5000; ++i) {
    t += gap.sample(rng);
    arrivals.push_back(t);
    services.push_back(svc.sample(rng));
  }
  const auto w = fifo_wait_times(arrivals, services);
  std::vector<double> delays(w.size());
  for (std::size_t i = 0; i < w.size(); ++i) delays[i] = w[i] + services[i];

  const auto stats_out = simulate_fifo(
      arrivals, [&services](std::size_t i) { return services[i]; });
  EXPECT_EQ(stats_out.served, arrivals.size());
  EXPECT_EQ(stats_out.dropped, 0u);
  EXPECT_NEAR(stats_out.mean_delay, stats::mean(delays), 1e-9);
}

TEST(SimulateFifo, UtilizationMatchesLoad) {
  rng::Rng rng(3);
  std::vector<double> arrivals;
  double t = 0.0;
  const dist::Exponential gap(2.0);
  for (int i = 0; i < 20000; ++i) {
    t += gap.sample(rng);
    arrivals.push_back(t);
  }
  const auto s = simulate_fifo_const(arrivals, 1.0);
  EXPECT_NEAR(s.utilization, 0.5, 0.02);
}

TEST(SimulateFifo, FiniteBufferDropsUnderOverload) {
  // Deterministic overload: arrivals at 10/s, service 0.5 s, buffer 3.
  std::vector<double> arrivals;
  for (int i = 0; i < 200; ++i) arrivals.push_back(i * 0.1);
  const auto s = simulate_fifo_const(arrivals, 0.5, 3);
  EXPECT_GT(s.dropped, 0u);
  EXPECT_EQ(s.served + s.dropped, 200u);
  EXPECT_LE(s.max_queue_len, 3.0);
}

TEST(SimulateFifo, ZeroBufferIsPureLoss) {
  std::vector<double> arrivals = {0.0, 0.1, 0.2, 5.0};
  const auto s = simulate_fifo_const(arrivals, 1.0, 0);
  // First packet enters service, next two dropped, fourth served.
  EXPECT_EQ(s.served, 2u);
  EXPECT_EQ(s.dropped, 2u);
}

TEST(SimulateFifo, MeanQueueLengthLittlesLaw) {
  // Little's law on the waiting room: Lq = lambda_eff * Wq.
  rng::Rng rng(4);
  std::vector<double> arrivals, services;
  double t = 0.0;
  const dist::Exponential gap(1.25), svc(1.0);
  for (int i = 0; i < 100000; ++i) {
    t += gap.sample(rng);
    arrivals.push_back(t);
    services.push_back(svc.sample(rng));
  }
  const auto s = simulate_fifo(
      arrivals, [&services](std::size_t i) { return services[i]; });
  const auto w = fifo_wait_times(arrivals, services);
  const double lambda = 1.0 / 1.25;
  EXPECT_NEAR(s.mean_queue_len, lambda * stats::mean(w),
              0.1 * s.mean_queue_len + 0.05);
}

TEST(SimulateFifo, EmptyInput) {
  const auto s = simulate_fifo_const({}, 1.0);
  EXPECT_EQ(s.arrived, 0u);
  EXPECT_EQ(s.served, 0u);
}

TEST(SimulateFifo, RejectsNegativeServiceAndUnsorted) {
  const std::vector<double> a = {0.0, 1.0};
  EXPECT_THROW(simulate_fifo(a, [](std::size_t) { return -1.0; }),
               std::invalid_argument);
  const std::vector<double> bad = {1.0, 0.5};
  EXPECT_THROW(simulate_fifo_const(bad, 0.1), std::invalid_argument);
}

}  // namespace
}  // namespace wan::sim
