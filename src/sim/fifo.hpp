// FIFO queueing of packet arrival streams — the instrument behind the
// paper's Section IV claim that exponential interarrivals "significantly
// underestimate performance measures such as average packet delay".
//
// A finite-buffer single-server queue that reports delays, drops and
// queue-length dynamics (the tests check it against Lindley's recursion
// on an infinite buffer).
#pragma once

#include <cstdint>
#include <functional>
#include <span>
#include <vector>

#include "src/stats/descriptive.hpp"

namespace wan::sim {

/// Summary of a queueing run.
struct QueueStats {
  std::size_t arrived = 0;
  std::size_t served = 0;
  std::size_t dropped = 0;
  double mean_delay = 0.0;   ///< wait + service of served packets
  double max_delay = 0.0;
  double p99_delay = 0.0;
  double mean_queue_len = 0.0;  ///< time-averaged number waiting
  double max_queue_len = 0.0;
  double utilization = 0.0;     ///< busy fraction of the server
};

/// Event-driven FIFO with a buffer holding at most `buffer_packets`
/// *waiting* packets (the one in service not counted); arrivals finding
/// the buffer full are dropped. service(i) gives packet i's service time.
QueueStats simulate_fifo(std::span<const double> arrivals,
                         const std::function<double(std::size_t)>& service,
                         std::size_t buffer_packets = SIZE_MAX);

/// Convenience: constant service time (fixed-size packets over a fixed
/// bandwidth).
QueueStats simulate_fifo_const(std::span<const double> arrivals,
                               double service_time,
                               std::size_t buffer_packets = SIZE_MAX);

}  // namespace wan::sim
