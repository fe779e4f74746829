#include "src/sim/fifo.hpp"

#include <algorithm>
#include <cmath>
#include <deque>
#include <stdexcept>

namespace wan::sim {

QueueStats simulate_fifo(std::span<const double> arrivals,
                         const std::function<double(std::size_t)>& service,
                         std::size_t buffer_packets) {
  QueueStats stats;
  stats.arrived = arrivals.size();
  if (arrivals.empty()) return stats;

  // Single-server FIFO evolves deterministically between arrivals, so a
  // sweep over arrivals suffices; the "event engine" is implicit.
  double server_free_at = 0.0;   // when the in-service packet departs
  std::deque<double> queue;      // service demands of waiting packets
  double queued_work = 0.0;      // running sum of `queue`
  std::vector<double> delays;
  delays.reserve(arrivals.size());

  double busy_time = 0.0;
  double queue_area = 0.0;  // integral of queue length over time
  double last_t = arrivals.front();

  const auto advance_to = [&](double t) {
    // Serve completions occurring before t.
    while (server_free_at <= t && !queue.empty()) {
      queue_area += static_cast<double>(queue.size()) *
                    (server_free_at - last_t);
      last_t = server_free_at;
      const double s = queue.front();
      queue.pop_front();
      queued_work -= s;
      busy_time += s;
      server_free_at += s;
    }
    queue_area += static_cast<double>(queue.size()) * (t - last_t);
    last_t = t;
  };

  for (std::size_t i = 0; i < arrivals.size(); ++i) {
    const double t = arrivals[i];
    if (i > 0 && t < arrivals[i - 1])
      throw std::invalid_argument("simulate_fifo: arrivals not sorted");
    advance_to(t);

    const double s = service(i);
    if (!(s >= 0.0))
      throw std::invalid_argument("simulate_fifo: negative service time");

    if (server_free_at <= t) {
      // Server idle: go straight into service.
      delays.push_back(s);
      server_free_at = t + s;
      busy_time += s;
      ++stats.served;
    } else if (queue.size() < buffer_packets) {
      // Wait = time until server frees + queued demands ahead of us.
      const double wait = (server_free_at - t) + queued_work;
      delays.push_back(wait + s);
      queue.push_back(s);
      queued_work += s;
      ++stats.served;
      stats.max_queue_len =
          std::max(stats.max_queue_len, static_cast<double>(queue.size()));
    } else {
      ++stats.dropped;
    }
  }
  // Drain.
  while (!queue.empty()) {
    queue_area +=
        static_cast<double>(queue.size()) * (server_free_at - last_t);
    last_t = server_free_at;
    const double s = queue.front();
    queue.pop_front();
    queued_work -= s;
    busy_time += s;
    server_free_at += s;
  }

  const double horizon = server_free_at - arrivals.front();
  stats.mean_delay = stats::mean(delays);
  stats.max_delay = delays.empty() ? 0.0 : stats::max_value(delays);
  stats.p99_delay = delays.empty() ? 0.0 : stats::quantile(delays, 0.99);
  stats.mean_queue_len = horizon > 0.0 ? queue_area / horizon : 0.0;
  stats.utilization = horizon > 0.0 ? busy_time / horizon : 0.0;
  return stats;
}

QueueStats simulate_fifo_const(std::span<const double> arrivals,
                               double service_time,
                               std::size_t buffer_packets) {
  return simulate_fifo(
      arrivals, [service_time](std::size_t) { return service_time; },
      buffer_packets);
}

}  // namespace wan::sim
