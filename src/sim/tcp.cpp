#include "src/sim/tcp.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace wan::sim {

TcpTrace simulate_tcp_transfer(std::size_t n_packets,
                               const TcpConfig& config) {
  TcpTrace trace;
  if (n_packets == 0) return trace;

  const double per_round_capacity = config.bottleneck_rate * config.rtt;
  if (!(per_round_capacity > 0.0))
    throw std::invalid_argument("simulate_tcp_transfer: zero capacity");

  double cwnd = 1.0;
  double ssthresh = config.initial_ssthresh;
  double queue = 0.0;   // packets standing in the bottleneck buffer
  double credit = 0.0;  // fractional service carried between rounds
                        // (capacities below 1 pkt/round must still drain)
  std::size_t remaining = n_packets;
  double t = 0.0;

  for (std::size_t round = 0;
       round < config.max_rounds && (remaining > 0 || queue > 0.0);
       ++round) {
    trace.cwnd_by_round.push_back(cwnd);

    // Self-clocking: the window covers packets in flight, which includes
    // those parked in the bottleneck buffer. Only the shortfall is new.
    const double new_pkts = std::min(
        static_cast<double>(remaining), std::max(0.0, cwnd - queue));
    trace.packets_sent += static_cast<std::size_t>(new_pkts);
    remaining -= static_cast<std::size_t>(new_pkts);

    const double offered = queue + new_pkts;
    const double drained = std::min(offered, per_round_capacity);
    double backlog = offered - drained;
    double dropped = 0.0;
    if (backlog > static_cast<double>(config.buffer_packets)) {
      dropped = backlog - static_cast<double>(config.buffer_packets);
      backlog = static_cast<double>(config.buffer_packets);
      // Dropped packets must be retransmitted eventually.
      remaining += static_cast<std::size_t>(std::ceil(dropped));
    }
    queue = backlog;
    trace.queue_by_round.push_back(queue);
    trace.packets_dropped += static_cast<std::size_t>(std::ceil(dropped));

    // Emit departures as an ack-clocked *train* at the head of the round
    // (Jain & Routhier's packet trains — the paper's [25]): a window's
    // packets travel clustered, followed by a lull until the next window
    // of acks. Retransmission accounting rounds drops up, so clamp
    // deliveries at the transfer size.
    credit += drained;
    const auto whole = static_cast<std::size_t>(credit);
    const auto n_out =
        std::min<std::size_t>(whole, n_packets - trace.packets_delivered);
    credit -= static_cast<double>(whole);
    const double train_spacing =
        config.rtt / (3.0 * static_cast<double>(std::max<std::size_t>(
                                n_out, 1)));
    for (std::size_t i = 0; i < n_out; ++i) {
      trace.departure_times.push_back(t + static_cast<double>(i + 1) *
                                              train_spacing);
      ++trace.packets_delivered;
    }

    // Window update.
    if (dropped > 0.0) {
      ssthresh = std::max(2.0, cwnd / 2.0);
      cwnd = ssthresh;  // fast recovery, not a timeout collapse
    } else if (cwnd < ssthresh) {
      cwnd = std::min(cwnd * 2.0, ssthresh);  // slow start
    } else {
      cwnd += 1.0;  // congestion avoidance
    }
    t += config.rtt;
    if (trace.packets_delivered >= n_packets) break;
  }

  trace.completion_time = t;
  trace.mean_throughput =
      t > 0.0 ? static_cast<double>(trace.packets_delivered) / t : 0.0;
  return trace;
}

}  // namespace wan::sim
