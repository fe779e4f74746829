// A round-based model of TCP congestion control over a bottleneck link —
// the mechanism Section VII holds responsible for FTPDATA's departure
// from the constant-rate M/G/inf idealization: slow start probes, AIMD
// oscillates, and the achieved rate varies both across connections and
// within one connection's lifetime.
//
// The model advances in RTT-sized rounds. Each round the source emits
// cwnd packets, paced across the round; the bottleneck drains
// capacity*RTT packets per round into a drop-tail buffer; any excess is
// dropped and halves cwnd (fast-recovery abstracted to one event per
// round); otherwise cwnd doubles in slow start or grows by one in
// congestion avoidance.
#pragma once

#include <cstddef>
#include <vector>

namespace wan::sim {

struct TcpConfig {
  double rtt = 0.1;               ///< seconds per round
  double bottleneck_rate = 100.0; ///< packets per second
  std::size_t buffer_packets = 20;
  double initial_ssthresh = 64.0; ///< packets
  std::size_t max_rounds = 100000;
};

/// Trajectory of one transfer.
struct TcpTrace {
  std::vector<double> cwnd_by_round;       ///< window at each round start
  std::vector<double> queue_by_round;      ///< buffer occupancy at round end
  std::vector<double> departure_times;     ///< per-packet exit times
  std::size_t packets_sent = 0;            ///< includes retransmissions
  std::size_t packets_delivered = 0;
  std::size_t packets_dropped = 0;
  double completion_time = 0.0;
  double mean_throughput = 0.0;            ///< delivered packets / time
};

/// Simulates a single transfer of `n_packets` through the bottleneck.
TcpTrace simulate_tcp_transfer(std::size_t n_packets,
                               const TcpConfig& config = {});

}  // namespace wan::sim
