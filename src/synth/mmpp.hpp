// Markov-modulated Poisson process — the early-90s state of the art for
// "burstier than Poisson" traffic modeling, included as a baseline the
// paper's findings implicitly indict: an MMPP captures short-range
// burstiness (IDC rises over its sojourn timescale) but its correlations
// decay geometrically, so at large scales it flattens back to
// Poisson-like behaviour, unlike measured WAN traffic.
#pragma once

#include <cstddef>
#include <vector>

#include "src/rng/rng.hpp"

namespace wan::synth {

/// An n-state MMPP: in state i, arrivals are Poisson at rate `rates[i]`;
/// the state holds for Exponential(mean_sojourn[i]) and then jumps to a
/// uniformly random other state.
struct MmppConfig {
  std::vector<double> rates = {2.0, 20.0};
  std::vector<double> mean_sojourns = {30.0, 10.0};
};

class MmppSource {
 public:
  explicit MmppSource(MmppConfig config);

  /// Arrival times over [t0, t1).
  std::vector<double> generate(rng::Rng& rng, double t0, double t1) const;

  const MmppConfig& config() const { return config_; }

 private:
  MmppConfig config_;
};

}  // namespace wan::synth
