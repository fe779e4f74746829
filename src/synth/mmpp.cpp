#include "src/synth/mmpp.hpp"

#include <cmath>
#include <stdexcept>

namespace wan::synth {

MmppSource::MmppSource(MmppConfig config) : config_(std::move(config)) {
  if (config_.rates.size() < 2 ||
      config_.rates.size() != config_.mean_sojourns.size())
    throw std::invalid_argument("MmppConfig: need >= 2 matched states");
  for (double r : config_.rates) {
    if (r < 0.0) throw std::invalid_argument("MmppConfig: negative rate");
  }
  for (double s : config_.mean_sojourns) {
    if (!(s > 0.0))
      throw std::invalid_argument("MmppConfig: sojourns must be > 0");
  }
}

std::vector<double> MmppSource::generate(rng::Rng& rng, double t0,
                                         double t1) const {
  std::vector<double> times;
  const std::size_t n_states = config_.rates.size();
  // Start in a sojourn-weighted stationary state.
  double total_sojourn = 0.0;
  for (double s : config_.mean_sojourns) total_sojourn += s;
  std::size_t state = 0;
  {
    double u = rng.uniform01() * total_sojourn;
    for (std::size_t i = 0; i < n_states; ++i) {
      if (u < config_.mean_sojourns[i]) {
        state = i;
        break;
      }
      u -= config_.mean_sojourns[i];
    }
  }

  double t = t0;
  while (t < t1) {
    const double sojourn_end =
        t + (-std::log(rng.uniform01_open_below()) *
             config_.mean_sojourns[state]);
    const double seg_end = std::min(sojourn_end, t1);
    const double rate = config_.rates[state];
    if (rate > 0.0) {
      double a = t;
      while (true) {
        a += -std::log(rng.uniform01_open_below()) / rate;
        if (a >= seg_end) break;
        times.push_back(a);
      }
    }
    t = seg_end;
    // Jump to a uniformly random *other* state.
    const auto step = 1 + rng.uniform_int(n_states - 1);
    state = (state + step) % n_states;
  }
  return times;
}

}  // namespace wan::synth
