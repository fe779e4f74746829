#include "src/stats/autocorr.hpp"

#include <cmath>
#include <numeric>
#include <stdexcept>

#include "src/fft/fft.hpp"

namespace wan::stats {

std::vector<double> autocorrelation(std::span<const double> x,
                                    std::size_t max_lag) {
  const std::size_t n = x.size();
  if (n < 2) throw std::invalid_argument("autocorrelation: series too short");
  if (max_lag >= n) max_lag = n - 1;

  const double mean =
      std::accumulate(x.begin(), x.end(), 0.0) / static_cast<double>(n);

  std::vector<double> acov(max_lag + 1, 0.0);
  // FFT path for long series / many lags; direct otherwise.
  const bool use_fft = n > 2048 && max_lag > 32;
  if (use_fft) {
    // Zero-pad to >= 2n so circular correlation equals linear correlation.
    std::vector<double> padded(fft::next_power_of_two(2 * n), 0.0);
    for (std::size_t i = 0; i < n; ++i) padded[i] = x[i] - mean;
    const auto circ = fft::circular_autocorrelation(padded);
    for (std::size_t k = 0; k <= max_lag; ++k)
      acov[k] = circ[k] / static_cast<double>(n);
  } else {
    for (std::size_t k = 0; k <= max_lag; ++k) {
      double s = 0.0;
      for (std::size_t t = 0; t + k < n; ++t)
        s += (x[t] - mean) * (x[t + k] - mean);
      acov[k] = s / static_cast<double>(n);
    }
  }

  std::vector<double> r(max_lag + 1, 0.0);
  if (acov[0] <= 0.0) {
    r[0] = 1.0;
    return r;  // constant series: define r(k>0) = 0
  }
  for (std::size_t k = 0; k <= max_lag; ++k) r[k] = acov[k] / acov[0];
  return r;
}

double lag1_autocorrelation(std::span<const double> x) {
  if (x.size() < 2) return 0.0;
  const auto r = autocorrelation(x, 1);
  return r[1];
}

double lag1_threshold(std::size_t n) {
  return 1.96 / std::sqrt(static_cast<double>(n));
}

double lag1_bias(std::size_t n) {
  return n == 0 ? 0.0 : -1.0 / static_cast<double>(n);
}

}  // namespace wan::stats
