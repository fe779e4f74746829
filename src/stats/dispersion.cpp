#include "src/stats/dispersion.hpp"

#include <cmath>
#include <stdexcept>

#include "src/stats/counting.hpp"
#include "src/stats/descriptive.hpp"
#include "src/stats/regression.hpp"

namespace wan::stats {

namespace {

// Log-spaced block sizes from 1 to n / 8.
std::vector<std::size_t> block_sizes(std::size_t n,
                                     std::size_t max_windows) {
  std::vector<std::size_t> sizes;
  if (n < 16) return sizes;
  const double lg_max = std::log10(static_cast<double>(n) / 8.0);
  std::size_t last = 0;
  for (std::size_t i = 0; i < max_windows; ++i) {
    const double lg = lg_max * static_cast<double>(i) /
                      static_cast<double>(max_windows - 1);
    const auto m = static_cast<std::size_t>(std::llround(std::pow(10.0, lg)));
    if (m != last && m >= 1) {
      sizes.push_back(m);
      last = m;
    }
  }
  return sizes;
}

}  // namespace

std::vector<DispersionPoint> idc_curve(std::span<const double> counts,
                                       std::size_t max_windows) {
  if (counts.size() < 16)
    throw std::invalid_argument("idc_curve: series too short");
  std::vector<DispersionPoint> curve;
  for (std::size_t m : block_sizes(counts.size(), max_windows)) {
    const auto sums = aggregate_sum(counts, m);
    if (sums.size() < 4) break;
    const double mu = mean(sums);
    if (!(mu > 0.0)) continue;
    curve.push_back({static_cast<double>(m), variance(sums) / mu});
  }
  return curve;
}

double idc_slope(std::span<const DispersionPoint> curve) {
  if (curve.size() < 4)
    throw std::invalid_argument("idc_slope: need >= 4 points");
  std::vector<double> lx, ly;
  // Upper half of the curve: the asymptotic regime.
  for (std::size_t i = curve.size() / 2; i < curve.size(); ++i) {
    if (curve[i].index <= 0.0) continue;
    lx.push_back(std::log10(curve[i].t));
    ly.push_back(std::log10(curve[i].index));
  }
  if (lx.size() < 3)
    throw std::invalid_argument("idc_slope: too few usable points");
  return linear_fit(lx, ly).slope;
}

}  // namespace wan::stats
