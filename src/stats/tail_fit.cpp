#include "src/stats/tail_fit.hpp"

#include <algorithm>
#include <cmath>
#include <numeric>
#include <stdexcept>

namespace wan::stats {

HillEstimate hill_estimator(std::span<const double> x, std::size_t k) {
  if (k < 2 || k >= x.size())
    throw std::invalid_argument("hill_estimator: need 2 <= k < n");
  std::vector<double> sorted(x.begin(), x.end());
  std::sort(sorted.begin(), sorted.end(), std::greater<>());
  const double x_k1 = sorted[k];  // (k+1)-th largest
  if (!(x_k1 > 0.0))
    throw std::invalid_argument("hill_estimator: tail values must be > 0");
  double s = 0.0;
  for (std::size_t i = 0; i < k; ++i) s += std::log(sorted[i] / x_k1);
  HillEstimate h;
  h.k = k;
  h.beta = static_cast<double>(k) / s;
  h.stderr_beta = h.beta / std::sqrt(static_cast<double>(k));
  return h;
}

CcdfTailFit ccdf_tail_fit(std::span<const double> x, double tail_fraction) {
  if (!(tail_fraction > 0.0 && tail_fraction <= 1.0))
    throw std::invalid_argument("ccdf_tail_fit: tail_fraction in (0,1]");
  if (x.size() < 10)
    throw std::invalid_argument("ccdf_tail_fit: sample too small");
  std::vector<double> sorted(x.begin(), x.end());
  std::sort(sorted.begin(), sorted.end());

  const double n = static_cast<double>(sorted.size());
  const auto first = static_cast<std::size_t>(
      std::floor((1.0 - tail_fraction) * n));
  std::vector<double> lx, lp;
  for (std::size_t i = first; i + 1 < sorted.size(); ++i) {
    if (!(sorted[i] > 0.0)) continue;
    const double ccdf = 1.0 - static_cast<double>(i + 1) / n;
    if (ccdf <= 0.0) continue;
    lx.push_back(std::log10(sorted[i]));
    lp.push_back(std::log10(ccdf));
  }
  if (lx.size() < 3)
    throw std::invalid_argument("ccdf_tail_fit: too few tail points");

  CcdfTailFit out;
  out.fit = linear_fit(lx, lp);
  out.beta = -out.fit.slope;
  out.x_tail_start = sorted[first];
  return out;
}

double mass_in_top_fraction(std::span<const double> x, double top_fraction) {
  if (x.empty())
    throw std::invalid_argument("mass_in_top_fraction: empty sample");
  if (!(top_fraction >= 0.0 && top_fraction <= 1.0))
    throw std::invalid_argument("mass_in_top_fraction: fraction in [0,1]");
  std::vector<double> sorted(x.begin(), x.end());
  std::sort(sorted.begin(), sorted.end(), std::greater<>());
  const double total = std::accumulate(sorted.begin(), sorted.end(), 0.0);
  if (total <= 0.0) return 0.0;
  // ceil: "the largest 0.5%" always includes at least one observation
  // when top_fraction > 0 (matches how the paper counts whole bursts).
  const auto k = static_cast<std::size_t>(std::ceil(
      top_fraction * static_cast<double>(sorted.size())));
  double s = 0.0;
  for (std::size_t i = 0; i < k && i < sorted.size(); ++i) s += sorted[i];
  return s / total;
}

std::vector<std::pair<double, double>> mass_curve(std::span<const double> x,
                                                  double max_fraction) {
  if (x.empty()) throw std::invalid_argument("mass_curve: empty sample");
  std::vector<double> sorted(x.begin(), x.end());
  std::sort(sorted.begin(), sorted.end(), std::greater<>());
  const double total = std::accumulate(sorted.begin(), sorted.end(), 0.0);
  std::vector<std::pair<double, double>> curve;
  double cum = 0.0;
  const double n = static_cast<double>(sorted.size());
  for (std::size_t i = 0; i < sorted.size(); ++i) {
    cum += sorted[i];
    const double frac = static_cast<double>(i + 1) / n;
    if (frac > max_fraction) break;
    curve.emplace_back(frac, total > 0.0 ? cum / total : 0.0);
  }
  return curve;
}

}  // namespace wan::stats
