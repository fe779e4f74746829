// One-sample Kolmogorov-Smirnov test: the oracle the sampler property
// tests check each law's draws against its own CDF with, and the
// better-known (and, per Stephens, less powerful) alternative to the
// Appendix-A A^2 test that the power comparison measures A^2 against.
#pragma once

#include <algorithm>
#include <cmath>
#include <span>
#include <vector>

namespace wan::testing_oracle {

struct KsResult {
  double statistic = 0.0;  ///< D_n
  double p_value = 1.0;    ///< asymptotic Kolmogorov distribution
  bool pass = false;       ///< fit not rejected at alpha
};

/// Kolmogorov distribution tail Q(t) = 2 sum_{j>=1} (-1)^{j-1} e^{-2 j^2 t^2}.
inline double kolmogorov_sf(double t) {
  if (t <= 0.0) return 1.0;
  double sum = 0.0;
  for (int j = 1; j <= 100; ++j) {
    const double term = std::exp(-2.0 * j * j * t * t);
    sum += (j % 2 == 1 ? term : -term);
    if (term < 1e-16) break;
  }
  return std::min(1.0, std::max(0.0, 2.0 * sum));
}

/// KS test of x against a fully specified CDF, with the asymptotic
/// Kolmogorov tail at Stephens' finite-sample effective statistic
/// D (sqrt(n) + 0.12 + 0.11/sqrt(n)).
template <typename Cdf>
KsResult ks_test(std::span<const double> x, Cdf&& cdf, double alpha = 0.05) {
  std::vector<double> p(x.size());
  for (std::size_t i = 0; i < x.size(); ++i) p[i] = cdf(x[i]);
  std::sort(p.begin(), p.end());
  double d = 0.0;
  const double n = static_cast<double>(p.size());
  for (std::size_t i = 0; i < p.size(); ++i) {
    d = std::max({d, p[i] - static_cast<double>(i) / n,
                  static_cast<double>(i + 1) / n - p[i]});
  }
  KsResult out;
  out.statistic = d;
  const double sn = std::sqrt(n);
  out.p_value = kolmogorov_sf(d * (sn + 0.12 + 0.11 / sn));
  out.pass = out.p_value >= alpha;
  return out;
}

}  // namespace wan::testing_oracle
