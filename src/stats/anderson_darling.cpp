#include "src/stats/anderson_darling.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <vector>

#include "src/stats/descriptive.hpp"

namespace wan::stats {

namespace {

double anderson_darling_from_sorted_probs(std::span<const double> p_sorted) {
  const std::size_t n = p_sorted.size();
  if (n < 2)
    throw std::invalid_argument("anderson_darling: need >= 2 observations");
  // Clamp away from {0,1} so the logs stay finite; ties at the boundary
  // otherwise produce -inf.
  const double eps = 1e-12;
  double s = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    const double u = std::clamp(p_sorted[i], eps, 1.0 - eps);
    const double v = std::clamp(p_sorted[n - 1 - i], eps, 1.0 - eps);
    s += (2.0 * static_cast<double>(i) + 1.0) *
         (std::log(u) + std::log1p(-v));
  }
  const double dn = static_cast<double>(n);
  return -dn - s / dn;
}

struct CritRow {
  double alpha;
  double value;
};

// D'Agostino & Stephens (1986), Table 4.14: upper-tail percentage points
// of the modified A^2 = A^2 (1 + 0.6/n) for the exponential null with
// estimated scale (origin known).
constexpr CritRow kExpCrit[] = {
    {0.25, 0.736}, {0.15, 0.916}, {0.10, 1.062},
    {0.05, 1.321}, {0.025, 1.591}, {0.01, 1.959},
};

double lookup(const CritRow* rows, std::size_t n, double alpha,
              const char* what) {
  for (std::size_t i = 0; i < n; ++i) {
    if (std::abs(rows[i].alpha - alpha) < 1e-9) return rows[i].value;
  }
  throw std::invalid_argument(std::string("unsupported significance level for ") +
                              what);
}

}  // namespace

double ad_critical_exponential(double alpha) {
  return lookup(kExpCrit, std::size(kExpCrit), alpha, "exponential A^2");
}

AdResult ad_test_exponential(std::span<const double> x, double alpha) {
  if (x.size() < 2)
    throw std::invalid_argument("ad_test_exponential: need >= 2 observations");
  const double m = mean(x);
  if (!(m > 0.0))
    throw std::invalid_argument("ad_test_exponential: nonpositive mean");

  std::vector<double> p(x.size());
  for (std::size_t i = 0; i < x.size(); ++i)
    p[i] = -std::expm1(-x[i] / m);
  std::sort(p.begin(), p.end());

  AdResult r;
  r.a2 = anderson_darling_from_sorted_probs(p);
  r.a2_modified = r.a2 * (1.0 + 0.6 / static_cast<double>(x.size()));
  r.critical = ad_critical_exponential(alpha);
  r.pass = r.a2_modified <= r.critical;
  return r;
}

}  // namespace wan::stats
