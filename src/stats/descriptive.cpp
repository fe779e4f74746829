#include "src/stats/descriptive.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <numeric>
#include <stdexcept>

namespace wan::stats {

double mean(std::span<const double> x) {
  if (x.empty()) return 0.0;
  return std::accumulate(x.begin(), x.end(), 0.0) /
         static_cast<double>(x.size());
}

double variance(std::span<const double> x) {
  if (x.size() < 2) return 0.0;
  const double m = mean(x);
  double ss = 0.0;
  for (double v : x) ss += (v - m) * (v - m);
  return ss / static_cast<double>(x.size() - 1);
}

double stddev(std::span<const double> x) { return std::sqrt(variance(x)); }

double geometric_mean(std::span<const double> x) {
  if (x.empty()) return 0.0;
  double log_sum = 0.0;
  for (double v : x) {
    if (!(v > 0.0))
      throw std::invalid_argument("geometric_mean: requires x > 0");
    log_sum += std::log(v);
  }
  return std::exp(log_sum / static_cast<double>(x.size()));
}

double max_value(std::span<const double> x) {
  if (x.empty()) return std::numeric_limits<double>::quiet_NaN();
  return *std::max_element(x.begin(), x.end());
}

double quantile(std::span<const double> x, double p) {
  if (x.empty()) return std::numeric_limits<double>::quiet_NaN();
  if (!(p >= 0.0 && p <= 1.0))
    throw std::invalid_argument("quantile: p must be in [0,1]");
  std::vector<double> sorted(x.begin(), x.end());
  std::sort(sorted.begin(), sorted.end());
  const double h = p * (static_cast<double>(sorted.size()) - 1.0);
  const std::size_t lo = static_cast<std::size_t>(std::floor(h));
  const std::size_t hi = std::min(lo + 1, sorted.size() - 1);
  const double f = h - std::floor(h);
  return sorted[lo] + f * (sorted[hi] - sorted[lo]);
}

double median(std::span<const double> x) { return quantile(x, 0.5); }

Summary summarize(std::span<const double> x) {
  Summary s;
  s.n = x.size();
  if (x.empty()) return s;
  s.mean = mean(x);
  s.variance = variance(x);
  s.stddev = std::sqrt(s.variance);
  std::vector<double> sorted(x.begin(), x.end());
  std::sort(sorted.begin(), sorted.end());
  s.min = sorted.front();
  s.max = sorted.back();
  auto q = [&sorted](double p) {
    const double h = p * (static_cast<double>(sorted.size()) - 1.0);
    const std::size_t lo = static_cast<std::size_t>(std::floor(h));
    const std::size_t hi = std::min(lo + 1, sorted.size() - 1);
    const double f = h - std::floor(h);
    return sorted[lo] + f * (sorted[hi] - sorted[lo]);
  };
  s.p25 = q(0.25);
  s.median = q(0.5);
  s.p75 = q(0.75);
  return s;
}

std::vector<double> interarrivals(std::span<const double> times) {
  std::vector<double> out;
  interarrivals_into(times, out);
  return out;
}

void interarrivals_into(std::span<const double> times,
                        std::vector<double>& out) {
  if (times.size() < 2) return;
  const std::size_t base = out.size();
  const std::size_t n = times.size() - 1;
  out.resize(base + n);
  double* dst = out.data() + base;
  // Adjacent differences as one vectorizable pass; the sortedness check
  // folds into a running min so no branch lives in the loop.
  double mind = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    const double d = times[i + 1] - times[i];
    dst[i] = d;
    mind = d < mind ? d : mind;
  }
  if (mind < 0.0) {
    out.resize(base);
    throw std::invalid_argument("interarrivals: times must be sorted");
  }
}

// MomentAccumulator is header-only (see descriptive.hpp) so layers below
// wan_stats can use it without a library cycle.

}  // namespace wan::stats
