// Empirical CDF evaluation, for the distribution comparisons in the
// paper (Figs. 3 and 8).
#pragma once

#include <span>
#include <vector>

namespace wan::stats {

/// Empirical CDF of a fixed sample; O(log n) evaluation after an O(n log n)
/// build.
class Ecdf {
 public:
  explicit Ecdf(std::span<const double> samples);

  /// F_n(x) = (#samples <= x) / n.
  double operator()(double x) const;

 private:
  std::vector<double> sorted_;
};

}  // namespace wan::stats
