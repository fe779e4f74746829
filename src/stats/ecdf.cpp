#include "src/stats/ecdf.hpp"

#include <algorithm>
#include <stdexcept>

namespace wan::stats {

Ecdf::Ecdf(std::span<const double> samples)
    : sorted_(samples.begin(), samples.end()) {
  if (sorted_.empty()) throw std::invalid_argument("Ecdf: empty sample");
  std::sort(sorted_.begin(), sorted_.end());
}

double Ecdf::operator()(double x) const {
  const auto it = std::upper_bound(sorted_.begin(), sorted_.end(), x);
  return static_cast<double>(it - sorted_.begin()) /
         static_cast<double>(sorted_.size());
}

}  // namespace wan::stats
