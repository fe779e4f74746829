#include "src/stats/fitting.hpp"

#include <stdexcept>

#include "src/stats/descriptive.hpp"

namespace wan::stats {

dist::Exponential fit_exponential(std::span<const double> x) {
  const double m = mean(x);
  if (!(m > 0.0))
    throw std::invalid_argument("fit_exponential: nonpositive mean");
  return dist::Exponential(m);
}

}  // namespace wan::stats
