// Parametric fitting for the straw-man comparisons: the exponential a
// Poisson model would assume (the Fig. 8 FTP spacing check).
#pragma once

#include <span>

#include "src/dist/exponential.hpp"

namespace wan::stats {

/// MLE exponential fit (mean = sample mean). Requires positive mean.
dist::Exponential fit_exponential(std::span<const double> x);

}  // namespace wan::stats
