#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "src/rng/rng.hpp"
#include "src/stats/fitting.hpp"

namespace wan::stats {
namespace {

TEST(FitExponential, RecoversMean) {
  rng::Rng rng(1);
  const dist::Exponential e(2.5);
  std::vector<double> xs(50000);
  for (double& x : xs) x = e.sample(rng);
  EXPECT_NEAR(fit_exponential(xs).mean(), 2.5, 0.05);
  EXPECT_THROW(fit_exponential(std::vector<double>{0.0, 0.0}),
               std::invalid_argument);
}

}  // namespace
}  // namespace wan::stats
