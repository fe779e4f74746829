#include "src/selfsim/farima.hpp"

#include <stdexcept>

#include "src/dist/special.hpp"
#include "src/par/parallel.hpp"
#include "src/selfsim/chunk_rng.hpp"

namespace wan::selfsim {

std::vector<double> farima_ma_coefficients(double d, std::size_t order) {
  if (!(d > -0.5 && d < 0.5))
    throw std::invalid_argument("farima: d must be in (-1/2, 1/2)");
  std::vector<double> psi(order);
  if (order == 0) return psi;
  psi[0] = 1.0;
  for (std::size_t j = 1; j < order; ++j) {
    // psi_j = psi_{j-1} * (j - 1 + d) / j.
    psi[j] = psi[j - 1] * ((static_cast<double>(j) - 1.0 + d) /
                           static_cast<double>(j));
  }
  return psi;
}

std::vector<double> generate_farima(rng::Rng& rng, std::size_t n, double d,
                                    double sigma, std::size_t ma_order) {
  const auto psi = farima_ma_coefficients(d, ma_order);
  if (n == 0) return {};

  // Innovations for t = -(ma_order-1) .. n-1, drawn from per-chunk
  // streams (chunk_rng.hpp) so generation parallelizes with the same
  // values at any thread count. One u64 leaves the caller's rng (the
  // stream key), keeping successive calls independent.
  const std::uint64_t stream_key = rng.next_u64();
  std::vector<double> eps(n + ma_order - 1);
  const std::size_t n_eps = eps.size();
  const std::size_t n_chunks = (n_eps + kSynthesisChunk - 1) / kSynthesisChunk;
  par::parallel_for(0, n_chunks, 1, [&](std::size_t cb, std::size_t ce) {
    for (std::size_t c = cb; c < ce; ++c) {
      rng::Rng chunk = chunk_stream_rng(stream_key, c);
      const std::size_t b = c * kSynthesisChunk;
      const std::size_t e =
          b + kSynthesisChunk < n_eps ? b + kSynthesisChunk : n_eps;
      for (std::size_t i = b; i < e; ++i)
        eps[i] = sigma * dist::standard_normal(chunk);
    }
  });

  // The O(n * ma_order) MA convolution is the hot loop; each x[t] is a
  // fixed-order sum over read-only eps, so chunking over t is
  // deterministic for free.
  std::vector<double> x(n, 0.0);
  par::parallel_for(0, n, 0, [&](std::size_t tb, std::size_t te) {
    for (std::size_t t = tb; t < te; ++t) {
      double s = 0.0;
      // eps index for lag j: eps[(t + ma_order - 1) - j].
      const std::size_t base = t + ma_order - 1;
      for (std::size_t j = 0; j < ma_order; ++j) s += psi[j] * eps[base - j];
      x[t] = s;
    }
  });
  return x;
}

}  // namespace wan::selfsim
