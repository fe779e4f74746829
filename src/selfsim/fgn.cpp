#include "src/selfsim/fgn.hpp"

#include <bit>
#include <cmath>
#include <complex>
#include <list>
#include <map>
#include <mutex>
#include <stdexcept>
#include <utility>

#include "src/dist/special.hpp"
#include "src/fft/fft.hpp"
#include "src/par/parallel.hpp"
#include "src/selfsim/chunk_rng.hpp"

namespace wan::selfsim {

double fgn_autocovariance(std::size_t lag, double hurst) {
  const double k = static_cast<double>(lag);
  const double two_h = 2.0 * hurst;
  if (lag == 0) return 1.0;
  return 0.5 * (std::pow(k + 1.0, two_h) - 2.0 * std::pow(k, two_h) +
                std::pow(k - 1.0, two_h));
}

namespace {

// Power-of-two embedding size for an n-point path (n >= 2): padding the
// minimal circle 2(n-1) up to 2^k keeps every transform on the radix-2
// plan path (no Bluestein) at the cost of at most 2x the embedding
// memory. The first n points of the longer exact path are themselves
// exact fGn.
std::size_t embedding_size(std::size_t n) {
  return fft::next_power_of_two(2 * (n - 1));
}

struct EigenKey {
  std::size_t m;
  std::uint64_t hurst_bits;
  bool operator<(const EigenKey& o) const {
    return m != o.m ? m < o.m : hurst_bits < o.hurst_bits;
  }
};

struct EigenCache {
  std::mutex mu;
  // front = most recently used; capacity kept tiny because an entry
  // holds M/2 + 1 doubles (8 MB at M = 2^21).
  static constexpr std::size_t kCapacity = 4;
  using Entry = std::pair<EigenKey, std::shared_ptr<const std::vector<double>>>;
  std::list<Entry> order;
  std::map<EigenKey, std::list<Entry>::iterator> index;
  std::size_t hits = 0;
  std::size_t misses = 0;
};

EigenCache& eigen_cache() {
  static EigenCache cache;
  return cache;
}

std::shared_ptr<const std::vector<double>> compute_eigenvalues(
    std::size_t m, double hurst) {
  // Covariance circle c = [g(0)..g(m/2), g(m/2 - 1)..g(1)]. The pow()
  // calls dominate the one-shot cost, so the fill runs on the pool;
  // slots are disjoint per k and the values depend only on (k, H).
  std::vector<double> c(m);
  const std::size_t half = m / 2;
  par::parallel_for(0, half + 1, 4096, [&](std::size_t b, std::size_t e) {
    for (std::size_t k = b; k < e; ++k) {
      const double g = fgn_autocovariance(k, hurst);
      c[k] = g;
      if (k != 0 && k != half) c[m - k] = g;
    }
  });

  auto spec = fft::rfft(c);
  auto lambda = std::make_shared<std::vector<double>>(half + 1);
  for (std::size_t j = 0; j <= half; ++j) {
    double v = spec[j].real();
    if (v < 0.0) {
      // Eigenvalues are real and (for fGn) nonnegative; clip roundoff,
      // reject materially negative values.
      if (v < -1e-8 * static_cast<double>(m))
        throw std::runtime_error("generate_fgn: embedding not PSD");
      v = 0.0;
    }
    (*lambda)[j] = v;
  }
  return lambda;
}

}  // namespace

std::shared_ptr<const std::vector<double>> fgn_circulant_eigenvalues(
    std::size_t n, double hurst) {
  if (n < 2)
    throw std::invalid_argument("fgn_circulant_eigenvalues: need n >= 2");
  const std::size_t m = embedding_size(n);
  const EigenKey key{m, std::bit_cast<std::uint64_t>(hurst)};

  EigenCache& cache = eigen_cache();
  {
    std::lock_guard<std::mutex> lock(cache.mu);
    if (auto it = cache.index.find(key); it != cache.index.end()) {
      ++cache.hits;
      cache.order.splice(cache.order.begin(), cache.order, it->second);
      return it->second->second;
    }
    ++cache.misses;
  }
  // Built outside the lock: the fill/FFT enter parallel regions, and the
  // pool's help-while-waiting drain could re-enter this cache.
  auto built = compute_eigenvalues(m, hurst);
  std::lock_guard<std::mutex> lock(cache.mu);
  if (auto it = cache.index.find(key); it != cache.index.end()) {
    cache.order.splice(cache.order.begin(), cache.order, it->second);
    return it->second->second;
  }
  cache.order.emplace_front(key, built);
  cache.index[key] = cache.order.begin();
  while (cache.order.size() > EigenCache::kCapacity) {
    cache.index.erase(cache.order.back().first);
    cache.order.pop_back();
  }
  return built;
}

FgnEigenCacheStats fgn_eigen_cache_stats() {
  EigenCache& cache = eigen_cache();
  std::lock_guard<std::mutex> lock(cache.mu);
  return {cache.hits, cache.misses, cache.order.size()};
}

std::vector<double> generate_fgn(rng::Rng& rng, std::size_t n, double hurst,
                                 double sigma) {
  if (n == 0) return {};
  if (!(hurst > 0.0 && hurst < 1.0))
    throw std::invalid_argument("generate_fgn: H must be in (0,1)");
  if (n == 1) return {sigma * dist::standard_normal(rng)};

  const std::size_t m = embedding_size(n);
  const std::size_t half = m / 2;
  const auto lambda = fgn_circulant_eigenvalues(n, hurst);

  // Spectral noise: the DC and Nyquist bins are real with one draw
  // each (chunk 0); interior bins j = 1..m/2-1 draw an (a, b) pair from
  // their chunk's private stream. The half spectrum is fed to the real
  // inverse transform — the full spectrum is its Hermitian mirror, so
  // the path is real by construction and the transform does half the
  // work of the old widen-to-complex synthesis.
  const std::uint64_t stream_key = rng.next_u64();
  std::vector<fft::cd> zh(half + 1);
  {
    rng::Rng edge = chunk_stream_rng(stream_key, 0);
    zh[0] = fft::cd(std::sqrt((*lambda)[0]) * dist::standard_normal(edge), 0.0);
    zh[half] =
        fft::cd(std::sqrt((*lambda)[half]) * dist::standard_normal(edge), 0.0);
  }
  const std::size_t interior = half - 1;  // j = 1..half-1
  const std::size_t n_chunks =
      interior == 0 ? 0 : (interior + kSynthesisChunk - 1) / kSynthesisChunk;
  par::parallel_for(0, n_chunks, 1, [&](std::size_t cb, std::size_t ce) {
    for (std::size_t c = cb; c < ce; ++c) {
      rng::Rng chunk = chunk_stream_rng(stream_key, c + 1);
      const std::size_t jb = 1 + c * kSynthesisChunk;
      const std::size_t je =
          jb + kSynthesisChunk < half ? jb + kSynthesisChunk : half;
      for (std::size_t j = jb; j < je; ++j) {
        const double a = dist::standard_normal(chunk);
        const double b = dist::standard_normal(chunk);
        const double s = std::sqrt((*lambda)[j] / 2.0);
        zh[j] = fft::cd(s * a, s * b);
      }
    }
  });

  const auto x = fft::irfft(zh, m);
  std::vector<double> out(n);
  // irfft normalizes by 1/m; the Davies-Harte sum wants the raw
  // spectral sum scaled by sigma/sqrt(m), hence sigma*sqrt(m) here.
  const double scale = sigma * std::sqrt(static_cast<double>(m));
  for (std::size_t i = 0; i < n; ++i) out[i] = x[i] * scale;
  return out;
}

}  // namespace wan::selfsim
