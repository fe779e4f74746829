#include "src/fft/plan.hpp"

#include <cmath>
#include <list>
#include <map>
#include <mutex>
#include <stdexcept>
#include <utility>

#include "src/fft/fft.hpp"
#include "src/par/parallel.hpp"

namespace wan::fft {

namespace {

// Butterflies (or packed points) per parallel chunk. A fixed constant —
// never derived from the thread count — so the chunk layout, and with it
// the exact arithmetic each chunk performs, is a pure function of the
// transform size. Small transforms fit in one chunk and take a plain
// serial loop with no scheduling overhead.
constexpr std::size_t kButterflyGrain = 1 << 14;

// A tiny thread-safe LRU for plan sharing. Values are built *outside*
// the lock: a build may itself enter parallel regions (or another plan
// cache), and constructing under the mutex could re-enter it through the
// pool's help-while-waiting drain. Losing a build race just means one
// redundant construction; the first inserted plan wins.
template <class Key, class Value>
class LruCache {
 public:
  explicit LruCache(std::size_t capacity) : capacity_(capacity) {}

  template <class Make>
  std::shared_ptr<const Value> get_or_create(const Key& key,
                                             const Make& make) {
    {
      std::lock_guard<std::mutex> lock(mu_);
      if (auto it = index_.find(key); it != index_.end()) {
        ++hits_;
        order_.splice(order_.begin(), order_, it->second);
        return it->second->second;
      }
      ++misses_;
    }
    std::shared_ptr<const Value> built = make();
    std::lock_guard<std::mutex> lock(mu_);
    if (auto it = index_.find(key); it != index_.end()) {
      order_.splice(order_.begin(), order_, it->second);
      return it->second->second;
    }
    order_.emplace_front(key, built);
    index_[key] = order_.begin();
    while (order_.size() > capacity_) {
      index_.erase(order_.back().first);
      order_.pop_back();
    }
    return built;
  }

  PlanCacheStats stats() const {
    std::lock_guard<std::mutex> lock(mu_);
    return {hits_, misses_, order_.size()};
  }

 private:
  using Entry = std::pair<Key, std::shared_ptr<const Value>>;

  mutable std::mutex mu_;
  std::size_t capacity_;
  std::list<Entry> order_;  ///< front = most recently used
  std::map<Key, typename std::list<Entry>::iterator> index_;
  std::size_t hits_ = 0;
  std::size_t misses_ = 0;
};

LruCache<std::size_t, FftPlan>& plan_cache() {
  static LruCache<std::size_t, FftPlan> cache(16);
  return cache;
}

LruCache<std::size_t, RfftPlan>& rfft_plan_cache() {
  static LruCache<std::size_t, RfftPlan> cache(16);
  return cache;
}

}  // namespace

FftPlan::FftPlan(std::size_t n) : n_(n) {
  if (!is_power_of_two(n))
    throw std::invalid_argument("FftPlan: size must be a power of two");

  bitrev_.resize(n);
  bitrev_[0] = 0;
  for (std::size_t i = 1, j = 0; i < n; ++i) {
    std::size_t bit = n >> 1;
    for (; j & bit; bit >>= 1) j ^= bit;
    j ^= bit;
    bitrev_[i] = static_cast<std::uint32_t>(j);
  }

  // Per-stage twiddle tables, concatenated smallest stage first: the
  // stage with span len owns entries [len/2 - 1, len - 1). Each w_len^k
  // comes straight from cos/sin instead of the incremental w *= wlen
  // recurrence, which accumulates O(len) rounding error by the end of a
  // stage.
  if (n >= 2) stages_.resize(n - 1);
  for (std::size_t len = 2; len <= n; len <<= 1) {
    const std::size_t half = len / 2;
    const double ang = -2.0 * M_PI / static_cast<double>(len);
    cd* table = stages_.data() + (half - 1);
    for (std::size_t k = 0; k < half; ++k) {
      const double a = ang * static_cast<double>(k);
      table[k] = cd(std::cos(a), std::sin(a));
    }
  }
}

void FftPlan::transform(std::span<cd> data, bool inverse) const {
  if (data.size() != n_)
    throw std::invalid_argument("FftPlan: data size does not match plan");
  if (n_ == 1) return;

  for (std::size_t i = 1; i < n_; ++i) {
    const std::size_t j = bitrev_[i];
    if (i < j) std::swap(data[i], data[j]);
  }

  const std::size_t n_butterflies = n_ / 2;
  for (std::size_t len = 2; len <= n_; len <<= 1) {
    const std::size_t half = len / 2;
    const cd* tw = stages_.data() + (half - 1);

    // One stage = n/2 independent butterflies; butterfly b lives in
    // block b / half at offset b % half and touches only its own two
    // slots, so any chunking computes bit-identical results.
    auto run = [&](std::size_t b, std::size_t e) {
      std::size_t block = b / half;
      std::size_t k = b - block * half;
      std::size_t base = block * len;
      for (std::size_t idx = b; idx < e; ++idx) {
        const cd w = inverse ? std::conj(tw[k]) : tw[k];
        const cd u = data[base + k];
        const cd v = data[base + k + half] * w;
        data[base + k] = u + v;
        data[base + k + half] = u - v;
        if (++k == half) {
          k = 0;
          base += len;
        }
      }
    };

    if (n_butterflies <= kButterflyGrain) {
      run(0, n_butterflies);  // single chunk: skip scheduling entirely
    } else {
      par::parallel_for(0, n_butterflies, kButterflyGrain, run);
    }
  }
}

std::shared_ptr<const FftPlan> plan_for(std::size_t n) {
  if (!is_power_of_two(n))
    throw std::invalid_argument("plan_for: size must be a power of two");
  return plan_cache().get_or_create(
      n, [n] { return std::make_shared<const FftPlan>(n); });
}

RfftPlan::RfftPlan(std::size_t n) : n_(n), h_(n / 2) {
  if (n < 2 || n % 2 != 0)
    throw std::invalid_argument("RfftPlan: size must be even and >= 2");
  if (is_power_of_two(h_)) half_plan_ = plan_for(h_);

  unpack_.resize(h_ + 1);
  const double ang = -2.0 * M_PI / static_cast<double>(n_);
  for (std::size_t k = 0; k <= h_; ++k) {
    const double a = ang * static_cast<double>(k);
    unpack_[k] = cd(std::cos(a), std::sin(a));
  }
  // Exact endpoints (sin(-pi) is only ~1e-16 in floating point) keep
  // the DC and Nyquist bins purely real.
  unpack_[0] = cd(1.0, 0.0);
  unpack_[h_] = cd(-1.0, 0.0);
}

std::vector<cd> RfftPlan::forward(std::span<const double> x,
                                  double subtract) const {
  if (x.size() != n_)
    throw std::invalid_argument("RfftPlan: data size does not match plan");

  // Pack pairs of (centered) reals into h complex points. The packing
  // buffer doubles as the transform workspace, so no widened copy of
  // the full series is ever made.
  std::vector<cd> z(h_);
  auto pack = [&](std::size_t b, std::size_t e) {
    for (std::size_t t = b; t < e; ++t)
      z[t] = cd(x[2 * t] - subtract, x[2 * t + 1] - subtract);
  };
  if (h_ <= kButterflyGrain) {
    pack(0, h_);
  } else {
    par::parallel_for(0, h_, kButterflyGrain, pack);
  }

  if (half_plan_) {
    half_plan_->forward(z);
  } else {
    z = fft(z);  // Bluestein for non-power-of-two half sizes
  }

  // Split Z into the spectra of the even and odd subsequences and
  // recombine: X[k] = Xe[k] + w_n^k Xo[k], k = 0..h.
  std::vector<cd> out(h_ + 1);
  auto unpack = [&](std::size_t b, std::size_t e) {
    for (std::size_t k = b; k < e; ++k) {
      const cd zk = z[k == h_ ? 0 : k];
      const cd zc = std::conj(z[(h_ - k) % h_]);
      const cd even = 0.5 * (zk + zc);
      const cd odd = cd(0.0, -0.5) * (zk - zc);
      out[k] = even + unpack_[k] * odd;
    }
  };
  if (h_ + 1 <= kButterflyGrain) {
    unpack(0, h_ + 1);
  } else {
    par::parallel_for(0, h_ + 1, kButterflyGrain, unpack);
  }
  return out;
}

std::vector<double> RfftPlan::inverse(std::span<const cd> half_spectrum) const {
  if (half_spectrum.size() != h_ + 1)
    throw std::invalid_argument(
        "RfftPlan: half spectrum must hold n/2 + 1 entries");

  // Reassemble the packed spectrum: Z[k] = Xe[k] + i Xo[k], with
  // Xe[k] = (X[k] + conj(X[h-k]))/2 and w_n^k Xo[k] = (X[k] -
  // conj(X[h-k]))/2.
  std::vector<cd> z(h_);
  auto repack = [&](std::size_t b, std::size_t e) {
    for (std::size_t k = b; k < e; ++k) {
      const cd xk = half_spectrum[k];
      const cd xc = std::conj(half_spectrum[h_ - k]);
      const cd even = 0.5 * (xk + xc);
      const cd odd = (0.5 * (xk - xc)) * std::conj(unpack_[k]);
      z[k] = even + cd(-odd.imag(), odd.real());  // even + i*odd
    }
  };
  if (h_ <= kButterflyGrain) {
    repack(0, h_);
  } else {
    par::parallel_for(0, h_, kButterflyGrain, repack);
  }

  if (half_plan_) {
    half_plan_->inverse(z);
    const double inv_h = 1.0 / static_cast<double>(h_);
    for (cd& v : z) v *= inv_h;
  } else {
    z = ifft(z);
  }

  std::vector<double> out(n_);
  for (std::size_t t = 0; t < h_; ++t) {
    out[2 * t] = z[t].real();
    out[2 * t + 1] = z[t].imag();
  }
  return out;
}

std::shared_ptr<const RfftPlan> rfft_plan_for(std::size_t n) {
  if (n < 2 || n % 2 != 0)
    throw std::invalid_argument("rfft_plan_for: size must be even and >= 2");
  return rfft_plan_cache().get_or_create(
      n, [n] { return std::make_shared<const RfftPlan>(n); });
}

PlanCacheStats plan_cache_stats() { return plan_cache().stats(); }

PlanCacheStats rfft_plan_cache_stats() { return rfft_plan_cache().stats(); }

}  // namespace wan::fft
