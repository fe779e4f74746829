#include "src/rng/rng.hpp"

namespace wan::rng {

double Rng::uniform01() noexcept {
  // 53 high bits -> [0,1) with full double resolution.
  return static_cast<double>(next_u64() >> 11) * 0x1.0p-53;
}

double Rng::uniform01_open_below() noexcept {
  // (0,1]: map k in [0, 2^53) to (k+1) * 2^-53.
  return (static_cast<double>(next_u64() >> 11) + 1.0) * 0x1.0p-53;
}

double Rng::uniform(double lo, double hi) noexcept {
  return lo + (hi - lo) * uniform01();
}

std::uint64_t Rng::uniform_int(std::uint64_t n) noexcept {
  // Lemire 2019: unbiased bounded integers without division in the
  // common case.
  std::uint64_t x = next_u64();
  __uint128_t m = static_cast<__uint128_t>(x) * n;
  auto lo = static_cast<std::uint64_t>(m);
  if (lo < n) {
    const std::uint64_t threshold = (0 - n) % n;
    while (lo < threshold) {
      x = next_u64();
      m = static_cast<__uint128_t>(x) * n;
      lo = static_cast<std::uint64_t>(m);
    }
  }
  return static_cast<std::uint64_t>(m >> 64);
}

Rng Rng::child(std::string_view label) noexcept {
  return Rng(next_u64() ^ hash_label(label));
}

std::uint64_t hash_label(std::string_view label) noexcept {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (char c : label) {
    h ^= static_cast<unsigned char>(c);
    h *= 0x100000001b3ULL;
  }
  return h;
}

}  // namespace wan::rng
