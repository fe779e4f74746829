// Xoshiro256++ 1.0, the all-purpose 64-bit generator of Blackman &
// Vigna (https://prng.di.unimi.it/). 256 bits of state, period 2^256-1.
#pragma once

#include <array>
#include <cstdint>

namespace wan::rng {

/// Xoshiro256++ generator. Satisfies std::uniform_random_bit_generator so it
/// can also drive <random> distributions in tests.
class Xoshiro256 {
 public:
  using result_type = std::uint64_t;

  /// Seeds the 256-bit state from a single 64-bit seed via SplitMix64,
  /// as recommended by the authors (avoids correlated low-entropy states).
  explicit Xoshiro256(std::uint64_t seed = 0x9d2c5680u) noexcept;

  std::uint64_t next() noexcept;

  // std::uniform_random_bit_generator interface.
  std::uint64_t operator()() noexcept { return next(); }
  static constexpr std::uint64_t min() noexcept { return 0; }
  static constexpr std::uint64_t max() noexcept { return ~0ULL; }

 private:
  std::array<std::uint64_t, 4> s_;
};

}  // namespace wan::rng
