// Rng: the library-wide random source facade.
//
// All stochastic components in wantraffic draw from an Rng passed in by the
// caller, never from hidden global state, so every experiment is exactly
// reproducible from its seed. Named sub-streams (one per traffic source,
// say) are derived with child().
#pragma once

#include <cstdint>
#include <string_view>

#include "src/rng/xoshiro256.hpp"

namespace wan::rng {

/// Uniform random source with convenient double helpers and labelled
/// child streams. Cheap to copy; copies continue from the same state (use
/// child() for a distinct stream).
class Rng {
 public:
  using result_type = std::uint64_t;

  explicit Rng(std::uint64_t seed = 0xda7a5eedULL) noexcept : gen_(seed) {}

  /// Raw 64 uniform bits.
  std::uint64_t next_u64() noexcept { return gen_.next(); }

  // std::uniform_random_bit_generator interface.
  std::uint64_t operator()() noexcept { return gen_.next(); }
  static constexpr std::uint64_t min() noexcept { return 0; }
  static constexpr std::uint64_t max() noexcept { return ~0ULL; }

  /// Uniform double in [0, 1): 53 random mantissa bits.
  double uniform01() noexcept;

  /// Uniform double in (0, 1]: never returns 0, so -log(u) is always finite.
  /// Use for inverse-transform sampling of distributions with unbounded
  /// support.
  double uniform01_open_below() noexcept;

  /// Uniform double in [lo, hi).
  double uniform(double lo, double hi) noexcept;

  /// Uniform integer in [0, n). Uses Lemire's multiply-shift rejection
  /// method (unbiased). n must be > 0.
  std::uint64_t uniform_int(std::uint64_t n) noexcept;

  /// Bernoulli trial with success probability p.
  bool bernoulli(double p) noexcept { return uniform01() < p; }

  /// Derives a deterministic child seeded from this stream plus a label
  /// hash; handy for naming per-component streams ("telnet", "ftp", ...)
  /// without threading streams through call sites.
  Rng child(std::string_view label) noexcept;

 private:
  Xoshiro256 gen_;
};

/// FNV-1a hash of a label; used by Rng::child and by deterministic
/// per-entity seeding in the synthesizer.
std::uint64_t hash_label(std::string_view label) noexcept;

}  // namespace wan::rng
