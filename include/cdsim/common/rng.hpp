#pragma once
// Deterministic, fast pseudo-random number generation.
//
// Simulation reproducibility demands that randomness is (a) seeded
// explicitly, (b) independent per consumer (each core's workload generator
// owns its own stream), and (c) identical across platforms. std::mt19937_64
// would satisfy this too, but xoshiro256** is ~4x faster and its state is
// four words, which matters when workload generators draw per memory access.

#include <cstdint>

namespace cdsim {

/// SplitMix64 — used to expand a single user seed into full generator state.
/// Reference: Steele, Lea, Flood, "Fast splittable pseudorandom number
/// generators", OOPSLA 2014.
class SplitMix64 {
 public:
  explicit constexpr SplitMix64(std::uint64_t seed) noexcept : state_(seed) {}

  constexpr std::uint64_t next() noexcept {
    std::uint64_t z = (state_ += 0x9e3779b97f4a7c15ULL);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
  }

 private:
  std::uint64_t state_ = 0;
};

/// xoshiro256** 1.0 (Blackman & Vigna). All-purpose 64-bit generator.
class Xoshiro256 {
 public:
  /// Seeds the full 256-bit state from one 64-bit seed via SplitMix64, as
  /// the reference implementation recommends.
  explicit constexpr Xoshiro256(std::uint64_t seed) noexcept : s_{} {
    SplitMix64 sm(seed);
    for (auto& w : s_) w = sm.next();
  }

  constexpr std::uint64_t next() noexcept {
    const std::uint64_t result = rotl(s_[1] * 5, 7) * 9;
    const std::uint64_t t = s_[1] << 17;
    s_[2] ^= s_[0];
    s_[3] ^= s_[1];
    s_[1] ^= s_[2];
    s_[0] ^= s_[3];
    s_[2] ^= t;
    s_[3] = rotl(s_[3], 45);
    return result;
  }

  /// Uniform integer in [0, bound). bound must be nonzero. Uses Lemire's
  /// multiply-shift rejection-free approximation (bias < 2^-64·bound, which
  /// is negligible for simulation workloads).
  constexpr std::uint64_t below(std::uint64_t bound) noexcept {
    // 128-bit multiply-high.
    const __uint128_t m =
        static_cast<__uint128_t>(next()) * static_cast<__uint128_t>(bound);
    return static_cast<std::uint64_t>(m >> 64);
  }

  /// Uniform double in [0, 1).
  constexpr double uniform() noexcept {
    return static_cast<double>(next() >> 11) * 0x1.0p-53;
  }

  /// Bernoulli draw with probability p.
  constexpr bool chance(double p) noexcept { return uniform() < p; }

 private:
  static constexpr std::uint64_t rotl(std::uint64_t x, int k) noexcept {
    return (x << k) | (x >> (64 - k));
  }
  std::uint64_t s_[4] = {};
};

}  // namespace cdsim
