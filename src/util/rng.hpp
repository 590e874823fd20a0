// Deterministic random number generation.
//
// Every stochastic element of the reproduction (simulator noise, agent
// decision jitter, hallucination sampling, workload randomization) draws
// from an Rng seeded explicitly, so whole experiments replay bit-for-bit.
//
// The generator is xoshiro256** seeded through SplitMix64, the standard
// recipe recommended by the xoshiro authors; we avoid std::mt19937 because
// its state is large and its seeding via a single word is weak.
#pragma once

#include <cstdint>
#include <string_view>
#include <vector>

namespace stellar::util {

/// SplitMix64 step; used for seeding and for cheap stateless hashing.
[[nodiscard]] constexpr std::uint64_t splitmix64(std::uint64_t& state) noexcept {
  state += 0x9E3779B97F4A7C15ULL;
  std::uint64_t z = state;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

/// Stateless 64-bit mix of two words; handy for deriving sub-seeds.
[[nodiscard]] constexpr std::uint64_t mix64(std::uint64_t a, std::uint64_t b) noexcept {
  std::uint64_t s = a ^ (b * 0x9E3779B97F4A7C15ULL);
  return splitmix64(s);
}

/// Deterministic FNV-1a string hash. Unlike std::hash<std::string>, the
/// value is fixed across standard libraries and process runs, so it is
/// safe to derive reproducible seeds from names (tests, sharding).
[[nodiscard]] constexpr std::uint64_t hash64(std::string_view text) noexcept {
  std::uint64_t h = 0xCBF29CE484222325ULL;
  for (const char c : text) {
    h ^= static_cast<std::uint8_t>(c);
    h *= 0x100000001B3ULL;
  }
  return h;
}

/// xoshiro256** pseudo-random generator with convenience distributions.
class Rng {
 public:
  using result_type = std::uint64_t;

  explicit Rng(std::uint64_t seed = 0x57E11A12ULL) noexcept;

  /// Uniform 64-bit word.
  [[nodiscard]] std::uint64_t next() noexcept;

  // UniformRandomBitGenerator interface (usable with <random> adapters).
  static constexpr result_type min() noexcept { return 0; }
  static constexpr result_type max() noexcept { return ~0ULL; }
  result_type operator()() noexcept { return next(); }

  /// Uniform double in [0, 1).
  [[nodiscard]] double uniform() noexcept;

  /// Uniform double in [lo, hi).
  [[nodiscard]] double uniform(double lo, double hi) noexcept;

  /// Uniform integer in [lo, hi] (inclusive). Requires lo <= hi.
  [[nodiscard]] std::int64_t uniformInt(std::int64_t lo, std::int64_t hi) noexcept;

  /// Standard normal via Box-Muller (cached second deviate).
  [[nodiscard]] double normal() noexcept;

  /// Normal with the given mean and standard deviation.
  [[nodiscard]] double normal(double mean, double stddev) noexcept;

  /// Lognormal multiplicative noise factor with E[x] == 1.
  /// sigma is the standard deviation of the underlying normal.
  [[nodiscard]] double lognormalNoise(double sigma) noexcept;

  /// Bernoulli draw.
  [[nodiscard]] bool chance(double probability) noexcept;

  /// Fisher-Yates shuffle.
  template <typename T>
  void shuffle(std::vector<T>& v) noexcept {
    for (std::size_t i = v.size(); i > 1; --i) {
      const auto j = static_cast<std::size_t>(uniformInt(0, static_cast<std::int64_t>(i) - 1));
      using std::swap;
      swap(v[i - 1], v[j]);
    }
  }

  /// Derives an independent child generator; used to give each simulated
  /// rank / agent its own stream without correlating sequences.
  [[nodiscard]] Rng fork() noexcept;

 private:
  std::uint64_t s_[4];
  double cachedNormal_ = 0.0;
  bool hasCachedNormal_ = false;
};

}  // namespace stellar::util
