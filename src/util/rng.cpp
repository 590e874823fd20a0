#include "util/rng.hpp"

#include <cmath>

namespace stellar::util {

namespace {
constexpr std::uint64_t rotl(std::uint64_t x, int k) noexcept {
  return (x << k) | (x >> (64 - k));
}
}  // namespace

Rng::Rng(std::uint64_t seed) noexcept {
  // SplitMix64 expansion of the seed into the full 256-bit state, per the
  // xoshiro reference implementation guidance.
  std::uint64_t sm = seed;
  for (auto& word : s_) {
    word = splitmix64(sm);
  }
}

std::uint64_t Rng::next() noexcept {
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

double Rng::uniform() noexcept {
  // 53 high bits -> double in [0, 1).
  return static_cast<double>(next() >> 11) * 0x1.0p-53;
}

double Rng::uniform(double lo, double hi) noexcept {
  return lo + (hi - lo) * uniform();
}

std::int64_t Rng::uniformInt(std::int64_t lo, std::int64_t hi) noexcept {
  const auto span = static_cast<std::uint64_t>(hi - lo) + 1;
  if (span == 0) {  // full 64-bit range
    return static_cast<std::int64_t>(next());
  }
  // Rejection sampling to remove modulo bias.
  const std::uint64_t limit = (~0ULL) - (~0ULL) % span;
  std::uint64_t draw = next();
  while (draw >= limit) {
    draw = next();
  }
  return lo + static_cast<std::int64_t>(draw % span);
}

double Rng::normal() noexcept {
  if (hasCachedNormal_) {
    hasCachedNormal_ = false;
    return cachedNormal_;
  }
  // Box-Muller; u1 nudged away from zero to keep log() finite.
  double u1 = uniform();
  if (u1 < 1e-300) {
    u1 = 1e-300;
  }
  const double u2 = uniform();
  const double r = std::sqrt(-2.0 * std::log(u1));
  const double theta = 2.0 * M_PI * u2;
  cachedNormal_ = r * std::sin(theta);
  hasCachedNormal_ = true;
  return r * std::cos(theta);
}

double Rng::normal(double mean, double stddev) noexcept {
  return mean + stddev * normal();
}

double Rng::lognormalNoise(double sigma) noexcept {
  // exp(N(-sigma^2/2, sigma)) has expectation exactly 1.
  return std::exp(normal(-0.5 * sigma * sigma, sigma));
}

bool Rng::chance(double probability) noexcept {
  if (probability <= 0.0) {
    return false;
  }
  if (probability >= 1.0) {
    return true;
  }
  return uniform() < probability;
}

Rng Rng::fork() noexcept {
  return Rng{next()};
}

}  // namespace stellar::util
