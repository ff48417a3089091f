#include "src/util/rng.h"

#include <cmath>

namespace litegpu {

namespace {

inline uint64_t Rotl(uint64_t x, int k) { return (x << k) | (x >> (64 - k)); }

}  // namespace

uint64_t SplitMix64::Next() {
  state_ += 0x9E3779B97F4A7C15ULL;
  uint64_t z = state_;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

Rng::Rng(uint64_t seed) {
  SplitMix64 sm(seed);
  for (auto& word : state_) {
    word = sm.Next();
  }
}

uint64_t Rng::NextU64() {
  uint64_t result = Rotl(state_[1] * 5, 7) * 9;
  uint64_t t = state_[1] << 17;
  state_[2] ^= state_[0];
  state_[3] ^= state_[1];
  state_[1] ^= state_[2];
  state_[0] ^= state_[3];
  state_[2] ^= t;
  state_[3] = Rotl(state_[3], 45);
  return result;
}

double Rng::NextDouble() {
  // 53 random mantissa bits -> [0,1).
  return static_cast<double>(NextU64() >> 11) * 0x1.0p-53;
}

double Rng::Uniform(double lo, double hi) { return lo + (hi - lo) * NextDouble(); }

uint64_t Rng::NextBelow(uint64_t n) {
  // Rejection sampling to avoid modulo bias.
  uint64_t threshold = (0ULL - n) % n;
  for (;;) {
    uint64_t r = NextU64();
    if (r >= threshold) {
      return r % n;
    }
  }
}

double Rng::Exponential(double rate) {
  double u;
  do {
    u = NextDouble();
  } while (u <= 0.0);
  return -std::log(u) / rate;
}

double Rng::Normal(double mean, double stddev) {
  if (has_spare_normal_) {
    has_spare_normal_ = false;
    return mean + stddev * spare_normal_;
  }
  double u1;
  do {
    u1 = NextDouble();
  } while (u1 <= 0.0);
  double u2 = NextDouble();
  double mag = std::sqrt(-2.0 * std::log(u1));
  double z0 = mag * std::cos(2.0 * M_PI * u2);
  spare_normal_ = mag * std::sin(2.0 * M_PI * u2);
  has_spare_normal_ = true;
  return mean + stddev * z0;
}

uint64_t Rng::Poisson(double mean) {
  if (mean <= 0.0) {
    return 0;
  }
  if (mean > 64.0) {
    double x = Normal(mean, std::sqrt(mean));
    return x < 0.0 ? 0 : static_cast<uint64_t>(x + 0.5);
  }
  // Knuth's method.
  double limit = std::exp(-mean);
  double product = NextDouble();
  uint64_t count = 0;
  while (product > limit) {
    ++count;
    product *= NextDouble();
  }
  return count;
}

double Rng::LogNormal(double mu, double sigma) { return std::exp(Normal(mu, sigma)); }

}  // namespace litegpu
