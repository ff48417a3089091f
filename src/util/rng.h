// Deterministic pseudo-random number generation for the simulators.
//
// We implement SplitMix64 (seeding) and xoshiro256** (stream) rather than
// using std::mt19937 so that simulation results are bit-identical across
// standard libraries — reproducibility is a core requirement for the
// reliability and serving experiments.

#pragma once

#include <cstdint>

namespace litegpu {

// SplitMix64: used to expand a single 64-bit seed into generator state.
class SplitMix64 {
 public:
  explicit SplitMix64(uint64_t seed) : state_(seed) {}
  uint64_t Next();

 private:
  uint64_t state_;
};

// xoshiro256**: fast, high-quality, 256-bit state generator.
class Rng {
 public:
  explicit Rng(uint64_t seed = 0x9E3779B97F4A7C15ULL);

  uint64_t NextU64();

  // Uniform double in [0, 1).
  double NextDouble();

  // Uniform double in [lo, hi).
  double Uniform(double lo, double hi);

  // Uniform integer in [0, n). n must be > 0.
  uint64_t NextBelow(uint64_t n);

  // Exponential with the given rate (mean 1/rate). rate must be > 0.
  double Exponential(double rate);

  // Standard normal via Box-Muller (cached spare value).
  double Normal(double mean = 0.0, double stddev = 1.0);

  // Poisson-distributed count with the given mean (Knuth for small means,
  // normal approximation above 64).
  uint64_t Poisson(double mean);

  // Log-normal: exp(Normal(mu, sigma)).
  double LogNormal(double mu, double sigma);

 private:
  uint64_t state_[4];
  bool has_spare_normal_ = false;
  double spare_normal_ = 0.0;
};

}  // namespace litegpu
