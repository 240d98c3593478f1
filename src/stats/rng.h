// Deterministic random-number utilities.
//
// Every stochastic component in the simulator takes an explicit seed so
// that benches reproduce the same tables run-to-run. splitmix64 is used to
// derive independent sub-seeds and as the hash behind the spatial noise
// field.
#pragma once

#include <cstdint>
#include <random>

#include "stats/mt19937_64.h"

namespace uniloc::stats {

/// splitmix64 hash step; good avalanche, cheap, stable across platforms.
constexpr std::uint64_t splitmix64(std::uint64_t x) {
  x += 0x9E3779B97F4A7C15ULL;
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ULL;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBULL;
  return x ^ (x >> 31);
}

/// Combine seeds/ids into one 64-bit stream id.
constexpr std::uint64_t hash_combine(std::uint64_t a, std::uint64_t b) {
  return splitmix64(a ^ (b + 0x9E3779B97F4A7C15ULL + (a << 6) + (a >> 2)));
}

/// Uniform [0,1) double from a 64-bit hash value (53 mantissa bits).
constexpr double hash_to_unit(std::uint64_t h) {
  return static_cast<double>(h >> 11) * 0x1.0p-53;
}

/// Seeded mersenne-twister engine wrapper with convenience draws. The
/// engine draws the same stream as std::mt19937_64 and exposes its state
/// to the snapshot codec (stats/rng_codec.h).
class Rng {
 public:
  explicit Rng(std::uint64_t seed) : engine_(seed) {}

  Mt19937_64& engine() { return engine_; }
  const Mt19937_64& engine() const { return engine_; }

  /// Uniform double in [lo, hi).
  double uniform(double lo = 0.0, double hi = 1.0) {
    return std::uniform_real_distribution<double>(lo, hi)(engine_);
  }

  /// Standard or parameterised normal draw.
  double normal(double mean = 0.0, double sd = 1.0) {
    return std::normal_distribution<double>(mean, sd)(engine_);
  }

  /// Uniform integer in [lo, hi] inclusive.
  int uniform_int(int lo, int hi) {
    return std::uniform_int_distribution<int>(lo, hi)(engine_);
  }

  /// Bernoulli trial.
  bool chance(double p) {
    return std::bernoulli_distribution(p)(engine_);
  }

  /// Derive an independent child generator for a named sub-stream.
  Rng fork(std::uint64_t stream_id) {
    return Rng(hash_combine(engine_(), stream_id));
  }

 private:
  Mt19937_64 engine_;
};

}  // namespace uniloc::stats
