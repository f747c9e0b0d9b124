// Deterministic random number generation.
//
// All randomness in the library (epoch shuffles, synthetic payloads, the
// sim link's drops, loss-curve noise) flows through seeded xoshiro256**
// instances so that every test, example and benchmark run is reproducible.
#pragma once

#include <cstdint>
#include <vector>

namespace emlio {

/// xoshiro256** 1.0 — small, fast, high-quality PRNG.
/// Satisfies UniformRandomBitGenerator so it works with <algorithm>.
class Rng {
 public:
  using result_type = std::uint64_t;

  /// Seed via splitmix64 expansion of a single 64-bit seed.
  explicit Rng(std::uint64_t seed = 0x9E3779B97F4A7C15ull);

  static constexpr result_type min() { return 0; }
  static constexpr result_type max() { return ~0ull; }

  /// Next raw 64-bit value.
  result_type operator()();

  /// Uniform integer in [0, bound) with rejection to avoid modulo bias.
  std::uint64_t uniform(std::uint64_t bound);

  /// Uniform integer in [lo, hi] inclusive.
  std::int64_t uniform_int(std::int64_t lo, std::int64_t hi);

  /// Uniform double in [0, 1).
  double uniform01();

  /// Uniform double in [lo, hi).
  double uniform_real(double lo, double hi);

  /// Standard normal via Box–Muller (cached pair).
  double normal(double mean = 0.0, double stddev = 1.0);

  /// Exponentially distributed value with the given rate (λ).
  double exponential(double rate);

  /// Fisher–Yates shuffle of a vector in place.
  template <typename T>
  void shuffle(std::vector<T>& v) {
    for (std::size_t i = v.size(); i > 1; --i) {
      std::size_t j = uniform(i);
      using std::swap;
      swap(v[i - 1], v[j]);
    }
  }

  /// Derive an independent child generator (for per-thread streams).
  Rng fork();

 private:
  std::uint64_t s_[4];
  bool have_cached_normal_ = false;
  double cached_normal_ = 0.0;
};

}  // namespace emlio
