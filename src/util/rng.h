// Deterministic pseudo-random number generation for reproducible simulations.
//
// All randomness in the library flows through `Rng`, a xoshiro256** generator
// seeded via splitmix64. Unlike std::mt19937 + std::uniform_*_distribution,
// the output sequence here is fully specified by this code, so test and
// benchmark results are reproducible across standard libraries and platforms.
#pragma once

#include <cstdint>
#include <limits>
#include <span>
#include <stdexcept>
#include <vector>

namespace nfvm::util {

/// xoshiro256** 1.0 (Blackman & Vigna), seeded with splitmix64.
/// Satisfies the C++ UniformRandomBitGenerator concept.
class Rng {
 public:
  using result_type = std::uint64_t;

  /// Constructs a generator whose entire stream is determined by `seed`.
  explicit Rng(std::uint64_t seed = 0x9e3779b97f4a7c15ULL) noexcept;

  static constexpr result_type min() noexcept { return 0; }
  static constexpr result_type max() noexcept {
    return std::numeric_limits<std::uint64_t>::max();
  }

  /// Next raw 64-bit value.
  result_type operator()() noexcept { return next(); }
  result_type next() noexcept;

  /// Uniform integer in [0, bound). Precondition: bound > 0.
  std::uint64_t next_below(std::uint64_t bound);

  /// Uniform integer in [lo, hi] inclusive. Precondition: lo <= hi.
  std::int64_t uniform_int(std::int64_t lo, std::int64_t hi);

  /// Uniform double in [0, 1).
  double uniform01() noexcept;

  /// Uniform double in [lo, hi). Precondition: lo <= hi.
  double uniform_real(double lo, double hi);

  /// Bernoulli trial with success probability p (clamped to [0, 1]).
  bool bernoulli(double p) noexcept;

  /// Exponentially distributed value with the given rate (> 0).
  double exponential(double rate);

  /// Fisher-Yates shuffle of `items`.
  template <typename T>
  void shuffle(std::span<T> items) {
    for (std::size_t i = items.size(); i > 1; --i) {
      const std::size_t j = static_cast<std::size_t>(next_below(i));
      using std::swap;
      swap(items[i - 1], items[j]);
    }
  }

  /// Samples `count` distinct values from [0, population) in random order.
  /// Throws std::invalid_argument if count > population.
  std::vector<std::size_t> sample_without_replacement(std::size_t population,
                                                      std::size_t count);

 private:
  std::uint64_t state_[4];
};

}  // namespace nfvm::util
