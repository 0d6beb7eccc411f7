#include "util/rng.h"

#include <cmath>

namespace nfvm::util {
namespace {

std::uint64_t splitmix64(std::uint64_t& x) noexcept {
  x += 0x9e3779b97f4a7c15ULL;
  std::uint64_t z = x;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

constexpr std::uint64_t rotl(std::uint64_t x, int k) noexcept {
  return (x << k) | (x >> (64 - k));
}

}  // namespace

Rng::Rng(std::uint64_t seed) noexcept {
  std::uint64_t s = seed;
  for (auto& word : state_) word = splitmix64(s);
  // xoshiro must not start from the all-zero state; splitmix64 of any seed
  // cannot produce four zero words, but keep the guard for clarity.
  if ((state_[0] | state_[1] | state_[2] | state_[3]) == 0) state_[0] = 1;
}

Rng::result_type Rng::next() noexcept {
  const std::uint64_t result = rotl(state_[1] * 5, 7) * 9;
  const std::uint64_t t = state_[1] << 17;
  state_[2] ^= state_[0];
  state_[3] ^= state_[1];
  state_[1] ^= state_[2];
  state_[0] ^= state_[3];
  state_[2] ^= t;
  state_[3] = rotl(state_[3], 45);
  return result;
}

std::uint64_t Rng::next_below(std::uint64_t bound) {
  if (bound == 0) throw std::invalid_argument("Rng::next_below: bound must be > 0");
  // Rejection sampling to avoid modulo bias.
  const std::uint64_t threshold = (0 - bound) % bound;
  for (;;) {
    const std::uint64_t r = next();
    if (r >= threshold) return r % bound;
  }
}

std::int64_t Rng::uniform_int(std::int64_t lo, std::int64_t hi) {
  if (lo > hi) throw std::invalid_argument("Rng::uniform_int: lo > hi");
  const std::uint64_t span =
      static_cast<std::uint64_t>(hi) - static_cast<std::uint64_t>(lo) + 1;
  if (span == 0) {  // full 64-bit range
    return static_cast<std::int64_t>(next());
  }
  return lo + static_cast<std::int64_t>(next_below(span));
}

double Rng::uniform01() noexcept {
  // 53 high-quality bits -> double in [0, 1).
  return static_cast<double>(next() >> 11) * 0x1.0p-53;
}

double Rng::uniform_real(double lo, double hi) {
  if (lo > hi) throw std::invalid_argument("Rng::uniform_real: lo > hi");
  return lo + (hi - lo) * uniform01();
}

bool Rng::bernoulli(double p) noexcept { return uniform01() < p; }

double Rng::exponential(double rate) {
  if (!(rate > 0)) throw std::invalid_argument("Rng::exponential: rate must be > 0");
  double u = uniform01();
  // uniform01 can return 0; shift into (0, 1] for the log.
  if (u <= 0) u = 0x1.0p-53;
  return -std::log(u) / rate;
}

std::vector<std::size_t> Rng::sample_without_replacement(std::size_t population,
                                                         std::size_t count) {
  if (count > population) {
    throw std::invalid_argument(
        "Rng::sample_without_replacement: count exceeds population");
  }
  // Partial Fisher-Yates over an index vector. Memory is O(population),
  // which is fine for the graph sizes this library targets.
  std::vector<std::size_t> indices(population);
  for (std::size_t i = 0; i < population; ++i) indices[i] = i;
  for (std::size_t i = 0; i < count; ++i) {
    const std::size_t j = i + static_cast<std::size_t>(next_below(population - i));
    std::swap(indices[i], indices[j]);
  }
  indices.resize(count);
  return indices;
}

}  // namespace nfvm::util
