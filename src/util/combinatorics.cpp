#include "util/combinatorics.h"

#include <algorithm>
#include <limits>

namespace nfvm::util {
namespace {

constexpr std::size_t kSaturated = std::numeric_limits<std::size_t>::max();

}  // namespace

std::size_t count_combinations(std::size_t n, std::size_t k) {
  if (k > n) return 0;
  k = std::min(k, n - k);
  std::size_t result = 1;
  for (std::size_t i = 1; i <= k; ++i) {
    // result holds C(n - k + i - 1, i - 1); multiplying by (n - k + i)
    // before dividing by i keeps every intermediate value integral.
    const std::size_t factor = n - k + i;
    if (result > kSaturated / factor) return kSaturated;
    result = result * factor / i;
  }
  return result;
}

std::size_t count_combinations_upto(std::size_t n, std::size_t k) {
  std::size_t total = 0;
  for (std::size_t j = 1; j <= std::min(k, n); ++j) {
    total = saturating_add(total, count_combinations(n, j));
    if (total == kSaturated) break;
  }
  return total;
}

std::size_t saturating_add(std::size_t a, std::size_t b) {
  return a > kSaturated - b ? kSaturated : a + b;
}

}  // namespace nfvm::util
