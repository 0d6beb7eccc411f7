// Saturating combination counts for the branch-and-bound combination
// search's pruned-subtree accounting.
#pragma once

#include <cstddef>

namespace nfvm::util {

/// C(n, k); saturates at SIZE_MAX instead of overflowing. C(n, 0) == 1 and
/// k > n yields 0.
std::size_t count_combinations(std::size_t n, std::size_t k);

/// Sum of C(n, j) for j in [1, k] — the number of nonempty combinations of
/// at most k elements. Saturates at SIZE_MAX.
std::size_t count_combinations_upto(std::size_t n, std::size_t k);

/// a + b, saturating at SIZE_MAX. Pairs with the saturating counters above
/// so pruned-subtree accounting can never wrap.
std::size_t saturating_add(std::size_t a, std::size_t b);

}  // namespace nfvm::util
