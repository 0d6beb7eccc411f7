#include "util/combinatorics.h"

#include <gtest/gtest.h>

#include <limits>
#include <vector>

#include "reference/support.h"

namespace nfvm::util {
namespace {

constexpr std::size_t kMax = std::numeric_limits<std::size_t>::max();

std::vector<std::vector<std::size_t>> enumerate(std::size_t n, std::size_t k) {
  std::vector<std::size_t> idx(k);
  for (std::size_t i = 0; i < k; ++i) idx[i] = i;
  std::vector<std::vector<std::size_t>> out;
  do {
    out.push_back(idx);
  } while (reference::next_combination(idx, n));
  return out;
}

TEST(Combinatorics, EnumeratesAllCombinationsInLexOrder) {
  const auto combos = enumerate(5, 3);
  ASSERT_EQ(combos.size(), count_combinations(5, 3));
  EXPECT_EQ(combos.front(), (std::vector<std::size_t>{0, 1, 2}));
  EXPECT_EQ(combos.back(), (std::vector<std::size_t>{2, 3, 4}));
  for (std::size_t i = 1; i < combos.size(); ++i) {
    EXPECT_LT(combos[i - 1], combos[i]);  // strictly increasing lex order
  }
  for (const auto& combo : combos) {
    for (std::size_t i = 1; i < combo.size(); ++i) {
      EXPECT_LT(combo[i - 1], combo[i]);
    }
    EXPECT_LT(combo.back(), 5u);
  }
}

TEST(Combinatorics, SingleElementAndFullCombination) {
  EXPECT_EQ(enumerate(4, 1).size(), 4u);
  EXPECT_EQ(enumerate(4, 4).size(), 1u);  // only {0,1,2,3}
}

TEST(Combinatorics, EmptyIndexVectorHasNoSuccessor) {
  std::vector<std::size_t> idx;
  EXPECT_FALSE(reference::next_combination(idx, 7));
}

TEST(Combinatorics, CountCombinationsKnownValues) {
  EXPECT_EQ(count_combinations(0, 0), 1u);
  EXPECT_EQ(count_combinations(10, 0), 1u);
  EXPECT_EQ(count_combinations(10, 3), 120u);
  EXPECT_EQ(count_combinations(10, 7), 120u);  // symmetry
  EXPECT_EQ(count_combinations(52, 5), 2598960u);
  EXPECT_EQ(count_combinations(3, 5), 0u);  // k > n
}

TEST(Combinatorics, CountCombinationsSaturates) {
  EXPECT_EQ(count_combinations(1000, 500), kMax);
}

TEST(Combinatorics, CountCombinationsUpto) {
  // The Appro_Multi sweep sizes: 10 servers at K=4, 9 servers at K=4.
  EXPECT_EQ(count_combinations_upto(10, 4), 385u);
  EXPECT_EQ(count_combinations_upto(9, 4), 255u);
  EXPECT_EQ(count_combinations_upto(9, 6), 465u);
  // k past n stops at n: sum of all nonempty subsets.
  EXPECT_EQ(count_combinations_upto(4, 100), 15u);
  EXPECT_EQ(count_combinations_upto(0, 3), 0u);
  EXPECT_EQ(count_combinations_upto(1000, 500), kMax);
}

TEST(Combinatorics, SaturatingAdd) {
  EXPECT_EQ(saturating_add(2, 3), 5u);
  EXPECT_EQ(saturating_add(kMax, 1), kMax);
  EXPECT_EQ(saturating_add(kMax - 1, 1), kMax);
  EXPECT_EQ(saturating_add(kMax, kMax), kMax);
}

}  // namespace
}  // namespace nfvm::util
