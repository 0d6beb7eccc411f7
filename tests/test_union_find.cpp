#include "graph/union_find.h"

#include <gtest/gtest.h>

#include <stdexcept>

#include "util/rng.h"

namespace nfvm::graph {
namespace {

TEST(UnionFind, InitiallyAllSingletons) {
  UnionFind uf(4);
  EXPECT_EQ(uf.num_sets(), 4u);
  for (std::size_t i = 0; i < 4; ++i) {
    EXPECT_EQ(uf.find(i), i);
  }
}

TEST(UnionFind, UniteMerges) {
  UnionFind uf(4);
  EXPECT_TRUE(uf.unite(0, 1));
  EXPECT_TRUE(uf.connected(0, 1));
  EXPECT_FALSE(uf.connected(0, 2));
  EXPECT_EQ(uf.num_sets(), 3u);
}

TEST(UnionFind, UniteTwiceReturnsFalse) {
  UnionFind uf(3);
  EXPECT_TRUE(uf.unite(0, 1));
  EXPECT_FALSE(uf.unite(1, 0));
  EXPECT_EQ(uf.num_sets(), 2u);
}

TEST(UnionFind, SelfUniteIsNoop) {
  UnionFind uf(3);
  EXPECT_FALSE(uf.unite(2, 2));
  EXPECT_EQ(uf.num_sets(), 3u);
}

TEST(UnionFind, TransitiveConnectivity) {
  UnionFind uf(5);
  uf.unite(0, 1);
  uf.unite(1, 2);
  uf.unite(3, 4);
  EXPECT_TRUE(uf.connected(0, 2));
  EXPECT_FALSE(uf.connected(2, 3));
  uf.unite(2, 3);
  EXPECT_TRUE(uf.connected(0, 4));
  EXPECT_EQ(uf.num_sets(), 1u);
}

TEST(UnionFind, OutOfRangeThrows) {
  UnionFind uf(2);
  EXPECT_THROW(uf.find(2), std::out_of_range);
  EXPECT_THROW(uf.unite(0, 9), std::out_of_range);
}

TEST(UnionFind, EmptyStructure) {
  UnionFind uf(0);
  EXPECT_EQ(uf.num_sets(), 0u);
  EXPECT_EQ(uf.size(), 0u);
}

TEST(UnionFind, RandomizedInvariant) {
  // Property: num_sets decreases by exactly one per successful unite, and
  // the roots (find(v) == v) are exactly num_sets vertices.
  util::Rng rng(77);
  const std::size_t n = 200;
  UnionFind uf(n);
  std::size_t expected_sets = n;
  for (int i = 0; i < 500; ++i) {
    const auto a = static_cast<std::size_t>(rng.next_below(n));
    const auto b = static_cast<std::size_t>(rng.next_below(n));
    if (uf.unite(a, b)) --expected_sets;
    EXPECT_EQ(uf.num_sets(), expected_sets);
  }
  std::size_t roots = 0;
  for (std::size_t v = 0; v < n; ++v) roots += uf.find(v) == v ? 1 : 0;
  EXPECT_EQ(roots, expected_sets);
}

}  // namespace
}  // namespace nfvm::graph
