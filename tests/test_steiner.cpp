#include "graph/steiner.h"

#include <gtest/gtest.h>

#include <algorithm>

#include "reference/exact_steiner.h"
#include "reference/support.h"

namespace nfvm::graph {
namespace {

using reference::exact_steiner;

/// Classic KMB example shape: a star whose center is a Steiner point.
Graph star_with_ring() {
  // 0 = center; 1..4 = terminals on a ring of heavy edges, light spokes.
  Graph g(5);
  g.add_edge(0, 1, 1.0);
  g.add_edge(0, 2, 1.0);
  g.add_edge(0, 3, 1.0);
  g.add_edge(0, 4, 1.0);
  g.add_edge(1, 2, 1.9);
  g.add_edge(2, 3, 1.9);
  g.add_edge(3, 4, 1.9);
  g.add_edge(4, 1, 1.9);
  return g;
}

TEST(KmbSteiner, SingleTerminalTrivial) {
  Graph g(3);
  g.add_edge(0, 1, 1.0);
  const SteinerResult st = kmb_steiner(g, std::vector<VertexId>{1});
  EXPECT_TRUE(st.connected);
  EXPECT_TRUE(st.edges.empty());
  EXPECT_DOUBLE_EQ(st.weight, 0.0);
}

TEST(KmbSteiner, DuplicateTerminalsIgnored) {
  Graph g(2);
  g.add_edge(0, 1, 2.0);
  const SteinerResult st = kmb_steiner(g, std::vector<VertexId>{0, 1, 0, 1});
  EXPECT_TRUE(st.connected);
  EXPECT_EQ(st.edges.size(), 1u);
  EXPECT_DOUBLE_EQ(st.weight, 2.0);
}

TEST(KmbSteiner, TwoTerminalsIsShortestPath) {
  Graph g(4);
  g.add_edge(0, 1, 1.0);
  g.add_edge(1, 2, 1.0);
  g.add_edge(2, 3, 1.0);
  g.add_edge(0, 3, 10.0);
  const SteinerResult st = kmb_steiner(g, std::vector<VertexId>{0, 3});
  EXPECT_TRUE(st.connected);
  EXPECT_DOUBLE_EQ(st.weight, 3.0);
  EXPECT_EQ(st.edges.size(), 3u);
}

TEST(KmbSteiner, UsesSteinerPoint) {
  const Graph g = star_with_ring();
  const SteinerResult st = kmb_steiner(g, std::vector<VertexId>{1, 2, 3, 4});
  EXPECT_TRUE(st.connected);
  // Optimal is the star through center 0 (weight 4); KMB may return the
  // chain of ring edges (weight 5.7) but never more than 2x optimal.
  EXPECT_LE(st.weight, 2.0 * 4.0 + 1e-9);
  EXPECT_TRUE(reference::is_steiner_tree(g, st.edges, std::vector<VertexId>{1, 2, 3, 4}));
}

TEST(KmbSteiner, DisconnectedTerminals) {
  Graph g(4);
  g.add_edge(0, 1, 1.0);
  g.add_edge(2, 3, 1.0);
  const SteinerResult st = kmb_steiner(g, std::vector<VertexId>{0, 3});
  EXPECT_FALSE(st.connected);
  EXPECT_TRUE(st.edges.empty());
}

TEST(KmbSteiner, EmptyTerminalSetThrows) {
  Graph g(2);
  EXPECT_THROW(kmb_steiner(g, std::vector<VertexId>{}), std::invalid_argument);
}

TEST(KmbSteiner, InvalidTerminalThrows) {
  Graph g(2);
  EXPECT_THROW(kmb_steiner(g, std::vector<VertexId>{5}), std::out_of_range);
}

TEST(KmbSteiner, ResultHasNoNonTerminalLeaves) {
  const Graph g = star_with_ring();
  const std::vector<VertexId> terms{1, 3};
  const SteinerResult st = kmb_steiner(g, terms);
  // Count degrees in the result.
  std::vector<int> deg(g.num_vertices(), 0);
  for (EdgeId e : st.edges) {
    ++deg[g.edge(e).u];
    ++deg[g.edge(e).v];
  }
  for (VertexId v = 0; v < g.num_vertices(); ++v) {
    if (deg[v] == 1) {
      EXPECT_TRUE(std::find(terms.begin(), terms.end(), v) != terms.end())
          << "non-terminal leaf " << v;
    }
  }
}

TEST(ExactSteiner, MatchesShortestPathForTwoTerminals) {
  Graph g(4);
  g.add_edge(0, 1, 1.0);
  g.add_edge(1, 2, 1.0);
  g.add_edge(2, 3, 1.0);
  g.add_edge(0, 3, 2.5);
  const SteinerResult st = exact_steiner(g, std::vector<VertexId>{0, 3});
  EXPECT_TRUE(st.connected);
  EXPECT_DOUBLE_EQ(st.weight, 2.5);
}

TEST(ExactSteiner, FindsSteinerPoint) {
  const Graph g = star_with_ring();
  const SteinerResult st = exact_steiner(g, std::vector<VertexId>{1, 2, 3, 4});
  EXPECT_TRUE(st.connected);
  EXPECT_DOUBLE_EQ(st.weight, 4.0);  // star through the center
  EXPECT_EQ(st.edges.size(), 4u);
}

TEST(ExactSteiner, SingleTerminal) {
  Graph g(2);
  g.add_edge(0, 1, 1.0);
  const SteinerResult st = exact_steiner(g, std::vector<VertexId>{0});
  EXPECT_TRUE(st.connected);
  EXPECT_TRUE(st.edges.empty());
}

TEST(ExactSteiner, DisconnectedReturnsNotConnected) {
  Graph g(4);
  g.add_edge(0, 1, 1.0);
  const SteinerResult st = exact_steiner(g, std::vector<VertexId>{0, 3});
  EXPECT_FALSE(st.connected);
}

TEST(ExactSteiner, TooManyTerminalsThrows) {
  Graph g(20);
  for (VertexId v = 0; v + 1 < 20; ++v) g.add_edge(v, v + 1, 1.0);
  std::vector<VertexId> terms;
  for (VertexId v = 0; v < 16; ++v) terms.push_back(v);
  EXPECT_THROW(exact_steiner(g, terms), std::invalid_argument);
}

TEST(ExactSteiner, ThreeTerminalMedianVertex) {
  // Path 0-1-2-3-4 plus terminal 5 hanging off 2: optimum joins at 2.
  Graph g(6);
  g.add_edge(0, 1, 1.0);
  g.add_edge(1, 2, 1.0);
  g.add_edge(2, 3, 1.0);
  g.add_edge(3, 4, 1.0);
  g.add_edge(2, 5, 1.0);
  const SteinerResult st = exact_steiner(g, std::vector<VertexId>{0, 4, 5});
  EXPECT_DOUBLE_EQ(st.weight, 5.0);
  EXPECT_EQ(st.edges.size(), 5u);
}

TEST(ExactSteiner, EightTerminalsAgainstKmbSandwich) {
  // exact <= kmb <= 2 exact with a larger terminal set.
  Graph g(12);
  // Grid-ish structure.
  for (VertexId v = 0; v + 1 < 12; ++v) g.add_edge(v, v + 1, 1.0);
  g.add_edge(0, 6, 2.5);
  g.add_edge(2, 8, 2.5);
  g.add_edge(4, 10, 2.5);
  const std::vector<VertexId> terms{0, 2, 4, 5, 7, 8, 10, 11};
  const SteinerResult exact = exact_steiner(g, terms);
  const SteinerResult kmb = kmb_steiner(g, terms);
  ASSERT_TRUE(exact.connected);
  ASSERT_TRUE(kmb.connected);
  EXPECT_LE(exact.weight, kmb.weight + 1e-9);
  EXPECT_LE(kmb.weight, 2.0 * exact.weight + 1e-9);
  EXPECT_TRUE(reference::is_steiner_tree(g, exact.edges, terms));
}

TEST(IsSteinerTree, AcceptsValidTree) {
  Graph g(4);
  const EdgeId a = g.add_edge(0, 1, 1.0);
  const EdgeId b = g.add_edge(1, 2, 1.0);
  g.add_edge(2, 3, 1.0);
  EXPECT_TRUE(reference::is_steiner_tree(g, std::vector<EdgeId>{a, b},
                              std::vector<VertexId>{0, 2}));
}

TEST(IsSteinerTree, RejectsCycle) {
  Graph g(3);
  const EdgeId a = g.add_edge(0, 1, 1.0);
  const EdgeId b = g.add_edge(1, 2, 1.0);
  const EdgeId c = g.add_edge(2, 0, 1.0);
  EXPECT_FALSE(reference::is_steiner_tree(g, std::vector<EdgeId>{a, b, c},
                               std::vector<VertexId>{0, 1, 2}));
}

TEST(IsSteinerTree, RejectsMissingTerminal) {
  Graph g(4);
  const EdgeId a = g.add_edge(0, 1, 1.0);
  EXPECT_FALSE(reference::is_steiner_tree(g, std::vector<EdgeId>{a},
                               std::vector<VertexId>{0, 3}));
}

TEST(IsSteinerTree, RejectsDisconnectedForest) {
  Graph g(4);
  const EdgeId a = g.add_edge(0, 1, 1.0);
  const EdgeId b = g.add_edge(2, 3, 1.0);
  EXPECT_FALSE(reference::is_steiner_tree(g, std::vector<EdgeId>{a, b},
                               std::vector<VertexId>{0, 3}));
}

TEST(IsSteinerTree, SingleTerminalNeedsNoEdges) {
  Graph g(2);
  const EdgeId a = g.add_edge(0, 1, 1.0);
  EXPECT_TRUE(reference::is_steiner_tree(g, std::vector<EdgeId>{}, std::vector<VertexId>{0}));
  EXPECT_FALSE(reference::is_steiner_tree(g, std::vector<EdgeId>{a}, std::vector<VertexId>{0}));
}

}  // namespace
}  // namespace nfvm::graph
