#include <gtest/gtest.h>

#include "graph/components.h"
#include "graph/steiner.h"
#include "reference/exact_steiner.h"
#include "util/rng.h"

namespace nfvm::graph {
namespace {

/// Star whose center is a pure Steiner point with a slightly-worse ring:
/// plain KMB returns a ring chain (weight 5.7); the optimum is the star
/// through the center (weight 4.0).
Graph star_with_ring() {
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

Graph random_connected_graph(util::Rng& rng, std::size_t n, double p) {
  for (;;) {
    Graph g(n);
    for (VertexId u = 0; u < n; ++u) {
      for (VertexId v = u + 1; v < n; ++v) {
        if (rng.bernoulli(p)) g.add_edge(u, v, rng.uniform_real(0.5, 10.0));
      }
    }
    if (is_connected(g)) return g;
  }
}

TEST(SteinerImprove, RecoversMissedSteinerPoint) {
  const Graph g = star_with_ring();
  const std::vector<VertexId> terminals{1, 2, 3, 4};
  const SteinerResult kmb = kmb_steiner(g, terminals);
  ASSERT_TRUE(kmb.connected);
  ASSERT_GT(kmb.weight, 4.0 + 1e-9);  // plain KMB misses the center
  const SteinerResult improved = improve_steiner(g, kmb, terminals);
  EXPECT_NEAR(improved.weight, 4.0, 1e-9);  // insertion of vertex 0 fixes it
  EXPECT_TRUE(is_steiner_tree(g, improved.edges, terminals));
}

TEST(SteinerImprove, NeverWorsens) {
  util::Rng rng(21);
  for (int trial = 0; trial < 8; ++trial) {
    const Graph g = random_connected_graph(rng, 16, 0.3);
    std::vector<VertexId> terminals;
    for (std::size_t p : rng.sample_without_replacement(16, 5)) {
      terminals.push_back(static_cast<VertexId>(p));
    }
    const SteinerResult kmb = kmb_steiner(g, terminals);
    const SteinerResult improved = improve_steiner(g, kmb, terminals);
    EXPECT_LE(improved.weight, kmb.weight + 1e-9) << "trial " << trial;
    EXPECT_TRUE(is_steiner_tree(g, improved.edges, terminals));
    // Still bounded below by the optimum.
    const SteinerResult exact = reference::exact_steiner(g, terminals);
    EXPECT_GE(improved.weight + 1e-9, exact.weight);
  }
}

TEST(SteinerImprove, IdempotentWhenNoVertexHelps) {
  const Graph g = star_with_ring();
  const std::vector<VertexId> terminals{1, 2, 3, 4};
  SteinerResult improved = improve_steiner(g, kmb_steiner(g, terminals), terminals);
  const double first = improved.weight;
  improved = improve_steiner(g, std::move(improved), terminals);
  EXPECT_DOUBLE_EQ(improved.weight, first);
}

TEST(SteinerImprove, SingleTerminalTrivial) {
  Graph g(3);
  g.add_edge(0, 1, 1.0);
  SteinerResult base;
  base.connected = true;
  const SteinerResult improved =
      improve_steiner(g, base, std::vector<VertexId>{1});
  EXPECT_TRUE(improved.edges.empty());
}

TEST(SteinerImprove, DisconnectedInputRejected) {
  Graph g(2);
  SteinerResult bad;  // connected == false
  EXPECT_THROW(improve_steiner(g, bad, std::vector<VertexId>{0, 1}),
               std::invalid_argument);
}

TEST(SteinerImprove, ZeroRoundsIsIdentity) {
  const Graph g = star_with_ring();
  const std::vector<VertexId> terminals{1, 2, 3, 4};
  const SteinerResult kmb = kmb_steiner(g, terminals);
  const SteinerResult same = improve_steiner(g, kmb, terminals, 0);
  EXPECT_DOUBLE_EQ(same.weight, kmb.weight);
  EXPECT_EQ(same.edges, kmb.edges);
}

}  // namespace
}  // namespace nfvm::graph
