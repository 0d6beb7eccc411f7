#include "reference/apsp.h"

#include <gtest/gtest.h>

#include "topology/waxman.h"
#include "util/rng.h"

namespace nfvm::graph {
namespace {

using reference::AllPairsShortestPaths;

Graph triangle_plus_isolated() {
  Graph g(4);
  g.add_edge(0, 1, 1.0);
  g.add_edge(1, 2, 2.0);
  g.add_edge(0, 2, 5.0);
  return g;  // vertex 3 isolated
}

TEST(Apsp, DistancesMatchDijkstra) {
  const Graph g = triangle_plus_isolated();
  const AllPairsShortestPaths apsp(g);
  EXPECT_DOUBLE_EQ(apsp.distance(0, 0), 0.0);
  EXPECT_DOUBLE_EQ(apsp.distance(0, 1), 1.0);
  EXPECT_DOUBLE_EQ(apsp.distance(0, 2), 3.0);
  EXPECT_DOUBLE_EQ(apsp.distance(2, 0), 3.0);  // symmetric
  EXPECT_FALSE(apsp.reachable(0, 3));
  EXPECT_TRUE(apsp.reachable(3, 3));
}

TEST(Apsp, DiameterIgnoresInfinitePairs) {
  const Graph g = triangle_plus_isolated();
  const AllPairsShortestPaths apsp(g);
  EXPECT_DOUBLE_EQ(apsp.diameter(), 3.0);
  EXPECT_FALSE(apsp.connected());
}

TEST(Apsp, ConnectedGraphReportsConnected) {
  util::Rng rng(1);
  const topo::Topology t = topo::make_waxman(40, rng);
  const AllPairsShortestPaths apsp(t.graph);
  EXPECT_TRUE(apsp.connected());
  EXPECT_GT(apsp.diameter(), 0.0);
}

TEST(Apsp, PathsRequireKeepParents) {
  const Graph g = triangle_plus_isolated();
  const AllPairsShortestPaths without(g, false);
  EXPECT_THROW(without.path(0, 2), std::logic_error);
  EXPECT_THROW(without.path_edges_between(0, 2), std::logic_error);

  const AllPairsShortestPaths with(g, true);
  EXPECT_EQ(with.path(0, 2), (std::vector<VertexId>{0, 1, 2}));
  EXPECT_EQ(with.path_edges_between(0, 2).size(), 2u);
  EXPECT_TRUE(with.path(0, 3).empty());
}

TEST(Apsp, OutOfRangeThrows) {
  const Graph g = triangle_plus_isolated();
  const AllPairsShortestPaths apsp(g);
  EXPECT_THROW(apsp.distance(0, 9), std::out_of_range);
  EXPECT_THROW(apsp.distance(9, 0), std::out_of_range);
}

TEST(Apsp, AgreesWithPerSourceDijkstraOnRandomGraph) {
  util::Rng rng(7);
  const topo::Topology t = topo::make_waxman(30, rng);
  const AllPairsShortestPaths apsp(t.graph, true);
  for (VertexId s : {VertexId{0}, VertexId{13}, VertexId{29}}) {
    const ShortestPaths sp = dijkstra(t.graph, s);
    for (VertexId v = 0; v < t.graph.num_vertices(); ++v) {
      EXPECT_NEAR(apsp.distance(s, v), sp.dist[v], 1e-12);
    }
  }
}

TEST(Apsp, TriangleInequalityHolds) {
  util::Rng rng(9);
  const topo::Topology t = topo::make_waxman(25, rng);
  const AllPairsShortestPaths apsp(t.graph);
  for (VertexId a = 0; a < 25; ++a) {
    for (VertexId b = 0; b < 25; ++b) {
      for (VertexId c = 0; c < 25; c += 5) {
        EXPECT_LE(apsp.distance(a, b),
                  apsp.distance(a, c) + apsp.distance(c, b) + 1e-9);
      }
    }
  }
}

TEST(Apsp, EmptyGraph) {
  Graph g;
  const AllPairsShortestPaths apsp(g);
  EXPECT_EQ(apsp.num_vertices(), 0u);
  EXPECT_DOUBLE_EQ(apsp.diameter(), 0.0);
  EXPECT_TRUE(apsp.connected());
}

}  // namespace
}  // namespace nfvm::graph
