#include "graph/dijkstra.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "graph/sp_engine.h"
#include "reference/support.h"
#include "topology/waxman.h"
#include "util/rng.h"

namespace nfvm::graph {
namespace {

/// 0 -1- 1 -1- 2 and a direct heavy edge 0-2.
Graph triangle() {
  Graph g(3);
  g.add_edge(0, 1, 1.0);
  g.add_edge(1, 2, 1.0);
  g.add_edge(0, 2, 5.0);
  return g;
}

TEST(Dijkstra, SourceDistanceZero) {
  const Graph g = triangle();
  const ShortestPaths sp = dijkstra(g, 0);
  EXPECT_DOUBLE_EQ(sp.dist[0], 0.0);
  EXPECT_EQ(sp.parent[0], kInvalidVertex);
}

TEST(Dijkstra, PrefersMultiHopWhenCheaper) {
  const Graph g = triangle();
  const ShortestPaths sp = dijkstra(g, 0);
  EXPECT_DOUBLE_EQ(sp.dist[2], 2.0);
  EXPECT_EQ(sp.parent[2], 1u);
}

TEST(Dijkstra, PathVerticesAndEdges) {
  const Graph g = triangle();
  const ShortestPaths sp = dijkstra(g, 0);
  EXPECT_EQ(path_vertices(sp, 2), (std::vector<VertexId>{0, 1, 2}));
  EXPECT_EQ(path_edges(sp, 2), (std::vector<EdgeId>{0, 1}));
}

TEST(Dijkstra, PathToSourceIsTrivial) {
  const Graph g = triangle();
  const ShortestPaths sp = dijkstra(g, 0);
  EXPECT_EQ(path_vertices(sp, 0), (std::vector<VertexId>{0}));
  EXPECT_TRUE(path_edges(sp, 0).empty());
}

TEST(Dijkstra, UnreachableVertex) {
  Graph g(3);
  g.add_edge(0, 1, 1.0);
  const ShortestPaths sp = dijkstra(g, 0);
  EXPECT_FALSE(sp.reachable(2));
  EXPECT_TRUE(path_vertices(sp, 2).empty());
  EXPECT_TRUE(path_edges(sp, 2).empty());
}

TEST(Dijkstra, InvalidSourceThrows) {
  Graph g(2);
  EXPECT_THROW(dijkstra(g, 7), std::out_of_range);
}

TEST(Dijkstra, ZeroWeightEdges) {
  Graph g(3);
  g.add_edge(0, 1, 0.0);
  g.add_edge(1, 2, 0.0);
  const ShortestPaths sp = dijkstra(g, 0);
  EXPECT_DOUBLE_EQ(sp.dist[2], 0.0);
  EXPECT_EQ(path_vertices(sp, 2).size(), 3u);
}

TEST(Dijkstra, ParallelEdgesUseCheapest) {
  Graph g(2);
  g.add_edge(0, 1, 5.0);
  const EdgeId cheap = g.add_edge(0, 1, 2.0);
  const ShortestPaths sp = dijkstra(g, 0);
  EXPECT_DOUBLE_EQ(sp.dist[1], 2.0);
  EXPECT_EQ(sp.parent_edge[1], cheap);
}

TEST(Dijkstra, FilteredExcludesEdges) {
  const Graph g = triangle();
  // Forbid the cheap 0-1 edge; best route to 2 becomes the direct edge.
  const std::vector<std::uint8_t> mask = {0, 1, 1};
  const ShortestPaths sp =
      reference::shortest_paths_masked(SpEngine::thread_local_engine(), g, 0, mask);
  EXPECT_DOUBLE_EQ(sp.dist[2], 5.0);
  EXPECT_EQ(path_vertices(sp, 2), (std::vector<VertexId>{0, 2}));
}

TEST(Dijkstra, FilteredCanDisconnect) {
  Graph g(2);
  g.add_edge(0, 1, 1.0);
  const std::vector<std::uint8_t> mask = {0};
  const ShortestPaths sp =
      reference::shortest_paths_masked(SpEngine::thread_local_engine(), g, 0, mask);
  EXPECT_FALSE(sp.reachable(1));
}

TEST(Dijkstra, TriangleInequalityOnRandomGraph) {
  util::Rng rng(1234);
  const topo::Topology topo = topo::make_waxman(60, rng);
  const Graph& g = topo.graph;
  const ShortestPaths a = dijkstra(g, 0);
  const ShortestPaths b = dijkstra(g, 10);
  for (VertexId v = 0; v < g.num_vertices(); ++v) {
    // d(0, v) <= d(0, 10) + d(10, v)
    EXPECT_LE(a.dist[v], a.dist[10] + b.dist[v] + 1e-9);
  }
}

TEST(Dijkstra, PathWeightsMatchDistances) {
  util::Rng rng(99);
  const topo::Topology topo = topo::make_waxman(50, rng);
  const Graph& g = topo.graph;
  const ShortestPaths sp = dijkstra(g, 3);
  for (VertexId v = 0; v < g.num_vertices(); ++v) {
    if (!sp.reachable(v)) continue;
    double sum = 0.0;
    for (EdgeId e : path_edges(sp, v)) sum += g.weight(e);
    EXPECT_NEAR(sum, sp.dist[v], 1e-9);
  }
}

TEST(Dijkstra, SymmetricDistancesOnUndirectedGraph) {
  util::Rng rng(7);
  const topo::Topology topo = topo::make_waxman(40, rng);
  const ShortestPaths from0 = dijkstra(topo.graph, 0);
  for (VertexId v : {VertexId{5}, VertexId{17}, VertexId{31}}) {
    const ShortestPaths back = dijkstra(topo.graph, v);
    EXPECT_NEAR(from0.dist[v], back.dist[0], 1e-9);
  }
}

}  // namespace
}  // namespace nfvm::graph
