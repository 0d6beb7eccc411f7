// SpEngine: equivalence with the dijkstra() free function and the
// historical heap loop, masked runs (also through graph::TreeTable), and
// CsrView staleness tracking.
#include "graph/sp_engine.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <span>
#include <stdexcept>
#include <utility>
#include <vector>

#include "reference/support.h"
#include "topology/waxman.h"
#include "util/rng.h"

namespace nfvm::graph {
namespace {

void expect_trees_equal(const ShortestPaths& a, const ShortestPaths& b) {
  ASSERT_EQ(a.dist.size(), b.dist.size());
  EXPECT_EQ(a.source, b.source);
  for (VertexId v = 0; v < a.dist.size(); ++v) {
    EXPECT_EQ(a.dist[v], b.dist[v]) << "dist mismatch at " << v;
    EXPECT_EQ(a.parent[v], b.parent[v]) << "parent mismatch at " << v;
    EXPECT_EQ(a.parent_edge[v], b.parent_edge[v]) << "edge mismatch at " << v;
  }
}

/// Reference implementation for the equivalence tests: the historical
/// binary-heap Dijkstra over the adjacency lists.
ShortestPaths reference_dijkstra(const Graph& g, VertexId source) {
  ShortestPaths sp;
  sp.source = source;
  sp.dist.assign(g.num_vertices(), kInfiniteDistance);
  sp.parent.assign(g.num_vertices(), kInvalidVertex);
  sp.parent_edge.assign(g.num_vertices(), kInvalidEdge);
  sp.dist[source] = 0.0;
  std::vector<std::pair<double, VertexId>> frontier{{0.0, source}};
  const auto cmp = [](const auto& a, const auto& b) { return a > b; };
  while (!frontier.empty()) {
    std::pop_heap(frontier.begin(), frontier.end(), cmp);
    const auto [d, u] = frontier.back();
    frontier.pop_back();
    if (d > sp.dist[u]) continue;
    for (const Adjacency& adj : g.neighbors(u)) {
      const double nd = d + g.edge(adj.edge).weight;
      if (nd < sp.dist[adj.neighbor]) {
        sp.dist[adj.neighbor] = nd;
        sp.parent[adj.neighbor] = u;
        sp.parent_edge[adj.neighbor] = adj.edge;
        frontier.emplace_back(nd, adj.neighbor);
        std::push_heap(frontier.begin(), frontier.end(), cmp);
      }
    }
  }
  return sp;
}

TEST(SpEngine, MatchesReferenceOnRandomGraph) {
  util::Rng rng(77);
  const topo::Topology topo = topo::make_waxman(60, rng);
  SpEngine engine;
  for (VertexId s = 0; s < topo.graph.num_vertices(); ++s) {
    expect_trees_equal(engine.shortest_paths(topo.graph, s),
                       reference_dijkstra(topo.graph, s));
  }
}

TEST(SpEngine, FreeFunctionsUseEngineAndStayEquivalent) {
  util::Rng rng(78);
  const topo::Topology topo = topo::make_waxman(50, rng);
  for (VertexId s : {VertexId{0}, VertexId{13}, VertexId{42}}) {
    expect_trees_equal(dijkstra(topo.graph, s),
                       reference_dijkstra(topo.graph, s));
  }
}

TEST(SpEngine, WorkspaceSurvivesGraphSwitches) {
  util::Rng rng_a(1);
  util::Rng rng_b(2);
  const topo::Topology a = topo::make_waxman(40, rng_a);
  const topo::Topology b = topo::make_waxman(25, rng_b);
  SpEngine engine;
  // Interleave queries across two graphs of different sizes; the lazily
  // reset workspace must never leak state between them.
  expect_trees_equal(engine.shortest_paths(a.graph, 0), reference_dijkstra(a.graph, 0));
  expect_trees_equal(engine.shortest_paths(b.graph, 5), reference_dijkstra(b.graph, 5));
  expect_trees_equal(engine.shortest_paths(a.graph, 7), reference_dijkstra(a.graph, 7));
}

TEST(SpEngine, SeesWeightUpdates) {
  Graph g(3);
  g.add_edge(0, 1, 1.0);
  const EdgeId bridge = g.add_edge(1, 2, 1.0);
  SpEngine engine;
  EXPECT_DOUBLE_EQ(engine.shortest_paths(g, 0).dist[2], 2.0);
  g.set_weight(bridge, 10.0);  // epoch bump => CSR view rebuilds
  EXPECT_DOUBLE_EQ(engine.shortest_paths(g, 0).dist[2], 11.0);
}

TEST(SpEngine, FilteredMatchesFreeFunction) {
  util::Rng rng(3);
  const topo::Topology topo = topo::make_waxman(40, rng);
  std::vector<std::uint8_t> mask(topo.graph.num_edges());
  for (EdgeId e = 0; e < mask.size(); ++e) mask[e] = e % 3 != 0 ? 1 : 0;
  SpEngine engine;
  const VertexId source = 4;
  TreeTable table;
  ASSERT_EQ(table.compute(topo.graph, std::span<const VertexId>(&source, 1), mask), 1u);
  expect_trees_equal(reference::shortest_paths_masked(engine, topo.graph, source, mask),
                     table.from(source));
}

TEST(CsrView, MatchesAndRefreshTrackEpoch) {
  Graph g(3);
  g.add_edge(0, 1, 1.5);
  CsrView view(g);
  EXPECT_TRUE(view.matches(g));
  EXPECT_FALSE(view.refresh(g));  // fresh view: no rebuild

  g.set_weight(0, 2.5);  // mutation bumps the epoch
  EXPECT_FALSE(view.matches(g));
  EXPECT_TRUE(view.refresh(g));
  EXPECT_TRUE(view.matches(g));
  ASSERT_EQ(view.out(0).size(), 1u);
  EXPECT_DOUBLE_EQ(view.out(0)[0].weight, 2.5);
}

TEST(CsrView, DistinguishesGraphCopies) {
  Graph g(2);
  g.add_edge(0, 1, 1.0);
  CsrView view(g);
  const Graph copy = g;  // fresh uid, same structure
  EXPECT_TRUE(view.matches(g));
  EXPECT_FALSE(view.matches(copy));
}

TEST(CsrView, PreservesNeighborOrder) {
  Graph g(3);
  g.add_edge(0, 2, 1.0);
  g.add_edge(0, 1, 1.0);
  g.add_edge(0, 2, 3.0);  // parallel edge
  const CsrView view(g);
  const auto out = view.out(0);
  const auto adj = g.neighbors(0);
  ASSERT_EQ(out.size(), adj.size());
  for (std::size_t i = 0; i < out.size(); ++i) {
    EXPECT_EQ(out[i].neighbor, adj[i].neighbor);
    EXPECT_EQ(out[i].edge, adj[i].edge);
    EXPECT_DOUBLE_EQ(out[i].weight, g.weight(adj[i].edge));
  }
}

}  // namespace
}  // namespace nfvm::graph
