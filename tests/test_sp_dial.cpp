// Dial bucket-queue determinism suite: the bucket-ring specialization must
// be bit-identical to the binary-heap path (dist, parent AND parent_edge),
// the CSR weight inspection must only ever select it on strictly-positive
// integer weights <= kMaxDialWeight, and the batched multi-source SSSP must
// reproduce the sequential per-source loop byte-for-byte at any thread
// count. See the determinism argument in src/graph/sp_engine.cpp above
// run_dial and docs/performance.md "SP engine internals".
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <vector>

#include "graph/csr.h"
#include "graph/sp_engine.h"
#include "reference/support.h"
#include "topology/waxman.h"
#include "util/rng.h"
#include "util/thread_pool.h"

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

/// The historical binary-heap Dijkstra — the order the Dial ring must
/// reproduce exactly.
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

/// A Waxman topology re-weighted through `weight_of(e)` — same structure,
/// controlled weight profile.
Graph reweighted_waxman(std::size_t n, std::uint64_t seed,
                        double (*weight_of)(EdgeId)) {
  util::Rng rng(seed);
  const topo::Topology topo = topo::make_waxman(n, rng);
  Graph g(topo.graph.num_vertices());
  for (EdgeId e = 0; e < topo.graph.num_edges(); ++e) {
    const Edge& ed = topo.graph.edge(e);
    g.add_edge(ed.u, ed.v, weight_of(e));
  }
  return g;
}

TEST(SpDial, MatchesHeapOnRandomUnitWeightGraphs) {
  for (std::uint64_t seed : {7u, 11u, 23u}) {
    const Graph g =
        reweighted_waxman(50, seed, +[](EdgeId) { return 1.0; });
    SpEngine engine;
    for (VertexId s = 0; s < g.num_vertices(); s += 7) {
      const ShortestPaths sp = engine.shortest_paths(g, s);
      EXPECT_TRUE(engine.last_used_dial()) << "unit weights must select Dial";
      expect_trees_equal(sp, reference_dijkstra(g, s));
    }
  }
}

TEST(SpDial, MatchesHeapOnSmallIntegerWeights) {
  const Graph g = reweighted_waxman(
      60, 42, +[](EdgeId e) { return 1.0 + static_cast<double>(e % 9); });
  SpEngine engine;
  for (VertexId s = 0; s < g.num_vertices(); s += 5) {
    const ShortestPaths sp = engine.shortest_paths(g, s);
    EXPECT_TRUE(engine.last_used_dial());
    expect_trees_equal(sp, reference_dijkstra(g, s));
  }
}

TEST(SpDial, MixedWeightsSelectHeapWithEqualResults) {
  // One fractional weight anywhere disqualifies the whole graph.
  const Graph g = reweighted_waxman(
      60, 42, +[](EdgeId e) { return e == 3 ? 1.5 : 2.0; });
  SpEngine engine;
  for (VertexId s = 0; s < g.num_vertices(); s += 5) {
    const ShortestPaths sp = engine.shortest_paths(g, s);
    EXPECT_FALSE(engine.last_used_dial())
        << "non-integer weights must fall back to the heap";
    expect_trees_equal(sp, reference_dijkstra(g, s));
  }
}

TEST(SpDial, ZeroWeightEdgeSelectsHeap) {
  // Zero-weight edges would relax into the bucket currently being drained;
  // eligibility requires strictly positive weights.
  const Graph g = reweighted_waxman(
      30, 9, +[](EdgeId e) { return e == 0 ? 0.0 : 1.0; });
  SpEngine engine;
  const ShortestPaths sp = engine.shortest_paths(g, 0);
  EXPECT_FALSE(engine.last_used_dial());
  expect_trees_equal(sp, reference_dijkstra(g, 0));
}

TEST(SpDial, OversizedIntegerWeightSelectsHeap) {
  const Graph g = reweighted_waxman(
      30, 9, +[](EdgeId e) { return e == 0 ? kMaxDialWeight + 1.0 : 1.0; });
  SpEngine engine;
  const ShortestPaths sp = engine.shortest_paths(g, 0);
  EXPECT_FALSE(engine.last_used_dial());
  expect_trees_equal(sp, reference_dijkstra(g, 0));
}

class SpBatch : public ::testing::TestWithParam<std::size_t> {
 protected:
  void TearDown() override { util::ThreadPool::set_global_threads(1); }
};

TEST_P(SpBatch, BatchedSsspMatchesSequentialLoop) {
  util::ThreadPool::set_global_threads(GetParam());
  for (std::uint64_t seed : {5u, 19u}) {
    util::Rng rng(seed);
    const topo::Topology topo = topo::make_waxman(80, rng);
    const Graph& g = topo.graph;
    std::vector<VertexId> sources;
    for (VertexId v = 0; v < g.num_vertices(); v += 3) sources.push_back(v);

    const std::vector<ShortestPaths> batch = batch_dijkstra(g, sources);
    ASSERT_EQ(batch.size(), sources.size());
    SpEngine engine;
    for (std::size_t i = 0; i < sources.size(); ++i) {
      expect_trees_equal(batch[i], engine.shortest_paths(g, sources[i]));
    }
  }
}

TEST_P(SpBatch, MaskedBatchMatchesSequentialMaskedLoop) {
  util::ThreadPool::set_global_threads(GetParam());
  util::Rng rng(31);
  const topo::Topology topo = topo::make_waxman(80, rng);
  const Graph& g = topo.graph;
  std::vector<std::uint8_t> mask(g.num_edges(), 1);
  for (EdgeId e = 0; e < g.num_edges(); e += 3) mask[e] = 0;
  std::vector<VertexId> sources;
  for (VertexId v = 0; v < g.num_vertices(); v += 4) sources.push_back(v);

  const std::vector<ShortestPaths> batch = batch_dijkstra(g, sources, mask);
  ASSERT_EQ(batch.size(), sources.size());
  SpEngine engine;
  for (std::size_t i = 0; i < sources.size(); ++i) {
    expect_trees_equal(batch[i],
                       reference::shortest_paths_masked(engine, g, sources[i], mask));
  }
}

INSTANTIATE_TEST_SUITE_P(Threads, SpBatch, ::testing::Values(1u, 4u));

}  // namespace
}  // namespace nfvm::graph
