// SpCache: hit/miss behavior, (uid, epoch) invalidation, LRU eviction, and
// the try_get/put protocol used by parallel tree priming.
#include "graph/sp_engine.h"

#include <gtest/gtest.h>

#include <memory>
#include <string>

#include "graph/dijkstra.h"
#include "obs/metrics.h"
#include "topology/waxman.h"
#include "util/rng.h"

namespace nfvm::graph {
namespace {

std::uint64_t counter_value(const std::string& name) {
  return obs::Registry::global().counter(name)->value();
}

TEST(SpCache, SecondQueryReturnsSameTree) {
  util::Rng rng(21);
  const topo::Topology topo = topo::make_waxman(30, rng);
  SpCache cache;
  const auto first = cache.paths_from(topo.graph, 4);
  const auto second = cache.paths_from(topo.graph, 4);
  EXPECT_EQ(first.get(), second.get());  // a hit shares the stored tree
  EXPECT_EQ(cache.size(), 1u);

  const ShortestPaths fresh = dijkstra(topo.graph, 4);
  for (VertexId v = 0; v < topo.graph.num_vertices(); ++v) {
    EXPECT_EQ(first->dist[v], fresh.dist[v]);
  }
}

TEST(SpCache, CountsHitsAndMisses) {
  obs::Registry::global().reset_values();
  Graph g(3);
  g.add_edge(0, 1, 1.0);
  g.add_edge(1, 2, 1.0);
  SpCache cache;
  cache.paths_from(g, 0);  // miss
  cache.paths_from(g, 0);  // hit
  cache.paths_from(g, 1);  // miss
  cache.paths_from(g, 0);  // hit
#if NFVM_OBS
  EXPECT_EQ(counter_value("graph.spcache.misses"), 2u);
  EXPECT_EQ(counter_value("graph.spcache.hits"), 2u);
#else
  EXPECT_EQ(counter_value("graph.spcache.misses"), 0u);
#endif
}

TEST(SpCache, SetWeightInvalidates) {
  Graph g(3);
  g.add_edge(0, 1, 1.0);
  const EdgeId bridge = g.add_edge(1, 2, 1.0);
  SpCache cache;
  const auto before = cache.paths_from(g, 0);
  EXPECT_DOUBLE_EQ(before->dist[2], 2.0);

  g.set_weight(bridge, 10.0);  // epoch bump
  const auto after = cache.paths_from(g, 0);
  EXPECT_NE(before.get(), after.get());
  EXPECT_DOUBLE_EQ(after->dist[2], 11.0);
  // The caller's old pointer still reads the pre-mutation tree.
  EXPECT_DOUBLE_EQ(before->dist[2], 2.0);
  EXPECT_EQ(cache.size(), 1u);  // stale entries were flushed, not kept
}

TEST(SpCache, GraphCopyHasDistinctIdentity) {
  Graph g(3);
  g.add_edge(0, 1, 1.0);
  g.add_edge(1, 2, 1.0);
  SpCache cache;
  cache.paths_from(g, 0);
  cache.paths_from(g, 1);
  EXPECT_EQ(cache.size(), 2u);

  const Graph copy = g;  // fresh uid: same structure, different identity
  cache.paths_from(copy, 0);
  EXPECT_EQ(cache.size(), 1u);  // rebinding flushed the old graph's trees
}

TEST(SpCache, EvictsLeastRecentlyUsed) {
  util::Rng rng(22);
  const topo::Topology topo = topo::make_waxman(20, rng);
  SpCache cache(/*capacity=*/2);
  const auto tree0 = cache.paths_from(topo.graph, 0);
  cache.paths_from(topo.graph, 1);
  cache.paths_from(topo.graph, 0);  // touch 0: source 1 is now the LRU
  cache.paths_from(topo.graph, 2);  // evicts source 1
  EXPECT_EQ(cache.size(), 2u);

  obs::Registry::global().reset_values();
  EXPECT_EQ(cache.paths_from(topo.graph, 0).get(), tree0.get());  // survived
  cache.paths_from(topo.graph, 1);  // was evicted: recomputed
#if NFVM_OBS
  EXPECT_EQ(counter_value("graph.spcache.hits"), 1u);
  EXPECT_EQ(counter_value("graph.spcache.misses"), 1u);
#endif
}

TEST(SpCache, EvictedTreeStaysUsable) {
  Graph g(2);
  g.add_edge(0, 1, 3.0);
  SpCache cache(/*capacity=*/1);
  const auto tree = cache.paths_from(g, 0);
  cache.paths_from(g, 1);  // evicts source 0's entry
  EXPECT_DOUBLE_EQ(tree->dist[1], 3.0);  // shared_ptr keeps it alive
}

TEST(SpCache, TryGetAndPutRoundTrip) {
  Graph g(3);
  g.add_edge(0, 1, 1.0);
  SpCache cache;
  EXPECT_EQ(cache.try_get(g, 0), nullptr);

  auto tree = std::make_shared<const ShortestPaths>(dijkstra(g, 0));
  cache.put(g, 0, tree);
  EXPECT_EQ(cache.try_get(g, 0).get(), tree.get());
  EXPECT_EQ(cache.paths_from(g, 0).get(), tree.get());

  g.add_edge(1, 2, 1.0);  // epoch bump: the entry is stale
  EXPECT_EQ(cache.try_get(g, 0), nullptr);
}

TEST(SpCache, UnboundedWhenCapacityZero) {
  util::Rng rng(23);
  const topo::Topology topo = topo::make_waxman(25, rng);
  SpCache cache(/*capacity=*/0);
  for (VertexId s = 0; s < topo.graph.num_vertices(); ++s) {
    cache.paths_from(topo.graph, s);
  }
  EXPECT_EQ(cache.size(), topo.graph.num_vertices());
}

}  // namespace
}  // namespace nfvm::graph
