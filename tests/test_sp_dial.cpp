// Breadth-first search determinism suite. On unit weights SpEngine runs a
// level-synchronous breadth-first search instead of the 4-ary heap; it must
// return the heap's trees bit for bit (dist, parent AND parent_edge) with
// the same scan and relax counts, the CSR weight inspection must select it
// only when every weight is 1.0, and the batched multi-source SSSP
// (SpBatch: graph::TreeTable::compute) must reproduce a fresh per-source run
// byte-for-byte at any thread count while keeping every held tree in place.
// The suite keeps the name of the Dial bucket ring the search replaced.
// See the argument above SpEngine::run_bfs and docs/performance.md "SP
// engine internals".
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <numeric>
#include <span>
#include <stdexcept>
#include <string>
#include <vector>

#include "graph/csr.h"
#include "graph/sp_engine.h"
#include "obs_test_util.h"
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

/// A reference run: the tree and the engine's two work counts for it.
struct ReferenceRun {
  ShortestPaths tree;
  std::uint64_t edges_scanned = 0;  // allowed entries of settled vertices
  std::uint64_t edges_relaxed = 0;  // strict label improvements
};

/// The historical binary-heap Dijkstra over the edges `mask` allows (an
/// empty mask allows all) — the (distance, id) order the breadth-first
/// search must reproduce exactly.
ReferenceRun reference_dijkstra(const Graph& g, VertexId source,
                                std::span<const std::uint8_t> mask = {}) {
  ReferenceRun run;
  ShortestPaths& sp = run.tree;
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
      if (!mask.empty() && mask[adj.edge] == 0) continue;
      ++run.edges_scanned;
      const double nd = d + g.edge(adj.edge).weight;
      if (nd < sp.dist[adj.neighbor]) {
        ++run.edges_relaxed;
        sp.dist[adj.neighbor] = nd;
        sp.parent[adj.neighbor] = u;
        sp.parent_edge[adj.neighbor] = adj.edge;
        frontier.emplace_back(nd, adj.neighbor);
        std::push_heap(frontier.begin(), frontier.end(), cmp);
      }
    }
  }
  return run;
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

/// A random unit-weight multigraph on `n` vertices: about a tenth of the
/// vertices isolated, up to 3n random edges among the others, some of them
/// self-loops and some doubled into parallel edges.
Graph random_unit_multigraph(util::Rng& rng, std::size_t n) {
  Graph g(n);
  std::vector<VertexId> linked;
  for (VertexId v = 0; v < n; ++v) {
    if (!rng.bernoulli(0.1)) linked.push_back(v);
  }
  if (linked.empty()) return g;
  const std::size_t extra = static_cast<std::size_t>(rng.uniform_int(0, 3 * n));
  for (std::size_t i = 0; i < extra; ++i) {
    const VertexId u = linked[rng.next_below(linked.size())];
    VertexId v = linked[rng.next_below(linked.size())];
    if (rng.bernoulli(0.05)) v = u;  // self-loop
    g.add_edge(u, v, 1.0);
    if (rng.bernoulli(0.1)) g.add_edge(u, v, 1.0);  // parallel
  }
  return g;
}

std::vector<std::uint8_t> random_mask(util::Rng& rng, std::size_t m) {
  std::vector<std::uint8_t> mask(m);
  for (std::uint8_t& b : mask) b = rng.bernoulli(0.8) ? 1 : 0;
  return mask;
}

/// Runs `engine.compute` from `source` into the reused `tree` and checks
/// it, and under NFVM_OBS its scan and relax counts, against the heap.
void expect_bfs_matches_heap(SpEngine& engine, const Graph& g, VertexId source,
                             std::span<const std::uint8_t> mask,
                             ShortestPaths& tree, const std::string& where) {
  SCOPED_TRACE(where);
  const ReferenceRun want = reference_dijkstra(g, source, mask);
  tree.source = source;
  const test::CounterBaseline counters;
  engine.compute(g, tree, mask);
  EXPECT_TRUE(engine.last_used_bfs()) << "unit weights must select the BFS";
  expect_trees_equal(tree, want.tree);
#if NFVM_OBS
  EXPECT_EQ(counters.since("graph.dijkstra.edges_scanned"), want.edges_scanned);
  EXPECT_EQ(counters.since("graph.dijkstra.edges_relaxed"), want.edges_relaxed);
  EXPECT_EQ(counters.since("graph.dijkstra.dial_runs"), 1u);
#endif
}

TEST(SpDial, MatchesHeapOnRandomUnitWeightGraphs) {
  for (std::uint64_t seed : {7u, 11u, 23u}) {
    const Graph g =
        reweighted_waxman(50, seed, +[](EdgeId) { return 1.0; });
    SpEngine engine;
    for (VertexId s = 0; s < g.num_vertices(); s += 7) {
      const ShortestPaths sp = engine.shortest_paths(g, s);
      EXPECT_TRUE(engine.last_used_bfs()) << "unit weights must select the BFS";
      expect_trees_equal(sp, reference_dijkstra(g, s).tree);
    }
  }
}

// Word boundaries of the bitsets (63/64/65, 127/128/129), the smallest
// graphs, and a graph spanning seven words; isolated vertices, parallel
// edges, self-loops and random masks throughout. One engine and one tree
// serve every run, so stale state between runs would show.
TEST(SpDial, BfsMatchesHeapOnRandomMaskedMultigraphs) {
  util::Rng rng(2323);
  SpEngine engine;
  ShortestPaths tree;
  for (const std::size_t n : {1u, 2u, 63u, 64u, 65u, 127u, 128u, 129u, 400u}) {
    for (int trial = 0; trial < 6; ++trial) {
      const Graph g = random_unit_multigraph(rng, n);
      const std::vector<std::uint8_t> mask = random_mask(rng, g.num_edges());
      for (int k = 0; k < 4; ++k) {
        const VertexId s = static_cast<VertexId>(rng.next_below(n));
        const std::string where = "n " + std::to_string(n) + " trial " +
                                  std::to_string(trial) + " source " +
                                  std::to_string(s);
        expect_bfs_matches_heap(engine, g, s, mask, tree, where + " masked");
        expect_bfs_matches_heap(engine, g, s, {}, tree, where + " unmasked");
      }
    }
  }
}

// A 4,000-vertex path, once with ids in path order and once shuffled so
// every level lands in a random word: 4,000 levels of one vertex each.
TEST(SpDial, BfsMatchesHeapOnLongPath) {
  constexpr std::size_t kN = 4000;
  util::Rng rng(4000);
  SpEngine engine;
  ShortestPaths tree;
  for (const bool shuffled : {false, true}) {
    std::vector<VertexId> order(kN);
    std::iota(order.begin(), order.end(), VertexId{0});
    if (shuffled) rng.shuffle(std::span<VertexId>(order));
    Graph g(kN);
    for (std::size_t i = 1; i < kN; ++i) g.add_edge(order[i - 1], order[i], 1.0);
    std::vector<std::uint8_t> cut(g.num_edges(), 1);
    cut[kN / 2] = 0;  // splits the path in two
    const std::string where = shuffled ? "shuffled path" : "path";
    for (const VertexId s : {order[0], order[kN / 3], order[kN - 1]}) {
      expect_bfs_matches_heap(engine, g, s, {}, tree, where);
      expect_bfs_matches_heap(engine, g, s, cut, tree, where + " cut");
    }
  }
}

// The rows keep each neighbour's first allowed edge: of two parallel u-v
// edges, the allowed second one when the first is masked, the first one
// when both are allowed.
TEST(SpDial, ParallelEdgesKeepTheFirstAllowedOne) {
  Graph g(3);
  const EdgeId first = g.add_edge(0, 1, 1.0);
  const EdgeId second = g.add_edge(0, 1, 1.0);
  const EdgeId onward = g.add_edge(1, 2, 1.0);
  SpEngine engine;
  ShortestPaths tree;
  std::vector<std::uint8_t> mask(g.num_edges(), 1);
  mask[first] = 0;
  for (const VertexId s : {VertexId{0}, VertexId{1}, VertexId{2}}) {
    expect_bfs_matches_heap(engine, g, s, mask, tree, "first masked");
  }
  tree.source = 0;
  engine.compute(g, tree, mask);
  EXPECT_EQ(tree.parent_edge[1], second);
  EXPECT_EQ(tree.parent_edge[2], onward);
  tree.source = 2;
  engine.compute(g, tree, mask);
  EXPECT_EQ(tree.parent_edge[0], second);

  for (const VertexId s : {VertexId{0}, VertexId{1}, VertexId{2}}) {
    expect_bfs_matches_heap(engine, g, s, {}, tree, "both allowed");
  }
  tree.source = 0;
  engine.compute(g, tree, {});
  EXPECT_EQ(tree.parent_edge[1], first);
  tree.source = 2;
  engine.compute(g, tree, {});
  EXPECT_EQ(tree.parent_edge[0], first);
}

// Self-loops are allowed entries like any other: a settled vertex's loops
// count in edges_scanned, and a vertex whose only allowed entries are loops
// is nobody's parent. Vertex 3 has two loops and a masked edge to 2; vertex
// 2 has a loop and reaches 0 and 1.
TEST(SpDial, SelfLoopsCountButParentNobody) {
  Graph g(4);
  g.add_edge(0, 1, 1.0);
  g.add_edge(1, 2, 1.0);
  g.add_edge(2, 2, 1.0);
  const EdgeId cut = g.add_edge(2, 3, 1.0);
  g.add_edge(3, 3, 1.0);
  g.add_edge(3, 3, 1.0);
  std::vector<std::uint8_t> mask(g.num_edges(), 1);
  mask[cut] = 0;
  SpEngine engine;
  ShortestPaths tree;
  for (const VertexId s : {VertexId{0}, VertexId{2}, VertexId{3}}) {
    const std::string where = "source " + std::to_string(s);
    expect_bfs_matches_heap(engine, g, s, mask, tree, where + " masked");
    expect_bfs_matches_heap(engine, g, s, {}, tree, where + " unmasked");
    tree.source = s;
    engine.compute(g, tree, mask);
    for (VertexId v = 0; v < g.num_vertices(); ++v) {
      EXPECT_NE(tree.parent[v], 3u) << where << " vertex " << v;
    }
  }
  tree.source = 3;
  const ReferenceRun alone = reference_dijkstra(g, 3, mask);
  EXPECT_EQ(alone.edges_scanned, 2u);  // its two loops
  EXPECT_EQ(alone.edges_relaxed, 0u);
  engine.compute(g, tree, mask);
  for (VertexId v = 0; v < 3; ++v) EXPECT_FALSE(tree.reachable(v)) << v;
}

// One vertex adjacent to both sides of each word boundary of a 129-vertex
// graph (0, 63, 64, 127 and 128), with edges across both boundaries that tie
// at distance two; rooted on each side of each boundary.
TEST(SpDial, NeighboursAcrossWordBoundaries) {
  Graph g(129);
  constexpr VertexId kHub = 100;
  for (const VertexId v : {0u, 63u, 64u, 127u, 128u}) g.add_edge(kHub, v, 1.0);
  g.add_edge(63, 64, 1.0);
  g.add_edge(127, 128, 1.0);
  g.add_edge(0, 128, 1.0);
  g.add_edge(1, 64, 1.0);
  g.add_edge(65, 127, 1.0);
  SpEngine engine;
  ShortestPaths tree;
  util::Rng rng(129);
  for (const VertexId s : {0u, 1u, 63u, 64u, 65u, 100u, 127u, 128u}) {
    const std::string where = "source " + std::to_string(s);
    expect_bfs_matches_heap(engine, g, s, {}, tree, where);
    for (int trial = 0; trial < 4; ++trial) {
      const std::vector<std::uint8_t> mask = random_mask(rng, g.num_edges());
      expect_bfs_matches_heap(engine, g, s, mask, tree, where + " masked");
    }
  }
}

TEST(SpDial, MatchesHeapOnSmallIntegerWeights) {
  // Integer weights above 1 take the heap, which is exact on them.
  const Graph g = reweighted_waxman(
      60, 42, +[](EdgeId e) { return 1.0 + static_cast<double>(e % 9); });
  SpEngine engine;
  for (VertexId s = 0; s < g.num_vertices(); s += 5) {
    const ShortestPaths sp = engine.shortest_paths(g, s);
    EXPECT_FALSE(engine.last_used_bfs());
    expect_trees_equal(sp, reference_dijkstra(g, s).tree);
  }
}

TEST(SpDial, MixedWeightsSelectHeapWithEqualResults) {
  // One fractional weight anywhere disqualifies the whole graph.
  const Graph g = reweighted_waxman(
      60, 42, +[](EdgeId e) { return e == 3 ? 1.5 : 2.0; });
  SpEngine engine;
  for (VertexId s = 0; s < g.num_vertices(); s += 5) {
    const ShortestPaths sp = engine.shortest_paths(g, s);
    EXPECT_FALSE(engine.last_used_bfs())
        << "non-unit weights must take the heap";
    expect_trees_equal(sp, reference_dijkstra(g, s).tree);
  }
}

TEST(SpDial, ZeroWeightEdgeSelectsHeap) {
  const Graph g = reweighted_waxman(
      30, 9, +[](EdgeId e) { return e == 0 ? 0.0 : 1.0; });
  SpEngine engine;
  const ShortestPaths sp = engine.shortest_paths(g, 0);
  EXPECT_FALSE(engine.last_used_bfs());
  expect_trees_equal(sp, reference_dijkstra(g, 0).tree);
}

TEST(SpDial, OversizedIntegerWeightSelectsHeap) {
  // One weight other than 1.0, here a large integer, is enough.
  const Graph g = reweighted_waxman(
      30, 9, +[](EdgeId e) { return e == 0 ? 1025.0 : 1.0; });
  SpEngine engine;
  const ShortestPaths sp = engine.shortest_paths(g, 0);
  EXPECT_FALSE(engine.last_used_bfs());
  expect_trees_equal(sp, reference_dijkstra(g, 0).tree);
}

/// graph::TreeTable, the batched multi-source SSSP, at a pool of
/// GetParam() threads.
class SpBatch : public ::testing::TestWithParam<std::size_t> {
 protected:
  void SetUp() override { util::ThreadPool::set_global_threads(GetParam()); }
  void TearDown() override { util::ThreadPool::set_global_threads(1); }
};

/// A random multigraph from random_unit_multigraph, its weights kept at 1.0
/// (the breadth-first search) or redrawn from {1, 2, a real in [0.5, 4)}
/// (the heap, with ties).
Graph random_table_graph(util::Rng& rng, std::size_t n, bool unit) {
  const Graph shape = random_unit_multigraph(rng, n);
  if (unit) return shape;
  Graph g(n);
  for (EdgeId e = 0; e < shape.num_edges(); ++e) {
    const Edge& ed = shape.edge(e);
    const double w = rng.bernoulli(0.5) ? static_cast<double>(rng.uniform_int(1, 2))
                                        : rng.uniform_real(0.5, 4.0);
    g.add_edge(ed.u, ed.v, w);
  }
  return g;
}

/// `count` random roots on an n-vertex graph, the first one repeated last.
std::vector<VertexId> random_roots(util::Rng& rng, std::size_t n, std::size_t count) {
  std::vector<VertexId> roots;
  for (std::size_t k = 0; k < count; ++k) {
    roots.push_back(static_cast<VertexId>(rng.next_below(n)));
  }
  roots.push_back(roots.front());
  return roots;
}

std::size_t distinct_count(std::vector<VertexId> roots) {
  std::sort(roots.begin(), roots.end());
  return static_cast<std::size_t>(std::unique(roots.begin(), roots.end()) -
                                  roots.begin());
}

/// The tree SpEngine::compute returns from `root` on a fresh engine.
ShortestPaths fresh_tree(const Graph& g, VertexId root,
                         std::span<const std::uint8_t> mask) {
  SpEngine engine;
  ShortestPaths tree;
  tree.source = root;
  engine.compute(g, tree, mask);
  return tree;
}

// Random masked and unmasked multigraphs (unit and mixed weights, parallel
// edges, self-loops, isolated vertices) with repeated roots: every tree
// equals a fresh SpEngine::compute bit for bit, and the returned count is
// the number of distinct roots, each computed once.
TEST_P(SpBatch, BatchedSsspMatchesSequentialLoop) {
  util::Rng rng(5019);
  for (const std::size_t n : {1u, 2u, 63u, 64u, 65u, 129u, 200u}) {
    for (int trial = 0; trial < 4; ++trial) {
      const Graph g = random_table_graph(rng, n, trial % 2 == 0);
      const std::vector<std::uint8_t> mask =
          trial < 2 ? random_mask(rng, g.num_edges()) : std::vector<std::uint8_t>{};
      const std::vector<VertexId> roots =
          random_roots(rng, n, static_cast<std::size_t>(rng.uniform_int(1, 12)));
      const std::string where = "n " + std::to_string(n) + " trial " +
                                std::to_string(trial);
      std::vector<VertexId> distinct = roots;
      std::sort(distinct.begin(), distinct.end());
      distinct.erase(std::unique(distinct.begin(), distinct.end()), distinct.end());
      std::uint64_t want_scanned = 0;
      std::uint64_t want_relaxed = 0;
      for (const VertexId r : distinct) {
        const ReferenceRun run = reference_dijkstra(g, r, mask);
        want_scanned += run.edges_scanned;
        want_relaxed += run.edges_relaxed;
      }
      TreeTable table;
      const test::CounterBaseline counters;
      EXPECT_EQ(table.compute(g, roots, mask), distinct.size()) << where;
#if NFVM_OBS
      // One table call shares its rows across every tree, at any thread
      // count; the scan and relax counts are still the heap's, tree by tree.
      EXPECT_EQ(counters.since("graph.dijkstra.runs"), distinct.size()) << where;
      EXPECT_EQ(counters.since("graph.dijkstra.edges_scanned"), want_scanned) << where;
      EXPECT_EQ(counters.since("graph.dijkstra.edges_relaxed"), want_relaxed) << where;
#endif
      for (const VertexId r : roots) {
        SCOPED_TRACE(where + " root " + std::to_string(r));
        ASSERT_TRUE(table.has(r));
        expect_trees_equal(table.from(r), fresh_tree(g, r, mask));
      }
    }
  }
}

TEST_P(SpBatch, MaskedBatchMatchesSequentialMaskedLoop) {
  util::Rng rng(31);
  const topo::Topology topo = topo::make_waxman(80, rng);
  const Graph& g = topo.graph;
  std::vector<std::uint8_t> mask(g.num_edges(), 1);
  for (EdgeId e = 0; e < g.num_edges(); e += 3) mask[e] = 0;
  std::vector<VertexId> sources;
  for (VertexId v = 0; v < g.num_vertices(); v += 4) sources.push_back(v);

  TreeTable table;
  ASSERT_EQ(table.compute(g, sources, mask), sources.size());
  SpEngine engine;
  for (const VertexId s : sources) {
    expect_trees_equal(table.from(s),
                       reference::shortest_paths_masked(engine, g, s, mask));
  }
}

// A compute() that adds roots, many more than the first one held, neither
// moves nor rewrites an earlier tree, and recomputes none of them.
TEST_P(SpBatch, AddedRootsLeaveEarlierTreesInPlace) {
  util::Rng rng(77);
  const Graph g = random_table_graph(rng, 150, false);
  const std::vector<std::uint8_t> mask = random_mask(rng, g.num_edges());
  const std::vector<VertexId> first = {3, 140, 3, 77};
  TreeTable table;
  ASSERT_EQ(table.compute(g, first, mask), 3u);
  std::vector<const ShortestPaths*> held;
  std::vector<ShortestPaths> copies;
  for (const VertexId r : first) {
    held.push_back(&table.from(r));
    copies.push_back(table.from(r));
  }
  std::vector<VertexId> more(first.begin(), first.end());
  for (VertexId v = 0; v < g.num_vertices(); v += 2) more.push_back(v);
  const test::CounterBaseline counters;
  const std::size_t added = table.compute(g, more, mask);
  EXPECT_EQ(added, distinct_count(more) - 3);
#if NFVM_OBS
  EXPECT_EQ(counters.since("graph.dijkstra.runs"), added);
#endif
  for (std::size_t i = 0; i < first.size(); ++i) {
    SCOPED_TRACE("root " + std::to_string(first[i]));
    EXPECT_EQ(&table.from(first[i]), held[i]);
    expect_trees_equal(*held[i], copies[i]);
  }
  for (const VertexId r : more) {
    SCOPED_TRACE("root " + std::to_string(r));
    expect_trees_equal(table.from(r), fresh_tree(g, r, mask));
  }
}

// clear() forgets every tree, so the next compute() recomputes each root
// (under another mask here); a bad root or a short mask throws before
// anything is computed.
TEST_P(SpBatch, ClearRecomputesEveryRoot) {
  util::Rng rng(78);
  const Graph g = random_table_graph(rng, 90, true);
  ASSERT_GT(g.num_edges(), 1u);
  const std::vector<VertexId> roots = {8, 1, 8, 40, 89};
  TreeTable table;
  ASSERT_EQ(table.compute(g, roots), 4u);
  table.clear();
  for (const VertexId r : roots) {
    EXPECT_FALSE(table.has(r));
    EXPECT_THROW(table.from(r), std::logic_error);
  }
  const std::vector<std::uint8_t> mask = random_mask(rng, g.num_edges());
  const test::CounterBaseline counters;
  EXPECT_EQ(table.compute(g, roots, mask), 4u);
#if NFVM_OBS
  EXPECT_EQ(counters.since("graph.dijkstra.runs"), 4u);
#endif
  for (const VertexId r : roots) {
    expect_trees_equal(table.from(r), fresh_tree(g, r, mask));
  }

  const std::vector<VertexId> bad = {2, 90};
  EXPECT_THROW(table.compute(g, bad, mask), std::out_of_range);
  EXPECT_FALSE(table.has(2));
  const std::vector<std::uint8_t> short_mask(g.num_edges() - 1, 1);
  EXPECT_THROW(table.compute(g, std::vector<VertexId>{2}, short_mask),
               std::invalid_argument);
  EXPECT_FALSE(table.has(2));
}

INSTANTIATE_TEST_SUITE_P(Threads, SpBatch, ::testing::Values(1u, 4u));

}  // namespace
}  // namespace nfvm::graph
