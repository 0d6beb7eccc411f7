// Randomized oracle for exact shortest-path-tree repair: after every batch
// of weight / mask changes, SpEngine::repair and SpTreeStore must return
// trees bit-identical (dist, parent, parent_edge) to a fresh SpEngine run,
// on multigraphs with parallel edges, self-loops and heavy ties. Also pins
// the engine's radix queue against the historical lazy-deletion 4-ary heap,
// kept here as the reference implementation, on IEEE-754 corner weights
// (both zeros, subnormals, sums that overflow) and zero-weight plateaus.
#include "graph/sp_repair.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <stdexcept>
#include <string>
#include <vector>

#include "graph/csr.h"
#include "graph/sp_engine.h"
#include "obs_test_util.h"
#include "reference/support.h"
#include "util/rng.h"
#include "util/thread_pool.h"

namespace nfvm::graph {
namespace {

/// Restores the global pool to single-threaded when a test exits.
struct GlobalThreadsGuard {
  ~GlobalThreadsGuard() { util::ThreadPool::set_global_threads(1); }
};

// --- Reference: the lazy-deletion 4-ary heap Dijkstra ------------------------

/// The engine's historical heap loop: pushes a new (distance, id) item on
/// every improvement and skips stale items on pop.
ShortestPaths lazy_heap_dijkstra(const Graph& g, VertexId source,
                                 std::span<const std::uint8_t> mask) {
  struct Item {
    double dist;
    VertexId vertex;
  };
  const auto less = [](const Item& a, const Item& b) {
    return a.dist < b.dist || (a.dist == b.dist && a.vertex < b.vertex);
  };
  std::vector<Item> heap;
  const auto push = [&](Item item) {
    heap.push_back(item);
    std::size_t i = heap.size() - 1;
    while (i > 0) {
      const std::size_t parent = (i - 1) / 4;
      if (!less(heap[i], heap[parent])) break;
      std::swap(heap[i], heap[parent]);
      i = parent;
    }
  };
  const auto pop = [&]() {
    const Item top = heap.front();
    const Item last = heap.back();
    heap.pop_back();
    if (!heap.empty()) {
      std::size_t i = 0;
      for (;;) {
        const std::size_t first = 4 * i + 1;
        if (first >= heap.size()) break;
        const std::size_t end = std::min(first + 4, heap.size());
        std::size_t best = first;
        for (std::size_t j = first + 1; j < end; ++j) {
          if (less(heap[j], heap[best])) best = j;
        }
        if (!less(heap[best], last)) break;
        heap[i] = heap[best];
        i = best;
      }
      heap[i] = last;
    }
    return top;
  };

  const CsrView view(g);
  ShortestPaths sp;
  sp.source = source;
  sp.dist.assign(g.num_vertices(), kInfiniteDistance);
  sp.parent.assign(g.num_vertices(), kInvalidVertex);
  sp.parent_edge.assign(g.num_vertices(), kInvalidEdge);
  sp.dist[source] = 0.0;
  push(Item{0.0, source});
  while (!heap.empty()) {
    const Item top = pop();
    if (top.dist > sp.dist[top.vertex]) continue;  // stale
    for (const CsrEntry& entry : view.out(top.vertex)) {
      if (!mask.empty() && mask[entry.edge] == 0) continue;
      const double nd = top.dist + entry.weight;
      if (nd < sp.dist[entry.neighbor]) {
        sp.dist[entry.neighbor] = nd;
        sp.parent[entry.neighbor] = top.vertex;
        sp.parent_edge[entry.neighbor] = entry.edge;
        push(Item{nd, entry.neighbor});
      }
    }
  }
  return sp;
}

// --- Random multigraphs and change steps --------------------------------------

enum class Weights { kZeroToThree, kOneToFour, kReal, kRealOrZero, kEdgeCases };

std::string weights_name(Weights w) {
  switch (w) {
    case Weights::kZeroToThree: return "0..3";
    case Weights::kOneToFour: return "1..4";
    case Weights::kReal: return "real";
    case Weights::kRealOrZero: return "real or zero";
    case Weights::kEdgeCases: return "edge cases";
  }
  return "?";
}

double draw_weight(util::Rng& rng, Weights kind) {
  switch (kind) {
    case Weights::kZeroToThree:
      return static_cast<double>(rng.uniform_int(0, 3));
    case Weights::kOneToFour:
      return static_cast<double>(rng.uniform_int(1, 4));
    case Weights::kReal:
      // Exponential-cost-like reals: many magnitudes, no exact ties.
      return rng.uniform_real(0.0, 1.0) * rng.uniform_real(0.0, 8.0);
    case Weights::kRealOrZero:
      // Reals, but a link can fall back to zero (an idle link under the
      // exponential cost model). random_multigraph starts from reals, so
      // trees start tie-free and repairs meet the ties midway.
      return rng.bernoulli(0.1) ? 0.0 : draw_weight(rng, Weights::kReal);
    case Weights::kEdgeCases:
      // The corners of the queue's keys, the bits of a distance: both
      // zeros, the smallest subnormal and small multiples of it, 2^-1000
      // and exact powers of two, reals, and weights near 1e300 and near the
      // largest double, whose sums overflow to +inf (never an improvement,
      // so never queued on either side).
      switch (rng.uniform_int(0, 6)) {
        case 0:
          return rng.bernoulli(0.5) ? 0.0 : -0.0;
        case 1:
          return std::numeric_limits<double>::denorm_min() *
                 static_cast<double>(rng.uniform_int(1, 4));
        case 2:
          return rng.bernoulli(0.3)
                     ? std::ldexp(1.0, -1000)
                     : std::ldexp(1.0, static_cast<int>(rng.uniform_int(-3, 3)));
        case 3:
          return 1e300 * rng.uniform_real(1.0, 2.0);
        case 4:
          return std::numeric_limits<double>::max() * rng.uniform_real(0.5, 1.0);
        default:
          return draw_weight(rng, Weights::kReal);
      }
  }
  return 1.0;
}

/// A connected-ish random multigraph: a random spanning path plus extra
/// random edges, some of them parallel edges and self-loops.
Graph random_multigraph(util::Rng& rng, Weights kind) {
  if (kind == Weights::kRealOrZero) kind = Weights::kReal;
  const std::size_t n = static_cast<std::size_t>(rng.uniform_int(2, 36));
  Graph g(n);
  std::vector<VertexId> order(n);
  for (VertexId v = 0; v < n; ++v) order[v] = v;
  rng.shuffle(std::span<VertexId>(order));
  for (std::size_t i = 1; i < n; ++i) {
    g.add_edge(order[i - 1], order[i], draw_weight(rng, kind));
  }
  const std::size_t extra = static_cast<std::size_t>(rng.uniform_int(0, 3 * n));
  for (std::size_t i = 0; i < extra; ++i) {
    const VertexId u = static_cast<VertexId>(rng.next_below(n));
    VertexId v = static_cast<VertexId>(rng.next_below(n));
    if (rng.bernoulli(0.05)) v = u;  // self-loop
    g.add_edge(u, v, draw_weight(rng, kind));
    if (rng.bernoulli(0.1)) g.add_edge(u, v, draw_weight(rng, kind));  // parallel
  }
  return g;
}

double effective(const Graph& g, std::span<const std::uint8_t> mask, EdgeId e) {
  return mask[e] != 0 ? g.weight(e) : kInfiniteDistance;
}

/// Applies 1-5 random weight changes or mask flips; returns the effective
/// change of every touched edge (first old value, last new value).
std::vector<EdgeChange> random_step(util::Rng& rng, Weights kind, Graph& g,
                                    std::vector<std::uint8_t>& mask) {
  std::vector<EdgeChange> changes;
  const std::size_t count = static_cast<std::size_t>(rng.uniform_int(1, 5));
  for (std::size_t k = 0; k < count; ++k) {
    const EdgeId e = static_cast<EdgeId>(rng.next_below(g.num_edges()));
    const double before = effective(g, mask, e);
    if (rng.bernoulli(0.3)) {
      mask[e] = mask[e] != 0 ? 0 : 1;
    } else {
      g.set_weight(e, draw_weight(rng, kind));
    }
    const auto it = std::find_if(changes.begin(), changes.end(),
                                 [e](const EdgeChange& c) { return c.edge == e; });
    if (it == changes.end()) {
      changes.push_back(EdgeChange{e, before, effective(g, mask, e)});
    } else {
      it->new_weight = effective(g, mask, e);
    }
  }
  std::erase_if(changes,
                [](const EdgeChange& c) { return c.old_weight == c.new_weight; });
  return changes;
}

void expect_same_tree(const ShortestPaths& got, const ShortestPaths& want,
                      const std::string& where) {
  ASSERT_EQ(got.source, want.source) << where;
  ASSERT_EQ(got.dist.size(), want.dist.size()) << where;
  for (VertexId v = 0; v < want.dist.size(); ++v) {
    ASSERT_EQ(got.dist[v], want.dist[v]) << where << " dist at " << v;
    ASSERT_EQ(got.parent[v], want.parent[v]) << where << " parent at " << v;
    ASSERT_EQ(got.parent_edge[v], want.parent_edge[v])
        << where << " parent_edge at " << v;
  }
}

std::vector<std::uint8_t> random_mask(util::Rng& rng, std::size_t m) {
  std::vector<std::uint8_t> mask(m);
  for (std::uint8_t& b : mask) b = rng.bernoulli(0.9) ? 1 : 0;
  return mask;
}

// --- Tests ---------------------------------------------------------------------

TEST(SpRepair, QueueMatchesLazyHeapReference) {
  SpEngine engine;
  util::Rng rng(4242);
  std::size_t queue_runs = 0;
  for (const Weights kind : {Weights::kZeroToThree, Weights::kReal, Weights::kEdgeCases}) {
    for (int trial = 0; trial < 200; ++trial) {
      const Graph g = random_multigraph(rng, kind);
      const std::vector<std::uint8_t> mask = random_mask(rng, g.num_edges());
      const VertexId s = static_cast<VertexId>(rng.next_below(g.num_vertices()));
      const ShortestPaths got = reference::shortest_paths_masked(engine, g, s, mask);
      queue_runs += engine.last_used_bfs() ? 0 : 1;
      expect_same_tree(got, lazy_heap_dijkstra(g, s, mask),
                       weights_name(kind) + " trial " + std::to_string(trial));
    }
  }
  // Zero weights, reals and corner weights keep almost every run off the
  // breadth-first search.
  EXPECT_GT(queue_runs, 550u);

  // 5,000 vertices: the equal-distance bitset spans 79 words, and the
  // zero-weight plateaus (40% of the edges) cross word boundaries.
  constexpr std::size_t n = 5000;
  Graph g(n);
  const auto weight = [&rng] {
    return rng.bernoulli(0.4) ? 0.0 : draw_weight(rng, Weights::kEdgeCases);
  };
  for (VertexId v = 1; v < n; ++v) {
    g.add_edge(static_cast<VertexId>(rng.next_below(v)), v, weight());
  }
  for (std::size_t i = 0; i < 2 * n; ++i) {
    g.add_edge(static_cast<VertexId>(rng.next_below(n)),
               static_cast<VertexId>(rng.next_below(n)), weight());
  }
  const std::vector<std::uint8_t> mask = random_mask(rng, g.num_edges());
  for (const VertexId s : {VertexId{0}, VertexId{2500}, VertexId{n - 1}}) {
    const ShortestPaths got = reference::shortest_paths_masked(engine, g, s, mask);
    EXPECT_FALSE(engine.last_used_bfs());
    expect_same_tree(got, lazy_heap_dijkstra(g, s, mask),
                     "n = 5000, source " + std::to_string(s));
  }
}

TEST(SpRepair, EqualDistancesPopInIdOrder) {
  // From 4, vertices 3 and 7 sit at distance 1 and 3 pops first; its
  // zero-weight edge then queues 1 at distance 1, after 7. The heap pops
  // 4, 3, 1, 7, 9, so 9's parent is 1: a FIFO equal-distance bucket would
  // pop 7 before 1 and give 7.
  Graph g(10);
  g.add_edge(4, 3, 1.0);
  g.add_edge(4, 7, 1.0);
  const EdgeId e31 = g.add_edge(3, 1, 0.0);
  const EdgeId e19 = g.add_edge(1, 9, 2.0);
  const EdgeId e79 = g.add_edge(7, 9, 2.0);
  SpEngine engine;
  const ShortestPaths fresh = engine.shortest_paths(g, 4);
  EXPECT_EQ(fresh.parent[9], 1u);
  EXPECT_EQ(fresh.parent_edge[9], e19);
  expect_same_tree(fresh, lazy_heap_dijkstra(g, 4, {}), "fresh");

  // A tie-free tree in which 9 hangs below 1; lowering (3,1) to 0 and
  // (7,9) to 2 invalidates 1 and 9 and re-settles them. The zero-weight
  // edge next to 1 is a tie, so the repair finishes with a full run.
  g.set_weight(e31, 0.5);
  g.set_weight(e79, 2.75);
  ShortestPaths tree = engine.shortest_paths(g, 4);
  bool tie_free = engine.tie_free(g, tree, {});
  ASSERT_TRUE(tie_free);
  ASSERT_EQ(tree.parent[9], 1u);
  g.set_weight(e31, 0.0);
  g.set_weight(e79, 2.0);
  const std::vector<EdgeChange> changes = {EdgeChange{e31, 0.5, 0.0},
                                           EdgeChange{e79, 2.75, 2.0}};
  EXPECT_EQ(engine.repair(g, tree, changes, {}, tie_free), RepairOutcome::kRecomputed);
  EXPECT_EQ(tree.parent[9], 1u);
  EXPECT_EQ(tree.parent_edge[9], e19);
  expect_same_tree(tree, fresh, "repair");
}

TEST(SpRepair, RandomStepsMatchFreshRun) {
  SpEngine engine;
  SpEngine fresh_engine;
  for (const Weights kind : {Weights::kZeroToThree, Weights::kOneToFour,
                             Weights::kReal, Weights::kRealOrZero,
                             Weights::kEdgeCases}) {
    util::Rng rng(777 + static_cast<std::uint64_t>(kind));
    std::size_t kept = 0;
    std::size_t repaired = 0;
    std::size_t recomputed = 0;
    for (int graph_trial = 0; graph_trial < 40; ++graph_trial) {
      Graph g = random_multigraph(rng, kind);
      std::vector<std::uint8_t> mask = random_mask(rng, g.num_edges());
      ShortestPaths tree;
      tree.source = static_cast<VertexId>(rng.next_below(g.num_vertices()));
      engine.compute(g, tree, mask);
      bool tie_free = engine.tie_free(g, tree, mask);
      for (int step = 0; step < 60; ++step) {
        const std::vector<EdgeChange> changes = random_step(rng, kind, g, mask);
        const bool was_tie_free = tie_free;
        const RepairOutcome outcome = engine.repair(g, tree, changes, mask, tie_free);
        const ShortestPaths fresh = reference::shortest_paths_masked(fresh_engine, g, tree.source, mask);
        const std::string where = weights_name(kind) + " graph " +
                                  std::to_string(graph_trial) + " step " +
                                  std::to_string(step);
        expect_same_tree(tree, fresh, where);
        // Ties always fall back; a claimed tie-free tree really is one.
        if (!was_tie_free) {
          EXPECT_NE(outcome, RepairOutcome::kRepaired) << where;
        }
        if (tie_free) {
          EXPECT_TRUE(fresh_engine.tie_free(g, fresh, mask)) << where;
        }
        kept += outcome == RepairOutcome::kKept;
        repaired += outcome == RepairOutcome::kRepaired;
        recomputed += outcome == RepairOutcome::kRecomputed;
      }
    }
    EXPECT_GT(kept, 0u) << weights_name(kind);
    if (kind == Weights::kReal) {
      EXPECT_GT(repaired, 0u);
      EXPECT_GT(repaired, recomputed);  // reals rarely tie
    } else {
      // Integers tie a lot; zeros make ties appear during repairs.
      EXPECT_GT(recomputed, 0u) << weights_name(kind);
    }
    if (kind == Weights::kRealOrZero) {
      EXPECT_GT(repaired, 0u);
    }
  }
}

TEST(SpRepair, ZeroWeightPlateauIsNotTieFree) {
  Graph g(3);
  g.add_edge(0, 1, 0.0);
  g.add_edge(1, 2, 1.5);
  SpEngine engine;
  const ShortestPaths tree = engine.shortest_paths(g, 0);
  // Vertex 1 sits at distance 0 beside the source: its parent depends on
  // the settle order, not on distances alone.
  EXPECT_FALSE(engine.tie_free(g, tree, {}));
  g.set_weight(0, 0.5);
  const ShortestPaths positive = engine.shortest_paths(g, 0);
  EXPECT_TRUE(engine.tie_free(g, positive, {}));
}

TEST(SpRepair, ParallelEdgesTakeTheFirstTightOne) {
  // Three parallel 0-1 edges: the second and third tie at the minimum, so
  // the parent edge is the second, after a repair as in a fresh run.
  Graph g(3);
  g.add_edge(0, 1, 2.5);                    // e0
  const EdgeId e1 = g.add_edge(0, 1, 0.75);  // e1
  g.add_edge(0, 1, 0.75);                   // e2
  g.add_edge(1, 2, 1.25);                   // e3
  SpEngine engine;
  ShortestPaths tree = engine.shortest_paths(g, 0);
  bool tie_free = engine.tie_free(g, tree, {});
  ASSERT_TRUE(tie_free);  // parallel edges from one neighbour are no tie
  ASSERT_EQ(tree.parent_edge[1], e1);
  g.set_weight(0, 0.5);  // e0 becomes the unique best
  const EdgeChange change{0, 2.5, 0.5};
  EXPECT_EQ(engine.repair(g, tree, {&change, 1}, {}, tie_free),
            RepairOutcome::kRepaired);
  expect_same_tree(tree, engine.shortest_paths(g, 0), "after decrease");
  EXPECT_EQ(tree.parent_edge[1], 0u);
}

/// Drives an SpTreeStore through random steps with repeated sources and
/// non-root sources; every listed source's tree must equal a fresh run.
void run_store_oracle(std::size_t threads) {
  GlobalThreadsGuard guard;
  util::ThreadPool::set_global_threads(threads);
  SpEngine fresh_engine;
  util::Rng rng(9001);
  for (int graph_trial = 0; graph_trial < 30; ++graph_trial) {
    const Weights kind = graph_trial % 3 == 0 ? Weights::kOneToFour : Weights::kReal;
    Graph g = random_multigraph(rng, kind);
    std::vector<std::uint8_t> mask = random_mask(rng, g.num_edges());
    std::vector<VertexId> roots;
    for (VertexId v = 0; v < g.num_vertices(); ++v) {
      if (rng.bernoulli(0.5)) roots.push_back(v);
    }
    SpTreeStore store(roots);
    for (int step = 0; step < 40; ++step) {
      random_step(rng, kind, g, mask);
      std::vector<VertexId> sources;
      const std::size_t count = static_cast<std::size_t>(rng.uniform_int(1, 8));
      for (std::size_t k = 0; k < count; ++k) {
        sources.push_back(static_cast<VertexId>(rng.next_below(g.num_vertices())));
      }
      if (!sources.empty()) sources.push_back(sources.front());  // a repeat
      store.update(g, sources, mask);
      const std::string where = "graph " + std::to_string(graph_trial) +
                                " step " + std::to_string(step);
      for (std::size_t i = 0; i < sources.size(); ++i) {
        expect_same_tree(store.from(sources[i]),
                         reference::shortest_paths_masked(fresh_engine, g, sources[i], mask),
                         where + " slot " + std::to_string(i));
      }
    }
  }
}

TEST(SpRepair, StoreMatchesFreshRunSingleThread) { run_store_oracle(1); }

TEST(SpRepair, StoreMatchesFreshRunFourThreads) { run_store_oracle(4); }

TEST(SpRepair, StoreDropsEverythingOnClear) {
  Graph g(3);
  g.add_edge(0, 1, 1.5);
  g.add_edge(1, 2, 2.5);
  const std::vector<VertexId> roots = {0, 2};
  SpTreeStore store(roots);
  const std::vector<std::uint8_t> mask(g.num_edges(), 1);
  const std::vector<VertexId> sources = {0, 1, 2};
  store.update(g, sources, mask);
  const ShortestPaths tree_2 = store.from(2);
  const test::CounterBaseline again;
  store.update(g, sources, mask);
#if NFVM_OBS
  // Nothing changed: the roots are kept, only the other source is computed
  // fresh.
  EXPECT_EQ(again.since("graph.sp_repair.trees_kept"), 2u);
  EXPECT_EQ(again.since("graph.dijkstra.runs"), 1u);
#endif
  store.clear();
  EXPECT_THROW(store.from(0), std::logic_error);
  EXPECT_THROW(store.from(1), std::logic_error);
  const test::CounterBaseline rebuilt;
  store.update(g, sources, mask);
#if NFVM_OBS
  EXPECT_EQ(rebuilt.since("graph.dijkstra.runs"), 3u);
  EXPECT_EQ(rebuilt.since("graph.sp_repair.trees_kept"), 0u);
#endif
  expect_same_tree(store.from(2), tree_2, "after clear");
  // Only what the last update listed can be read.
  store.update(g, std::vector<VertexId>{2}, mask);
  EXPECT_THROW(store.from(0), std::logic_error);
  EXPECT_THROW(store.from(1), std::logic_error);
}

#if NFVM_OBS
TEST(SpRepair, StoreUpdateOpensOnePoolRegion) {
  GlobalThreadsGuard guard;
  util::ThreadPool::set_global_threads(4);
  // A path 0 - 1 - ... - 7 with distinct weights: every tree is tie-free
  // and every edge lies on every tree.
  Graph g(8);
  for (VertexId v = 0; v + 1 < 8; ++v) g.add_edge(v, v + 1, 1.0 + 0.125 * v);
  const std::vector<VertexId> roots = {0, 7};
  SpTreeStore store(roots);
  const std::vector<std::uint8_t> mask(g.num_edges(), 1);
  const std::vector<VertexId> sources = {0, 2, 5, 7};
  store.update(g, sources, mask);
  g.set_weight(3, 2.5);  // raises a tree edge of both roots
  const test::CounterBaseline counters;
  store.update(g, sources, mask);
  // Two fresh trees and two repairs, fanned out together.
  EXPECT_EQ(counters.since("graph.dijkstra.runs"), 2u);
  EXPECT_EQ(counters.since("graph.sp_repair.trees_repaired"), 2u);
  EXPECT_EQ(counters.since("pool.parallel_regions"), 1u);
  SpEngine fresh_engine;
  for (const VertexId s : sources) {
    expect_same_tree(store.from(s), fresh_engine.shortest_paths(g, s),
                     "source " + std::to_string(s));
  }
}

TEST(SpRepair, StoreRebuildsARootTheLastUpdateSkipped) {
  // A path 0 - 1 - ... - 12 with distinct weights: every tree is tie-free,
  // every edge lies on every tree, and two changes stay under the quarter
  // rule (4 * 2 <= 12 edges).
  Graph g(13);
  for (VertexId v = 0; v + 1 < 13; ++v) g.add_edge(v, v + 1, 1.0 + 0.125 * v);
  const std::vector<VertexId> roots = {0, 12};
  SpTreeStore store(roots);
  const std::vector<std::uint8_t> mask(g.num_edges(), 1);
  store.update(g, roots, mask);
  g.set_weight(3, 2.75);
  store.update(g, std::vector<VertexId>{0}, mask);  // skips root 12
  g.set_weight(8, 3.5);
  const test::CounterBaseline counters;
  store.update(g, roots, mask);
  // Root 0 is repaired against the last change. Root 12 missed the one
  // before it, so it is recomputed in full.
  EXPECT_EQ(counters.since("graph.dijkstra.runs"), 1u);
  EXPECT_EQ(counters.since("graph.sp_repair.trees_repaired"), 1u);
  SpEngine fresh_engine;
  for (const VertexId s : roots) {
    expect_same_tree(store.from(s), fresh_engine.shortest_paths(g, s),
                     "root " + std::to_string(s));
  }
}
#endif

}  // namespace
}  // namespace nfvm::graph
