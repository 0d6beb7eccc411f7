// Allocation guards for the KMB finishing kernel and the shortest-path
// engine's breadth-first search, radix-queue Dijkstra and repair.
//
// This binary replaces the global operator new with a counting one. After
// one warm-up call per graph (which grows the thread-local scratch to that
// graph's size), a KMB finish may allocate only the returned edge vector:
// the same fixed count on a 50-vertex and a 400-vertex graph. A warm
// unit-weight SpEngine::compute into a reused tree allocates nothing, nor
// does a warm weighted compute or repair, nor a graph::TreeTable computing
// as many trees after clear(), nor a warm graph::SpTreeStore update. The
// Waxman graphs have the CLI's mean degree of 4. Wall time cannot be gated
// on shared runners; these counts are the deterministic guards for the
// kernels' gains.
#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <cstdlib>
#include <functional>
#include <new>
#include <vector>

#include "core/aux_graph.h"
#include "core/cost_model.h"
#include "core/shared_closure.h"
#include "graph/dijkstra.h"
#include "graph/sp_engine.h"
#include "graph/sp_repair.h"
#include "graph/steiner.h"
#include "nfv/service_chain.h"
#include "obs_test_util.h"
#include "topology/waxman.h"
#include "util/rng.h"
#include "util/thread_pool.h"

namespace {
std::atomic<std::size_t> g_allocations{0};
}  // namespace

// All replacements stay out of line, so call sites see operator new paired
// with operator delete rather than malloc or free, which gcc would flag as
// mismatched.
[[gnu::noinline]] void* operator new(std::size_t size) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size == 0 ? 1 : size)) return p;
  throw std::bad_alloc();
}
[[gnu::noinline]] void* operator new[](std::size_t size) { return ::operator new(size); }
[[gnu::noinline]] void operator delete(void* p) noexcept { std::free(p); }
[[gnu::noinline]] void operator delete[](void* p) noexcept { std::free(p); }
[[gnu::noinline]] void operator delete(void* p, std::size_t) noexcept { std::free(p); }
[[gnu::noinline]] void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

namespace nfvm {
namespace {

/// The returned edge vector; nothing else once the scratch is warm.
constexpr std::size_t kMaxAllocationsPerCall = 1;

template <typename Fn>
std::size_t allocations_during(Fn&& fn) {
  const std::size_t before = g_allocations.load(std::memory_order_relaxed);
  fn();
  return g_allocations.load(std::memory_order_relaxed) - before;
}

struct Instance {
  topo::Topology topo;
  core::LinearCosts costs;
  nfv::Request request;
};

Instance make_instance(std::size_t n, std::uint64_t seed) {
  util::Rng rng(seed);
  Instance inst;
  inst.topo = topo::make_waxman(n, rng);
  inst.costs = core::random_costs(inst.topo, rng);
  inst.request.id = seed;
  inst.request.bandwidth_mbps = 100.0;
  inst.request.chain = nfv::random_service_chain(rng, 1, 3);
  const auto picks = rng.sample_without_replacement(n, 7);
  inst.request.source = static_cast<graph::VertexId>(picks[0]);
  for (std::size_t i = 1; i < picks.size(); ++i) {
    inst.request.destinations.push_back(static_cast<graph::VertexId>(picks[i]));
  }
  return inst;
}

class KmbAllocationGuard : public ::testing::TestWithParam<std::size_t> {};

TEST_P(KmbAllocationGuard, FromTablesAllocatesOnlyItsResult) {
  const Instance inst = make_instance(GetParam(), 42);
  const graph::Graph& g = inst.topo.graph;
  std::vector<graph::VertexId> terms{inst.request.source};
  terms.insert(terms.end(), inst.request.destinations.begin(),
               inst.request.destinations.end());
  std::vector<graph::ShortestPaths> trees(g.num_vertices());
  for (const graph::VertexId t : terms) trees[t] = graph::dijkstra(g, t);
  const std::function<const graph::ShortestPaths&(graph::VertexId)> table_for =
      [&trees](graph::VertexId v) -> const graph::ShortestPaths& { return trees[v]; };

  graph::SteinerResult st = graph::kmb_steiner_from_tables(g, terms, table_for);
  ASSERT_TRUE(st.connected);
  ASSERT_FALSE(st.edges.empty());
  const std::size_t count = allocations_during(
      [&] { st = graph::kmb_steiner_from_tables(g, terms, table_for); });
  EXPECT_TRUE(st.connected);
  EXPECT_LE(count, kMaxAllocationsPerCall) << "n = " << GetParam();
}

TEST_P(KmbAllocationGuard, SharedComboSolverAllocatesOnlyItsResult) {
  const Instance inst = make_instance(GetParam(), 43);
  core::WorkContext ctx =
      core::build_work_context(inst.topo, inst.costs, inst.request, nullptr);
  ASSERT_TRUE(ctx.destinations_reachable);
  ASSERT_GE(ctx.eligible_servers.size(), 2u);
  core::context_trees(ctx, inst.request.destinations);
  core::context_trees(ctx, ctx.eligible_servers);
  const std::vector<graph::VertexId> combo{ctx.eligible_servers[0],
                                           ctx.eligible_servers[1]};
  const core::AuxOverlay overlay =
      core::build_aux_overlay(ctx, inst.request.source, combo);
  const core::SharedComboSolver solver(overlay, inst.request);

  graph::SteinerResult st = solver.solve();
  ASSERT_TRUE(st.connected);
  ASSERT_FALSE(st.edges.empty());
  const std::size_t count = allocations_during([&] { st = solver.solve(); });
  EXPECT_TRUE(st.connected);
  EXPECT_LE(count, kMaxAllocationsPerCall) << "n = " << GetParam();
}

INSTANTIATE_TEST_SUITE_P(GraphSizes, KmbAllocationGuard,
                         ::testing::Values(std::size_t{50}, std::size_t{400}),
                         [](const ::testing::TestParamInfo<std::size_t>& info) {
                           std::string name = "n";
                           name += std::to_string(info.param);
                           return name;
                         });

/// The CLI's Waxman graph on n vertices (mean degree 4), unit weights.
topo::Topology cli_waxman(std::size_t n, util::Rng& rng) {
  topo::WaxmanOptions options;
  options.target_mean_degree = 4.0;
  return topo::make_waxman(n, rng, options);
}

/// Restores the global pool to single-threaded when a test exits.
struct GlobalThreadsGuard {
  ~GlobalThreadsGuard() { util::ThreadPool::set_global_threads(1); }
};

TEST(SpEngineAllocationGuard, WarmUnitWeightComputeAllocatesNothing) {
  for (const std::size_t n : {std::size_t{50}, std::size_t{400}}) {
    util::Rng rng(44);
    const topo::Topology topo = cli_waxman(n, rng);
    const graph::Graph& g = topo.graph;
    std::vector<std::uint8_t> mask(g.num_edges(), 1);
    for (graph::EdgeId e = 0; e < mask.size(); e += 5) mask[e] = 0;
    graph::SpEngine engine;
    graph::ShortestPaths tree;
    tree.source = 0;
    engine.compute(g, tree, mask);  // sizes the view, the bitsets and the tree
    ASSERT_TRUE(engine.last_used_bfs());
    for (const graph::VertexId s : {graph::VertexId{0}, graph::VertexId{17},
                                    static_cast<graph::VertexId>(n - 1)}) {
      tree.source = s;
      EXPECT_EQ(allocations_during([&] { engine.compute(g, tree, mask); }), 0u)
          << "n = " << n << ", source " << s;
      EXPECT_EQ(tree.dist[s], 0.0);
    }
  }
}

TEST(SpEngineAllocationGuard, WarmWeightedComputeAllocatesNothing) {
  for (const std::size_t n : {std::size_t{50}, std::size_t{400}}) {
    util::Rng rng(46);
    topo::Topology topo = cli_waxman(n, rng);
    graph::Graph& g = topo.graph;
    // Online_CP-like weights: alpha^(0.6 u) - 1 with alpha = 800, and about
    // 40% of the links idle at exactly 0.
    for (graph::EdgeId e = 0; e < g.num_edges(); ++e) {
      g.set_weight(e, rng.bernoulli(0.4)
                          ? 0.0
                          : std::pow(800.0, 0.6 * rng.uniform_real(0.0, 1.0)) - 1.0);
    }
    std::vector<std::uint8_t> mask(g.num_edges(), 1);
    for (graph::EdgeId e = 0; e < mask.size(); e += 5) mask[e] = 0;
    graph::SpEngine engine;
    graph::ShortestPaths tree;
    tree.source = 0;
    engine.compute(g, tree, mask);  // sizes the view, the queue and the tree
    ASSERT_FALSE(engine.last_used_bfs());
    for (const graph::VertexId s : {graph::VertexId{0}, graph::VertexId{17},
                                    static_cast<graph::VertexId>(n - 1)}) {
      tree.source = s;
      EXPECT_EQ(allocations_during([&] { engine.compute(g, tree, mask); }), 0u)
          << "n = " << n << ", source " << s;
      EXPECT_EQ(tree.dist[s], 0.0);
    }

    // A small weight change on an edge of the tree from 0.
    tree.source = 0;
    engine.compute(g, tree, mask);
    graph::EdgeId changed = graph::kInvalidEdge;
    for (const graph::EdgeId e : tree.parent_edge) {
      if (e != graph::kInvalidEdge) changed = e;
    }
    ASSERT_NE(changed, graph::kInvalidEdge);
    const double before = g.weight(changed);
    const double after = before * 1.25 + 0.5;
    const std::vector<graph::EdgeChange> apply{{changed, before, after}};
    const std::vector<graph::EdgeChange> revert{{changed, after, before}};
    bool tie_free = engine.tie_free(g, tree, mask);
    // Warm-up round: apply, repair, revert, repair.
    g.set_weight(changed, after);
    engine.repair(g, tree, apply, mask, tie_free);
    g.set_weight(changed, before);
    engine.repair(g, tree, revert, mask, tie_free);
    g.set_weight(changed, after);
    graph::RepairOutcome outcome = graph::RepairOutcome::kKept;
    EXPECT_EQ(allocations_during(
                  [&] { outcome = engine.repair(g, tree, apply, mask, tie_free); }),
              0u)
        << "n = " << n;
    EXPECT_NE(outcome, graph::RepairOutcome::kKept);
  }
}

TEST(SpEngineAllocationGuard, WarmTreeTableComputeAfterClearAllocatesNothing) {
  // One pool thread: the table computes its trees in order, with no fan-out.
  GlobalThreadsGuard guard;
  util::ThreadPool::set_global_threads(1);
  for (const std::size_t n : {std::size_t{50}, std::size_t{400}}) {
    util::Rng rng(45);
    const topo::Topology topo = cli_waxman(n, rng);
    const graph::Graph& g = topo.graph;
    std::vector<std::uint8_t> mask(g.num_edges(), 1);
    for (graph::EdgeId e = 0; e < mask.size(); e += 5) mask[e] = 0;
    const auto last = static_cast<graph::VertexId>(n - 1);
    const std::vector<graph::VertexId> first{0, 17, 3, 17, last};
    const std::vector<graph::VertexId> second{5, 9, 9, 1, 2};
    graph::TreeTable table;
    // Sizes the engine, the table's slots and the trees' buffers.
    ASSERT_EQ(table.compute(g, first, mask), 4u);
    table.clear();
    std::size_t computed = 0;
    EXPECT_EQ(allocations_during([&] { computed = table.compute(g, second, mask); }),
              0u)
        << "n = " << n;
    EXPECT_EQ(computed, 4u);
    EXPECT_EQ(table.from(9).dist[9], 0.0);
    EXPECT_FALSE(table.has(17));
  }
}

TEST(SpEngineAllocationGuard, WarmStoreUpdateAllocatesNothing) {
  // One pool thread: the update runs its trees in order, with no fan-out.
  GlobalThreadsGuard guard;
  util::ThreadPool::set_global_threads(1);
  util::Rng rng(47);
  topo::Topology topo = cli_waxman(400, rng);
  graph::Graph& g = topo.graph;
  for (graph::EdgeId e = 0; e < g.num_edges(); ++e) {
    g.set_weight(e, rng.uniform_real(1.0, 10.0));
  }
  std::vector<std::uint8_t> mask(g.num_edges(), 1);
  for (graph::EdgeId e = 0; e < mask.size(); e += 5) mask[e] = 0;
  // 40 persistent roots, as Online_CP's servers on Waxman-400, and three
  // sources computed fresh on every update.
  std::vector<graph::VertexId> roots;
  for (graph::VertexId v = 0; v < 400; v += 10) roots.push_back(v);
  std::vector<graph::VertexId> sources = roots;
  sources.insert(sources.end(), {3, 57, 211});
  graph::SpTreeStore store(roots);
  store.update(g, sources, mask);

  // One edge of the tree from root 0 moves; warm-up round: raise, update
  // (repairs), lower, update.
  graph::EdgeId changed = graph::kInvalidEdge;
  for (const graph::EdgeId e : store.from(0).parent_edge) {
    if (e != graph::kInvalidEdge) changed = e;
  }
  ASSERT_NE(changed, graph::kInvalidEdge);
  const double before = g.weight(changed);
  const double after = before * 1.25 + 0.5;
  g.set_weight(changed, after);
  store.update(g, sources, mask);
  g.set_weight(changed, before);
  store.update(g, sources, mask);
  g.set_weight(changed, after);
#if NFVM_OBS
  const test::CounterBaseline counters;
#endif
  EXPECT_EQ(allocations_during([&] { store.update(g, sources, mask); }), 0u);
#if NFVM_OBS
  // The roots were repaired or kept; only the other sources ran in full.
  EXPECT_GE(counters.since("graph.sp_repair.trees_repaired"), 1u);
  EXPECT_EQ(counters.since("graph.dijkstra.runs"), 3u);
#endif
  graph::SpEngine fresh_engine;
  graph::ShortestPaths fresh;
  fresh.source = 0;
  fresh_engine.compute(g, fresh, mask);
  EXPECT_EQ(store.from(0).dist, fresh.dist);
  EXPECT_EQ(store.from(0).parent_edge, fresh.parent_edge);
}

}  // namespace
}  // namespace nfvm
