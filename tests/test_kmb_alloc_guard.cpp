// Allocation guard for the KMB finishing kernel.
//
// This binary replaces the global operator new with a counting one. After
// one warm-up call per graph (which grows the thread-local scratch to that
// graph's size), a KMB finish may allocate only the returned edge vector:
// the same fixed count on a 50-vertex and a 400-vertex graph. Wall time
// cannot be gated on shared runners; this count is the deterministic guard
// for the kernel's gain.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <functional>
#include <new>
#include <vector>

#include "core/aux_graph.h"
#include "core/cost_model.h"
#include "core/shared_closure.h"
#include "graph/dijkstra.h"
#include "graph/steiner.h"
#include "nfv/service_chain.h"
#include "topology/waxman.h"
#include "util/rng.h"

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
  const core::WorkContext ctx =
      core::build_work_context(inst.topo, inst.costs, inst.request, nullptr);
  ASSERT_TRUE(ctx.destinations_reachable);
  ASSERT_GE(ctx.eligible_servers.size(), 2u);
  const core::SharedOracle oracle = core::build_shared_oracle(ctx, inst.request);
  const std::vector<graph::VertexId> combo{ctx.eligible_servers[0],
                                           ctx.eligible_servers[1]};
  const core::AuxOverlay overlay =
      core::build_aux_overlay(ctx, inst.request.source, combo);
  const core::SharedComboSolver solver(oracle, overlay);

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

}  // namespace
}  // namespace nfvm
