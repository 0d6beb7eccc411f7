// Equivalence and validity of the shared-Dijkstra Appro_Multi engine
// (core::appro_multi) against the paper-literal engine, which runs KMB in
// every materialized auxiliary graph (tests/reference).
#include <gtest/gtest.h>

#include <algorithm>

#include "core/appro_multi.h"
#include "reference/appro_multi_reference.h"
#include "reference/exact_offline.h"
#include "sim/request_gen.h"
#include "topology/geant.h"
#include "topology/waxman.h"
#include "util/combinatorics.h"
#include "util/rng.h"

namespace nfvm::core {
namespace {

struct Instance {
  topo::Topology topo;
  LinearCosts costs;
  nfv::Request request;
};

/// The paper-literal engine under the same branch-and-bound search.
OfflineSolution paper_literal(const topo::Topology& topo, const LinearCosts& costs,
                              const nfv::Request& request,
                              const ApproMultiOptions& options) {
  return reference::appro_multi(topo, costs, request, options,
                                reference::Engine::kReference,
                                reference::Search::kBranchAndBound);
}

/// Continuous random costs: shortest paths unique almost surely, so the
/// reference and shared engines must produce identical results.
Instance random_instance(std::uint64_t seed, std::size_t n, std::size_t dests) {
  util::Rng rng(seed);
  Instance inst;
  inst.topo = topo::make_waxman(n, rng);
  inst.costs = random_costs(inst.topo, rng);
  inst.request.id = seed;
  inst.request.bandwidth_mbps = rng.uniform_real(50, 200);
  inst.request.chain = nfv::random_service_chain(rng, 1, 3);
  const auto picks = rng.sample_without_replacement(n, dests + 1);
  inst.request.source = static_cast<graph::VertexId>(picks[0]);
  for (std::size_t i = 1; i < picks.size(); ++i) {
    inst.request.destinations.push_back(static_cast<graph::VertexId>(picks[i]));
  }
  return inst;
}

struct Case {
  std::uint64_t seed;
  std::size_t n;
  std::size_t dests;
  std::size_t k;
};

class SharedEngineTest : public ::testing::TestWithParam<Case> {};

TEST_P(SharedEngineTest, MatchesReferenceOnUniqueShortestPaths) {
  const Case& c = GetParam();
  const Instance inst = random_instance(c.seed, c.n, c.dests);

  ApproMultiOptions opts;
  opts.max_servers = c.k;

  const OfflineSolution a = paper_literal(inst.topo, inst.costs, inst.request, opts);
  const OfflineSolution b = appro_multi(inst.topo, inst.costs, inst.request, opts);
  ASSERT_TRUE(a.admitted);
  ASSERT_TRUE(b.admitted);
  EXPECT_NEAR(a.tree.cost, b.tree.cost, 1e-9) << "engines diverged";
  EXPECT_EQ(a.tree.servers, b.tree.servers);
  EXPECT_EQ(a.tree.edge_uses, b.tree.edge_uses);
  // Only the shared engine skips dominated combinations, so the engines
  // split the space differently between explored and pruned. Uncapacitated
  // with no delay bound, each call makes one pass, which covers the whole
  // space.
  ApproMultiOptions probe;
  probe.max_servers = 1;
  const std::size_t n =
      reference::appro_multi(inst.topo, inst.costs, inst.request, probe,
                             reference::Engine::kSharedDijkstra,
                             reference::Search::kLegacySweep)
          .combinations_explored;
  const std::size_t space =
      util::count_combinations_upto(n, std::min<std::size_t>(c.k, n));
  EXPECT_EQ(a.combinations_explored + a.combinations_pruned, space);
  EXPECT_EQ(b.combinations_explored + b.combinations_pruned, space);
  EXPECT_EQ(a.combinations_dominated, 0u);
}

INSTANTIATE_TEST_SUITE_P(
    RandomInstances, SharedEngineTest,
    ::testing::Values(Case{501, 20, 3, 1}, Case{502, 20, 3, 2},
                      Case{503, 25, 4, 2}, Case{504, 25, 4, 3},
                      Case{505, 30, 5, 2}, Case{506, 30, 2, 3},
                      Case{507, 35, 6, 2}, Case{508, 40, 4, 3},
                      Case{509, 22, 3, 3}, Case{510, 28, 5, 1},
                      // Source adjacent to servers exercises the zero-cost
                      // star composition; random draws cover it across seeds.
                      Case{511, 15, 3, 2}, Case{512, 15, 4, 3}),
    [](const ::testing::TestParamInfo<Case>& info) {
      return "seed" + std::to_string(info.param.seed);
    });

TEST(SharedEngine, ValidAndWithinBoundOnTieHeavyGraphs) {
  // Uniform costs create massive shortest-path ties; the engines may pick
  // different (equally valid) trees. Validity and the 2x-exact bound must
  // still hold.
  for (std::uint64_t seed : {601u, 602u, 603u}) {
    util::Rng rng(seed);
    Instance inst;
    inst.topo = topo::make_waxman(18, rng);
    inst.costs = uniform_costs(inst.topo, 1.0, 0.01);
    inst.request.id = seed;
    inst.request.bandwidth_mbps = 100.0;
    inst.request.chain = nfv::ServiceChain({nfv::NetworkFunction::kFirewall});
    const auto picks = rng.sample_without_replacement(18, 4);
    inst.request.source = static_cast<graph::VertexId>(picks[0]);
    for (std::size_t i = 1; i < picks.size(); ++i) {
      inst.request.destinations.push_back(static_cast<graph::VertexId>(picks[i]));
    }

    ApproMultiOptions fast;
    fast.max_servers = 2;
    const OfflineSolution sol = appro_multi(inst.topo, inst.costs, inst.request, fast);
    ASSERT_TRUE(sol.admitted);
    std::string error;
    EXPECT_TRUE(validate_pseudo_tree(inst.topo.graph, inst.request, sol.tree, &error))
        << error;

    reference::ExactOfflineOptions eopts;
    eopts.max_servers = 2;
    const OfflineSolution exact =
        reference::exact_auxiliary(inst.topo, inst.costs, inst.request, eopts);
    ASSERT_TRUE(exact.admitted);
    EXPECT_LE(sol.tree.cost, 2.0 * exact.tree.cost + 1e-9);
    EXPECT_GE(sol.tree.cost + 1e-9, exact.tree.cost);
  }
}

TEST(SharedEngine, WorksOnGeantWithSourceAdjacentServers) {
  // Amsterdam is adjacent to the London and Frankfurt servers: the zero-cost
  // star has multiple members. Continuous random costs keep paths unique.
  util::Rng rng(9);
  const topo::Topology topo = topo::make_geant(rng);
  const LinearCosts costs = random_costs(topo, rng);
  nfv::Request r;
  r.id = 1;
  r.source = 0;  // Amsterdam
  r.destinations = {1, 16, 22, 29};
  r.bandwidth_mbps = 140.0;
  r.chain = nfv::ServiceChain({nfv::NetworkFunction::kIds});

  ApproMultiOptions opts;
  opts.max_servers = 3;
  const OfflineSolution a = paper_literal(topo, costs, r, opts);
  const OfflineSolution b = appro_multi(topo, costs, r, opts);
  ASSERT_TRUE(a.admitted);
  ASSERT_TRUE(b.admitted);
  EXPECT_NEAR(a.tree.cost, b.tree.cost, 1e-9);
  EXPECT_EQ(a.tree.edge_uses, b.tree.edge_uses);
}

TEST(SharedEngine, CapacitatedRunsMatch) {
  const Instance inst = random_instance(701, 30, 4);
  nfv::ResourceState state_a(inst.topo);
  nfv::ResourceState state_b(inst.topo);
  // Preload a few links identically.
  for (graph::EdgeId e = 0; e < inst.topo.num_links(); e += 6) {
    nfv::Footprint fp;
    fp.bandwidth = {{e, 300.0}};
    state_a.allocate(fp);
    state_b.allocate(fp);
  }
  ApproMultiOptions ref;
  ref.max_servers = 2;
  ref.resources = &state_a;
  ApproMultiOptions fast = ref;
  fast.resources = &state_b;
  const OfflineSolution a = paper_literal(inst.topo, inst.costs, inst.request, ref);
  const OfflineSolution b = appro_multi(inst.topo, inst.costs, inst.request, fast);
  ASSERT_EQ(a.admitted, b.admitted);
  if (a.admitted) {
    EXPECT_NEAR(a.tree.cost, b.tree.cost, 1e-9);
    EXPECT_EQ(a.tree.edge_uses, b.tree.edge_uses);
  }
}

}  // namespace
}  // namespace nfvm::core
