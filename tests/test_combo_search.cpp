// Branch-and-bound combination search: exhaustive equivalence, beam
// monotonicity, pruning accounting and thread-count invariance.
#include <gtest/gtest.h>

#include <limits>
#include <vector>

#include "core/appro_multi.h"
#include "nfv/resources.h"
#include "sim/request_gen.h"
#include "topology/geant.h"
#include "topology/waxman.h"
#include "util/combinatorics.h"
#include "util/rng.h"
#include "util/thread_pool.h"

namespace nfvm::core {
namespace {

/// Restores the global pool to single-threaded when a test exits.
struct GlobalThreadsGuard {
  ~GlobalThreadsGuard() { util::ThreadPool::set_global_threads(1); }
};

struct Instance {
  topo::Topology topo;
  LinearCosts costs;
  nfv::Request request;
};

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

Instance geant_instance(std::uint64_t seed, std::size_t dests) {
  util::Rng rng(seed);
  Instance inst;
  inst.topo = topo::make_geant(rng);
  inst.costs = random_costs(inst.topo, rng);
  inst.request.id = seed;
  inst.request.bandwidth_mbps = rng.uniform_real(50, 200);
  inst.request.chain = nfv::random_service_chain(rng, 1, 3);
  const auto picks =
      rng.sample_without_replacement(inst.topo.num_switches(), dests + 1);
  inst.request.source = static_cast<graph::VertexId>(picks[0]);
  for (std::size_t i = 1; i < picks.size(); ++i) {
    inst.request.destinations.push_back(static_cast<graph::VertexId>(picks[i]));
  }
  return inst;
}

/// The branch-and-bound result must match the legacy sweep EXACTLY —
/// bitwise-equal cost, same servers, same edge multiset, same reject
/// reason — because the search guarantees the same argmin combination.
void expect_same_decision(const OfflineSolution& legacy,
                          const OfflineSolution& bnb) {
  ASSERT_EQ(legacy.admitted, bnb.admitted);
  if (legacy.admitted) {
    EXPECT_EQ(legacy.tree.cost, bnb.tree.cost);
    EXPECT_EQ(legacy.tree.servers, bnb.tree.servers);
    EXPECT_EQ(legacy.tree.edge_uses, bnb.tree.edge_uses);
  } else {
    EXPECT_EQ(legacy.reject_reason, bnb.reject_reason);
  }
}

OfflineSolution run(const Instance& inst, const ApproMultiOptions& opts) {
  return appro_multi(inst.topo, inst.costs, inst.request, opts);
}

struct Case {
  std::uint64_t seed;
  std::size_t n;  // 0 = GEANT
  std::size_t dests;
  std::size_t k;
};

class BnbEquivalenceTest : public ::testing::TestWithParam<Case> {};

TEST_P(BnbEquivalenceTest, MatchesExhaustiveSweepAtAnyThreadCount) {
  GlobalThreadsGuard guard;
  const Case& c = GetParam();
  const Instance inst =
      c.n == 0 ? geant_instance(c.seed, c.dests) : random_instance(c.seed, c.n, c.dests);

  for (const auto engine : {ApproMultiOptions::Engine::kReference,
                            ApproMultiOptions::Engine::kSharedDijkstra}) {
    ApproMultiOptions legacy_opts;
    legacy_opts.max_servers = c.k;
    legacy_opts.engine = engine;
    legacy_opts.search = ApproMultiOptions::Search::kLegacySweep;
    ApproMultiOptions bnb_opts = legacy_opts;
    bnb_opts.search = ApproMultiOptions::Search::kBranchAndBound;

    for (const std::size_t threads : {std::size_t{1}, std::size_t{4}}) {
      util::ThreadPool::set_global_threads(threads);
      const OfflineSolution legacy = run(inst, legacy_opts);
      const OfflineSolution bnb = run(inst, bnb_opts);
      expect_same_decision(legacy, bnb);
      EXPECT_EQ(legacy.combinations_pruned, 0u);
      EXPECT_LE(bnb.combinations_explored, legacy.combinations_explored);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    RandomInstances, BnbEquivalenceTest,
    ::testing::Values(Case{11, 40, 4, 3}, Case{12, 40, 6, 3},
                      Case{13, 35, 3, 4}, Case{14, 45, 5, 2},
                      Case{15, 40, 2, 3}, Case{16, 30, 8, 3},
                      // GEANT (n = 0): the paper's reference topology.
                      Case{17, 0, 4, 3}, Case{18, 0, 6, 4},
                      Case{19, 0, 3, 4}, Case{20, 0, 8, 2}),
    [](const ::testing::TestParamInfo<Case>& info) {
      return "seed" + std::to_string(info.param.seed);
    });

TEST(ComboSearch, RealizeFallthroughMatchesLegacyUnderDelayBound) {
  GlobalThreadsGuard guard;
  // Tight delay bounds knock out the cheapest candidates, exercising the
  // floor-based re-search against the legacy sorted fallthrough.
  for (std::uint64_t seed : {31u, 32u, 33u, 34u}) {
    Instance inst = random_instance(seed, 40, 4);
    util::Rng delay_rng(seed + 1000);
    topo::assign_delays(inst.topo, delay_rng);
    for (const double delay_ms : {2.0, 5.0, 10.0, 40.0}) {
      inst.request.max_delay_ms = delay_ms;
      ApproMultiOptions legacy_opts;
      legacy_opts.max_servers = 3;
      legacy_opts.search = ApproMultiOptions::Search::kLegacySweep;
      ApproMultiOptions bnb_opts = legacy_opts;
      bnb_opts.search = ApproMultiOptions::Search::kBranchAndBound;
      const OfflineSolution legacy = run(inst, legacy_opts);
      const OfflineSolution bnb = run(inst, bnb_opts);
      expect_same_decision(legacy, bnb);
      // Fallthrough passes reuse earlier evaluations, so no combination is
      // evaluated twice in one call and the search never exceeds the sweep.
      EXPECT_LE(bnb.combinations_explored, legacy.combinations_explored)
          << "seed " << seed << " delay " << delay_ms;
    }
  }
}

TEST(ComboSearch, RealizeFallthroughMatchesLegacyUnderCapacity) {
  GlobalThreadsGuard guard;
  const Instance inst = random_instance(41, 35, 4);
  nfv::ResourceState state_a(inst.topo);
  nfv::ResourceState state_b(inst.topo);
  for (graph::EdgeId e = 0; e < inst.topo.num_links(); e += 4) {
    nfv::Footprint fp;
    fp.bandwidth = {{e, 600.0}};
    state_a.allocate(fp);
    state_b.allocate(fp);
  }
  ApproMultiOptions legacy_opts;
  legacy_opts.max_servers = 3;
  legacy_opts.resources = &state_a;
  legacy_opts.search = ApproMultiOptions::Search::kLegacySweep;
  ApproMultiOptions bnb_opts = legacy_opts;
  bnb_opts.resources = &state_b;
  bnb_opts.search = ApproMultiOptions::Search::kBranchAndBound;
  const OfflineSolution legacy = run(inst, legacy_opts);
  const OfflineSolution bnb = run(inst, bnb_opts);
  expect_same_decision(legacy, bnb);
  EXPECT_LE(bnb.combinations_explored, legacy.combinations_explored);
}

TEST(ComboSearch, PruningAccountingCoversTheCombinationSpace) {
  GlobalThreadsGuard guard;
  for (std::uint64_t seed : {51u, 52u, 53u}) {
    const Instance inst = random_instance(seed, 40, 4);
    // |V_S| via the K = 1 legacy sweep (it evaluates every single server).
    ApproMultiOptions probe;
    probe.max_servers = 1;
    probe.search = ApproMultiOptions::Search::kLegacySweep;
    const std::size_t n = run(inst, probe).combinations_explored;
    ASSERT_GT(n, 0u);

    ApproMultiOptions bnb_opts;
    bnb_opts.max_servers = 3;
    bnb_opts.search = ApproMultiOptions::Search::kBranchAndBound;
    const OfflineSolution sol = run(inst, bnb_opts);
    // Uncapacitated, no delay bound: the cheapest candidate realizes on the
    // first pass, so every combination was either evaluated or pruned.
    ASSERT_TRUE(sol.admitted);
    EXPECT_EQ(sol.combinations_explored + sol.combinations_pruned,
              util::count_combinations_upto(n, std::min<std::size_t>(3, n)));
    EXPECT_GE(sol.combinations_explored, 1u);
  }
}

TEST(ComboSearch, ExploredAndPrunedAreThreadCountInvariant) {
  GlobalThreadsGuard guard;
  const Instance inst = random_instance(61, 45, 5);
  ApproMultiOptions opts;
  opts.max_servers = 3;
  opts.engine = ApproMultiOptions::Engine::kSharedDijkstra;

  util::ThreadPool::set_global_threads(1);
  const OfflineSolution serial = run(inst, opts);
  util::ThreadPool::set_global_threads(4);
  const OfflineSolution parallel = run(inst, opts);

  EXPECT_EQ(serial.combinations_explored, parallel.combinations_explored);
  EXPECT_EQ(serial.combinations_pruned, parallel.combinations_pruned);
  expect_same_decision(serial, parallel);
}

TEST(ComboSearch, EvaluationBudgetIsRespectedInBothModes) {
  GlobalThreadsGuard guard;
  const Instance inst = random_instance(71, 40, 3);
  for (const auto search : {ApproMultiOptions::Search::kLegacySweep,
                            ApproMultiOptions::Search::kBranchAndBound}) {
    ApproMultiOptions opts;
    opts.max_servers = 3;
    opts.max_combinations = 5;
    opts.search = search;
    const OfflineSolution sol = run(inst, opts);
    EXPECT_LE(sol.combinations_explored, 5u);
    EXPECT_GE(sol.combinations_explored, 1u);
  }
}

TEST(BeamSearch, CostIsNonIncreasingInWidthAndExactAtFullPool) {
  GlobalThreadsGuard guard;
  for (std::uint64_t seed : {81u, 82u, 83u}) {
    const Instance inst = random_instance(seed, 40, 5);
    ApproMultiOptions exact_opts;
    exact_opts.max_servers = 3;
    const OfflineSolution exact = run(inst, exact_opts);
    ASSERT_TRUE(exact.admitted);

    // |V_S| from the K = 1 legacy sweep.
    ApproMultiOptions probe;
    probe.max_servers = 1;
    probe.search = ApproMultiOptions::Search::kLegacySweep;
    const std::size_t n = run(inst, probe).combinations_explored;

    double prev = std::numeric_limits<double>::infinity();
    for (std::size_t m = 1; m <= n; ++m) {
      ApproMultiOptions beam_opts = exact_opts;
      beam_opts.beam_width = m;
      const OfflineSolution beamed = run(inst, beam_opts);
      ASSERT_TRUE(beamed.admitted) << "beam width " << m;
      // Nested pools: widening the beam only adds candidate combinations.
      EXPECT_LE(beamed.tree.cost, prev + 1e-12) << "beam width " << m;
      EXPECT_GE(beamed.tree.cost, exact.tree.cost - 1e-12) << "beam width " << m;
      prev = beamed.tree.cost;
      if (m == n) {
        // The full-width beam IS the exact search, bit for bit.
        EXPECT_EQ(beamed.tree.cost, exact.tree.cost);
        EXPECT_EQ(beamed.tree.servers, exact.tree.servers);
        EXPECT_EQ(beamed.tree.edge_uses, exact.tree.edge_uses);
      }
    }
  }
}

}  // namespace
}  // namespace nfvm::core
