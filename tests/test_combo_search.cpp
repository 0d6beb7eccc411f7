// Branch-and-bound combination search: exhaustive equivalence, beam
// monotonicity, pruning accounting, thread-count invariance, the shared
// engine's dominated-combination skip, the admissibility of ComboBounds
// and its subset-MST sweep against the Prim oracle.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <memory>
#include <mutex>
#include <ostream>
#include <span>
#include <string>
#include <vector>

#include "core/appro_multi.h"
#include "core/aux_graph.h"
#include "core/combo_search.h"
#include "core/shared_closure.h"
#include "graph/steiner.h"
#include "nfv/resources.h"
#include "reference/appro_multi_reference.h"
#include "reference/subset_mst_sweep.h"
#include "reference/support.h"
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

/// Unit link costs and one compute cost: shortest paths and the servers'
/// routing values tie everywhere.
Instance tie_instance(std::uint64_t seed, std::size_t n, std::size_t dests) {
  Instance inst = random_instance(seed, n, dests);
  inst.costs = reference::uniform_costs(inst.topo, 1.0, 0.01);
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

using reference::Engine;
using reference::Search;

/// core::appro_multi: the shared engine under branch-and-bound.
OfflineSolution run(const Instance& inst, const ApproMultiOptions& opts) {
  return appro_multi(inst.topo, inst.costs, inst.request, opts);
}

/// One engine x search pair: core::appro_multi for the shared engine under
/// branch-and-bound, the reference copy (tests/reference) for the others.
OfflineSolution run(const Instance& inst, const ApproMultiOptions& opts,
                    Engine engine, Search search) {
  if (engine == Engine::kSharedDijkstra && search == Search::kBranchAndBound) {
    return run(inst, opts);
  }
  return reference::appro_multi(inst.topo, inst.costs, inst.request, opts, engine,
                                search);
}

constexpr Engine kEngines[] = {Engine::kReference, Engine::kSharedDijkstra};

/// |V_S|, from the K = 1 legacy sweep (it evaluates every single server).
std::size_t pool_size(const Instance& inst) {
  ApproMultiOptions probe;
  probe.max_servers = 1;
  return run(inst, probe, Engine::kSharedDijkstra, Search::kLegacySweep)
      .combinations_explored;
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

  for (const auto engine : kEngines) {
    ApproMultiOptions opts;
    opts.max_servers = c.k;

    for (const std::size_t threads : {std::size_t{1}, std::size_t{4}}) {
      util::ThreadPool::set_global_threads(threads);
      const OfflineSolution legacy = run(inst, opts, engine, Search::kLegacySweep);
      const OfflineSolution bnb = run(inst, opts, engine, Search::kBranchAndBound);
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
  for (const auto engine : kEngines) {
    for (std::uint64_t seed : {31u, 32u, 33u, 34u}) {
      Instance inst = random_instance(seed, 40, 4);
      util::Rng delay_rng(seed + 1000);
      topo::assign_delays(inst.topo, delay_rng);
      for (const double delay_ms : {2.0, 5.0, 10.0, 40.0}) {
        inst.request.max_delay_ms = delay_ms;
        ApproMultiOptions opts;
        opts.max_servers = 3;
        const OfflineSolution legacy = run(inst, opts, engine, Search::kLegacySweep);
        const OfflineSolution bnb = run(inst, opts, engine, Search::kBranchAndBound);
        expect_same_decision(legacy, bnb);
        // Fallthrough passes reuse earlier evaluations, so no combination
        // is evaluated twice in one call and the search never exceeds the
        // sweep.
        EXPECT_LE(bnb.combinations_explored, legacy.combinations_explored)
            << "seed " << seed << " delay " << delay_ms;
      }
    }
  }
}

TEST(ComboSearch, RealizeFallthroughMatchesLegacyUnderCapacity) {
  GlobalThreadsGuard guard;
  for (const auto engine : kEngines) {
    for (std::uint64_t seed : {41u, 42u, 43u, 44u, 45u, 46u}) {
      const Instance inst = random_instance(seed, 35, 4);
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
      ApproMultiOptions bnb_opts = legacy_opts;
      bnb_opts.resources = &state_b;
      const OfflineSolution legacy =
          run(inst, legacy_opts, engine, Search::kLegacySweep);
      const OfflineSolution bnb = run(inst, bnb_opts, engine, Search::kBranchAndBound);
      expect_same_decision(legacy, bnb);
      EXPECT_LE(bnb.combinations_explored, legacy.combinations_explored)
          << "seed " << seed;
    }
  }
}

TEST(ComboSearch, PruningAccountingCoversTheCombinationSpace) {
  GlobalThreadsGuard guard;
  for (const auto engine : kEngines) {
    for (std::uint64_t seed : {51u, 52u, 53u}) {
      const Instance inst = random_instance(seed, 40, 4);
      const std::size_t n = pool_size(inst);
      ASSERT_GT(n, 0u);

      ApproMultiOptions bnb_opts;
      bnb_opts.max_servers = 3;
      const OfflineSolution sol = run(inst, bnb_opts, engine, Search::kBranchAndBound);
      // Uncapacitated, no delay bound: the cheapest candidate realizes on
      // the first pass, so every combination was either evaluated or
      // pruned (dominated ones included).
      ASSERT_TRUE(sol.admitted);
      EXPECT_EQ(sol.combinations_explored + sol.combinations_pruned,
                util::count_combinations_upto(n, std::min<std::size_t>(3, n)));
      EXPECT_GE(sol.combinations_explored, 1u);
      EXPECT_LE(sol.combinations_dominated, sol.combinations_pruned);
      if (engine == Engine::kReference) {
        EXPECT_EQ(sol.combinations_dominated, 0u);
      }
    }
  }
}

/// The work context with its destination and eligible-server trees, as
/// appro_multi primes them.
WorkContext primed_context(const Instance& inst) {
  WorkContext ctx = build_work_context(inst.topo, inst.costs, inst.request, nullptr);
  context_trees(ctx, inst.request.destinations);
  context_trees(ctx, ctx.eligible_servers);
  return ctx;
}

/// The shared engine's per-request state, set up the way appro_multi sets
/// it up, for tests that drive ComboSearch and SharedComboSolver directly.
struct SharedSearchRig {
  explicit SharedSearchRig(const Instance& inst)
      : request(inst.request),
        ctx(primed_context(inst)),
        pool(ctx.eligible_servers),
        bounds(ctx, request, pool),
        sprime(ctx, request, pool) {}

  std::vector<graph::VertexId> servers(std::span<const std::size_t> idx) const {
    std::vector<graph::VertexId> combo;
    for (const std::size_t i : idx) combo.push_back(pool[i]);
    return combo;
  }
  graph::SteinerResult solve(std::span<const std::size_t> idx) const {
    const AuxOverlay aux = build_aux_overlay(ctx, request.source, servers(idx));
    return SharedComboSolver(aux, request).solve();
  }

  nfv::Request request;
  WorkContext ctx;
  std::vector<graph::VertexId> pool;
  ComboBounds bounds;
  SprimeTable sprime;
};

/// Solves C and C \ {witness} and requires the same weight bits and the
/// same tree, C's virtual edge ids mapped to the subset's.
void expect_same_tree_without(const SharedSearchRig& rig,
                              const std::vector<std::size_t>& idx,
                              std::size_t witness) {
  std::vector<std::size_t> subset;
  for (const std::size_t i : idx) {
    if (i != witness) subset.push_back(i);
  }
  ASSERT_EQ(subset.size() + 1, idx.size());
  for (const std::size_t i : idx) ASSERT_FALSE(rig.sprime.source_adjacent(i));

  const graph::SteinerResult full = rig.solve(idx);
  const graph::SteinerResult sub = rig.solve(subset);
  ASSERT_EQ(full.connected, sub.connected);
  EXPECT_EQ(std::bit_cast<std::uint64_t>(full.weight),
            std::bit_cast<std::uint64_t>(sub.weight));
  const std::size_t real = rig.ctx.cost_graph.num_edges();
  std::vector<graph::EdgeId> mapped;
  for (const graph::EdgeId e : full.edges) {
    if (e < real) {
      mapped.push_back(e);
      continue;
    }
    const std::size_t server = idx[e - real];
    ASSERT_NE(server, witness) << "the witness routes a destination";
    const auto pos = std::find(subset.begin(), subset.end(), server) - subset.begin();
    mapped.push_back(static_cast<graph::EdgeId>(real + pos));
  }
  EXPECT_EQ(mapped, sub.edges);
}

constexpr std::size_t kNoWitness = std::numeric_limits<std::size_t>::max();

/// From scratch, the definition the search applies incrementally: the pool
/// index of a member that is the first minimum of the table values for no
/// destination, in a combination of at least two members none of which is
/// source-adjacent; kNoWitness when there is none.
std::size_t idle_member(const SprimeTable& sprime, std::span<const std::size_t> idx) {
  if (idx.size() < 2) return kNoWitness;
  for (const std::size_t i : idx) {
    if (sprime.source_adjacent(i)) return kNoWitness;
  }
  std::vector<char> routes(idx.size(), 0);
  for (std::size_t d = 0; d < sprime.num_destinations(); ++d) {
    double best = std::numeric_limits<double>::infinity();
    std::size_t first = idx.size();
    for (std::size_t j = 0; j < idx.size(); ++j) {
      if (sprime.value(idx[j], d) < best) {
        best = sprime.value(idx[j], d);
        first = j;
      }
    }
    if (first < idx.size()) routes[first] = 1;
  }
  for (std::size_t j = 0; j < idx.size(); ++j) {
    if (routes[j] == 0) return idx[j];
  }
  return kNoWitness;
}

TEST(ComboSearch, DominatedCombinationsSolveLikeTheirWitnessSubset) {
  GlobalThreadsGuard guard;
  constexpr std::size_t kMaxServers = 3;
  std::vector<Instance> instances;
  for (std::uint64_t seed : {91u, 92u, 93u, 94u}) {
    instances.push_back(random_instance(seed, 100, 2 + seed % 4));
  }
  for (std::uint64_t seed : {95u, 96u, 97u}) {
    instances.push_back(geant_instance(seed, 3 + seed % 3));
  }
  for (std::uint64_t seed : {98u, 99u}) {
    instances.push_back(tie_instance(seed, 100, 4));
  }
  std::size_t dominated_total = 0;
  for (const Instance& inst : instances) {
    const SharedSearchRig rig(inst);
    // Nothing connects, so the search never has an incumbent and no bound
    // prunes: the combinations it does not evaluate are exactly the ones
    // it marks dominated, bulk-counted subtrees included.
    std::mutex mu;
    std::vector<std::vector<std::size_t>> evaluated;
    ComboSearch search(
        rig.pool.size(), rig.bounds, kMaxServers,
        [&mu, &evaluated](std::span<const std::size_t> idx) {
          const std::lock_guard<std::mutex> lock(mu);
          evaluated.emplace_back(idx.begin(), idx.end());
          return ComboEvaluation{};
        },
        &rig.sprime);
    const ComboSearchResult res = search.next_best(nullptr);
    ASSERT_FALSE(res.found);
    std::sort(evaluated.begin(), evaluated.end());

    const std::size_t n = rig.pool.size();
    std::size_t space = 0;
    std::size_t skipped = 0;
    for (std::size_t k = 1; k <= std::min(kMaxServers, n); ++k) {
      std::vector<std::size_t> idx(k);
      for (std::size_t i = 0; i < k; ++i) idx[i] = i;
      do {
        ++space;
        const std::size_t witness = idle_member(rig.sprime, idx);
        const bool marked =
            !std::binary_search(evaluated.begin(), evaluated.end(), idx);
        ASSERT_EQ(marked, witness != kNoWitness);
        if (!marked) continue;
        ++skipped;
        expect_same_tree_without(rig, idx, witness);
      } while (reference::next_combination(idx, n));
    }
    EXPECT_EQ(res.evaluated, evaluated.size());
    EXPECT_EQ(res.evaluated + res.pruned, space);
    EXPECT_EQ(res.pruned, res.dominated);
    EXPECT_EQ(res.dominated, skipped);
    dominated_total += skipped;
  }
  EXPECT_GT(dominated_total, 0u);
}

TEST(ComboSearch, FallthroughPassesSkipDominatedAndMatchLegacy) {
  GlobalThreadsGuard guard;
  std::size_t later_pass_dominated = 0;
  for (std::uint64_t seed : {31u, 32u, 33u, 34u}) {
    Instance inst = random_instance(seed, 40, 4);
    util::Rng delay_rng(seed + 1000);
    topo::assign_delays(inst.topo, delay_rng);
    ApproMultiOptions opts;
    opts.max_servers = 3;
    // Without a delay bound the first candidate realizes: one pass.
    const OfflineSolution one_pass = run(inst, opts);
    ASSERT_TRUE(one_pass.admitted);
    for (const double delay_ms : {2.0, 5.0, 10.0}) {
      inst.request.max_delay_ms = delay_ms;
      const OfflineSolution legacy =
          run(inst, opts, Engine::kSharedDijkstra, Search::kLegacySweep);
      const OfflineSolution bnb = run(inst, opts);
      expect_same_decision(legacy, bnb);
      // The delay bound only acts in realize, so the first pass is the
      // one-pass call's; anything beyond its dominated count was met by
      // fallthrough passes.
      ASSERT_GE(bnb.combinations_dominated, one_pass.combinations_dominated);
      later_pass_dominated +=
          bnb.combinations_dominated - one_pass.combinations_dominated;
    }
  }
  EXPECT_GT(later_pass_dominated, 0u);
}

TEST(ComboSearch, ExploredAndPrunedAreThreadCountInvariant) {
  GlobalThreadsGuard guard;
  const Instance inst = random_instance(61, 45, 5);
  ApproMultiOptions opts;
  opts.max_servers = 3;

  util::ThreadPool::set_global_threads(1);
  const OfflineSolution serial = run(inst, opts);
  util::ThreadPool::set_global_threads(4);
  const OfflineSolution parallel = run(inst, opts);

  EXPECT_EQ(serial.combinations_explored, parallel.combinations_explored);
  EXPECT_EQ(serial.combinations_pruned, parallel.combinations_pruned);
  expect_same_decision(serial, parallel);
}

/// Pins ComboBounds' destination-pair rows through the search's exact work
/// on a fixed request set at K = 3. The bounds run well below the evaluated
/// costs, so an inflated row (rdist_ or free_rdist_ scaled by 1.3) still
/// passes the admissibility and sweep-equivalence tests and only shows as
/// extra pruning, which these totals catch.
TEST(ComboSearch, WorkAtKThreeIsPinnedOnASeededRequestSet) {
  GlobalThreadsGuard guard;
  std::size_t explored[2] = {0, 0};
  std::size_t pruned[2] = {0, 0};
  for (std::uint64_t seed = 1300; seed < 1312; ++seed) {
    const Instance inst = seed % 2 == 0 ? random_instance(seed, 80, 4 + seed % 9)
                                        : geant_instance(seed, 2 + seed % 7);
    for (std::size_t e = 0; e < 2; ++e) {
      ApproMultiOptions opts;
      opts.max_servers = 3;
      const OfflineSolution sol = run(inst, opts, kEngines[e], Search::kBranchAndBound);
      explored[e] += sol.combinations_explored;
      pruned[e] += sol.combinations_pruned;
    }
  }
  EXPECT_EQ(explored[0], 1144u);  // reference engine
  EXPECT_EQ(pruned[0], 182u);
  EXPECT_EQ(explored[1], 647u);  // shared engine
  EXPECT_EQ(pruned[1], 679u);
}

TEST(BeamSearch, CostIsNonIncreasingInWidthAndExactAtFullPool) {
  GlobalThreadsGuard guard;
  for (const auto engine : kEngines) {
    for (std::uint64_t seed : {81u, 82u, 83u}) {
      const Instance inst = random_instance(seed, 40, 5);
      ApproMultiOptions exact_opts;
      exact_opts.max_servers = 3;
      const OfflineSolution exact =
          run(inst, exact_opts, engine, Search::kBranchAndBound);
      ASSERT_TRUE(exact.admitted);

      const std::size_t n = pool_size(inst);

      double prev = std::numeric_limits<double>::infinity();
      for (std::size_t m = 1; m <= n; ++m) {
        ApproMultiOptions beam_opts = exact_opts;
        beam_opts.beam_width = m;
        const OfflineSolution beamed =
            run(inst, beam_opts, engine, Search::kBranchAndBound);
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
}

/// A random closure-matrix lower bound on t terminals in one of four
/// regimes: spread-out reals, small integers (ties and zeros everywhere),
/// reals with zero and infinite entries mixed in, and mostly infinite
/// entries (the sweep often stops at a prefix it cannot extend).
struct SweepInput {
  std::vector<double> min_sv;
  std::vector<double> rdist;
};

SweepInput random_sweep_input(util::Rng& rng, std::size_t t, int regime) {
  const double inf = std::numeric_limits<double>::infinity();
  const auto draw = [&rng, regime, inf]() -> double {
    switch (regime) {
      case 0:
        return rng.uniform_real(0.0, 100.0);
      case 1:
        return static_cast<double>(rng.uniform_int(0, 3));
      case 2:
        if (rng.bernoulli(0.15)) return 0.0;
        if (rng.bernoulli(0.15)) return inf;
        return rng.uniform_real(0.0, 10.0);
      default:
        return rng.bernoulli(0.7) ? inf : rng.uniform_real(0.0, 10.0);
    }
  };
  const std::size_t nd = t - 1;
  SweepInput in;
  for (std::size_t d = 0; d < nd; ++d) in.min_sv.push_back(draw());
  for (std::size_t c = 0; c < nd * nd; ++c) in.rdist.push_back(draw());
  return in;
}

TEST(SubsetMstSweep, MatchesPrimOracleOnRandomMatrices) {
  util::Rng rng(2024);
  // One object for every size, so scratch left by a larger matrix is
  // exercised by the smaller ones after it.
  SubsetMstSweep sweep;
  std::size_t infinite = 0;
  std::size_t finite = 0;
  for (int round = 0; round < 6; ++round) {
    for (std::size_t t = 1; t <= 40; ++t) {
      for (int regime = 0; regime < 4; ++regime) {
        const SweepInput in = random_sweep_input(rng, t, regime);
        const double oracle = reference::scaled_subset_mst_prim(in.min_sv, in.rdist);
        const double got = sweep(in.min_sv, in.rdist);
        ASSERT_EQ(std::isinf(got), std::isinf(oracle))
            << "t " << t << " regime " << regime << ": " << got << " vs " << oracle;
        if (std::isinf(oracle)) {
          ++infinite;
          continue;
        }
        ++finite;
        EXPECT_LE(std::abs(got - oracle), 1e-12 * std::abs(oracle))
            << "t " << t << " regime " << regime << ": " << got << " vs " << oracle;
      }
    }
  }
  EXPECT_GT(infinite, 0u);
  EXPECT_GT(finite, 0u);
}

struct BoundCase {
  bool geant;
  bool unit_costs;
  std::size_t dests;
};

void PrintTo(const BoundCase& c, std::ostream* os) {
  *os << (c.geant ? "GEANT" : "Waxman-100")
      << (c.unit_costs ? ", unit costs" : ", random costs") << ", |D| = " << c.dests;
}

class ComboBoundsAdmissibilityTest : public ::testing::TestWithParam<BoundCase> {};

/// candidate_bound(C) must not exceed C's evaluated Steiner cost under
/// either engine, and subtree_bound(P, next) must not exceed the cheapest
/// evaluated completion of P by servers drawn from pool indices >= next.
TEST_P(ComboBoundsAdmissibilityTest, BoundsNeverExceedEvaluatedCosts) {
  constexpr std::size_t kMaxServers = 3;
  const BoundCase& c = GetParam();
  Instance inst = c.geant ? geant_instance(1200 + c.dests, c.dests)
                          : random_instance(1100 + c.dests, 100, c.dests);
  if (c.unit_costs) inst.costs = reference::uniform_costs(inst.topo);
  const SharedSearchRig rig(inst);
  const std::size_t n = rig.pool.size();
  ASSERT_GT(n, 0u);
  std::vector<graph::VertexId> terminals{
      static_cast<graph::VertexId>(rig.ctx.cost_graph.num_vertices())};
  terminals.insert(terminals.end(), rig.request.destinations.begin(),
                   rig.request.destinations.end());

  // Every combination with its cheaper engine's cost (infinite when neither
  // connects); the bounds must hold for both engines, so the smaller cost
  // is the one that can break them.
  std::vector<std::vector<std::size_t>> combos;
  std::vector<double> cost;
  const double inf = std::numeric_limits<double>::infinity();
  for (std::size_t k = 1; k <= std::min(kMaxServers, n); ++k) {
    std::vector<std::size_t> idx(k);
    for (std::size_t i = 0; i < k; ++i) idx[i] = i;
    do {
      const graph::SteinerResult shared = rig.solve(idx);
      const reference::AuxiliaryGraph aux = reference::build_auxiliary_graph(
          rig.ctx, rig.request.source, rig.servers(idx));
      const graph::SteinerResult ref = graph::kmb_steiner(aux.graph, terminals);
      ASSERT_EQ(shared.connected, ref.connected);
      const double evaluated =
          shared.connected ? std::min(shared.weight, ref.weight) : inf;
      const double bound = rig.bounds.candidate_bound(idx);
      EXPECT_LE(bound, evaluated) << "combination of " << k << " servers";
      if (c.dests == 1 && k == 1 && !rig.sprime.source_adjacent(idx[0]) &&
          shared.connected) {
        // One destination and one server off the source's star: the tree
        // is the path s' -> v -> d, which the bound prices exactly.
        EXPECT_GE(bound, evaluated * (1.0 - 1e-8)) << "server " << idx[0];
      }
      combos.push_back(idx);
      cost.push_back(evaluated);
    } while (reference::next_combination(idx, n));
  }

  // Prefixes of every size below K, the empty one included.
  std::vector<std::vector<std::size_t>> prefixes{{}};
  for (const auto& idx : combos) {
    if (idx.size() < kMaxServers) prefixes.push_back(idx);
  }
  std::size_t checked = 0;
  for (const auto& prefix : prefixes) {
    ComboBounds::Partial partial = rig.bounds.root();
    for (const std::size_t i : prefix) partial = rig.bounds.extend(partial, i);
    const std::size_t first = prefix.empty() ? 0 : prefix.back() + 1;
    for (std::size_t next = first; next < n; ++next) {
      double cheapest = inf;
      for (std::size_t j = 0; j < combos.size(); ++j) {
        const auto& idx = combos[j];
        if (idx.size() <= prefix.size() || idx[prefix.size()] < next) continue;
        if (!std::equal(prefix.begin(), prefix.end(), idx.begin())) continue;
        cheapest = std::min(cheapest, cost[j]);
      }
      if (cheapest == inf) continue;
      EXPECT_LE(rig.bounds.subtree_bound(partial, next), cheapest)
          << "prefix of " << prefix.size() << " servers, next " << next;
      ++checked;
    }
  }
  EXPECT_GT(checked, 0u);
}

INSTANTIATE_TEST_SUITE_P(
    WaxmanAndGeant, ComboBoundsAdmissibilityTest,
    ::testing::Values(BoundCase{false, false, 1}, BoundCase{false, false, 5},
                      BoundCase{false, false, 10}, BoundCase{false, false, 30},
                      BoundCase{false, true, 1}, BoundCase{false, true, 5},
                      BoundCase{false, true, 10}, BoundCase{false, true, 30},
                      BoundCase{true, false, 1}, BoundCase{true, false, 5},
                      BoundCase{true, false, 10}, BoundCase{true, false, 30},
                      BoundCase{true, true, 1}, BoundCase{true, true, 5},
                      BoundCase{true, true, 10}, BoundCase{true, true, 30}),
    [](const ::testing::TestParamInfo<BoundCase>& info) {
      return std::string(info.param.geant ? "geant" : "waxman100") +
             (info.param.unit_costs ? "_unit" : "_random") + "_d" +
             std::to_string(info.param.dests);
    });

}  // namespace
}  // namespace nfvm::core
