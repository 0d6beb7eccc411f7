#include "reference/exact_offline.h"

#include <gtest/gtest.h>

#include "core/alg_one_server.h"
#include "topology/waxman.h"
#include "util/rng.h"

namespace nfvm::core {
namespace {

using reference::exact_auxiliary;
using reference::exact_one_server;
using reference::ExactOfflineOptions;

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

TEST(ExactOneServer, ValidTree) {
  const Instance inst = random_instance(1, 16, 3);
  const OfflineSolution sol = exact_one_server(inst.topo, inst.costs, inst.request);
  ASSERT_TRUE(sol.admitted) << sol.reject_reason;
  std::string error;
  EXPECT_TRUE(validate_pseudo_tree(inst.topo.graph, inst.request, sol.tree, &error))
      << error;
  EXPECT_EQ(sol.tree.servers.size(), 1u);
}

TEST(ExactOneServer, GuardTooManyDestinations) {
  Instance inst = random_instance(2, 30, 3);
  ExactOfflineOptions opts;
  opts.max_terminals = 3;  // |D| + 1 = 4 > 3
  EXPECT_THROW(exact_one_server(inst.topo, inst.costs, inst.request, opts),
               std::invalid_argument);
}

TEST(ExactOneServer, LowerBoundsEveryOneServerHeuristic) {
  for (std::uint64_t seed : {11u, 12u, 13u, 14u, 15u, 16u}) {
    const Instance inst = random_instance(seed, 18, 3);
    const OfflineSolution exact = exact_one_server(inst.topo, inst.costs, inst.request);
    const OfflineSolution base = alg_one_server(inst.topo, inst.costs, inst.request);
    ASSERT_TRUE(exact.admitted);
    ASSERT_TRUE(base.admitted);
    EXPECT_LE(exact.tree.cost, base.tree.cost + 1e-9) << "seed " << seed;
  }
}

TEST(ExactAuxiliary, ApproMultiWithinTwiceExact) {
  // The KMB guarantee, verified within the auxiliary formulation itself:
  // Appro_Multi's reported cost <= 2 x the exact auxiliary optimum.
  for (std::uint64_t seed : {21u, 22u, 23u, 24u, 25u}) {
    const Instance inst = random_instance(seed, 16, 3);
    for (std::size_t k = 1; k <= 2; ++k) {
      ExactOfflineOptions eopts;
      eopts.max_servers = k;
      const OfflineSolution exact =
          exact_auxiliary(inst.topo, inst.costs, inst.request, eopts);
      ApproMultiOptions aopts;
      aopts.max_servers = k;
      const OfflineSolution appro =
          appro_multi(inst.topo, inst.costs, inst.request, aopts);
      ASSERT_TRUE(exact.admitted);
      ASSERT_TRUE(appro.admitted);
      EXPECT_GE(appro.tree.cost + 1e-9, exact.tree.cost)
          << "seed " << seed << " K " << k;
      EXPECT_LE(appro.tree.cost, 2.0 * exact.tree.cost + 1e-9)
          << "seed " << seed << " K " << k;
    }
  }
}

TEST(ExactAuxiliary, NonIncreasingInK) {
  const Instance inst = random_instance(31, 15, 3);
  double last = std::numeric_limits<double>::infinity();
  for (std::size_t k = 1; k <= 3; ++k) {
    ExactOfflineOptions opts;
    opts.max_servers = k;
    const OfflineSolution sol =
        exact_auxiliary(inst.topo, inst.costs, inst.request, opts);
    ASSERT_TRUE(sol.admitted);
    EXPECT_LE(sol.tree.cost, last + 1e-9);
    last = sol.tree.cost;
  }
}

TEST(ExactAuxiliary, AtMostOneServerBelowTrueOptimum) {
  // The zero-cost source-edge correction can only lower the auxiliary
  // optimum relative to the true one-server optimum.
  for (std::uint64_t seed : {41u, 42u, 43u, 44u}) {
    const Instance inst = random_instance(seed, 14, 2);
    const OfflineSolution true_opt =
        exact_one_server(inst.topo, inst.costs, inst.request);
    ExactOfflineOptions opts;
    opts.max_servers = 1;
    const OfflineSolution aux_opt =
        exact_auxiliary(inst.topo, inst.costs, inst.request, opts);
    ASSERT_TRUE(true_opt.admitted);
    ASSERT_TRUE(aux_opt.admitted);
    EXPECT_LE(aux_opt.tree.cost, true_opt.tree.cost + 1e-9) << "seed " << seed;
  }
}

TEST(ExactAuxiliary, ValidTreeAndServerBound) {
  const Instance inst = random_instance(51, 15, 3);
  ExactOfflineOptions opts;
  opts.max_servers = 2;
  const OfflineSolution sol = exact_auxiliary(inst.topo, inst.costs, inst.request, opts);
  ASSERT_TRUE(sol.admitted);
  std::string error;
  EXPECT_TRUE(validate_pseudo_tree(inst.topo.graph, inst.request, sol.tree, &error))
      << error;
  EXPECT_LE(sol.tree.servers.size(), 2u);
}

TEST(ExactAuxiliary, GuardsChecked) {
  Instance inst = random_instance(61, 14, 2);
  ExactOfflineOptions opts;
  opts.max_servers = 0;
  EXPECT_THROW(exact_auxiliary(inst.topo, inst.costs, inst.request, opts),
               std::invalid_argument);
  opts.max_servers = 1;
  opts.max_terminals = 2;
  EXPECT_THROW(exact_auxiliary(inst.topo, inst.costs, inst.request, opts),
               std::invalid_argument);
}

TEST(ExactOffline, CapacitatedPruningRespected) {
  Instance inst = random_instance(71, 14, 2);
  nfv::ResourceState state(inst.topo);
  // Exhaust every server except one.
  for (std::size_t i = 0; i + 1 < inst.topo.servers.size(); ++i) {
    nfv::Footprint fp;
    const graph::VertexId v = inst.topo.servers[i];
    fp.compute = {{v, state.residual_compute(v)}};
    state.allocate(fp);
  }
  ExactOfflineOptions opts;
  opts.resources = &state;
  const OfflineSolution sol = exact_one_server(inst.topo, inst.costs, inst.request, opts);
  if (sol.admitted) {
    EXPECT_EQ(sol.tree.servers[0], inst.topo.servers.back());
  }
}

}  // namespace
}  // namespace nfvm::core
