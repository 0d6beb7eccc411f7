// End-to-end scenarios exercising the whole stack: topology generation,
// request generation, offline cost comparison, capacitated admission, and
// online simulation on the real-like topologies.
#include <gtest/gtest.h>

#include "core/alg_one_server.h"
#include "core/appro_multi.h"
#include "core/chain_split.h"
#include "core/delay.h"
#include "core/online_cp.h"
#include "core/online_sp.h"
#include "reference/support.h"
#include "sim/request_gen.h"
#include "sim/simulator.h"
#include "topology/geant.h"
#include "topology/rocketfuel.h"
#include "topology/waxman.h"
#include "util/rng.h"

namespace nfvm {
namespace {

TEST(Integration, OfflineComparisonOnWaxman) {
  // Appro_Multi (K=3) should on average beat Alg_One_Server on operational
  // cost - the paper's Fig. 5 headline. Averaged over a batch to avoid
  // per-instance noise.
  util::Rng rng(1001);
  const topo::Topology topo = topo::make_waxman(60, rng);
  const core::LinearCosts costs = core::random_costs(topo, rng);
  sim::RequestGenerator gen(topo, rng);

  double sum_appro = 0.0;
  double sum_one = 0.0;
  int counted = 0;
  for (int i = 0; i < 20; ++i) {
    const nfv::Request r = gen.next();
    const core::OfflineSolution a = core::appro_multi(topo, costs, r);
    const core::OfflineSolution b = core::alg_one_server(topo, costs, r);
    ASSERT_TRUE(a.admitted);
    ASSERT_TRUE(b.admitted);
    // Per-instance sanity: both valid.
    std::string error;
    ASSERT_TRUE(core::validate_pseudo_tree(topo.graph, r, a.tree, &error)) << error;
    ASSERT_TRUE(core::validate_pseudo_tree(topo.graph, r, b.tree, &error)) << error;
    sum_appro += a.tree.cost;
    sum_one += b.tree.cost;
    ++counted;
  }
  ASSERT_EQ(counted, 20);
  EXPECT_LE(sum_appro, sum_one * 1.02)
      << "Appro_Multi should not lose to the one-server baseline on average";
}

TEST(Integration, OnlineCpBeatsSpOnSaturatedWaxman) {
  // The paper's Fig. 8: Online_CP admits more than SP under load.
  // We run a long sequence so resources saturate.
  util::Rng topo_rng(2002);
  const topo::Topology topo = topo::make_waxman(50, topo_rng);

  auto run = [&topo](core::OnlineAlgorithm& algo) {
    util::Rng rng(42);
    sim::RequestGenerator gen(topo, rng);
    return sim::run_online(algo, gen.sequence(250));
  };
  core::OnlineCp cp(topo);
  core::OnlineSp sp(topo);
  const sim::SimulationMetrics mcp = run(cp);
  const sim::SimulationMetrics msp = run(sp);
  EXPECT_GT(mcp.num_admitted, 0u);
  EXPECT_GT(msp.num_admitted, 0u);
  // CP should not be dramatically worse; the paper reports CP >= SP. Allow
  // slack for a single topology draw but catch regressions.
  EXPECT_GE(mcp.num_admitted * 10, msp.num_admitted * 7);
}

TEST(Integration, GeantOfflineScenario) {
  util::Rng rng(3003);
  const topo::Topology topo = topo::make_geant(rng);
  const core::LinearCosts costs = core::random_costs(topo, rng);

  nfv::Request r;
  r.id = 1;
  r.source = 0;  // Amsterdam
  r.destinations = {1, 13, 22, 29, 31};  // Athens, Istanbul, Moscow, Rome, Stockholm
  r.bandwidth_mbps = 150.0;
  r.chain = nfv::ServiceChain(
      {nfv::NetworkFunction::kFirewall, nfv::NetworkFunction::kIds});

  const core::OfflineSolution sol = core::appro_multi(topo, costs, r);
  ASSERT_TRUE(sol.admitted) << sol.reject_reason;
  std::string error;
  EXPECT_TRUE(core::validate_pseudo_tree(topo.graph, r, sol.tree, &error)) << error;
  EXPECT_LE(sol.tree.servers.size(), 3u);
}

TEST(Integration, As1755OnlineScenario) {
  util::Rng rng(4004);
  const topo::Topology topo = topo::make_as1755(rng);
  core::OnlineCp algo(topo);
  sim::RequestGenerator gen(topo, rng);
  const sim::SimulationMetrics m = sim::run_online(algo, gen.sequence(100));
  EXPECT_GT(m.num_admitted, 10u);
  EXPECT_EQ(m.num_admitted + m.num_rejected, 100u);
}

TEST(Integration, CapacitatedOfflineSequenceConservesResources) {
  // Admit a stream of requests through Appro_Multi_Cap, charging each
  // footprint; residuals must never go negative and every admitted tree
  // must have been feasible at admission time.
  util::Rng rng(5005);
  const topo::Topology topo = topo::make_waxman(40, rng);
  const core::LinearCosts costs = core::random_costs(topo, rng);
  nfv::ResourceState state(topo);
  sim::RequestGenerator gen(topo, rng);

  std::size_t admitted = 0;
  for (int i = 0; i < 120; ++i) {
    const nfv::Request r = gen.next();
    core::ApproMultiOptions opts;
    opts.resources = &state;
    const core::OfflineSolution sol = core::appro_multi(topo, costs, r, opts);
    if (!sol.admitted) continue;
    const nfv::Footprint fp = sol.tree.footprint(r);
    ASSERT_TRUE(state.can_allocate(fp)) << "algorithm returned infeasible tree";
    state.allocate(fp);
    ++admitted;
  }
  EXPECT_GT(admitted, 0u);
  for (graph::EdgeId e = 0; e < topo.num_links(); ++e) {
    EXPECT_GE(state.residual_bandwidth(e), -1e-6);
  }
  for (graph::VertexId v : topo.servers) {
    EXPECT_GE(state.residual_compute(v), -1e-6);
  }
}

TEST(Integration, MixedWorkloadOnAs4755) {
  util::Rng rng(6006);
  const topo::Topology topo = topo::make_as4755(rng);
  core::OnlineSp sp(topo);
  core::OnlineCp cp(topo);
  sim::RequestGenerator gen(topo, rng);
  const auto requests = gen.sequence(120);
  const sim::SimulationMetrics a = sim::run_online(cp, requests);
  const sim::SimulationMetrics b = sim::run_online(sp, requests);
  EXPECT_GT(a.num_admitted, 0u);
  EXPECT_GT(b.num_admitted, 0u);
}

TEST(Integration, OnlineThroughputGrowsWithSequenceLength) {
  // Fig. 9 shape: admitted count is non-decreasing in the request count.
  util::Rng topo_rng(7007);
  const topo::Topology topo = topo::make_geant(topo_rng);
  std::size_t last = 0;
  for (std::size_t count : {30u, 60u, 90u}) {
    util::Rng rng(77);
    sim::RequestGenerator gen(topo, rng);
    core::OnlineCp algo(topo);
    const sim::SimulationMetrics m = sim::run_online(algo, gen.sequence(count));
    EXPECT_GE(m.num_admitted, last);
    last = m.num_admitted;
  }
}

TEST(Integration, AllConstraintsTogetherOnlineRun) {
  // Bandwidth + compute + forwarding tables + delay bounds, all active at
  // once, through the dynamic simulator: every admitted tree must satisfy
  // every constraint and all resources must return to idle at the end.
  util::Rng rng(8008);
  topo::WaxmanOptions wo;
  wo.target_mean_degree = 4.0;
  topo::Topology topo = topo::make_waxman(60, rng, wo);
  topo::assign_delays(topo, rng, 0.3, 1.5);
  topo::assign_table_capacities(topo, 25.0);

  util::Rng workload(42);
  sim::RequestGenerator gen(topo, workload);
  util::Rng times(43);
  auto timed = sim::make_poisson_workload(gen, times, 200);
  for (sim::TimedRequest& tr : timed) tr.request.max_delay_ms = 15.0;

  core::OnlineCp algo(topo);
  const sim::DynamicMetrics m = sim::run_online_dynamic(algo, timed);
  EXPECT_GT(m.num_admitted, 0u);
  EXPECT_NEAR(reference::total_allocated_bandwidth(algo.topology(), algo.resources()),
              0.0, 1e-6);
  EXPECT_NEAR(reference::total_allocated_compute(algo.topology(), algo.resources()),
              0.0, 1e-6);
  for (graph::VertexId v = 0; v < topo.num_switches(); ++v) {
    EXPECT_NEAR(algo.resources().residual_table_entries(v), 25.0, 1e-9);
  }
}

TEST(Integration, AllConstraintsAdmittedTreesSatisfyEverything) {
  util::Rng rng(8009);
  topo::WaxmanOptions wo;
  wo.target_mean_degree = 4.0;
  topo::Topology topo = topo::make_waxman(50, rng, wo);
  topo::assign_delays(topo, rng, 0.3, 1.5);
  topo::assign_table_capacities(topo, 30.0);

  util::Rng workload(77);
  sim::RequestGenerator gen(topo, workload);
  core::OnlineCp algo(topo);
  std::size_t admitted = 0;
  for (int i = 0; i < 120; ++i) {
    nfv::Request r = gen.next();
    r.max_delay_ms = 12.0;
    const core::AdmissionDecision d = algo.process(r);
    if (!d.admitted) continue;
    ++admitted;
    std::string error;
    ASSERT_TRUE(core::validate_pseudo_tree(topo.graph, r, d.tree, &error)) << error;
    EXPECT_TRUE(core::meets_delay_bound(topo, r, d.tree));
  }
  EXPECT_GT(admitted, 0u);
  // Tables never over-consumed.
  for (graph::VertexId v = 0; v < topo.num_switches(); ++v) {
    EXPECT_GE(algo.resources().residual_table_entries(v), -1e-9);
  }
}

TEST(Integration, ChainSplitStreamWithAllConstraints) {
  util::Rng rng(8010);
  topo::Topology topo = topo::make_waxman(40, rng);
  topo::assign_table_capacities(topo, 20.0);
  const core::LinearCosts costs = core::random_costs(topo, rng);
  nfv::ResourceState state(topo);
  sim::RequestGenerator gen(topo, rng);

  std::size_t admitted = 0;
  for (int i = 0; i < 60; ++i) {
    const nfv::Request r = gen.next();
    core::ChainSplitOptions opts;
    opts.resources = &state;
    const core::ChainSplitSolution sol =
        core::chain_split_multicast(topo, costs, r, opts);
    if (!sol.admitted) continue;
    ASSERT_TRUE(state.can_allocate(sol.footprint));
    state.allocate(sol.footprint);
    ++admitted;
  }
  EXPECT_GT(admitted, 0u);
  for (graph::VertexId v = 0; v < topo.num_switches(); ++v) {
    EXPECT_GE(state.residual_table_entries(v), -1e-9);
  }
}

}  // namespace
}  // namespace nfvm
