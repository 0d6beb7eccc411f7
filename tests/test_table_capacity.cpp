// Forwarding-table (flow-entry) capacity extension: resource accounting and
// algorithm behaviour when switches run out of table space.
#include <gtest/gtest.h>

#include <cmath>

#include "core/appro_multi.h"
#include "core/online_cp.h"
#include "core/online_sp.h"
#include "reference/support.h"
#include "sim/request_gen.h"
#include "sim/simulator.h"
#include "topology/waxman.h"
#include "util/rng.h"

namespace nfvm::core {
namespace {

topo::Topology path_topology(double table_entries = 0.0) {
  topo::Topology t;
  t.name = "table-path";
  t.graph = graph::Graph(4);
  t.graph.add_edge(0, 1, 1.0);
  t.graph.add_edge(1, 2, 1.0);
  t.graph.add_edge(2, 3, 1.0);
  t.servers = {2};
  t.link_bandwidth = {10000, 10000, 10000};
  t.server_compute = {0, 0, 80000, 0};
  if (table_entries > 0) topo::assign_table_capacities(t, table_entries);
  return t;
}

nfv::Request simple_request(std::uint64_t id = 1) {
  nfv::Request r;
  r.id = id;
  r.source = 0;
  r.destinations = {3};
  r.bandwidth_mbps = 100.0;
  r.chain = nfv::ServiceChain({nfv::NetworkFunction::kNat});
  return r;
}

TEST(TableCapacity, UntrackedStateReportsInfinity) {
  const topo::Topology t = path_topology();
  const nfv::ResourceState state(t);
  EXPECT_FALSE(state.tracks_tables());
  EXPECT_TRUE(std::isinf(state.residual_table_entries(0)));
}

TEST(TableCapacity, TrackedAccounting) {
  const topo::Topology t = path_topology(3.0);
  nfv::ResourceState state(t);
  ASSERT_TRUE(state.tracks_tables());
  EXPECT_DOUBLE_EQ(state.residual_table_entries(1), 3.0);

  nfv::Footprint fp;
  fp.table_entries = {0, 1, 2};
  ASSERT_TRUE(state.can_allocate(fp));
  state.allocate(fp);
  EXPECT_DOUBLE_EQ(state.residual_table_entries(1), 2.0);
  EXPECT_DOUBLE_EQ(state.residual_table_entries(3), 3.0);
  state.release(fp);
  EXPECT_DOUBLE_EQ(state.residual_table_entries(1), 3.0);
}

TEST(TableCapacity, DuplicateEntriesAggregate) {
  const topo::Topology t = path_topology(2.0);
  nfv::ResourceState state(t);
  nfv::Footprint fp;
  fp.table_entries = {1, 1, 1};  // 3 entries on one switch > capacity 2
  EXPECT_FALSE(state.can_allocate(fp));
  EXPECT_THROW(state.allocate(fp), std::runtime_error);
}

TEST(TableCapacity, OverReleaseRejected) {
  const topo::Topology t = path_topology(2.0);
  nfv::ResourceState state(t);
  nfv::Footprint fp;
  fp.table_entries = {1};
  EXPECT_THROW(state.release(fp), std::runtime_error);
}

TEST(TableCapacity, FootprintListsTouchedSwitches) {
  const topo::Topology t = path_topology(5.0);
  const LinearCosts costs = reference::uniform_costs(t, 1.0, 0.001);
  const nfv::Request r = simple_request();
  const OfflineSolution sol = appro_multi(t, costs, r);
  ASSERT_TRUE(sol.admitted);
  const nfv::Footprint fp = sol.tree.footprint(r, t.graph);
  EXPECT_EQ(fp.table_entries, (std::vector<graph::VertexId>{0, 1, 2, 3}));
}

TEST(TableCapacity, OnlineCpStopsWhenTablesExhausted) {
  // Two flow entries per switch: exactly two multicast groups fit through
  // this path; bandwidth/compute are plentiful.
  const topo::Topology t = path_topology(2.0);
  OnlineCp algo(t);
  std::size_t admitted = 0;
  for (std::uint64_t k = 1; k <= 6; ++k) {
    if (algo.process(simple_request(k)).admitted) ++admitted;
  }
  EXPECT_EQ(admitted, 2u);
  EXPECT_DOUBLE_EQ(algo.resources().residual_table_entries(1), 0.0);
}

TEST(TableCapacity, OnlineSpStopsWhenTablesExhausted) {
  const topo::Topology t = path_topology(3.0);
  OnlineSp algo(t);
  std::size_t admitted = 0;
  for (std::uint64_t k = 1; k <= 8; ++k) {
    if (algo.process(simple_request(k)).admitted) ++admitted;
  }
  EXPECT_EQ(admitted, 3u);
}

TEST(TableCapacity, OfflineCapacitatedPrunesFullSwitches) {
  const topo::Topology t = path_topology(1.0);
  const LinearCosts costs = reference::uniform_costs(t, 1.0, 0.001);
  nfv::ResourceState state(t);
  // First admission consumes the single entry everywhere on the path.
  ApproMultiOptions opts;
  opts.resources = &state;
  const OfflineSolution first = appro_multi(t, costs, simple_request(1), opts);
  ASSERT_TRUE(first.admitted);
  state.allocate(first.tree.footprint(simple_request(1), t.graph));

  const OfflineSolution second = appro_multi(t, costs, simple_request(2), opts);
  EXPECT_FALSE(second.admitted);
}

TEST(TableCapacity, ValidateTopologyChecksTables) {
  topo::Topology t = path_topology(4.0);
  util::Rng rng(1);
  EXPECT_NO_THROW(reference::validate_topology(t));
  t.switch_table_capacity.pop_back();
  EXPECT_THROW(reference::validate_topology(t), std::logic_error);
  t = path_topology(4.0);
  t.switch_table_capacity[0] = 0.0;
  EXPECT_THROW(reference::validate_topology(t), std::logic_error);
  EXPECT_THROW(topo::assign_table_capacities(t, 0.5), std::invalid_argument);
}

TEST(TableCapacity, ThroughputScalesWithTableSize) {
  // On a random topology with abundant bandwidth/compute, admissions scale
  // with the per-switch table budget.
  util::Rng rng(7);
  topo::WaxmanOptions wo;
  wo.target_mean_degree = 4.0;
  wo.capacities.min_compute_mhz = 100000;
  wo.capacities.max_compute_mhz = 100000;

  std::size_t last = 0;
  for (double entries : {5.0, 15.0, 45.0}) {
    util::Rng topo_rng(7);
    topo::Topology t = topo::make_waxman(40, topo_rng, wo);
    topo::assign_table_capacities(t, entries);
    util::Rng workload(9);
    sim::RequestGenerator gen(t, workload);
    OnlineCp algo(t);
    const sim::SimulationMetrics m = sim::run_online(algo, gen.sequence(120));
    EXPECT_GE(m.num_admitted, last);
    last = m.num_admitted;
  }
  EXPECT_GT(last, 0u);
}

TEST(TableCapacity, ReleaseRestoresEntriesInDynamicRuns) {
  topo::Topology t = path_topology(2.0);
  OnlineCp algo(t);
  const AdmissionDecision d = algo.process(simple_request(1));
  ASSERT_TRUE(d.admitted);
  EXPECT_DOUBLE_EQ(algo.resources().residual_table_entries(0), 1.0);
  algo.release(d.footprint);
  EXPECT_DOUBLE_EQ(algo.resources().residual_table_entries(0), 2.0);
}

}  // namespace
}  // namespace nfvm::core
