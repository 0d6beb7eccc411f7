#include "core/online_sp.h"

#include <gtest/gtest.h>

#include "reference/support.h"
#include "sim/request_gen.h"
#include "sim/simulator.h"
#include "topology/waxman.h"
#include "util/rng.h"

namespace nfvm::core {
namespace {

topo::Topology path_topology() {
  topo::Topology t;
  t.name = "path5";
  t.graph = graph::Graph(5);
  t.graph.add_edge(0, 1, 1.0);
  t.graph.add_edge(1, 2, 1.0);
  t.graph.add_edge(2, 3, 1.0);
  t.graph.add_edge(3, 4, 1.0);
  t.servers = {2, 4};
  t.link_bandwidth = {1000, 1000, 1000, 1000};
  t.server_compute = {0, 0, 8000, 0, 8000};
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

TEST(OnlineSp, Name) {
  const topo::Topology t = path_topology();
  OnlineSp algo(t);
  EXPECT_EQ(algo.name(), "SP");
}

TEST(OnlineSp, AdmitsSimpleRequest) {
  const topo::Topology t = path_topology();
  OnlineSp algo(t);
  const nfv::Request r = simple_request();
  const AdmissionDecision d = algo.process(r);
  ASSERT_TRUE(d.admitted) << d.reject_reason;
  std::string error;
  EXPECT_TRUE(validate_pseudo_tree(t.graph, r, d.tree, &error)) << error;
}

TEST(OnlineSp, CostCountsLinkTraversals) {
  const topo::Topology t = path_topology();
  OnlineSp algo(t);
  const AdmissionDecision d = algo.process(simple_request());
  ASSERT_TRUE(d.admitted);
  // Server 2: 0->2 is 2 hops, tree 2->3 is 1 hop = 3 (server 4 would be 5).
  EXPECT_DOUBLE_EQ(d.tree.cost, 3.0);
  EXPECT_EQ(d.tree.servers, (std::vector<graph::VertexId>{2}));
}

TEST(OnlineSp, GreedyAdmitsUntilPhysicalExhaustion) {
  const topo::Topology t = path_topology();
  OnlineSp algo(t);
  nfv::Request r = simple_request();
  std::size_t admitted = 0;
  for (std::uint64_t k = 0; k < 20; ++k) {
    r.id = k;
    if (algo.process(r).admitted) ++admitted;
  }
  // Source's single outgoing link fits exactly 10 x 100 Mbps; SP has no
  // admission thresholds so it packs the link completely.
  EXPECT_EQ(admitted, 10u);
}

TEST(OnlineSp, RejectsWhenComputeGone) {
  const topo::Topology t = path_topology();
  OnlineSp algo(t);
  nfv::Request r = simple_request();
  r.chain = nfv::ServiceChain({nfv::NetworkFunction::kIds});  // 320 MHz/100M
  r.bandwidth_mbps = 100.0;
  std::size_t admitted = 0;
  for (std::uint64_t k = 0; k < 80; ++k) {
    r.id = k;
    if (algo.process(r).admitted) ++admitted;
  }
  // Bandwidth on link e0 caps at 10 admissions before compute runs out.
  EXPECT_LE(admitted, 10u);
  const AdmissionDecision d = algo.process(r);
  EXPECT_FALSE(d.admitted);
  EXPECT_FALSE(d.reject_reason.empty());
}

TEST(OnlineSp, BackhaulMultiplicityCharged) {
  topo::Topology t;
  t.graph = graph::Graph(4);
  t.graph.add_edge(0, 1, 1.0);
  t.graph.add_edge(1, 2, 1.0);
  t.graph.add_edge(2, 3, 1.0);
  t.servers = {3};
  t.link_bandwidth = {1000, 1000, 1000};
  t.server_compute = {0, 0, 0, 8000};

  OnlineSp algo(t);
  nfv::Request r;
  r.id = 1;
  r.source = 0;
  r.destinations = {1};
  r.bandwidth_mbps = 100.0;
  r.chain = nfv::ServiceChain({nfv::NetworkFunction::kNat});
  const AdmissionDecision d = algo.process(r);
  ASSERT_TRUE(d.admitted) << d.reject_reason;
  // SP routes 0->3 (3 hops) then the processed copy back 3->1 (2 hops).
  EXPECT_NEAR(algo.resources().residual_bandwidth(1), 800.0, 1e-6);
  EXPECT_NEAR(algo.resources().residual_bandwidth(2), 800.0, 1e-6);
  EXPECT_NEAR(algo.resources().residual_bandwidth(0), 900.0, 1e-6);
}

TEST(OnlineSp, IgnoresLoadUnlikeCp) {
  // SP keeps choosing the hop-shortest candidate regardless of load.
  topo::Topology t;
  t.graph = graph::Graph(4);
  t.graph.add_edge(0, 1, 1.0);  // top: server 1
  t.graph.add_edge(1, 3, 1.0);
  t.graph.add_edge(0, 2, 1.0);  // bottom: server 2
  t.graph.add_edge(2, 3, 1.0);
  t.servers = {1, 2};
  t.link_bandwidth = {1000, 1000, 1000, 1000};
  t.server_compute = {0, 8000, 8000, 0};

  OnlineSp algo(t);
  nfv::Request r;
  r.id = 1;
  r.source = 0;
  r.destinations = {3};
  r.bandwidth_mbps = 100.0;
  r.chain = nfv::ServiceChain({nfv::NetworkFunction::kNat});

  const AdmissionDecision first = algo.process(r);
  ASSERT_TRUE(first.admitted);
  r.id = 2;
  const AdmissionDecision second = algo.process(r);
  ASSERT_TRUE(second.admitted);
  // Both candidates cost 2 hops every time; SP's deterministic tie-break
  // picks the same server again (no load awareness).
  EXPECT_EQ(second.tree.servers, first.tree.servers);
}

TEST(OnlineSp, UnreachableDestinationRejected) {
  topo::Topology t = path_topology();
  OnlineSp algo(t);
  nfv::Request r = simple_request();
  r.bandwidth_mbps = 5000.0;  // wider than every link
  const AdmissionDecision d = algo.process(r);
  EXPECT_FALSE(d.admitted);
}

TEST(OnlineSp, SequenceOnRandomTopologyValid) {
  util::Rng rng(505);
  const topo::Topology t = topo::make_waxman(50, rng);
  OnlineSp algo(t);
  sim::RequestGenerator gen(t, rng);
  const auto requests = gen.sequence(60);
  const sim::SimulationMetrics m = sim::run_online(algo, requests);
  EXPECT_EQ(m.num_requests, 60u);
  EXPECT_GT(m.num_admitted, 0u);
}

TEST(OnlineSp, StateAccumulatesAcrossRequests) {
  const topo::Topology t = path_topology();
  OnlineSp algo(t);
  nfv::Request r = simple_request();
  algo.process(r);
  const double after_one =
      reference::total_allocated_bandwidth(algo.topology(), algo.resources());
  r.id = 2;
  algo.process(r);
  EXPECT_GT(reference::total_allocated_bandwidth(algo.topology(), algo.resources()),
            after_one);
}

}  // namespace
}  // namespace nfvm::core
