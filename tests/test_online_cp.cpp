#include "core/online_cp.h"

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

TEST(OnlineCp, PaperDefaultParameters) {
  const topo::Topology t = path_topology();
  OnlineCp algo(t);
  EXPECT_DOUBLE_EQ(algo.alpha(), 10.0);  // 2|V| = 10
  EXPECT_DOUBLE_EQ(algo.beta(), 10.0);
  EXPECT_DOUBLE_EQ(algo.sigma_v(), 4.0);  // |V| - 1
  EXPECT_DOUBLE_EQ(algo.sigma_e(), 4.0);
  EXPECT_EQ(algo.name(), "Online_CP");
}

TEST(OnlineCp, CustomParameters) {
  const topo::Topology t = path_topology();
  OnlineCpOptions opts;
  opts.alpha = 4.0;
  opts.beta = 8.0;
  opts.sigma_v = 2.0;
  opts.sigma_e = 3.0;
  OnlineCp algo(t, opts);
  EXPECT_DOUBLE_EQ(algo.alpha(), 4.0);
  EXPECT_DOUBLE_EQ(algo.beta(), 8.0);
  EXPECT_DOUBLE_EQ(algo.sigma_v(), 2.0);
  EXPECT_DOUBLE_EQ(algo.sigma_e(), 3.0);
}

TEST(OnlineCp, AdmitsFirstRequestAndAllocates) {
  const topo::Topology t = path_topology();
  OnlineCp algo(t);
  const nfv::Request r = simple_request();
  const AdmissionDecision d = algo.process(r);
  ASSERT_TRUE(d.admitted) << d.reject_reason;
  EXPECT_EQ(algo.num_admitted(), 1u);
  std::string error;
  EXPECT_TRUE(validate_pseudo_tree(t.graph, r, d.tree, &error)) << error;
  // Resources were charged.
  EXPECT_GT(reference::total_allocated_bandwidth(algo.topology(), algo.resources()), 0.0);
  EXPECT_GT(reference::total_allocated_compute(algo.topology(), algo.resources()), 0.0);
}

TEST(OnlineCp, FirstRequestHasZeroWeightCost) {
  // On an empty network every weight is 0, so the chosen tree costs 0.
  const topo::Topology t = path_topology();
  OnlineCp algo(t);
  const AdmissionDecision d = algo.process(simple_request());
  ASSERT_TRUE(d.admitted);
  EXPECT_NEAR(d.tree.cost, 0.0, 1e-12);
}

TEST(OnlineCp, UsesSingleServer) {
  const topo::Topology t = path_topology();
  OnlineCp algo(t);
  const AdmissionDecision d = algo.process(simple_request());
  ASSERT_TRUE(d.admitted);
  EXPECT_EQ(d.tree.servers.size(), 1u);  // K = 1 online
}

TEST(OnlineCp, RejectsWhenComputeExhausted) {
  const topo::Topology t = path_topology();
  OnlineCp algo(t);
  nfv::Request big = simple_request();
  // IDS at 200 Mbps = 640 MHz per request; 8000 MHz per server.
  big.chain = nfv::ServiceChain({nfv::NetworkFunction::kIds});
  big.bandwidth_mbps = 200.0;
  std::size_t admitted = 0;
  for (std::uint64_t k = 0; k < 60; ++k) {
    big.id = k;
    if (algo.process(big).admitted) ++admitted;
  }
  // 2 servers x 8000 MHz / 640 MHz = 25 chain instances at most; bandwidth
  // may bind earlier, and the admission thresholds earlier still.
  EXPECT_LE(admitted, 25u);
  EXPECT_GT(algo.num_rejected(), 0u);
}

TEST(OnlineCp, RejectsWhenLinkSaturated) {
  const topo::Topology t = path_topology();
  OnlineCp algo(t);
  nfv::Request r = simple_request();
  // Link 0-1 is the only way out of the source: 1000/100 = 10 copies max.
  std::size_t admitted = 0;
  for (std::uint64_t k = 0; k < 20; ++k) {
    r.id = k;
    if (algo.process(r).admitted) ++admitted;
  }
  EXPECT_LE(admitted, 10u);
}

TEST(OnlineCp, RejectReasonProvided) {
  const topo::Topology t = path_topology();
  OnlineCp algo(t);
  nfv::Request r = simple_request();
  r.bandwidth_mbps = 2000.0;  // exceeds every link capacity
  r.chain = nfv::ServiceChain({nfv::NetworkFunction::kNat});
  const AdmissionDecision d = algo.process(r);
  EXPECT_FALSE(d.admitted);
  EXPECT_FALSE(d.reject_reason.empty());
}

TEST(OnlineCp, MalformedRequestThrows) {
  const topo::Topology t = path_topology();
  OnlineCp algo(t);
  nfv::Request r = simple_request();
  r.destinations.clear();
  EXPECT_THROW(algo.process(r), std::invalid_argument);
}

TEST(OnlineCp, BackhaulChargedOnDetour) {
  // Source 0, destination 1, server only at 3 (path 0-1-2-3): processed
  // traffic returns 3 -> 1, so links 1-2, 2-3 carry two traversals.
  topo::Topology t;
  t.graph = graph::Graph(4);
  t.graph.add_edge(0, 1, 1.0);
  t.graph.add_edge(1, 2, 1.0);
  t.graph.add_edge(2, 3, 1.0);
  t.servers = {3};
  t.link_bandwidth = {1000, 1000, 1000};
  t.server_compute = {0, 0, 0, 8000};

  OnlineCp algo(t);
  nfv::Request r;
  r.id = 1;
  r.source = 0;
  r.destinations = {1};
  r.bandwidth_mbps = 100.0;
  r.chain = nfv::ServiceChain({nfv::NetworkFunction::kNat});
  const AdmissionDecision d = algo.process(r);
  ASSERT_TRUE(d.admitted) << d.reject_reason;
  for (const auto& [edge, mult] : d.tree.edge_uses) {
    if (edge == 0) {
      EXPECT_EQ(mult, 1);
    }
    if (edge == 1 || edge == 2) {
      EXPECT_EQ(mult, 2) << "edge " << edge;
    }
  }
  // Residuals reflect the double traversal.
  EXPECT_NEAR(algo.resources().residual_bandwidth(1), 800.0, 1e-6);
  EXPECT_NEAR(algo.resources().residual_bandwidth(0), 900.0, 1e-6);
}

TEST(OnlineCp, ReleaseRestoresResources) {
  const topo::Topology t = path_topology();
  OnlineCp algo(t);
  const AdmissionDecision d = algo.process(simple_request());
  ASSERT_TRUE(d.admitted);
  algo.release(d.footprint);
  EXPECT_NEAR(reference::total_allocated_bandwidth(algo.topology(), algo.resources()),
              0.0, 1e-6);
  EXPECT_NEAR(reference::total_allocated_compute(algo.topology(), algo.resources()),
              0.0, 1e-6);
}

TEST(OnlineCp, PrefersLessLoadedResources) {
  // Two parallel routes 0->3: via server 1 (top) or server 2 (bottom).
  // After loading the top path, the next request should go bottom.
  topo::Topology t;
  t.graph = graph::Graph(4);
  t.graph.add_edge(0, 1, 1.0);  // e0 top
  t.graph.add_edge(1, 3, 1.0);  // e1 top
  t.graph.add_edge(0, 2, 1.0);  // e2 bottom
  t.graph.add_edge(2, 3, 1.0);  // e3 bottom
  t.servers = {1, 2};
  t.link_bandwidth = {1000, 1000, 1000, 1000};
  t.server_compute = {0, 8000, 8000, 0};

  OnlineCp algo(t);
  nfv::Request r;
  r.id = 1;
  r.source = 0;
  r.destinations = {3};
  r.bandwidth_mbps = 100.0;
  r.chain = nfv::ServiceChain({nfv::NetworkFunction::kNat});

  const AdmissionDecision first = algo.process(r);
  ASSERT_TRUE(first.admitted);
  const graph::VertexId first_server = first.tree.servers[0];
  r.id = 2;
  const AdmissionDecision second = algo.process(r);
  ASSERT_TRUE(second.admitted);
  EXPECT_NE(second.tree.servers[0], first_server)
      << "exponential weights should steer the second request to the unloaded path";
}

TEST(OnlineCp, LinearWeightAblationRuns) {
  const topo::Topology t = path_topology();
  OnlineCpOptions opts;
  opts.linear_weights = true;
  OnlineCp algo(t, opts);
  EXPECT_EQ(algo.name(), "Online_CP(linear)");
  const AdmissionDecision d = algo.process(simple_request());
  EXPECT_TRUE(d.admitted);
}

TEST(OnlineCp, ThresholdRejectionTriggersBeforePhysicalExhaustion) {
  // With tiny sigma the algorithm must start rejecting while resources
  // physically remain.
  const topo::Topology t = path_topology();
  OnlineCpOptions opts;
  opts.sigma_v = 0.01;
  opts.sigma_e = 0.01;
  OnlineCp algo(t, opts);
  nfv::Request r = simple_request();
  ASSERT_TRUE(algo.process(r).admitted);  // empty network: weights all 0
  r.id = 2;
  const AdmissionDecision d = algo.process(r);
  EXPECT_FALSE(d.admitted);
  EXPECT_GT(algo.resources().residual_bandwidth(0), 500.0);
}

TEST(OnlineCp, SequenceOnRandomTopologyAllTreesValid) {
  util::Rng rng(404);
  const topo::Topology t = topo::make_waxman(50, rng);
  OnlineCp algo(t);
  sim::RequestGenerator gen(t, rng);
  const auto requests = gen.sequence(60);
  const sim::SimulationMetrics m = sim::run_online(algo, requests);
  EXPECT_EQ(m.num_requests, 60u);
  EXPECT_GT(m.num_admitted, 0u);
  EXPECT_EQ(m.num_admitted + m.num_rejected, 60u);
}

}  // namespace
}  // namespace nfvm::core
