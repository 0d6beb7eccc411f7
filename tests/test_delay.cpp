#include "core/delay.h"

#include <gtest/gtest.h>

#include "core/appro_multi.h"
#include "core/online_cp.h"
#include "core/online_sp.h"
#include "reference/support.h"
#include "topology/waxman.h"
#include "util/rng.h"

namespace nfvm::core {
namespace {

/// Path 0-1-2-3 with known delays; server at 2.
struct Fixture {
  topo::Topology topo;
  nfv::Request request;

  Fixture() {
    topo.name = "delay-path";
    topo.graph = graph::Graph(4);
    topo.graph.add_edge(0, 1, 1.0);
    topo.graph.add_edge(1, 2, 1.0);
    topo.graph.add_edge(2, 3, 1.0);
    topo.servers = {2};
    topo.link_bandwidth = {1000, 1000, 1000};
    topo.server_compute = {0, 0, 8000, 0};
    topo.link_delay_ms = {1.0, 2.0, 4.0};

    request.id = 1;
    request.source = 0;
    request.destinations = {3};
    request.bandwidth_mbps = 100.0;
    request.chain = nfv::ServiceChain({nfv::NetworkFunction::kNat});  // 0.05 ms
  }
};

TEST(Delay, RouteDelaySumsLinksAndChain) {
  Fixture f;
  DestinationRoute route;
  route.destination = 3;
  route.server = 2;
  route.walk = {0, 1, 2, 3};
  route.server_index = 2;
  EXPECT_NEAR(route_delay_ms(f.topo, f.request.chain, route), 1 + 2 + 4 + 0.05, 1e-9);
}

TEST(Delay, BackhaulWalkCountsLinksTwice) {
  Fixture f;
  DestinationRoute route;
  route.destination = 1;
  route.server = 2;
  route.walk = {0, 1, 2, 1};  // out to the server and back
  route.server_index = 2;
  EXPECT_NEAR(route_delay_ms(f.topo, f.request.chain, route), 1 + 2 + 2 + 0.05, 1e-9);
}

TEST(Delay, RequiresAssignedDelays) {
  Fixture f;
  f.topo.link_delay_ms.clear();
  DestinationRoute route;
  route.walk = {0, 1};
  EXPECT_THROW(route_delay_ms(f.topo, f.request.chain, route), std::invalid_argument);
}

TEST(Delay, NonExistentLinkRejected) {
  Fixture f;
  DestinationRoute route;
  route.walk = {0, 2};  // not adjacent
  EXPECT_THROW(route_delay_ms(f.topo, f.request.chain, route), std::invalid_argument);
}

TEST(Delay, WorstRouteDelayTakesMax) {
  Fixture f;
  PseudoMulticastTree tree;
  DestinationRoute near;
  near.destination = 1;
  near.server = 2;
  near.walk = {0, 1, 2, 1};
  near.server_index = 2;
  DestinationRoute far;
  far.destination = 3;
  far.server = 2;
  far.walk = {0, 1, 2, 3};
  far.server_index = 2;
  tree.routes = {near, far};
  EXPECT_NEAR(worst_route_delay_ms(f.topo, f.request, tree), 7.05, 1e-9);
}

TEST(Delay, UnboundedRequestAlwaysMeets) {
  Fixture f;
  PseudoMulticastTree tree;  // even an empty tree
  EXPECT_TRUE(meets_delay_bound(f.topo, f.request, tree));
}

TEST(Delay, BoundEnforced) {
  Fixture f;
  f.request.max_delay_ms = 5.0;
  PseudoMulticastTree tree;
  DestinationRoute route;
  route.destination = 3;
  route.server = 2;
  route.walk = {0, 1, 2, 3};
  route.server_index = 2;
  tree.routes = {route};
  EXPECT_FALSE(meets_delay_bound(f.topo, f.request, tree));  // 7.05 > 5
  f.request.max_delay_ms = 8.0;
  EXPECT_TRUE(meets_delay_bound(f.topo, f.request, tree));
}

TEST(DelayConstrained, ApproMultiRejectsWhenBoundImpossible) {
  Fixture f;
  const LinearCosts costs = reference::uniform_costs(f.topo, 1.0, 0.01);
  f.request.max_delay_ms = 1.0;  // even reaching the server takes 3 ms
  const OfflineSolution sol = appro_multi(f.topo, costs, f.request);
  EXPECT_FALSE(sol.admitted);
  EXPECT_EQ(sol.reject_reason, "every candidate tree violates capacity or delay constraints");
}

TEST(DelayConstrained, ApproMultiAdmitsWithinBound) {
  Fixture f;
  const LinearCosts costs = reference::uniform_costs(f.topo, 1.0, 0.01);
  f.request.max_delay_ms = 10.0;
  const OfflineSolution sol = appro_multi(f.topo, costs, f.request);
  ASSERT_TRUE(sol.admitted) << sol.reject_reason;
  EXPECT_TRUE(meets_delay_bound(f.topo, f.request, sol.tree));
}

TEST(DelayConstrained, ApproMultiPicksDelayFeasibleCandidate) {
  // Two routes 0 -> 3: a cheap-but-slow lower path via server 2 and a
  // pricier-but-fast upper path via server 1 (behind relay 4, so the
  // zero-cost source-edge correction cannot reroute around it). The
  // unconstrained optimum violates the bound; the constrained run must fall
  // back to the fast tree.
  topo::Topology t;
  t.graph = graph::Graph(5);
  t.graph.add_edge(0, 4, 1.0);  // e0 upper (fast)
  t.graph.add_edge(4, 1, 1.0);  // e1 upper
  t.graph.add_edge(1, 3, 1.0);  // e2 upper
  t.graph.add_edge(0, 2, 1.0);  // e3 lower (slow)
  t.graph.add_edge(2, 3, 1.0);  // e4 lower
  t.servers = {1, 2};
  t.link_bandwidth = {1000, 1000, 1000, 1000, 1000};
  t.server_compute = {0, 8000, 8000, 0, 0};
  t.link_delay_ms = {1.0, 1.0, 1.0, 10.0, 10.0};
  LinearCosts costs = reference::uniform_costs(t, 1.0, 0.001);
  costs.link_unit_cost = {1.9, 1.9, 1.9, 1.0, 1.0};  // lower path cheaper

  nfv::Request r;
  r.id = 1;
  r.source = 0;
  r.destinations = {3};
  r.bandwidth_mbps = 100.0;
  r.chain = nfv::ServiceChain({nfv::NetworkFunction::kNat});

  const OfflineSolution unconstrained = appro_multi(t, costs, r);
  ASSERT_TRUE(unconstrained.admitted);
  EXPECT_EQ(unconstrained.tree.servers, (std::vector<graph::VertexId>{2}));

  r.max_delay_ms = 5.0;
  const OfflineSolution constrained = appro_multi(t, costs, r);
  ASSERT_TRUE(constrained.admitted) << constrained.reject_reason;
  EXPECT_EQ(constrained.tree.servers, (std::vector<graph::VertexId>{1}));
  EXPECT_TRUE(meets_delay_bound(t, r, constrained.tree));
  EXPECT_GT(constrained.tree.cost, unconstrained.tree.cost);
}

TEST(DelayConstrained, OnlineCpHonorsBound) {
  Fixture f;
  OnlineCp algo(f.topo);
  f.request.max_delay_ms = 1.0;
  const AdmissionDecision tight = algo.process(f.request);
  EXPECT_FALSE(tight.admitted);
  EXPECT_EQ(tight.reject_reason, "no candidate tree meets the delay bound");

  f.request.id = 2;
  f.request.max_delay_ms = 20.0;
  const AdmissionDecision loose = algo.process(f.request);
  EXPECT_TRUE(loose.admitted);
}

TEST(DelayConstrained, OnlineSpHonorsBound) {
  Fixture f;
  OnlineSp algo(f.topo);
  f.request.max_delay_ms = 1.0;
  EXPECT_FALSE(algo.process(f.request).admitted);
  f.request.id = 2;
  f.request.max_delay_ms = 20.0;
  EXPECT_TRUE(algo.process(f.request).admitted);
}

TEST(DelayConstrained, AssignDelaysHelper) {
  util::Rng rng(5);
  topo::Topology t = topo::make_waxman(30, rng);
  topo::assign_delays(t, rng, 0.5, 1.5);
  ASSERT_EQ(t.link_delay_ms.size(), t.num_links());
  for (double d : t.link_delay_ms) {
    EXPECT_GE(d, 0.5);
    EXPECT_LE(d, 1.5);
  }
  EXPECT_NO_THROW(reference::validate_topology(t));
  EXPECT_THROW(topo::assign_delays(t, rng, 0.0, 1.0), std::invalid_argument);
  EXPECT_THROW(topo::assign_delays(t, rng, 2.0, 1.0), std::invalid_argument);
}

TEST(DelayConstrained, ValidateRejectsBadDelayVector) {
  Fixture f;
  f.topo.link_delay_ms.pop_back();
  EXPECT_THROW(reference::validate_topology(f.topo), std::logic_error);
  f.topo.link_delay_ms = {1.0, -1.0, 1.0};
  EXPECT_THROW(reference::validate_topology(f.topo), std::logic_error);
}

TEST(DelayConstrained, ChainProcessingDelaySums) {
  const nfv::ServiceChain chain({nfv::NetworkFunction::kNat,
                                 nfv::NetworkFunction::kIds});
  EXPECT_NEAR(chain.processing_delay_ms(), 0.05 + 0.50, 1e-12);
}

}  // namespace
}  // namespace nfvm::core
