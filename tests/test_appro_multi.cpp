#include "core/appro_multi.h"

#include <gtest/gtest.h>

#include "graph/components.h"
#include "reference/appro_multi_reference.h"
#include "reference/subgraph.h"
#include "topology/waxman.h"
#include "util/rng.h"

namespace nfvm::core {
namespace {

/// Path 0-1-2-3-4, servers at 2 and 4.
struct PathFixture {
  topo::Topology topo;
  LinearCosts costs;
  nfv::Request request;

  PathFixture() {
    topo.name = "path5";
    topo.graph = graph::Graph(5);
    topo.graph.add_edge(0, 1, 1.0);
    topo.graph.add_edge(1, 2, 1.0);
    topo.graph.add_edge(2, 3, 1.0);
    topo.graph.add_edge(3, 4, 1.0);
    topo.servers = {2, 4};
    topo.link_bandwidth = {1000, 1000, 1000, 1000};
    topo.server_compute = {0, 0, 8000, 0, 8000};

    costs = uniform_costs(topo, 1.0, 0.001);

    request.id = 1;
    request.source = 0;
    request.destinations = {3};
    request.bandwidth_mbps = 100.0;
    request.chain = nfv::ServiceChain({nfv::NetworkFunction::kNat});
  }
};

TEST(ApproMulti, AdmitsOnSimplePath) {
  PathFixture f;
  const OfflineSolution sol = appro_multi(f.topo, f.costs, f.request);
  ASSERT_TRUE(sol.admitted) << sol.reject_reason;
  std::string error;
  EXPECT_TRUE(validate_pseudo_tree(f.topo.graph, f.request, sol.tree, &error))
      << error;
}

TEST(ApproMulti, PicksNearServerOnPath) {
  PathFixture f;
  const OfflineSolution sol = appro_multi(f.topo, f.costs, f.request);
  ASSERT_TRUE(sol.admitted);
  // Route 0->2 (server) ->3 costs 3 links; using server 4 would cost 4 links
  // forward plus backhaul. The chain cost is negligible (0.001/MHz).
  EXPECT_EQ(sol.tree.servers, (std::vector<graph::VertexId>{2}));
  EXPECT_NEAR(sol.tree.cost, 300.0 + f.costs.server_cost(2, f.request.compute_demand_mhz()),
              1e-9);
}

TEST(ApproMulti, ExploresAllCombinationsForK2) {
  PathFixture f;
  ApproMultiOptions opts;
  opts.max_servers = 2;
  const OfflineSolution sol = reference::appro_multi(
      f.topo, f.costs, f.request, opts, reference::Engine::kSharedDijkstra,
      reference::Search::kLegacySweep);
  // C(2,1) + C(2,2) = 3 combinations, all evaluated by the exhaustive sweep.
  EXPECT_EQ(sol.combinations_explored, 3u);
  EXPECT_EQ(sol.combinations_pruned, 0u);

  // Branch-and-bound accounts for the same space: every combination is
  // either evaluated or pruned by the lower bound, never silently dropped.
  const OfflineSolution bnb = appro_multi(f.topo, f.costs, f.request, opts);
  EXPECT_EQ(bnb.combinations_explored + bnb.combinations_pruned, 3u);
  EXPECT_EQ(bnb.tree.cost, sol.tree.cost);
}

TEST(ApproMulti, KZeroThrows) {
  PathFixture f;
  ApproMultiOptions opts;
  opts.max_servers = 0;
  EXPECT_THROW(appro_multi(f.topo, f.costs, f.request, opts), std::invalid_argument);
}

TEST(ApproMulti, MaxCombinationsCapsEnumeration) {
  PathFixture f;
  ApproMultiOptions opts;
  opts.max_servers = 2;
  opts.max_combinations = 1;
  const OfflineSolution sol = appro_multi(f.topo, f.costs, f.request, opts);
  EXPECT_EQ(sol.combinations_explored, 1u);
  EXPECT_TRUE(sol.admitted);  // the first combination already works here
}

TEST(ApproMulti, MalformedRequestThrows) {
  PathFixture f;
  f.request.destinations = {0};  // source as destination
  EXPECT_THROW(appro_multi(f.topo, f.costs, f.request), std::invalid_argument);
}

TEST(ApproMulti, CostNeverIncreasesWithK) {
  // Enumerating supersets of combinations can only improve the best tree.
  util::Rng rng(7);
  const topo::Topology topo = topo::make_waxman(40, rng);
  const LinearCosts costs = random_costs(topo, rng);
  nfv::Request request;
  request.id = 1;
  request.source = 0;
  request.destinations = {5, 12, 20, 33};
  request.bandwidth_mbps = 120.0;
  request.chain = nfv::ServiceChain({nfv::NetworkFunction::kFirewall});

  double last = std::numeric_limits<double>::infinity();
  for (std::size_t k = 1; k <= 3; ++k) {
    ApproMultiOptions opts;
    opts.max_servers = k;
    const OfflineSolution sol = appro_multi(topo, costs, request, opts);
    ASSERT_TRUE(sol.admitted);
    EXPECT_LE(sol.tree.cost, last + 1e-9) << "K=" << k;
    last = sol.tree.cost;
  }
}

TEST(ApproMulti, MultiServerBeatsSingleWhenBandwidthExpensive) {
  // Star: source in the middle, two distant destination arms, each arm with
  // its own server near the destination. Cheap compute + expensive
  // bandwidth: K=2 should place a chain instance per arm.
  topo::Topology topo;
  topo.graph = graph::Graph(7);
  // Arm A: 0-1-2-3 (dest 3, server 2); Arm B: 0-4-5-6 (dest 6, server 5).
  topo.graph.add_edge(0, 1, 1.0);
  topo.graph.add_edge(1, 2, 1.0);
  topo.graph.add_edge(2, 3, 1.0);
  topo.graph.add_edge(0, 4, 1.0);
  topo.graph.add_edge(4, 5, 1.0);
  topo.graph.add_edge(5, 6, 1.0);
  topo.servers = {2, 5};
  topo.link_bandwidth.assign(6, 10000.0);
  topo.server_compute = {0, 0, 8000, 0, 0, 8000, 0};
  const LinearCosts costs = uniform_costs(topo, 10.0, 0.0001);

  nfv::Request request;
  request.id = 1;
  request.source = 0;
  request.destinations = {3, 6};
  request.bandwidth_mbps = 100.0;
  request.chain = nfv::ServiceChain({nfv::NetworkFunction::kIds});

  ApproMultiOptions k1;
  k1.max_servers = 1;
  ApproMultiOptions k2;
  k2.max_servers = 2;
  const OfflineSolution s1 = appro_multi(topo, costs, request, k1);
  const OfflineSolution s2 = appro_multi(topo, costs, request, k2);
  ASSERT_TRUE(s1.admitted);
  ASSERT_TRUE(s2.admitted);
  EXPECT_LT(s2.tree.cost, s1.tree.cost);
  EXPECT_EQ(s2.tree.servers.size(), 2u);
}

TEST(ApproMulti, SingleServerPreferredWhenComputeExpensive) {
  // Same star, but compute dominates: one instance should win.
  topo::Topology topo;
  topo.graph = graph::Graph(7);
  topo.graph.add_edge(0, 1, 1.0);
  topo.graph.add_edge(1, 2, 1.0);
  topo.graph.add_edge(2, 3, 1.0);
  topo.graph.add_edge(0, 4, 1.0);
  topo.graph.add_edge(4, 5, 1.0);
  topo.graph.add_edge(5, 6, 1.0);
  topo.servers = {2, 5};
  topo.link_bandwidth.assign(6, 10000.0);
  topo.server_compute = {0, 0, 8000, 0, 0, 8000, 0};
  const LinearCosts costs = uniform_costs(topo, 0.001, 10.0);

  nfv::Request request;
  request.id = 1;
  request.source = 0;
  request.destinations = {3, 6};
  request.bandwidth_mbps = 100.0;
  request.chain = nfv::ServiceChain({nfv::NetworkFunction::kIds});

  ApproMultiOptions k2;
  k2.max_servers = 2;
  const OfflineSolution sol = appro_multi(topo, costs, request, k2);
  ASSERT_TRUE(sol.admitted);
  EXPECT_EQ(sol.tree.servers.size(), 1u);
}

TEST(ApproMulti, EveryRouteProcessedBeforeDelivery) {
  util::Rng rng(99);
  const topo::Topology topo = topo::make_waxman(60, rng);
  const LinearCosts costs = random_costs(topo, rng);
  nfv::Request request;
  request.id = 1;
  request.source = 10;
  request.destinations = {3, 25, 40, 55};
  request.bandwidth_mbps = 80.0;
  request.chain = nfv::ServiceChain(
      {nfv::NetworkFunction::kNat, nfv::NetworkFunction::kIds});

  const OfflineSolution sol = appro_multi(topo, costs, request);
  ASSERT_TRUE(sol.admitted);
  for (const DestinationRoute& route : sol.tree.routes) {
    EXPECT_LE(route.server_index, route.walk.size() - 1);
    EXPECT_EQ(route.walk[route.server_index], route.server);
    EXPECT_TRUE(topo.is_server(route.server));
  }
  std::string error;
  EXPECT_TRUE(validate_pseudo_tree(topo.graph, request, sol.tree, &error)) << error;
}

TEST(ApproMultiCap, RejectsWhenLinksSaturated) {
  PathFixture f;
  nfv::ResourceState state(f.topo);
  nfv::Footprint fp;
  fp.bandwidth = {{1, 950.0}};  // link 1-2 keeps only 50 Mbps
  state.allocate(fp);

  ApproMultiOptions opts;
  opts.resources = &state;
  const OfflineSolution sol = appro_multi(f.topo, f.costs, f.request, opts);
  EXPECT_FALSE(sol.admitted);
  EXPECT_FALSE(sol.reject_reason.empty());
}

TEST(ApproMultiCap, RejectsWhenAllServersBusy) {
  PathFixture f;
  nfv::ResourceState state(f.topo);
  nfv::Footprint fp;
  fp.compute = {{2, 7999.0}, {4, 7999.0}};
  state.allocate(fp);

  ApproMultiOptions opts;
  opts.resources = &state;
  const OfflineSolution sol = appro_multi(f.topo, f.costs, f.request, opts);
  EXPECT_FALSE(sol.admitted);
  EXPECT_EQ(sol.reject_reason, "no server can host the service chain");
}

TEST(ApproMultiCap, AdmitsWhenResourcesSuffice) {
  PathFixture f;
  nfv::ResourceState state(f.topo);
  ApproMultiOptions opts;
  opts.resources = &state;
  const OfflineSolution sol = appro_multi(f.topo, f.costs, f.request, opts);
  ASSERT_TRUE(sol.admitted);
  // The caller can then charge the footprint.
  EXPECT_TRUE(state.can_allocate(sol.tree.footprint(f.request)));
}

TEST(ApproMultiCap, CapacitatedSolutionRespectsResiduals) {
  // Under partial load the capacitated variant must still produce a valid
  // tree whose footprint fits the residual resources.
  util::Rng rng(1234);
  const topo::Topology topo = topo::make_waxman(50, rng);
  const LinearCosts costs = random_costs(topo, rng);
  nfv::ResourceState state(topo);
  // Pre-load some links below b_k = 100 to force pruning and detours, only
  // choosing links whose loss keeps the pruned graph connected.
  std::vector<bool> pruned(topo.num_links(), false);
  for (graph::EdgeId e = 0; e < topo.num_links(); e += 5) {
    pruned[e] = true;
    const reference::Subgraph sub = reference::filter_edges(
        topo.graph, [&](graph::EdgeId x) { return !pruned[x]; });
    if (!graph::is_connected(sub.graph)) {
      pruned[e] = false;
      continue;
    }
    nfv::Footprint fp;
    fp.bandwidth = {{e, state.residual_bandwidth(e) - 60.0}};
    state.allocate(fp);
  }

  nfv::Request request;
  request.id = 1;
  request.source = 2;
  request.destinations = {11, 30, 44};
  request.bandwidth_mbps = 100.0;
  request.chain = nfv::ServiceChain({nfv::NetworkFunction::kProxy});

  ApproMultiOptions opts;
  opts.resources = &state;
  const OfflineSolution cap = appro_multi(topo, costs, request, opts);
  ASSERT_TRUE(cap.admitted) << cap.reject_reason;
  std::string error;
  EXPECT_TRUE(validate_pseudo_tree(topo.graph, request, cap.tree, &error)) << error;
  EXPECT_TRUE(state.can_allocate(cap.tree.footprint(request)));
  // Every link the tree touches kept at least b_k residual, so pruning
  // worked as specified.
  for (const auto& [edge, mult] : cap.tree.edge_uses) {
    EXPECT_GE(state.residual_bandwidth(edge), request.bandwidth_mbps - 1e-9);
  }
}

TEST(ApproMulti, SourceColocatedWithServer) {
  PathFixture f;
  f.request.source = 2;  // the server switch itself
  f.request.destinations = {0, 4};
  const OfflineSolution sol = appro_multi(f.topo, f.costs, f.request);
  ASSERT_TRUE(sol.admitted) << sol.reject_reason;
  std::string error;
  EXPECT_TRUE(validate_pseudo_tree(f.topo.graph, f.request, sol.tree, &error))
      << error;
}

TEST(ApproMulti, DestinationIsServer) {
  PathFixture f;
  f.request.destinations = {2, 4};  // both destinations host servers
  const OfflineSolution sol = appro_multi(f.topo, f.costs, f.request);
  ASSERT_TRUE(sol.admitted) << sol.reject_reason;
  std::string error;
  EXPECT_TRUE(validate_pseudo_tree(f.topo.graph, f.request, sol.tree, &error))
      << error;
}

TEST(ApproMulti, ServersUsedNeverExceedK) {
  util::Rng rng(31);
  const topo::Topology topo = topo::make_waxman(50, rng);
  const LinearCosts costs = random_costs(topo, rng);
  for (std::size_t k = 1; k <= 3; ++k) {
    nfv::Request request;
    request.id = k;
    request.source = 1;
    request.destinations = {7, 19, 28, 41, 48};
    request.bandwidth_mbps = 150.0;
    request.chain = nfv::ServiceChain({nfv::NetworkFunction::kFirewall});
    ApproMultiOptions opts;
    opts.max_servers = k;
    const OfflineSolution sol = appro_multi(topo, costs, request, opts);
    ASSERT_TRUE(sol.admitted);
    EXPECT_LE(sol.tree.servers.size(), k);
  }
}

}  // namespace
}  // namespace nfvm::core
