#include "core/alg_one_server.h"

#include <gtest/gtest.h>

#include "core/appro_multi.h"
#include "reference/support.h"
#include "topology/waxman.h"
#include "util/rng.h"

namespace nfvm::core {
namespace {

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

    costs = reference::uniform_costs(topo, 1.0, 0.001);

    request.id = 1;
    request.source = 0;
    request.destinations = {3};
    request.bandwidth_mbps = 100.0;
    request.chain = nfv::ServiceChain({nfv::NetworkFunction::kNat});
  }
};

TEST(AlgOneServer, AdmitsAndValidates) {
  PathFixture f;
  const OfflineSolution sol = alg_one_server(f.topo, f.costs, f.request);
  ASSERT_TRUE(sol.admitted) << sol.reject_reason;
  std::string error;
  EXPECT_TRUE(validate_pseudo_tree(f.topo.graph, f.request, sol.tree, &error))
      << error;
  EXPECT_EQ(sol.tree.servers.size(), 1u);
}

TEST(AlgOneServer, EvaluatesEveryServer) {
  PathFixture f;
  const OfflineSolution sol = alg_one_server(f.topo, f.costs, f.request);
  EXPECT_EQ(sol.combinations_explored, 2u);
}

TEST(AlgOneServer, PicksCheapestServer) {
  PathFixture f;
  const OfflineSolution sol = alg_one_server(f.topo, f.costs, f.request);
  ASSERT_TRUE(sol.admitted);
  // Server 2: 0->2 (200) + tree 2->3 (100). Server 4: 0->4 (400) + 4->3 (100).
  EXPECT_EQ(sol.tree.servers, (std::vector<graph::VertexId>{2}));
}

TEST(AlgOneServer, BackhaulWhenServerBehindDestination) {
  // Source 0, dest 1, only server at 3 on a path 0-1-2-3: traffic must go
  // 0->3 then back to 1; link 1-2 and 2-3 are used twice.
  topo::Topology topo;
  topo.graph = graph::Graph(4);
  topo.graph.add_edge(0, 1, 1.0);  // e0
  topo.graph.add_edge(1, 2, 1.0);  // e1
  topo.graph.add_edge(2, 3, 1.0);  // e2
  topo.servers = {3};
  topo.link_bandwidth = {1000, 1000, 1000};
  topo.server_compute = {0, 0, 0, 8000};
  const LinearCosts costs = reference::uniform_costs(topo, 1.0, 0.001);

  nfv::Request request;
  request.id = 1;
  request.source = 0;
  request.destinations = {1};
  request.bandwidth_mbps = 100.0;
  request.chain = nfv::ServiceChain({nfv::NetworkFunction::kNat});

  const OfflineSolution sol = alg_one_server(topo, costs, request);
  ASSERT_TRUE(sol.admitted) << sol.reject_reason;
  std::string error;
  EXPECT_TRUE(validate_pseudo_tree(topo.graph, request, sol.tree, &error)) << error;
  // Links e1 and e2 carry the flow out and back.
  for (const auto& [edge, mult] : sol.tree.edge_uses) {
    if (edge == 1 || edge == 2) {
      EXPECT_EQ(mult, 2) << "edge " << edge;
    }
    if (edge == 0) {
      EXPECT_EQ(mult, 1);
    }
  }
  // Footprint charges the double traversal.
  const nfv::Footprint fp = sol.tree.footprint(request);
  double on_e1 = 0;
  for (const auto& [e, amount] : fp.bandwidth) {
    if (e == 1) on_e1 += amount;
  }
  EXPECT_DOUBLE_EQ(on_e1, 200.0);
}

TEST(AlgOneServer, NeverCheaperThanApproMultiK1OnAuxiliaryMetric) {
  // Appro_Multi with K=1 is a 2-approximation; the destination-MST baseline
  // is within 3x of the one-server optimum (MST <= 2 Steiner, attachment
  // <= Steiner), so the two costs are within these factors of each other.
  util::Rng rng(55);
  for (int trial = 0; trial < 5; ++trial) {
    const topo::Topology topo = topo::make_waxman(40, rng);
    const LinearCosts costs = random_costs(topo, rng);
    nfv::Request request;
    request.id = 1;
    request.source = static_cast<graph::VertexId>(trial);
    request.destinations = {10, 20, 30};
    request.bandwidth_mbps = 100.0;
    request.chain = nfv::ServiceChain({nfv::NetworkFunction::kProxy});

    ApproMultiOptions opts;
    opts.max_servers = 1;
    const OfflineSolution a = appro_multi(topo, costs, request, opts);
    const OfflineSolution b = alg_one_server(topo, costs, request);
    ASSERT_TRUE(a.admitted);
    ASSERT_TRUE(b.admitted);
    EXPECT_LE(a.tree.cost, 2.0 * b.tree.cost + 1e-9);
    EXPECT_LE(b.tree.cost, 3.0 * a.tree.cost + 1e-9);
  }
}

TEST(AlgOneServer, CapacitatedRejectsWhenSaturated) {
  PathFixture f;
  nfv::ResourceState state(f.topo);
  nfv::Footprint fp;
  fp.bandwidth = {{0, 950.0}};  // source's only outgoing link
  state.allocate(fp);
  const OfflineSolution sol = alg_one_server(f.topo, f.costs, f.request, &state);
  EXPECT_FALSE(sol.admitted);
}

TEST(AlgOneServer, DestinationEqualsServer) {
  PathFixture f;
  f.request.destinations = {2};
  const OfflineSolution sol = alg_one_server(f.topo, f.costs, f.request);
  ASSERT_TRUE(sol.admitted);
  std::string error;
  EXPECT_TRUE(validate_pseudo_tree(f.topo.graph, f.request, sol.tree, &error))
      << error;
}

TEST(AlgOneServer, SourceIsServer) {
  PathFixture f;
  f.request.source = 4;
  f.request.destinations = {0, 3};
  const OfflineSolution sol = alg_one_server(f.topo, f.costs, f.request);
  ASSERT_TRUE(sol.admitted);
  std::string error;
  EXPECT_TRUE(validate_pseudo_tree(f.topo.graph, f.request, sol.tree, &error))
      << error;
}

TEST(AlgOneServer, MalformedRequestThrows) {
  PathFixture f;
  f.request.bandwidth_mbps = 0.0;
  EXPECT_THROW(alg_one_server(f.topo, f.costs, f.request), std::invalid_argument);
}

}  // namespace
}  // namespace nfvm::core
