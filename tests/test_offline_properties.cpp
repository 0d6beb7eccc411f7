// Property sweeps validating Theorem 1 empirically: for K = 1 the true
// optimum decomposes exactly (shortest path to server + chain cost + exact
// Steiner tree below the server), giving an oracle to check the 2K ratio.
#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <vector>

#include "core/alg_one_server.h"
#include "core/appro_multi.h"
#include "graph/dijkstra.h"
#include "graph/steiner.h"
#include "reference/exact_steiner.h"
#include "topology/waxman.h"
#include "util/rng.h"

namespace nfvm::core {
namespace {

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

/// Exact optimum for K = 1: min_v [ sp(s,v) + c_v(SC) + exactSteiner({v}∪D) ]
/// in the cost-weighted (c_e * b_k) graph.
double exact_optimum_k1(const Instance& inst) {
  const double b = inst.request.bandwidth_mbps;
  graph::Graph cw(inst.topo.num_switches());
  for (graph::EdgeId e = 0; e < inst.topo.num_links(); ++e) {
    const graph::Edge& ed = inst.topo.graph.edge(e);
    cw.add_edge(ed.u, ed.v, inst.costs.edge_cost(e, b));
  }
  const graph::ShortestPaths sp = graph::dijkstra(cw, inst.request.source);
  const double demand = inst.request.compute_demand_mhz();

  double best = std::numeric_limits<double>::infinity();
  for (graph::VertexId v : inst.topo.servers) {
    std::vector<graph::VertexId> terminals{v};
    terminals.insert(terminals.end(), inst.request.destinations.begin(),
                     inst.request.destinations.end());
    const graph::SteinerResult st = reference::exact_steiner(cw, terminals);
    if (!st.connected || !sp.reachable(v)) continue;
    best = std::min(best, sp.dist[v] + inst.costs.server_cost(v, demand) + st.weight);
  }
  return best;
}

/// Honest physical cost of a pseudo-multicast tree: every traversal pays,
/// every server instance pays.
double physical_cost(const Instance& inst, const PseudoMulticastTree& tree) {
  double cost = 0.0;
  for (const auto& [edge, mult] : tree.edge_uses) {
    cost += inst.costs.edge_cost(edge, inst.request.bandwidth_mbps) * mult;
  }
  const double demand = inst.request.compute_demand_mhz();
  for (graph::VertexId v : tree.servers) {
    cost += inst.costs.server_cost(v, demand);
  }
  return cost;
}

struct Case {
  std::uint64_t seed;
  std::size_t n;
  std::size_t dests;
};

class OfflineRatioTest : public ::testing::TestWithParam<Case> {};

TEST_P(OfflineRatioTest, ApproMultiK1WithinTwiceOptimal) {
  const Case& c = GetParam();
  const Instance inst = random_instance(c.seed, c.n, c.dests);

  ApproMultiOptions opts;
  opts.max_servers = 1;
  const OfflineSolution sol = appro_multi(inst.topo, inst.costs, inst.request, opts);
  ASSERT_TRUE(sol.admitted) << sol.reject_reason;

  const double opt = exact_optimum_k1(inst);
  ASSERT_TRUE(std::isfinite(opt));
  EXPECT_LE(sol.tree.cost, 2.0 * opt + 1e-6)
      << "2-approximation guarantee violated (cost " << sol.tree.cost
      << " vs OPT " << opt << ")";
  // The algorithm can never beat the exact optimum by more than the paper's
  // zero-cost source-link correction, which is at most one link's cost; in
  // particular the honest physical cost is >= OPT.
  EXPECT_GE(physical_cost(inst, sol.tree) + 1e-6, opt);
}

TEST_P(OfflineRatioTest, AlgOneServerWithinThriceOptimal) {
  // The destination-MST baseline: MST expansion <= 2 Steiner(D) and the
  // server attachment <= Steiner({v} ∪ D), so the total stays within 3 OPT.
  const Case& c = GetParam();
  const Instance inst = random_instance(c.seed, c.n, c.dests);
  const OfflineSolution sol = alg_one_server(inst.topo, inst.costs, inst.request);
  ASSERT_TRUE(sol.admitted) << sol.reject_reason;
  const double opt = exact_optimum_k1(inst);
  ASSERT_TRUE(std::isfinite(opt));
  EXPECT_LE(sol.tree.cost, 3.0 * opt + 1e-6);
  EXPECT_GE(sol.tree.cost + 1e-6, opt);
}

TEST_P(OfflineRatioTest, HigherKStaysAboveSteinerLowerBound) {
  // Any pseudo-multicast tree's bandwidth cost alone is at least the exact
  // Steiner tree over {s} ∪ D (its used edge set connects them).
  const Case& c = GetParam();
  const Instance inst = random_instance(c.seed, c.n, c.dests);

  graph::Graph cw(inst.topo.num_switches());
  for (graph::EdgeId e = 0; e < inst.topo.num_links(); ++e) {
    const graph::Edge& ed = inst.topo.graph.edge(e);
    cw.add_edge(ed.u, ed.v, inst.costs.edge_cost(e, inst.request.bandwidth_mbps));
  }
  std::vector<graph::VertexId> terminals{inst.request.source};
  terminals.insert(terminals.end(), inst.request.destinations.begin(),
                   inst.request.destinations.end());
  const graph::SteinerResult lb = reference::exact_steiner(cw, terminals);
  ASSERT_TRUE(lb.connected);

  ApproMultiOptions opts;
  opts.max_servers = 3;
  const OfflineSolution sol = appro_multi(inst.topo, inst.costs, inst.request, opts);
  ASSERT_TRUE(sol.admitted);
  EXPECT_GE(physical_cost(inst, sol.tree) + 1e-6, lb.weight);
}

INSTANTIATE_TEST_SUITE_P(
    RandomInstances, OfflineRatioTest,
    ::testing::Values(Case{1, 12, 2}, Case{2, 12, 3}, Case{3, 14, 2},
                      Case{4, 14, 3}, Case{5, 16, 3}, Case{6, 16, 4},
                      Case{7, 18, 2}, Case{8, 18, 4}, Case{9, 20, 3},
                      Case{10, 20, 4}, Case{11, 22, 3}, Case{12, 24, 4},
                      Case{13, 15, 5}, Case{14, 17, 2}, Case{15, 19, 3}),
    [](const ::testing::TestParamInfo<Case>& info) {
      return "seed" + std::to_string(info.param.seed);
    });

TEST(OfflineProperty, ApproMultiDeterministic) {
  const Instance inst = random_instance(77, 20, 3);
  const OfflineSolution a = appro_multi(inst.topo, inst.costs, inst.request);
  const OfflineSolution b = appro_multi(inst.topo, inst.costs, inst.request);
  ASSERT_TRUE(a.admitted);
  ASSERT_TRUE(b.admitted);
  EXPECT_DOUBLE_EQ(a.tree.cost, b.tree.cost);
  EXPECT_EQ(a.tree.servers, b.tree.servers);
  EXPECT_EQ(a.tree.edge_uses, b.tree.edge_uses);
}

TEST(OfflineProperty, ReportedCostMatchesAuxiliaryWeights) {
  // Without the zero-cost correction firing (source not adjacent to any
  // server in the best combo), the reported cost equals the honest physical
  // cost. Verify on instances where we force non-adjacency.
  for (std::uint64_t seed : {301u, 302u, 303u, 304u}) {
    const Instance inst = random_instance(seed, 18, 3);
    ApproMultiOptions opts;
    opts.max_servers = 2;
    const OfflineSolution sol =
        appro_multi(inst.topo, inst.costs, inst.request, opts);
    ASSERT_TRUE(sol.admitted);
    bool source_adjacent_to_used_server = false;
    for (graph::VertexId v : sol.tree.servers) {
      if (inst.topo.graph.find_edge(inst.request.source, v).has_value()) {
        source_adjacent_to_used_server = true;
      }
    }
    if (source_adjacent_to_used_server) continue;
    // Reported cost may still differ from the physical cost if the virtual
    // paths overlap tree edges; physical is then strictly larger.
    EXPECT_GE(physical_cost(inst, sol.tree) + 1e-9, sol.tree.cost);
  }
}

}  // namespace
}  // namespace nfvm::core
