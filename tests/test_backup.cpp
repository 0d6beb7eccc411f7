#include "core/backup.h"

#include <gtest/gtest.h>

#include "graph/bridges.h"
#include "reference/support.h"
#include "topology/waxman.h"
#include "util/rng.h"

namespace nfvm::core {
namespace {

/// Diamond with two fully disjoint routes 0 -> 3, servers on both.
topo::Topology diamond() {
  topo::Topology t;
  t.name = "diamond";
  t.graph = graph::Graph(4);
  t.graph.add_edge(0, 1, 1.0);
  t.graph.add_edge(1, 3, 1.0);
  t.graph.add_edge(0, 2, 1.0);
  t.graph.add_edge(2, 3, 1.0);
  t.servers = {1, 2};
  t.link_bandwidth = {1000, 1000, 1000, 1000};
  t.server_compute = {0, 8000, 8000, 0};
  return t;
}

nfv::Request simple_request() {
  nfv::Request r;
  r.id = 1;
  r.source = 0;
  r.destinations = {3};
  r.bandwidth_mbps = 100.0;
  r.chain = nfv::ServiceChain({nfv::NetworkFunction::kNat});
  return r;
}

TEST(Backup, DisjointBackupOnDiamond) {
  const topo::Topology t = diamond();
  const LinearCosts costs = reference::uniform_costs(t, 1.0, 0.001);
  const nfv::Request r = simple_request();

  const OfflineSolution primary = appro_multi(t, costs, r);
  ASSERT_TRUE(primary.admitted);
  const OfflineSolution backup =
      compute_backup_tree(t, costs, r, primary.tree);
  ASSERT_TRUE(backup.admitted) << backup.reject_reason;
  EXPECT_TRUE(link_disjoint(primary.tree, backup.tree));
  std::string error;
  EXPECT_TRUE(validate_pseudo_tree(t.graph, r, backup.tree, &error)) << error;
  // Different server side of the diamond.
  EXPECT_NE(primary.tree.servers, backup.tree.servers);
}

TEST(Backup, RejectsWhenPrimaryUsesABridge) {
  // Path topology: every link is a bridge, no disjoint backup exists.
  topo::Topology t;
  t.graph = graph::Graph(3);
  t.graph.add_edge(0, 1, 1.0);
  t.graph.add_edge(1, 2, 1.0);
  t.servers = {1};
  t.link_bandwidth = {1000, 1000};
  t.server_compute = {0, 8000, 0};
  const LinearCosts costs = reference::uniform_costs(t, 1.0, 0.001);
  nfv::Request r;
  r.id = 1;
  r.source = 0;
  r.destinations = {2};
  r.bandwidth_mbps = 50.0;
  r.chain = nfv::ServiceChain({nfv::NetworkFunction::kNat});

  const OfflineSolution primary = appro_multi(t, costs, r);
  ASSERT_TRUE(primary.admitted);
  const graph::CutAnalysis cut = graph::find_cut_elements(t.graph);
  EXPECT_FALSE(cut.bridges.empty());  // the reason a backup cannot exist
  const OfflineSolution backup = compute_backup_tree(t, costs, r, primary.tree);
  EXPECT_FALSE(backup.admitted);
}

TEST(Backup, LinkDisjointPredicate) {
  PseudoMulticastTree a;
  a.edge_uses = {{0, 1}, {2, 1}};
  PseudoMulticastTree b;
  b.edge_uses = {{1, 1}, {3, 1}};
  EXPECT_TRUE(link_disjoint(a, b));
  b.edge_uses.push_back({2, 1});
  EXPECT_FALSE(link_disjoint(a, b));
}

TEST(Backup, UnknownPrimaryEdgeRejected) {
  const topo::Topology t = diamond();
  const LinearCosts costs = reference::uniform_costs(t, 1.0, 0.001);
  PseudoMulticastTree bogus;
  bogus.edge_uses = {{99, 1}};
  EXPECT_THROW(compute_backup_tree(t, costs, simple_request(), bogus),
               std::invalid_argument);
}

TEST(Backup, HonorsResidualState) {
  // The alternative route exists but its links lack residual bandwidth.
  const topo::Topology t = diamond();
  const LinearCosts costs = reference::uniform_costs(t, 1.0, 0.001);
  const nfv::Request r = simple_request();
  const OfflineSolution primary = appro_multi(t, costs, r);
  ASSERT_TRUE(primary.admitted);

  nfv::ResourceState state(t);
  // Saturate whichever diamond side the primary did NOT take.
  for (graph::EdgeId e = 0; e < t.num_links(); ++e) {
    bool used = false;
    for (const auto& [pe, mult] : primary.tree.edge_uses) used |= (pe == e);
    if (!used) {
      nfv::Footprint fp;
      fp.bandwidth = {{e, state.residual_bandwidth(e) - 10.0}};  // < 100 left
      state.allocate(fp);
    }
  }
  BackupOptions opts;
  opts.resources = &state;
  const OfflineSolution backup = compute_backup_tree(t, costs, r, primary.tree, opts);
  EXPECT_FALSE(backup.admitted);
}

TEST(Backup, FeasibleFractionOnWellConnectedGraphs) {
  // On a mean-degree-4 Waxman network most requests admit a disjoint backup.
  util::Rng rng(12);
  topo::WaxmanOptions wo;
  wo.target_mean_degree = 4.0;
  const topo::Topology t = topo::make_waxman(50, rng, wo);
  const LinearCosts costs = random_costs(t, rng);

  int protected_count = 0;
  int total = 0;
  util::Rng workload(13);
  for (int i = 0; i < 15; ++i) {
    nfv::Request r;
    r.id = static_cast<std::uint64_t>(i);
    r.bandwidth_mbps = 100.0;
    r.chain = nfv::ServiceChain({nfv::NetworkFunction::kFirewall});
    const auto picks = workload.sample_without_replacement(50, 3);
    r.source = static_cast<graph::VertexId>(picks[0]);
    r.destinations = {static_cast<graph::VertexId>(picks[1]),
                      static_cast<graph::VertexId>(picks[2])};
    const OfflineSolution primary = appro_multi(t, costs, r);
    if (!primary.admitted) continue;
    ++total;
    const OfflineSolution backup = compute_backup_tree(t, costs, r, primary.tree);
    if (!backup.admitted) continue;
    EXPECT_TRUE(link_disjoint(primary.tree, backup.tree));
    ++protected_count;
  }
  ASSERT_GT(total, 0);
  EXPECT_GT(protected_count, total / 2);
}

TEST(Backup, BackupCostAtLeastPrimaryTypically) {
  // The backup optimizes over a strictly smaller link set, so (per instance,
  // same heuristic) it is not expected to beat the primary; assert it stays
  // within a sane factor instead of an unsound strict inequality.
  const topo::Topology t = diamond();
  const LinearCosts costs = reference::uniform_costs(t, 1.0, 0.001);
  const nfv::Request r = simple_request();
  const OfflineSolution primary = appro_multi(t, costs, r);
  const OfflineSolution backup = compute_backup_tree(t, costs, r, primary.tree);
  ASSERT_TRUE(primary.admitted);
  ASSERT_TRUE(backup.admitted);
  EXPECT_LE(backup.tree.cost, 10.0 * primary.tree.cost);
}

}  // namespace
}  // namespace nfvm::core
