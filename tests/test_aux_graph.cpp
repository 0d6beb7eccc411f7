#include "core/aux_graph.h"

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <string>
#include <vector>

#include "obs/metrics.h"
#include "obs_test_util.h"
#include "reference/appro_multi_reference.h"
#include "reference/support.h"
#include "topology/waxman.h"
#include "util/rng.h"

namespace nfvm::core {
namespace {

/// 5-switch path 0-1-2-3-4 with servers at 2 and 4; unit capacities large.
struct Fixture {
  topo::Topology topo;
  LinearCosts costs;
  nfv::Request request;

  Fixture() {
    topo.name = "path5";
    topo.graph = graph::Graph(5);
    topo.graph.add_edge(0, 1, 1.0);  // e0
    topo.graph.add_edge(1, 2, 1.0);  // e1
    topo.graph.add_edge(2, 3, 1.0);  // e2
    topo.graph.add_edge(3, 4, 1.0);  // e3
    topo.servers = {2, 4};
    topo.link_bandwidth = {1000, 1000, 1000, 1000};
    topo.server_compute = {0, 0, 8000, 0, 8000};

    costs = reference::uniform_costs(topo, /*link=*/1.0, /*server=*/0.01);

    request.id = 1;
    request.source = 0;
    request.destinations = {3};
    request.bandwidth_mbps = 100.0;
    request.chain = nfv::ServiceChain({nfv::NetworkFunction::kNat});
  }
};

TEST(WorkContext, UncapacitatedKeepsAllLinks) {
  Fixture f;
  const WorkContext ctx = build_work_context(f.topo, f.costs, f.request, nullptr);
  EXPECT_EQ(ctx.cost_graph.num_edges(), 4u);
  EXPECT_TRUE(ctx.destinations_reachable);
  EXPECT_EQ(ctx.eligible_servers, (std::vector<graph::VertexId>{2, 4}));
}

TEST(WorkContext, EdgeWeightsAreCostTimesBandwidth) {
  Fixture f;
  const WorkContext ctx = build_work_context(f.topo, f.costs, f.request, nullptr);
  for (graph::EdgeId e = 0; e < ctx.cost_graph.num_edges(); ++e) {
    EXPECT_DOUBLE_EQ(ctx.cost_graph.weight(e), 100.0);  // 1.0 * 100 Mbps
  }
}

TEST(WorkContext, ServerChainCostUsesUnitCost) {
  Fixture f;
  const WorkContext ctx = build_work_context(f.topo, f.costs, f.request, nullptr);
  const double demand = f.request.compute_demand_mhz();
  EXPECT_DOUBLE_EQ(ctx.server_chain_cost[2], 0.01 * demand);
  EXPECT_DOUBLE_EQ(ctx.server_chain_cost[0], 0.0);
}

TEST(WorkContext, CapacitatedPrunesLinks) {
  Fixture f;
  nfv::ResourceState state(f.topo);
  nfv::Footprint fp;
  fp.bandwidth = {{1, 950.0}};  // leaves 50 < b_k = 100 on link 1
  state.allocate(fp);
  const WorkContext ctx = build_work_context(f.topo, f.costs, f.request, &state);
  EXPECT_EQ(ctx.cost_graph.num_edges(), 3u);
  EXPECT_FALSE(ctx.destinations_reachable);  // path graph loses connectivity
}

TEST(WorkContext, CapacitatedPrunesServers) {
  Fixture f;
  nfv::ResourceState state(f.topo);
  nfv::Footprint fp;
  fp.compute = {{2, 7999.0}};
  state.allocate(fp);
  const WorkContext ctx = build_work_context(f.topo, f.costs, f.request, &state);
  EXPECT_EQ(ctx.eligible_servers, (std::vector<graph::VertexId>{4}));
}

TEST(WorkContext, ToPhysicalMapsBack) {
  Fixture f;
  nfv::ResourceState state(f.topo);
  nfv::Footprint fp;
  fp.bandwidth = {{0, 950.0}};
  state.allocate(fp);
  const WorkContext ctx = build_work_context(f.topo, f.costs, f.request, &state);
  ASSERT_EQ(ctx.to_physical.size(), 3u);
  EXPECT_EQ(ctx.to_physical[0], 1u);  // edge 0 was dropped
}

TEST(WorkContext, RejectsMalformedCostTables) {
  Fixture f;
  LinearCosts bad = f.costs;
  bad.link_unit_cost.pop_back();
  EXPECT_THROW(build_work_context(f.topo, bad, f.request, nullptr),
               std::invalid_argument);
}

bool same_bits(const std::vector<double>& a, const std::vector<double>& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (std::bit_cast<std::uint64_t>(a[i]) != std::bit_cast<std::uint64_t>(b[i])) {
      return false;
    }
  }
  return true;
}

TEST(WorkContext, ContextTreesShareOneTreePerRoot) {
  util::Rng rng(17);
  const topo::Topology topo = topo::make_waxman(30, rng);
  const LinearCosts costs = random_costs(topo, rng);
  nfv::Request request;
  request.id = 1;
  request.source = 0;
  request.destinations = {5, 9};
  request.bandwidth_mbps = 100.0;
  request.chain = nfv::ServiceChain({nfv::NetworkFunction::kNat});

  const test::CounterBaseline counters;
  WorkContext ctx = build_work_context(topo, costs, request, nullptr);
  const graph::ShortestPaths* const source_tree = &ctx.trees.from(0);
  const std::vector<graph::VertexId> roots{7, 3, 7, 0};
  context_trees(ctx, roots);
  for (const graph::VertexId root : roots) {
    const graph::ShortestPaths fresh = graph::dijkstra(ctx.cost_graph, root);
    const graph::ShortestPaths& tree = ctx.trees.from(root);
    EXPECT_EQ(tree.source, root);
    EXPECT_TRUE(same_bits(tree.dist, fresh.dist)) << "root " << root;
    EXPECT_EQ(tree.parent, fresh.parent);
    EXPECT_EQ(tree.parent_edge, fresh.parent_edge);
  }
  // build_work_context's tree stays where it was; a later lookup neither
  // recomputes nor moves a held tree.
  EXPECT_EQ(&ctx.trees.from(0), source_tree);
  const graph::ShortestPaths* const tree_3 = &ctx.trees.from(3);
  context_trees(ctx, std::vector<graph::VertexId>{3});
  EXPECT_EQ(&ctx.trees.from(3), tree_3);
  EXPECT_THROW(context_trees(ctx, std::vector<graph::VertexId>{30}),
               std::out_of_range);
  EXPECT_THROW(ctx.trees.from(11), std::logic_error);  // never looked up
#if NFVM_OBS
  // A miss on each root's first lookup (the source's came from
  // build_work_context), a hit on every later one.
  EXPECT_EQ(counters.since("graph.spcache.misses"), 3u);
  EXPECT_EQ(counters.since("graph.spcache.hits"), 3u);
#endif
}

TEST(AuxGraph, StructureMatchesPaper) {
  Fixture f;
  const WorkContext ctx = build_work_context(f.topo, f.costs, f.request, nullptr);
  const std::vector<graph::VertexId> combo{2, 4};
  const AuxOverlay aux = build_aux_overlay(ctx, f.request.source, combo);

  EXPECT_EQ(aux.num_vertices(), 6u);  // V + s'_k
  EXPECT_EQ(aux.virtual_source, 5u);
  EXPECT_EQ(aux.num_real_edges, 4u);
  EXPECT_TRUE(aux.is_virtual(4));
  EXPECT_TRUE(aux.is_virtual(5));
  EXPECT_FALSE(aux.is_virtual(3));
  EXPECT_EQ(aux.virtual_index(4), 0u);
  EXPECT_EQ(aux.virtual_index(5), 1u);

  // The materialized test oracle is the same graph, edge for edge.
  const reference::AuxiliaryGraph full =
      reference::build_auxiliary_graph(ctx, f.request.source, combo);
  EXPECT_EQ(full.graph.num_vertices(), aux.num_vertices());
  ASSERT_EQ(full.graph.num_edges(), 6u);  // 4 real + 2 virtual
  for (graph::EdgeId e = 0; e < full.graph.num_edges(); ++e) {
    const graph::EdgeRecord rec = aux.record(e);
    EXPECT_EQ(rec.u, full.graph.edge(e).u) << "edge " << e;
    EXPECT_EQ(rec.v, full.graph.edge(e).v) << "edge " << e;
    EXPECT_EQ(rec.weight, full.graph.weight(e)) << "edge " << e;
  }
}

TEST(AuxGraph, VirtualEdgeWeightIsPathPlusChainCost) {
  Fixture f;
  const WorkContext ctx = build_work_context(f.topo, f.costs, f.request, nullptr);
  const AuxOverlay aux =
      build_aux_overlay(ctx, f.request.source, std::vector<graph::VertexId>{2});
  // Shortest path 0->2 costs 200 (two links at 100 each), plus chain cost.
  const double chain_cost = ctx.server_chain_cost[2];
  EXPECT_DOUBLE_EQ(aux.weight(4), 200.0 + chain_cost);
  // Realization expands the virtual edge into the source's path to 2.
  EXPECT_EQ(graph::path_edges(ctx.trees.from(f.request.source), aux.combo[0]),
            (std::vector<graph::EdgeId>{0, 1}));
}

TEST(AuxGraph, ZeroCostCorrectionAppliesToSourceServerLinks) {
  // Make the source adjacent to a server: source 1, server 2, link e1.
  Fixture f;
  f.request.source = 1;
  const WorkContext ctx = build_work_context(f.topo, f.costs, f.request, nullptr);
  const AuxOverlay aux =
      build_aux_overlay(ctx, f.request.source, std::vector<graph::VertexId>{2});
  EXPECT_DOUBLE_EQ(aux.weight(1), 0.0);  // physical (1,2) zeroed
  EXPECT_DOUBLE_EQ(aux.weight(0), 100.0);
  EXPECT_EQ(aux.zero_edges, (std::vector<graph::EdgeId>{1}));
}

TEST(AuxGraph, NoZeroCostForNonComboServers) {
  Fixture f;
  f.request.source = 3;  // adjacent to servers 2 and 4
  f.request.destinations = {0};
  const WorkContext ctx = build_work_context(f.topo, f.costs, f.request, nullptr);
  const AuxOverlay aux =
      build_aux_overlay(ctx, f.request.source, std::vector<graph::VertexId>{4});
  EXPECT_DOUBLE_EQ(aux.weight(3), 0.0);    // (3,4): combo server
  EXPECT_DOUBLE_EQ(aux.weight(2), 100.0);  // (2,3): server not in combo
}

TEST(AuxGraph, EmptyComboThrows) {
  Fixture f;
  const WorkContext ctx = build_work_context(f.topo, f.costs, f.request, nullptr);
  EXPECT_THROW(
      build_aux_overlay(ctx, f.request.source, std::vector<graph::VertexId>{}),
      std::invalid_argument);
}

TEST(AuxGraph, SourceCoLocatedServerGetsZeroPath) {
  Fixture f;
  f.request.source = 2;  // the server itself
  f.request.destinations = {4};
  const WorkContext ctx = build_work_context(f.topo, f.costs, f.request, nullptr);
  const AuxOverlay aux =
      build_aux_overlay(ctx, f.request.source, std::vector<graph::VertexId>{2});
  EXPECT_DOUBLE_EQ(aux.weight(4), ctx.server_chain_cost[2]);
  EXPECT_TRUE(graph::path_edges(ctx.trees.from(f.request.source), aux.combo[0]).empty());
}

}  // namespace
}  // namespace nfvm::core
