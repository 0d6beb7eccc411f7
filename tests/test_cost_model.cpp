#include "core/cost_model.h"

#include <gtest/gtest.h>

#include <cmath>

#include "reference/support.h"
#include "util/rng.h"

namespace nfvm::core {
namespace {

topo::Topology small_topology() {
  topo::Topology t;
  t.name = "small";
  t.graph = graph::Graph(4);
  t.graph.add_edge(0, 1, 1.0);
  t.graph.add_edge(1, 2, 1.0);
  t.graph.add_edge(2, 3, 1.0);
  t.servers = {1, 3};
  t.link_bandwidth = {1000.0, 1000.0, 2000.0};
  t.server_compute = {0.0, 8000.0, 0.0, 4000.0};
  return t;
}

TEST(LinearCosts, UniformCosts) {
  const topo::Topology t = small_topology();
  const LinearCosts costs = reference::uniform_costs(t, 2.0, 0.5);
  EXPECT_DOUBLE_EQ(costs.edge_cost(0, 100.0), 200.0);
  EXPECT_DOUBLE_EQ(costs.server_cost(1, 300.0), 150.0);
}

TEST(LinearCosts, UniformRejectsNegative) {
  const topo::Topology t = small_topology();
  EXPECT_THROW(reference::uniform_costs(t, -1.0, 0.5), std::invalid_argument);
}

TEST(LinearCosts, RandomCostsWithinRanges) {
  const topo::Topology t = small_topology();
  util::Rng rng(5);
  const LinearCosts costs = random_costs(t, rng);
  ASSERT_EQ(costs.link_unit_cost.size(), t.num_links());
  for (double c : costs.link_unit_cost) {
    EXPECT_GE(c, 0.01);
    EXPECT_LE(c, 0.10);
  }
  for (graph::VertexId v : t.servers) {
    EXPECT_GE(costs.server_unit_cost[v], 0.002);
    EXPECT_LE(costs.server_unit_cost[v], 0.010);
  }
  // Non-servers carry zero server cost.
  EXPECT_DOUBLE_EQ(costs.server_unit_cost[0], 0.0);
}

TEST(LinearCosts, RandomRejectsBadRanges) {
  const topo::Topology t = small_topology();
  util::Rng rng(5);
  RandomCostOptions opts;
  opts.min_link_cost = 1.0;
  opts.max_link_cost = 0.5;
  EXPECT_THROW(random_costs(t, rng, opts), std::invalid_argument);
}

TEST(ExponentialModel, RequiresBasesAboveOne) {
  EXPECT_THROW(ExponentialCostModel(1.0, 2.0), std::invalid_argument);
  EXPECT_THROW(ExponentialCostModel(2.0, 0.5), std::invalid_argument);
  EXPECT_NO_THROW(ExponentialCostModel(2.0, 2.0));
}

TEST(ExponentialModel, PaperDefaultIsTwiceV) {
  const ExponentialCostModel m = ExponentialCostModel::paper_default(50);
  EXPECT_DOUBLE_EQ(m.alpha(), 100.0);
  EXPECT_DOUBLE_EQ(m.beta(), 100.0);
}

TEST(ExponentialModel, ZeroUtilizationCostsNothing) {
  const topo::Topology t = small_topology();
  const nfv::ResourceState state(t);
  const ExponentialCostModel m(8.0, 8.0);
  EXPECT_DOUBLE_EQ(m.edge_weight(0, state), 0.0);
  EXPECT_DOUBLE_EQ(m.server_weight(1, state), 0.0);
}

TEST(ExponentialModel, FullUtilizationMatchesEquation) {
  const topo::Topology t = small_topology();
  nfv::ResourceState state(t);
  nfv::Footprint fp;
  fp.bandwidth = {{0, 1000.0}};  // fill link 0
  fp.compute = {{1, 4000.0}};    // half of server 1
  state.allocate(fp);

  const ExponentialCostModel m(16.0, 16.0);
  // w_e = beta^1 - 1 = 15; c_e = B_e * 15.
  EXPECT_NEAR(m.edge_weight(0, state), 15.0, 1e-9);
  // w_v = alpha^0.5 - 1 = 3.
  EXPECT_NEAR(m.server_weight(1, state), 3.0, 1e-9);
}

TEST(ExponentialModel, WeightIsMonotoneInUtilization) {
  const topo::Topology t = small_topology();
  nfv::ResourceState state(t);
  const ExponentialCostModel m = ExponentialCostModel::paper_default(4);
  double last = m.edge_weight(0, state);
  for (int i = 0; i < 9; ++i) {
    nfv::Footprint fp;
    fp.bandwidth = {{0, 100.0}};
    state.allocate(fp);
    const double now = m.edge_weight(0, state);
    EXPECT_GT(now, last);
    last = now;
  }
}

TEST(ExponentialModel, ConvexityRewardsBalancing) {
  // Splitting load over two identical links is cheaper (in total exponential
  // cost) than stacking it on one - the property motivating the model.
  const topo::Topology t = small_topology();
  const ExponentialCostModel m(100.0, 100.0);

  nfv::ResourceState stacked(t);
  nfv::Footprint fa;
  fa.bandwidth = {{0, 800.0}};
  stacked.allocate(fa);

  nfv::ResourceState balanced(t);
  nfv::Footprint fb;
  fb.bandwidth = {{0, 400.0}, {1, 400.0}};
  balanced.allocate(fb);

  // c_e(k) = B_e (beta^{u_e} - 1) (Eq. 2).
  const auto cost = [&](graph::EdgeId e, const nfv::ResourceState& state) {
    return t.link_bandwidth[e] * m.edge_weight(e, state);
  };
  const double cost_stacked = cost(0, stacked) + cost(1, stacked);
  const double cost_balanced = cost(0, balanced) + cost(1, balanced);
  EXPECT_LT(cost_balanced, cost_stacked);
}

}  // namespace
}  // namespace nfvm::core
