#include "nfv/resources.h"

#include <gtest/gtest.h>

#include "reference/support.h"
#include "util/rng.h"

namespace nfvm::nfv {
namespace {

topo::Topology small_topology() {
  topo::Topology t;
  t.name = "small";
  t.graph = graph::Graph(3);
  t.graph.add_edge(0, 1, 1.0);  // e0
  t.graph.add_edge(1, 2, 1.0);  // e1
  t.servers = {1};
  t.link_bandwidth = {1000.0, 2000.0};
  t.server_compute = {0.0, 8000.0, 0.0};
  return t;
}

TEST(ResourceState, InitializesToFullCapacity) {
  const ResourceState state(small_topology());
  EXPECT_DOUBLE_EQ(state.residual_bandwidth(0), 1000.0);
  EXPECT_DOUBLE_EQ(state.residual_bandwidth(1), 2000.0);
  EXPECT_DOUBLE_EQ(state.residual_compute(1), 8000.0);
  EXPECT_DOUBLE_EQ(state.bandwidth_utilization(0), 0.0);
  EXPECT_DOUBLE_EQ(state.compute_utilization(1), 0.0);
}

TEST(ResourceState, RejectsUnassignedCapacities) {
  topo::Topology t = small_topology();
  t.link_bandwidth.clear();
  EXPECT_THROW(ResourceState{t}, std::invalid_argument);
}

TEST(ResourceState, AllocateAndUtilization) {
  ResourceState state(small_topology());
  Footprint fp;
  fp.bandwidth = {{0, 250.0}};
  fp.compute = {{1, 2000.0}};
  EXPECT_TRUE(state.can_allocate(fp));
  state.allocate(fp);
  EXPECT_DOUBLE_EQ(state.residual_bandwidth(0), 750.0);
  EXPECT_DOUBLE_EQ(state.bandwidth_utilization(0), 0.25);
  EXPECT_DOUBLE_EQ(state.compute_utilization(1), 0.25);
}

TEST(ResourceState, RepeatedEntriesAggregate) {
  ResourceState state(small_topology());
  Footprint fp;
  fp.bandwidth = {{0, 600.0}, {0, 600.0}};  // 1200 > 1000 total
  EXPECT_FALSE(state.can_allocate(fp));
  EXPECT_THROW(state.allocate(fp), std::runtime_error);
  // State unchanged after the failed allocation.
  EXPECT_DOUBLE_EQ(state.residual_bandwidth(0), 1000.0);
}

TEST(ResourceState, ExactFitAllocates) {
  ResourceState state(small_topology());
  Footprint fp;
  fp.bandwidth = {{0, 1000.0}};
  EXPECT_TRUE(state.can_allocate(fp));
  state.allocate(fp);
  EXPECT_NEAR(state.residual_bandwidth(0), 0.0, 1e-9);
  EXPECT_NEAR(state.bandwidth_utilization(0), 1.0, 1e-12);
}

TEST(ResourceState, ComputeOverflowRejected) {
  ResourceState state(small_topology());
  Footprint fp;
  fp.compute = {{1, 9000.0}};
  EXPECT_FALSE(state.can_allocate(fp));
  EXPECT_THROW(state.allocate(fp), std::runtime_error);
}

TEST(ResourceState, ReleaseRestores) {
  ResourceState state(small_topology());
  Footprint fp;
  fp.bandwidth = {{1, 500.0}};
  fp.compute = {{1, 1000.0}};
  state.allocate(fp);
  state.release(fp);
  EXPECT_DOUBLE_EQ(state.residual_bandwidth(1), 2000.0);
  EXPECT_DOUBLE_EQ(state.residual_compute(1), 8000.0);
}

TEST(ResourceState, DoubleReleaseRejected) {
  ResourceState state(small_topology());
  Footprint fp;
  fp.bandwidth = {{1, 500.0}};
  state.allocate(fp);
  state.release(fp);
  EXPECT_THROW(state.release(fp), std::runtime_error);
  EXPECT_DOUBLE_EQ(state.residual_bandwidth(1), 2000.0);
}

TEST(ResourceState, NegativeFootprintRejected) {
  ResourceState state(small_topology());
  Footprint fp;
  fp.bandwidth = {{0, -5.0}};
  EXPECT_THROW(state.can_allocate(fp), std::invalid_argument);
}

TEST(ResourceState, BadIdsThrow) {
  ResourceState state(small_topology());
  Footprint fp;
  fp.bandwidth = {{9, 10.0}};
  EXPECT_THROW(state.can_allocate(fp), std::out_of_range);
  Footprint fp2;
  fp2.compute = {{9, 10.0}};
  EXPECT_THROW(state.allocate(fp2), std::out_of_range);
}

TEST(ResourceState, EmptyFootprintAlwaysFits) {
  ResourceState state(small_topology());
  Footprint fp;
  EXPECT_TRUE(fp.empty());
  EXPECT_TRUE(state.can_allocate(fp));
  EXPECT_NO_THROW(state.allocate(fp));
  EXPECT_NO_THROW(state.release(fp));
}

TEST(ResourceState, TotalsTrackAllocations) {
  const topo::Topology t = small_topology();
  ResourceState state(t);
  Footprint fp;
  fp.bandwidth = {{0, 100.0}, {1, 300.0}};
  fp.compute = {{1, 1500.0}};
  state.allocate(fp);
  EXPECT_DOUBLE_EQ(reference::total_allocated_bandwidth(t, state), 400.0);
  EXPECT_DOUBLE_EQ(reference::total_allocated_compute(t, state), 1500.0);
}

TEST(ResourceState, ManyAllocationsConserveTotals) {
  util::Rng rng(9);
  const topo::Topology t = small_topology();
  ResourceState state(t);
  std::vector<Footprint> fps;
  for (int i = 0; i < 20; ++i) {
    Footprint fp;
    fp.bandwidth = {{static_cast<graph::EdgeId>(i % 2), rng.uniform_real(1, 20)}};
    if (!state.can_allocate(fp)) break;
    state.allocate(fp);
    fps.push_back(fp);
  }
  for (const Footprint& fp : fps) state.release(fp);
  EXPECT_NEAR(reference::total_allocated_bandwidth(t, state), 0.0, 1e-6);
}

}  // namespace
}  // namespace nfvm::nfv
