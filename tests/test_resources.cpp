#include "nfv/resources.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <map>
#include <utility>
#include <vector>

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

// The sort-and-merge aggregation against the std::map accumulation it
// replaced: same ids in the same order and the same sum bits, on random
// footprints with repeated ids, zeros and -0.0, sorted and unsorted, whose
// amounts span enough magnitudes that a reordered sum would change bits.
TEST(ResourceState, AggregationMatchesMapSumsBitForBit) {
  util::Rng rng(2024);
  std::size_t repeated = 0;
  for (int trial = 0; trial < 2000; ++trial) {
    std::vector<std::pair<std::uint32_t, double>> entries(rng.next_below(40));
    for (auto& [id, amount] : entries) {
      id = static_cast<std::uint32_t>(rng.next_below(12));
      switch (rng.next_below(5)) {
        case 0: amount = 0.0; break;
        case 1: amount = -0.0; break;
        default:
          amount = rng.uniform01() * std::pow(10.0, rng.uniform_int(-8, 16));
      }
    }
    if (trial % 3 == 0) {
      std::stable_sort(entries.begin(), entries.end(),
                       [](const auto& a, const auto& b) { return a.first < b.first; });
    }
    std::map<std::size_t, double> want;
    for (const auto& [id, amount] : entries) want[id] += amount;
    repeated += entries.size() - want.size();

    const std::vector<std::pair<std::size_t, double>> got = aggregate_amounts(entries);
    ASSERT_EQ(got.size(), want.size()) << "trial " << trial;
    std::size_t k = 0;
    for (const auto& [id, sum] : want) {
      EXPECT_EQ(got[k].first, id) << "trial " << trial;
      EXPECT_EQ(std::bit_cast<std::uint64_t>(got[k].second),
                std::bit_cast<std::uint64_t>(sum))
          << "trial " << trial << " id " << id;
      ++k;
    }
  }
  EXPECT_GT(repeated, 10000u);
  EXPECT_THROW(aggregate_amounts(std::vector<std::pair<std::uint32_t, double>>{
                   {1, 2.0}, {1, -1.0}}),
               std::invalid_argument);
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
