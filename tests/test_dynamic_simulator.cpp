#include <gtest/gtest.h>

#include "core/online_cp.h"
#include "core/online_sp.h"
#include "reference/support.h"
#include "sim/simulator.h"
#include "topology/waxman.h"
#include "util/rng.h"

namespace nfvm::sim {
namespace {

topo::Topology make_topo(std::uint64_t seed, std::size_t n = 40) {
  util::Rng rng(seed);
  return topo::make_waxman(n, rng);
}

TEST(PoissonWorkload, ArrivalsSortedAndPositiveDurations) {
  const topo::Topology t = make_topo(1);
  util::Rng rng(2);
  RequestGenerator gen(t, rng);
  const auto workload = make_poisson_workload(gen, rng, 100);
  ASSERT_EQ(workload.size(), 100u);
  double last = 0.0;
  for (const TimedRequest& tr : workload) {
    EXPECT_GE(tr.arrival_time, last);
    EXPECT_GT(tr.duration, 0.0);
    last = tr.arrival_time;
  }
}

TEST(PoissonWorkload, MeanInterarrivalMatchesRate) {
  const topo::Topology t = make_topo(3);
  util::Rng rng(4);
  RequestGenerator gen(t, rng);
  DynamicWorkloadOptions opts;
  opts.arrival_rate = 2.0;
  const auto workload = make_poisson_workload(gen, rng, 4000, opts);
  const double horizon = workload.back().arrival_time;
  EXPECT_NEAR(4000.0 / horizon, 2.0, 0.15);
}

TEST(PoissonWorkload, RejectsBadOptions) {
  const topo::Topology t = make_topo(5);
  util::Rng rng(6);
  RequestGenerator gen(t, rng);
  DynamicWorkloadOptions opts;
  opts.arrival_rate = 0.0;
  EXPECT_THROW(make_poisson_workload(gen, rng, 10, opts), std::invalid_argument);
  opts.arrival_rate = 1.0;
  opts.mean_duration = -1.0;
  EXPECT_THROW(make_poisson_workload(gen, rng, 10, opts), std::invalid_argument);
}

TEST(DynamicSimulator, CountsAddUp) {
  const topo::Topology t = make_topo(7);
  util::Rng rng(8);
  RequestGenerator gen(t, rng);
  const auto workload = make_poisson_workload(gen, rng, 120);
  core::OnlineCp algo(t);
  const DynamicMetrics m = run_online_dynamic(algo, workload);
  EXPECT_EQ(m.num_requests, 120u);
  EXPECT_EQ(m.num_admitted + m.num_rejected, 120u);
  EXPECT_EQ(m.admitted_costs.count(), m.num_admitted);
  EXPECT_LE(m.mean_active, static_cast<double>(m.peak_active));
}

TEST(DynamicSimulator, ResourcesFullyReleasedAtEnd) {
  const topo::Topology t = make_topo(9);
  util::Rng rng(10);
  RequestGenerator gen(t, rng);
  const auto workload = make_poisson_workload(gen, rng, 150);
  core::OnlineCp algo(t);
  run_online_dynamic(algo, workload);
  EXPECT_NEAR(reference::total_allocated_bandwidth(algo.topology(), algo.resources()),
              0.0, 1e-6);
  EXPECT_NEAR(reference::total_allocated_compute(algo.topology(), algo.resources()),
              0.0, 1e-6);
}

TEST(DynamicSimulator, UnsortedArrivalsRejected) {
  const topo::Topology t = make_topo(11);
  util::Rng rng(12);
  RequestGenerator gen(t, rng);
  auto workload = make_poisson_workload(gen, rng, 5);
  std::swap(workload[1], workload[3]);
  core::OnlineCp algo(t);
  EXPECT_THROW(run_online_dynamic(algo, workload), std::invalid_argument);
}

TEST(DynamicSimulator, DeparturesEnableMoreAdmissionsThanPermanentLoad) {
  // Short holding times recycle resources: the dynamic run must admit at
  // least as many requests as the permanent-allocation run of the same
  // arrivals (strictly more once the static run saturates).
  const topo::Topology t = make_topo(13);
  util::Rng rng(14);
  RequestGenerator gen(t, rng);
  DynamicWorkloadOptions opts;
  opts.arrival_rate = 5.0;
  opts.mean_duration = 2.0;  // ~10 concurrently active
  const auto workload = make_poisson_workload(gen, rng, 300, opts);

  core::OnlineCp dynamic_algo(t);
  const DynamicMetrics dynamic = run_online_dynamic(dynamic_algo, workload);

  std::vector<nfv::Request> plain;
  plain.reserve(workload.size());
  for (const TimedRequest& tr : workload) plain.push_back(tr.request);
  core::OnlineCp static_algo(t);
  const SimulationMetrics fixed = run_online(static_algo, plain);

  EXPECT_GE(dynamic.num_admitted, fixed.num_admitted);
  EXPECT_GT(dynamic.num_admitted, 250u);  // recycling keeps acceptance high
}

TEST(DynamicSimulator, PeakActiveBoundedByLittleLaw) {
  // With arrival rate lambda and mean holding 1/mu, the expected number in
  // system is lambda/mu; the peak should be the same order of magnitude.
  const topo::Topology t = make_topo(15, 60);
  util::Rng rng(16);
  RequestGenerator gen(t, rng);
  DynamicWorkloadOptions opts;
  opts.arrival_rate = 4.0;
  opts.mean_duration = 3.0;  // expected ~12 active
  const auto workload = make_poisson_workload(gen, rng, 400, opts);
  core::OnlineSp algo(t);
  const DynamicMetrics m = run_online_dynamic(algo, workload);
  EXPECT_GT(m.peak_active, 4u);
  EXPECT_LT(m.peak_active, 60u);
}

TEST(DynamicSimulator, EmptyWorkload) {
  const topo::Topology t = make_topo(17);
  core::OnlineCp algo(t);
  const DynamicMetrics m = run_online_dynamic(algo, std::vector<TimedRequest>{});
  EXPECT_EQ(m.num_requests, 0u);
  EXPECT_EQ(m.peak_active, 0u);
  EXPECT_DOUBLE_EQ(m.acceptance_ratio(), 0.0);
}

TEST(DynamicSimulator, Deterministic) {
  const topo::Topology t = make_topo(18);
  auto run = [&t]() {
    util::Rng rng(19);
    RequestGenerator gen(t, rng);
    const auto workload = make_poisson_workload(gen, rng, 100);
    core::OnlineCp algo(t);
    return run_online_dynamic(algo, workload);
  };
  const DynamicMetrics a = run();
  const DynamicMetrics b = run();
  EXPECT_EQ(a.num_admitted, b.num_admitted);
  EXPECT_EQ(a.peak_active, b.peak_active);
}

}  // namespace
}  // namespace nfvm::sim
