#include "sim/simulator.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <string>

#include "core/online_cp.h"
#include "core/online_sp.h"
#include "sim/request_gen.h"
#include "topology/waxman.h"
#include "util/rng.h"

namespace nfvm::sim {
namespace {

topo::Topology make_topo(std::uint64_t seed, std::size_t n = 40) {
  util::Rng rng(seed);
  return topo::make_waxman(n, rng);
}

TEST(Simulator, CountsAddUp) {
  const topo::Topology t = make_topo(1);
  util::Rng rng(2);
  RequestGenerator gen(t, rng);
  const auto requests = gen.sequence(40);
  core::OnlineCp algo(t);
  const SimulationMetrics m = run_online(algo, requests);
  EXPECT_EQ(m.num_requests, 40u);
  EXPECT_EQ(m.num_admitted + m.num_rejected, 40u);
  EXPECT_EQ(m.decisions.size(), 40u);
  EXPECT_EQ(m.cumulative_admitted.size(), 40u);
  EXPECT_EQ(m.num_admitted, algo.num_admitted());
}

TEST(Simulator, CumulativeSeriesIsMonotone) {
  const topo::Topology t = make_topo(3);
  util::Rng rng(4);
  RequestGenerator gen(t, rng);
  core::OnlineSp algo(t);
  const SimulationMetrics m = run_online(algo, gen.sequence(60));
  std::size_t last = 0;
  for (std::size_t i = 0; i < m.cumulative_admitted.size(); ++i) {
    EXPECT_GE(m.cumulative_admitted[i], last);
    EXPECT_LE(m.cumulative_admitted[i] - last, 1u);
    last = m.cumulative_admitted[i];
  }
  EXPECT_EQ(last, m.num_admitted);
}

TEST(Simulator, DecisionsMatchCumulative) {
  const topo::Topology t = make_topo(5);
  util::Rng rng(6);
  RequestGenerator gen(t, rng);
  core::OnlineCp algo(t);
  const SimulationMetrics m = run_online(algo, gen.sequence(50));
  std::size_t acc = 0;
  for (std::size_t i = 0; i < m.decisions.size(); ++i) {
    acc += m.decisions[i] ? 1 : 0;
    EXPECT_EQ(m.cumulative_admitted[i], acc);
  }
}

TEST(Simulator, AcceptanceRatio) {
  const topo::Topology t = make_topo(7);
  util::Rng rng(8);
  RequestGenerator gen(t, rng);
  core::OnlineCp algo(t);
  const SimulationMetrics m = run_online(algo, gen.sequence(30));
  EXPECT_NEAR(m.acceptance_ratio(),
              static_cast<double>(m.num_admitted) / 30.0, 1e-12);
  const SimulationMetrics empty;
  EXPECT_DOUBLE_EQ(empty.acceptance_ratio(), 0.0);
}

TEST(Simulator, AdmittedCostsRecorded) {
  const topo::Topology t = make_topo(9);
  util::Rng rng(10);
  RequestGenerator gen(t, rng);
  core::OnlineCp algo(t);
  const SimulationMetrics m = run_online(algo, gen.sequence(30));
  EXPECT_EQ(m.admitted_costs.count(), m.num_admitted);
  EXPECT_EQ(m.decision_seconds.count(), 30u);
}

TEST(Simulator, UtilizationsWithinUnitInterval) {
  const topo::Topology t = make_topo(11);
  util::Rng rng(12);
  RequestGenerator gen(t, rng);
  core::OnlineSp algo(t);
  const SimulationMetrics m = run_online(algo, gen.sequence(80));
  EXPECT_GE(m.final_bandwidth_utilization, 0.0);
  EXPECT_LE(m.final_bandwidth_utilization, 1.0);
  EXPECT_GE(m.final_compute_utilization, 0.0);
  EXPECT_LE(m.final_compute_utilization, 1.0);
  EXPECT_GT(m.final_bandwidth_utilization, 0.0);  // something was admitted
}

TEST(Simulator, EmptySequence) {
  const topo::Topology t = make_topo(13);
  core::OnlineCp algo(t);
  const SimulationMetrics m = run_online(algo, std::vector<nfv::Request>{});
  EXPECT_EQ(m.num_requests, 0u);
  EXPECT_EQ(m.num_admitted, 0u);
  EXPECT_DOUBLE_EQ(m.final_bandwidth_utilization, 0.0);
}

TEST(Simulator, ValidatesTreesByDefault) {
  // The default options validate each admitted tree; this runs cleanly on
  // correct algorithms (a corrupted tree would throw, covered by the
  // validator's own tests).
  const topo::Topology t = make_topo(14);
  util::Rng rng(15);
  RequestGenerator gen(t, rng);
  core::OnlineCp algo(t);
  EXPECT_NO_THROW(run_online(algo, gen.sequence(20)));
}

TEST(Simulator, RejectionBreakdownSumsToRejected) {
  // A tiny overloaded topology guarantees rejections; every one must land
  // in exactly one RejectCause bucket.
  const topo::Topology t = make_topo(18, 20);
  util::Rng rng(19);
  RequestGenerator gen(t, rng);
  core::OnlineCp algo(t);
  const SimulationMetrics m = run_online(algo, gen.sequence(200));
  std::size_t total = 0;
  for (const std::size_t n : m.rejects_by_cause) total += n;
  EXPECT_EQ(total, m.num_rejected);
  EXPECT_GT(m.num_rejected, 0u);
  // Admission-path rejections always carry a concrete cause.
  EXPECT_EQ(m.rejected_because(core::RejectCause::kNone), 0u);
}

TEST(Simulator, EventLogRecordsEveryRequest) {
  const topo::Topology t = make_topo(20);
  util::Rng rng(21);
  RequestGenerator gen(t, rng);
  core::OnlineCp algo(t);
  const std::string path = ::testing::TempDir() + "/nfvm_sim_events.jsonl";
  SimulationMetrics m;
  {
    obs::EventLog events;
    ASSERT_TRUE(events.open(path));
    SimulatorOptions opts;
    opts.event_log = &events;
    m = run_online(algo, gen.sequence(25), opts);
  }  // closing the log flushes it
  EXPECT_EQ(m.num_requests, 25u);
  std::ifstream in(path);
  std::size_t lines = 0;
  for (std::string line; std::getline(in, line);) ++lines;
  EXPECT_EQ(lines, 25u);
  std::remove(path.c_str());
}

TEST(Simulator, SameSeedSameOutcome) {
  const topo::Topology t = make_topo(16);
  auto run = [&t]() {
    util::Rng rng(17);
    RequestGenerator gen(t, rng);
    core::OnlineCp algo(t);
    return run_online(algo, gen.sequence(40));
  };
  const SimulationMetrics a = run();
  const SimulationMetrics b = run();
  EXPECT_EQ(a.num_admitted, b.num_admitted);
  EXPECT_EQ(a.decisions, b.decisions);
}

}  // namespace
}  // namespace nfvm::sim
