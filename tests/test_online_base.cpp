// Contract tests of the OnlineAlgorithm base class and the simulator's
// failure-injection paths, using a controllable fake algorithm.
#include <gtest/gtest.h>

#include "core/online.h"
#include "reference/support.h"
#include "sim/simulator.h"
#include "util/rng.h"

namespace nfvm::core {
namespace {

topo::Topology path_topology() {
  topo::Topology t;
  t.name = "path4";
  t.graph = graph::Graph(4);
  t.graph.add_edge(0, 1, 1.0);
  t.graph.add_edge(1, 2, 1.0);
  t.graph.add_edge(2, 3, 1.0);
  t.servers = {2};
  t.link_bandwidth = {1000, 1000, 1000};
  t.server_compute = {0, 0, 8000, 0};
  return t;
}

nfv::Request simple_request(std::uint64_t id = 1) {
  nfv::Request r;
  r.id = id;
  r.source = 0;
  r.destinations = {3};
  r.bandwidth_mbps = 100.0;
  r.chain = nfv::ServiceChain({nfv::NetworkFunction::kNat});
  return r;
}

/// Fake algorithm with scripted decisions.
class FakeAlgorithm final : public OnlineAlgorithm {
 public:
  enum class Mode { kReject, kAdmitValid, kAdmitOverCommitted, kAdmitBogusTree };

  explicit FakeAlgorithm(const topo::Topology& topo) : OnlineAlgorithm(topo) {}

  std::string_view name() const override { return "fake"; }
  Mode mode = Mode::kReject;

 protected:
  AdmissionDecision try_admit(const nfv::Request& request) override {
    AdmissionDecision d;
    if (mode == Mode::kReject) {
      d.reject_reason = "scripted rejection";
      return d;
    }
    d.admitted = true;
    d.tree.source = request.source;
    d.tree.servers = {2};
    d.tree.cost = 3.0;
    d.tree.edge_uses = {{0, 1}, {1, 1}, {2, 1}};
    DestinationRoute route;
    route.destination = 3;
    route.server = 2;
    route.walk = {0, 1, 2, 3};
    route.server_index = 2;
    d.tree.routes = {route};
    if (mode == Mode::kAdmitBogusTree) {
      d.tree.routes[0].walk = {0, 3};  // non-adjacent hop
    }
    d.footprint.bandwidth = {{0, request.bandwidth_mbps}};
    d.footprint.compute = {{2, request.compute_demand_mhz()}};
    if (mode == Mode::kAdmitOverCommitted) {
      d.footprint.bandwidth = {{0, 1e9}};  // cannot fit
    }
    return d;
  }
};

TEST(OnlineBase, CountersTrackDecisions) {
  const topo::Topology t = path_topology();
  FakeAlgorithm algo(t);
  algo.mode = FakeAlgorithm::Mode::kReject;
  algo.process(simple_request(1));
  algo.mode = FakeAlgorithm::Mode::kAdmitValid;
  algo.process(simple_request(2));
  algo.process(simple_request(3));
  EXPECT_EQ(algo.num_admitted(), 2u);
  EXPECT_EQ(algo.num_rejected(), 1u);
  EXPECT_EQ(algo.num_processed(), 3u);
}

TEST(OnlineBase, AdmissionAllocatesFootprint) {
  const topo::Topology t = path_topology();
  FakeAlgorithm algo(t);
  algo.mode = FakeAlgorithm::Mode::kAdmitValid;
  algo.process(simple_request());
  EXPECT_NEAR(algo.resources().residual_bandwidth(0), 900.0, 1e-9);
  EXPECT_LT(algo.resources().residual_compute(2), 8000.0);
}

TEST(OnlineBase, RejectionLeavesStateUntouched) {
  const topo::Topology t = path_topology();
  FakeAlgorithm algo(t);
  algo.mode = FakeAlgorithm::Mode::kReject;
  const AdmissionDecision d = algo.process(simple_request());
  EXPECT_FALSE(d.admitted);
  EXPECT_EQ(d.reject_reason, "scripted rejection");
  EXPECT_DOUBLE_EQ(reference::total_allocated_bandwidth(algo.topology(), algo.resources()),
                   0.0);
}

TEST(OnlineBase, OverCommittedFootprintThrowsInsteadOfOverbooking) {
  // Contract violation by try_admit: process() must throw (allocate checks)
  // rather than drive residuals negative.
  const topo::Topology t = path_topology();
  FakeAlgorithm algo(t);
  algo.mode = FakeAlgorithm::Mode::kAdmitOverCommitted;
  EXPECT_THROW(algo.process(simple_request()), std::runtime_error);
  EXPECT_DOUBLE_EQ(reference::total_allocated_bandwidth(algo.topology(), algo.resources()),
                   0.0);
}

TEST(OnlineBase, MalformedRequestRejectedBeforeTryAdmit) {
  const topo::Topology t = path_topology();
  FakeAlgorithm algo(t);
  algo.mode = FakeAlgorithm::Mode::kAdmitValid;
  nfv::Request r = simple_request();
  r.destinations = {0};
  EXPECT_THROW(algo.process(r), std::invalid_argument);
  EXPECT_EQ(algo.num_processed(), 0u);
}

TEST(OnlineBase, ReleaseReturnsResources) {
  const topo::Topology t = path_topology();
  FakeAlgorithm algo(t);
  algo.mode = FakeAlgorithm::Mode::kAdmitValid;
  const AdmissionDecision d = algo.process(simple_request());
  algo.release(d.footprint);
  EXPECT_NEAR(reference::total_allocated_bandwidth(algo.topology(), algo.resources()),
              0.0, 1e-9);
}

TEST(OnlineBase, SimulatorDetectsBogusTrees) {
  const topo::Topology t = path_topology();
  FakeAlgorithm algo(t);
  algo.mode = FakeAlgorithm::Mode::kAdmitBogusTree;
  const std::vector<nfv::Request> requests{simple_request()};
  EXPECT_THROW(sim::run_online(algo, requests), std::logic_error);
}

TEST(OnlineBase, SimulatorValidationCanBeDisabled) {
  const topo::Topology t = path_topology();
  FakeAlgorithm algo(t);
  algo.mode = FakeAlgorithm::Mode::kAdmitBogusTree;
  const std::vector<nfv::Request> requests{simple_request()};
  sim::SimulatorOptions opts;
  opts.validate_trees = false;
  EXPECT_NO_THROW(sim::run_online(algo, requests, opts));
}

TEST(OnlineBase, DynamicSimulatorDetectsBogusTrees) {
  const topo::Topology t = path_topology();
  FakeAlgorithm algo(t);
  algo.mode = FakeAlgorithm::Mode::kAdmitBogusTree;
  std::vector<sim::TimedRequest> workload(1);
  workload[0].request = simple_request();
  workload[0].arrival_time = 0.0;
  workload[0].duration = 1.0;
  EXPECT_THROW(sim::run_online_dynamic(algo, workload), std::logic_error);
}

}  // namespace
}  // namespace nfvm::core
