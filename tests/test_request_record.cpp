// RequestRecord provenance: populated when recording is enabled, absent when
// it is not, and never influencing the decisions themselves.
#include "core/request_record.h"

#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "core/online.h"
#include "core/online_cp.h"
#include "core/online_sp.h"
#include "core/online_sp_static.h"
#include "sim/request_gen.h"
#include "sim/simulator.h"
#include "topology/waxman.h"
#include "util/rng.h"

namespace nfvm::core {
namespace {

topo::Topology small_topology(std::uint64_t seed = 5) {
  util::Rng rng(seed);
  topo::WaxmanOptions wo;
  wo.target_mean_degree = 4.0;
  return topo::make_waxman(40, rng, wo);
}

std::vector<nfv::Request> workload(const topo::Topology& topo, std::size_t n,
                                   std::uint64_t seed = 6) {
  util::Rng rng(seed);
  sim::RequestGenerator gen(topo, rng);
  return gen.sequence(n);
}

TEST(RequestRecord, AbsentByDefault) {
  const topo::Topology topo = small_topology();
  OnlineCp algo(topo);
  EXPECT_FALSE(algo.record_provenance());
  const auto requests = workload(topo, 3);
  for (const nfv::Request& r : requests) {
    const AdmissionDecision d = algo.process(r);
    EXPECT_EQ(d.record, nullptr);
  }
}

#if NFVM_OBS

std::unique_ptr<OnlineAlgorithm> make_algorithm(const std::string& name,
                                                const topo::Topology& topo) {
  if (name == "Online_CP") return std::make_unique<OnlineCp>(topo);
  if (name == "SP") return std::make_unique<OnlineSp>(topo);
  return std::make_unique<OnlineSpStatic>(topo);
}

TEST(RequestRecord, PopulatedForEveryAlgorithm) {
  const topo::Topology topo = small_topology();
  // Long enough that resources run out and every algorithm rejects some
  // requests, so both provenance shapes are exercised.
  const auto requests = workload(topo, 200);
  for (const std::string name : {"Online_CP", "SP", "SP_static"}) {
    auto algo = make_algorithm(name, topo);
    algo->set_record_provenance(true);
    bool saw_admit = false;
    bool saw_reject = false;
    for (const nfv::Request& r : requests) {
      const AdmissionDecision d = algo->process(r);
      ASSERT_NE(d.record, nullptr) << name;
      const RequestRecord& rec = *d.record;
      EXPECT_EQ(rec.request_id, r.id) << name;
      EXPECT_EQ(rec.admitted, d.admitted) << name;
      EXPECT_EQ(rec.servers_total, topo.servers.size()) << name;
      EXPECT_GE(rec.servers_total, rec.servers_eligible) << name;
      EXPECT_GE(rec.servers_eligible, rec.servers_evaluated) << name;
      EXPECT_GT(rec.total_us, 0.0) << name;
      EXPECT_GE(rec.eval_us, 0.0) << name;
      // Disjoint phases must fit inside the whole call.
      EXPECT_LE(rec.classify_us + rec.closure_us + rec.eval_us +
                    rec.realize_us + rec.view_patch_us,
                rec.total_us * 1.5 + 50.0)
          << name;
      if (d.admitted) {
        saw_admit = true;
        EXPECT_GE(rec.candidates_feasible, 1u) << name;
        EXPECT_GE(rec.chosen_server, 0) << name;
      } else {
        saw_reject = true;
        EXPECT_EQ(rec.chosen_server, -1) << name;
        // Every rejection leaves a gate trail (unless nothing was eligible,
        // which the skip counters themselves record).
        EXPECT_GT(rec.skipped_compute + rec.skipped_sigma_v +
                      rec.failed_disconnected + rec.failed_sigma_e +
                      rec.failed_delay + rec.failed_capacity +
                      rec.servers_total - rec.servers_eligible,
                  0u)
            << name;
      }
    }
    EXPECT_TRUE(saw_admit) << name;
    EXPECT_TRUE(saw_reject) << name;
  }
}

TEST(RequestRecord, CpCostBreakdownSumsToTotal) {
  const topo::Topology topo = small_topology();
  const auto requests = workload(topo, 30);
  OnlineCp algo(topo);
  algo.set_record_provenance(true);
  std::size_t admitted = 0;
  for (const nfv::Request& r : requests) {
    const AdmissionDecision d = algo.process(r);
    if (!d.admitted) continue;
    ++admitted;
    const RequestRecord& rec = *d.record;
    EXPECT_NEAR(rec.cost_total,
                rec.cost_steiner + rec.cost_server + rec.cost_backhaul,
                1e-9 + 1e-9 * rec.cost_total);
    EXPECT_GE(rec.cost_steiner, 0.0);
    EXPECT_GE(rec.cost_server, 0.0);
    EXPECT_GE(rec.cost_backhaul, 0.0);
  }
  EXPECT_GT(admitted, 0u);
}

TEST(RequestRecord, RecordingDoesNotChangeDecisions) {
  const topo::Topology topo = small_topology();
  const auto requests = workload(topo, 50);
  for (const std::string name : {"Online_CP", "SP", "SP_static"}) {
    auto plain = make_algorithm(name, topo);
    auto recorded = make_algorithm(name, topo);
    recorded->set_record_provenance(true);
    for (const nfv::Request& r : requests) {
      const AdmissionDecision a = plain->process(r);
      const AdmissionDecision b = recorded->process(r);
      ASSERT_EQ(a.admitted, b.admitted) << name << " request " << r.id;
      if (a.admitted) {
        EXPECT_DOUBLE_EQ(a.tree.cost, b.tree.cost) << name << " request " << r.id;
        EXPECT_EQ(a.tree.servers, b.tree.servers) << name << " request " << r.id;
      } else {
        EXPECT_EQ(a.reject_cause, b.reject_cause) << name << " request " << r.id;
      }
    }
  }
}

TEST(RequestRecord, SimulatorPlumbsProvenanceThroughOptions) {
  const topo::Topology topo = small_topology();
  const auto requests = workload(topo, 20);
  OnlineCp algo(topo);
  sim::SimulatorOptions opts;
  opts.record_provenance = true;
  const sim::SimulationMetrics m = sim::run_online(algo, requests, opts);
  EXPECT_EQ(m.num_requests, requests.size());
  // Phase sums were accumulated from the per-request records.
  EXPECT_GT(m.phase_eval_us, 0.0);
  EXPECT_GT(m.phase_closure_us, 0.0);
}

#endif  // NFVM_OBS

}  // namespace
}  // namespace nfvm::core
