// End-to-end invariant of the admission-path instrumentation: the rejection
// cause counters partition online.rejected.
#include <gtest/gtest.h>

#include <cstdint>
#include <string>

#include "core/online_cp.h"
#include "obs/metrics.h"
#include "obs_test_util.h"
#include "sim/request_gen.h"
#include "sim/simulator.h"
#include "topology/waxman.h"
#include "util/rng.h"

namespace nfvm {
namespace {

TEST(ObsCounters, RejectCauseCountersSumToRejected) {
  const test::CounterBaseline counters;

  // A tiny overloaded topology with a long arrival sequence guarantees
  // capacity-driven rejections (same setup as the SimulationMetrics
  // breakdown test in test_simulator.cpp).
  util::Rng topo_rng(18);
  const topo::Topology t = topo::make_waxman(20, topo_rng);
  util::Rng rng(19);
  sim::RequestGenerator gen(t, rng);
  core::OnlineCp algo(t);
  const sim::SimulationMetrics m = sim::run_online(algo, gen.sequence(200));

  const std::uint64_t reject_sum = counters.since("online.reject.bandwidth") +
                                   counters.since("online.reject.compute") +
                                   counters.since("online.reject.threshold") +
                                   counters.since("online.reject.delay") +
                                   counters.since("online.reject.other");
  // The invariant holds whether or not the obs layer is compiled in: with
  // NFVM_OBS=0 every counter reads zero and both sides collapse to 0.
  EXPECT_EQ(reject_sum, counters.since("online.rejected"));
#if NFVM_OBS
  EXPECT_GT(m.num_rejected, 0u);
  EXPECT_EQ(counters.since("online.rejected"),
            static_cast<std::uint64_t>(m.num_rejected));
  EXPECT_EQ(counters.since("online.admitted"),
            static_cast<std::uint64_t>(m.num_admitted));
#else
  (void)m;
  EXPECT_EQ(counters.since("online.rejected"), 0u);
#endif
}

}  // namespace
}  // namespace nfvm
