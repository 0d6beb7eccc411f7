// Soak-harness unit tests: bookkeeping invariants, argument validation, and
// run-to-run determinism (the property the CI obs-smoke byte-diff relies on).
#include <gtest/gtest.h>

#include <limits>
#include <stdexcept>
#include <vector>

#include "core/online_cp.h"
#include "reference/support.h"
#include "sim/soak.h"
#include "topology/waxman.h"
#include "util/rng.h"

namespace nfvm::sim {
namespace {

topo::Topology make_topo(std::uint64_t seed, std::size_t n = 40) {
  util::Rng rng(seed);
  return topo::make_waxman(n, rng);
}

SoakOptions small_soak() {
  SoakOptions options;
  options.num_requests = 300;
  options.arrival_rate = 10.0;
  options.mean_duration = 20.0;
  return options;
}

SoakMetrics run(const topo::Topology& t, const SoakOptions& options,
                std::uint64_t seed) {
  core::OnlineCp algo(t);
  util::Rng gen_rng(seed);
  util::Rng arrival_rng(seed + 1);
  RequestGenerator gen(t, gen_rng);
  return run_soak(algo, gen, arrival_rng, options);
}

TEST(Soak, CountsAddUp) {
  const topo::Topology t = make_topo(21);
  const SoakMetrics m = run(t, small_soak(), 5);
  EXPECT_EQ(m.num_requests, 300u);
  EXPECT_EQ(m.num_admitted + m.num_rejected, 300u);
  std::size_t by_cause = 0;
  for (const std::size_t c : m.rejects_by_cause) by_cause += c;
  EXPECT_EQ(by_cause, m.num_rejected);
  EXPECT_EQ(m.decision_us.count(), 300u);
  EXPECT_LE(m.mean_active, static_cast<double>(m.peak_active));
  EXPECT_GT(m.sim_duration, 0.0);
  EXPECT_GT(m.requests_per_s, 0.0);
  // Whole-run quantiles are ordered and bracketed by the exact extremes.
  EXPECT_LE(m.p50_us, m.p90_us);
  EXPECT_LE(m.p90_us, m.p99_us);
  EXPECT_GE(m.p99_us * 1.02, m.p50_us);  // sanity: same histogram
}

TEST(Soak, ResourcesFullyReleasedAtEnd) {
  const topo::Topology t = make_topo(23);
  core::OnlineCp algo(t);
  util::Rng gen_rng(7);
  util::Rng arrival_rng(8);
  RequestGenerator gen(t, gen_rng);
  run_soak(algo, gen, arrival_rng, small_soak());
  EXPECT_NEAR(reference::total_allocated_bandwidth(algo.topology(), algo.resources()),
              0.0, 1e-6);
  EXPECT_NEAR(reference::total_allocated_compute(algo.topology(), algo.resources()),
              0.0, 1e-6);
}

TEST(Soak, SameSeedsSameOutcome) {
  const topo::Topology t = make_topo(25);
  const SoakMetrics a = run(t, small_soak(), 9);
  const SoakMetrics b = run(t, small_soak(), 9);
  EXPECT_EQ(a.num_admitted, b.num_admitted);
  EXPECT_EQ(a.rejects_by_cause, b.rejects_by_cause);
  EXPECT_DOUBLE_EQ(a.sim_duration, b.sim_duration);
  EXPECT_EQ(a.peak_active, b.peak_active);
}

TEST(Soak, DiurnalModulationStillCountsEveryArrival) {
  const topo::Topology t = make_topo(27);
  SoakOptions options = small_soak();
  options.diurnal_amplitude = 0.8;
  options.diurnal_period = 10.0;
  const SoakMetrics m = run(t, options, 11);
  EXPECT_EQ(m.num_requests, 300u);
  EXPECT_EQ(m.num_admitted + m.num_rejected, 300u);
}

TEST(Soak, ProgressCallbackFires) {
  const topo::Topology t = make_topo(29);
  SoakOptions options = small_soak();
  options.num_requests = 100;
  options.progress_every = 25;
  std::vector<std::size_t> ticks;
  options.on_progress = [&ticks](std::size_t n) { ticks.push_back(n); };
  run(t, options, 13);
  ASSERT_FALSE(ticks.empty());
  EXPECT_EQ(ticks.back(), 100u);
  for (std::size_t i = 1; i < ticks.size(); ++i) EXPECT_GT(ticks[i], ticks[i - 1]);
}

TEST(Soak, RejectsBadOptions) {
  const topo::Topology t = make_topo(31);
  SoakOptions options = small_soak();
  options.arrival_rate = 0.0;
  EXPECT_THROW(run(t, options, 15), std::invalid_argument);
  options = small_soak();
  options.mean_duration = -1.0;
  EXPECT_THROW(run(t, options, 15), std::invalid_argument);
  options = small_soak();
  options.diurnal_amplitude = 1.0;  // must be < 1
  EXPECT_THROW(run(t, options, 15), std::invalid_argument);
  options = small_soak();
  options.diurnal_amplitude = -0.1;
  EXPECT_THROW(run(t, options, 15), std::invalid_argument);
  options = small_soak();
  options.diurnal_amplitude = std::numeric_limits<double>::quiet_NaN();
  EXPECT_THROW(run(t, options, 15), std::invalid_argument);
  options = small_soak();
  options.diurnal_amplitude = 0.5;
  options.diurnal_period = 0.0;  // only checked when the modulation is on
  EXPECT_THROW(run(t, options, 15), std::invalid_argument);
}

}  // namespace
}  // namespace nfvm::sim
