// Windowed-histogram unit tests. Every test injects its own clock (explicit
// now_ms arguments) - rotation and decay are exercised by arithmetic, not
// sleeps, so the suite is deterministic at any machine speed.
#include <gtest/gtest.h>

#include <cmath>

#include "obs/metrics.h"
#include "obs/window.h"

namespace nfvm::obs {
namespace {

WindowOptions small_window() {
  WindowOptions options;
  options.window_ms = 1000;
  options.slots = 4;  // 250 ms per slot
  options.half_life_ms = 1000;
  return options;
}

TEST(SlidingHdrHistogram, EmptyWindowReadsZeroAndNaN) {
  SlidingHdrHistogram h(small_window());
  EXPECT_EQ(h.count(0), 0u);
  EXPECT_DOUBLE_EQ(h.sum(0), 0.0);
  EXPECT_TRUE(std::isnan(h.quantile(0.5, 0)));
  EXPECT_TRUE(h.snapshot_buckets(0).empty());
}

TEST(SlidingHdrHistogram, AccumulatesWithinWindow) {
  SlidingHdrHistogram h(small_window());
  h.observe(100.0, 0);
  h.observe(200.0, 300);
  h.observe(400.0, 600);
  EXPECT_EQ(h.count(600), 3u);
  EXPECT_DOUBLE_EQ(h.sum(600), 700.0);
  EXPECT_DOUBLE_EQ(h.min(600), 100.0);
  EXPECT_DOUBLE_EQ(h.max(600), 400.0);
  // p50 of {100, 200, 400} is the middle sample, within HDR bucket error.
  EXPECT_NEAR(h.quantile(0.5, 600), 200.0, 200.0 / 64);
}

TEST(SlidingHdrHistogram, OldSamplesRotateOut) {
  SlidingHdrHistogram h(small_window());
  h.observe(100.0, 0);     // slot epoch 0: alive until now_ms > 1000
  h.observe(900.0, 900);   // slot epoch 3
  EXPECT_EQ(h.count(900), 2u);
  // At t=1100 the window is (100, 1100]: slot 0 (covering [0, 250)) is
  // partially stale; the implementation drops a slot only once the whole
  // slot interval left the window, so it is still counted here.
  EXPECT_EQ(h.count(1100), 2u);
  // At t=1300 slot 0's interval [0, 250) is fully outside (300, 1300].
  EXPECT_EQ(h.count(1300), 1u);
  EXPECT_DOUBLE_EQ(h.sum(1300), 900.0);
  // Far future: everything expired, and the ring reports exactly empty.
  EXPECT_EQ(h.count(10'000), 0u);
  EXPECT_TRUE(std::isnan(h.quantile(0.99, 10'000)));
}

TEST(SlidingHdrHistogram, SlotReuseClearsStaleCounts) {
  SlidingHdrHistogram h(small_window());
  h.observe(50.0, 0);
  // 2000 ms later the ring wrapped twice; the slot that held t=0 must have
  // been cleared before accepting the new sample.
  h.observe(70.0, 2000);
  EXPECT_EQ(h.count(2000), 1u);
  EXPECT_DOUBLE_EQ(h.sum(2000), 70.0);
}

TEST(SlidingHdrHistogram, AdvanceWithoutObserveExpires) {
  SlidingHdrHistogram h(small_window());
  h.observe(10.0, 0);
  EXPECT_EQ(h.count(5000), 0u);  // a read 5 s later, with no new sample
}

TEST(SlidingHdrHistogram, QuantilesMatchHdrWithinBucketError) {
  SlidingHdrHistogram h(small_window());
  HdrHistogram reference;
  for (int i = 1; i <= 1000; ++i) {
    h.observe(static_cast<double>(i), 500);
    reference.observe(static_cast<double>(i));
  }
  for (const double q : {0.5, 0.9, 0.99}) {
    EXPECT_NEAR(h.quantile(q, 500), reference.quantile(q),
                reference.quantile(q) / 64)
        << "q=" << q;
  }
}

TEST(DecayingHdrHistogram, HalfLifeHalvesTheWeight) {
  WindowOptions options = small_window();
  DecayingHdrHistogram h(options);
  h.observe(100.0, 0);
  h.observe(100.0, 0);
  EXPECT_NEAR(h.weight(0), 2.0, 1e-9);
  // One full half-life: eight ticks of 2^(-1/8) compose to exactly 1/2.
  EXPECT_NEAR(h.weight(options.half_life_ms), 1.0, 1e-9);
  EXPECT_NEAR(h.weight(2 * options.half_life_ms), 0.5, 1e-9);
}

TEST(DecayingHdrHistogram, RecentSamplesDominateQuantiles) {
  WindowOptions options = small_window();
  DecayingHdrHistogram h(options);
  // Old regime: fast decisions...
  for (int i = 0; i < 100; ++i) h.observe(10.0, 0);
  // ...then, ten half-lives later (old weight ~0.1), a slow regime.
  const std::int64_t later = 10 * options.half_life_ms;
  for (int i = 0; i < 100; ++i) h.observe(1000.0, later);
  EXPECT_NEAR(h.quantile(0.5, later), 1000.0, 1000.0 / 64);
  // An undecayed view would put p50 between the regimes (equal counts).
}

TEST(DecayingHdrHistogram, IdleInstrumentFlushesToEmpty) {
  DecayingHdrHistogram h(small_window());
  h.observe(5.0, 0);
  EXPECT_GT(h.weight(0), 0.0);
  // ~40 half-lives decays 1.0 below the 1e-9 negligible-weight flush.
  const std::int64_t far = 40 * h.half_life_ms();
  EXPECT_DOUBLE_EQ(h.weight(far), 0.0);
  EXPECT_TRUE(std::isnan(h.quantile(0.5, far)));
}

TEST(WindowedHistogram, SnapshotCombinesBothViews) {
  WindowedHistogram h(small_window());
  h.observe(100.0, 0);
  h.observe(300.0, 100);
  const WindowSnapshot snap = h.snapshot(200);
  EXPECT_EQ(snap.count, 2u);
  EXPECT_DOUBLE_EQ(snap.sum, 400.0);
  EXPECT_DOUBLE_EQ(snap.min, 100.0);
  EXPECT_DOUBLE_EQ(snap.max, 300.0);
  EXPECT_DOUBLE_EQ(snap.mean, 200.0);
  EXPECT_NEAR(snap.decayed_count, 2.0, 0.2);
  EXPECT_NEAR(snap.p90, 300.0, 300.0 / 64);
  EXPECT_NEAR(snap.decayed_p90, 300.0, 300.0 / 64);
}

TEST(WindowedHistogram, WindowEmptiesButDecayRemembers) {
  WindowOptions options = small_window();
  options.half_life_ms = 60'000;  // slow decay vs. the 1 s window
  WindowedHistogram h(options);
  h.observe(100.0, 0);
  const WindowSnapshot snap = h.snapshot(5000);
  // The sliding window forgot the sample; the decaying view still holds
  // nearly all of its weight.
  EXPECT_EQ(snap.count, 0u);
  EXPECT_TRUE(std::isnan(snap.p99));
  EXPECT_GT(snap.decayed_count, 0.9);
  EXPECT_NEAR(snap.decayed_p50, 100.0, 100.0 / 64);
}

TEST(Registry, WindowedInstrumentsAreStable) {
  Registry registry;
  WindowedHistogram* h = registry.windowed_histogram("test.window");
  ASSERT_NE(h, nullptr);
  EXPECT_EQ(registry.windowed_histogram("test.window"), h);
  h->observe(10.0, 0);
  EXPECT_EQ(h->snapshot(0).count, 1u);
  EXPECT_EQ(registry.windowed_instruments().size(), 1u);
}

TEST(WindowClock, IsMonotoneNonNegative) {
  const std::int64_t a = window_now_ms();
  const std::int64_t b = window_now_ms();
  EXPECT_GE(a, 0);
  EXPECT_GE(b, a);
}

}  // namespace
}  // namespace nfvm::obs
