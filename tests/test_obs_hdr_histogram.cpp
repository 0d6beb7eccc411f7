#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <random>
#include <thread>
#include <vector>

#include "obs/hdr_histogram.h"
#include "obs/metrics.h"

namespace nfvm::obs {
namespace {

TEST(HdrHistogram, BucketIndexEdges) {
  // Non-positive and NaN samples land in bucket 0.
  EXPECT_EQ(HdrHistogram::bucket_index(0.0), 0u);
  EXPECT_EQ(HdrHistogram::bucket_index(-5.0), 0u);
  EXPECT_EQ(HdrHistogram::bucket_index(std::numeric_limits<double>::quiet_NaN()), 0u);
  // Below the covered range -> bucket 0 as well.
  EXPECT_EQ(HdrHistogram::bucket_index(std::ldexp(1.0, HdrHistogram::kMinOctave - 2)), 0u);
  // Above the covered range -> the overflow bucket.
  EXPECT_EQ(HdrHistogram::bucket_index(std::ldexp(1.0, HdrHistogram::kMaxOctave + 2)),
            HdrHistogram::kNumBuckets - 1);
  EXPECT_EQ(HdrHistogram::bucket_index(std::numeric_limits<double>::infinity()),
            HdrHistogram::kNumBuckets - 1);
}

TEST(HdrHistogram, BucketBoundsAreConsistent) {
  // Every in-range sample must fall strictly below its bucket's upper bound
  // and at or above the previous bucket's upper bound.
  std::mt19937_64 rng(7);
  std::uniform_real_distribution<double> octave(HdrHistogram::kMinOctave,
                                                HdrHistogram::kMaxOctave + 1);
  for (int i = 0; i < 20000; ++i) {
    const double sample = std::exp2(octave(rng));
    const std::size_t b = HdrHistogram::bucket_index(sample);
    ASSERT_LT(b, HdrHistogram::kNumBuckets - 1) << sample;
    ASSERT_LT(sample, HdrHistogram::bucket_upper_bound(b)) << sample;
    if (b > 0) {
      ASSERT_GE(sample, HdrHistogram::bucket_upper_bound(b - 1)) << sample;
    }
  }
}

TEST(HdrHistogram, TracksCountSumMinMax) {
  HdrHistogram h;
  EXPECT_EQ(h.count(), 0u);
  EXPECT_TRUE(std::isnan(h.quantile(0.5)));
  EXPECT_TRUE(h.snapshot_buckets().empty());
  h.observe(3.0);
  h.observe(1.0);
  h.observe(10.0);
  EXPECT_EQ(h.count(), 3u);
  EXPECT_DOUBLE_EQ(h.sum(), 14.0);
  EXPECT_DOUBLE_EQ(h.min(), 1.0);
  EXPECT_DOUBLE_EQ(h.max(), 10.0);
}

TEST(HdrHistogram, ConcurrentObservationsAreNotLost) {
  HdrHistogram h;
  constexpr int kThreads = 4;
  constexpr int kPerThread = 20000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&h, t] {
      for (int i = 0; i < kPerThread; ++i) h.observe(1.0 + t);
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(h.count(), static_cast<std::uint64_t>(kThreads) * kPerThread);
  EXPECT_DOUBLE_EQ(h.min(), 1.0);
  EXPECT_DOUBLE_EQ(h.max(), 4.0);
}

/// The tentpole guarantee: for in-range samples, any quantile estimate is
/// within 1% of the true sample quantile. Pinned over a worst-case-oriented
/// sweep: log-uniform samples (every octave equally loaded) plus adversarial
/// just-past-a-bucket-boundary values, across many quantiles.
TEST(HdrHistogram, QuantileRelativeErrorWithinOnePercent) {
  std::mt19937_64 rng(42);
  std::uniform_real_distribution<double> octave(-8.0, 20.0);
  std::vector<double> samples;
  samples.reserve(60000);
  for (int i = 0; i < 50000; ++i) samples.push_back(std::exp2(octave(rng)));
  // Adversarial: values immediately above bucket lower bounds, where the
  // in-bucket interpolation error is largest.
  for (int o = -8; o < 20; ++o) {
    for (std::size_t s = 0; s < HdrHistogram::kSubBuckets; s += 17) {
      const double lower =
          std::ldexp(1.0 + static_cast<double>(s) / HdrHistogram::kSubBuckets, o);
      samples.push_back(std::nextafter(lower, 2.0 * lower));
    }
  }

  HdrHistogram h;
  for (double s : samples) h.observe(s);
  std::vector<double> sorted = samples;
  std::sort(sorted.begin(), sorted.end());

  double worst = 0.0;
  for (double q : {0.01, 0.05, 0.10, 0.25, 0.50, 0.75, 0.90, 0.95, 0.99, 0.999, 1.0}) {
    const double estimated = h.quantile(q);
    const auto rank = static_cast<std::size_t>(
        std::ceil(q * static_cast<double>(sorted.size())));
    const double exact = sorted[rank == 0 ? 0 : rank - 1];
    const double rel = std::abs(estimated - exact) / exact;
    worst = std::max(worst, rel);
    EXPECT_LE(rel, 0.01) << "q=" << q << " exact=" << exact
                         << " estimated=" << estimated;
  }
  // The design bound is 1/128 ~ 0.78%; leave the assertion at the documented
  // 1% so a legitimate constant tweak does not silently invalidate docs.
  EXPECT_LE(worst, 0.01);
}

TEST(HdrHistogram, QuantileClampsToObservedMinMax) {
  HdrHistogram h;
  h.observe(100.0);
  h.observe(100.5);  // same bucket
  EXPECT_GE(h.quantile(0.0), 100.0);
  EXPECT_LE(h.quantile(1.0), 100.5);
}

}  // namespace
}  // namespace nfvm::obs
