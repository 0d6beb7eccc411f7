// Log-linear ("HDR-style") histogram with a bounded relative bucket width.
//
// One bucket per octave would only place a quantile estimate within a
// factor of 2 of the true value, which cannot drive a latency SLO. So
// HdrHistogram subdivides every octave into kSubBuckets linear slices,
// recording lock-free into relaxed atomics:
//
//   bucket (o, s) covers [2^o * (1 + s/128), 2^o * (1 + (s+1)/128))
//
// so the bucket width over its lower bound is at most 1/128 ~ 0.78%. Any
// quantile interpolated inside its bucket is therefore within 1% relative
// error of the true sample quantile for samples in the covered range
// [2^kMinOctave, 2^(kMaxOctave+1)) - see test_obs_hdr_histogram.cpp, which
// pins the worst case. Samples below the range land in bucket 0, samples
// above in the overflow bucket; both are tightened by the exact min/max.
//
// Recording is one frexp plus a handful of relaxed atomics - cheap enough
// for the per-request admission path, though not for inner relaxation
// loops (the array is ~50 KiB per instrument; count those with counters).
#pragma once

#include <array>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "obs/metrics.h"

namespace nfvm::obs {

class HdrHistogram {
 public:
  /// Linear slices per octave: 2^7. Relative bucket width <= 1/128 < 1%.
  static constexpr std::size_t kSubBucketBits = 7;
  static constexpr std::size_t kSubBuckets = std::size_t{1} << kSubBucketBits;
  /// Covered octaves: [2^-10, 2^40) - for microsecond timings that is ~1 ns
  /// to ~12.7 days, and it comfortably holds dimensionless counts too.
  static constexpr int kMinOctave = -10;
  static constexpr int kMaxOctave = 39;
  static constexpr std::size_t kNumOctaves =
      static_cast<std::size_t>(kMaxOctave - kMinOctave + 1);
  /// Regular buckets plus one overflow bucket (le = +inf).
  static constexpr std::size_t kNumBuckets = kNumOctaves * kSubBuckets + 1;

  HdrHistogram() noexcept;

  void observe(double sample) noexcept;

  std::uint64_t count() const noexcept { return count_.load(std::memory_order_relaxed); }
  double sum() const noexcept { return sum_.load(std::memory_order_relaxed); }
  /// +inf / -inf respectively when no sample was observed.
  double min() const noexcept { return min_.load(std::memory_order_relaxed); }
  double max() const noexcept { return max_.load(std::memory_order_relaxed); }
  std::uint64_t bucket_count(std::size_t bucket) const;

  /// Exclusive upper bound of `bucket` (+inf for the overflow bucket).
  static double bucket_upper_bound(std::size_t bucket);
  /// Bucket a sample falls into (exposed for tests). Non-positive and NaN
  /// samples count into bucket 0.
  static std::size_t bucket_index(double sample) noexcept;

  /// Estimated q-quantile via estimate_quantile over the tight buckets;
  /// NaN when empty. Relative error <= 1/kSubBuckets for in-range samples.
  double quantile(double q) const;

  /// Dense {le, count} export up to the highest non-empty bucket (empty
  /// vector when no sample was recorded) - the shape Registry::write_json
  /// emits and estimate_quantile consumes.
  std::vector<HistogramBucket> snapshot_buckets() const;

 private:
  std::array<std::atomic<std::uint64_t>, kNumBuckets> buckets_{};
  std::atomic<std::uint64_t> count_{0};
  std::atomic<double> sum_{0.0};
  std::atomic<double> min_;
  std::atomic<double> max_;
};

}  // namespace nfvm::obs
