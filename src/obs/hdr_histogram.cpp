#include "obs/hdr_histogram.h"

#include <cmath>
#include <limits>

namespace nfvm::obs {

HdrHistogram::HdrHistogram() noexcept
    : min_(std::numeric_limits<double>::infinity()),
      max_(-std::numeric_limits<double>::infinity()) {}

std::size_t HdrHistogram::bucket_index(double sample) noexcept {
  if (!(sample > 0.0)) return 0;  // non-positive and NaN
  // frexp's result is unspecified for infinities; route them to overflow.
  if (std::isinf(sample)) return kNumBuckets - 1;
  int exp = 0;
  const double frac = std::frexp(sample, &exp);  // frac in [0.5, 1)
  const int octave = exp - 1;                    // sample in [2^octave, 2^(octave+1))
  if (octave < kMinOctave) return 0;
  if (octave > kMaxOctave) return kNumBuckets - 1;
  // frac*2 lies in [1, 2); frac*2 - 1 is exact there, so the slice index is
  // an exact floor in [0, kSubBuckets).
  const auto sub = static_cast<std::size_t>((frac * 2.0 - 1.0) *
                                            static_cast<double>(kSubBuckets));
  return static_cast<std::size_t>(octave - kMinOctave) * kSubBuckets + sub;
}

double HdrHistogram::bucket_upper_bound(std::size_t bucket) {
  if (bucket >= kNumBuckets - 1) return std::numeric_limits<double>::infinity();
  const int octave = kMinOctave + static_cast<int>(bucket / kSubBuckets);
  const auto sub = static_cast<double>(bucket % kSubBuckets);
  return std::ldexp(1.0 + (sub + 1.0) / static_cast<double>(kSubBuckets), octave);
}

void HdrHistogram::observe(double sample) noexcept {
  buckets_[bucket_index(sample)].fetch_add(1, std::memory_order_relaxed);
  count_.fetch_add(1, std::memory_order_relaxed);
  // fetch_add(double) is C++20; min/max need CAS loops.
  double expected = sum_.load(std::memory_order_relaxed);
  while (!sum_.compare_exchange_weak(expected, expected + sample,
                                     std::memory_order_relaxed)) {
  }
  expected = min_.load(std::memory_order_relaxed);
  while (sample < expected &&
         !min_.compare_exchange_weak(expected, sample, std::memory_order_relaxed)) {
  }
  expected = max_.load(std::memory_order_relaxed);
  while (sample > expected &&
         !max_.compare_exchange_weak(expected, sample, std::memory_order_relaxed)) {
  }
}

std::uint64_t HdrHistogram::bucket_count(std::size_t bucket) const {
  return buckets_.at(bucket).load(std::memory_order_relaxed);
}

std::vector<HistogramBucket> HdrHistogram::snapshot_buckets() const {
  std::size_t highest = 0;
  bool any = false;
  for (std::size_t b = 0; b < kNumBuckets; ++b) {
    if (bucket_count(b) > 0) {
      highest = b;
      any = true;
    }
  }
  std::vector<HistogramBucket> buckets;
  if (!any) return buckets;
  buckets.reserve(highest + 1);
  for (std::size_t b = 0; b <= highest; ++b) {
    buckets.push_back({bucket_upper_bound(b), bucket_count(b)});
  }
  return buckets;
}

double HdrHistogram::quantile(double q) const {
  return obs::estimate_quantile(snapshot_buckets(), q, min(), max());
}

}  // namespace nfvm::obs
