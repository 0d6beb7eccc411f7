#include "obs/window.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <limits>

namespace nfvm::obs {

namespace {

constexpr std::size_t kNumBuckets = HdrHistogram::kNumBuckets;

constexpr double kInf = std::numeric_limits<double>::infinity();

/// Quantile over double-valued bucket weights - the decayed counterpart of
/// obs::estimate_quantile, kept local because every other consumer works on
/// integer counts. Same interpolation: find the bucket holding the target
/// mass, interpolate linearly inside it, tighten the ends with min/max.
double weighted_quantile(const std::vector<double>& buckets, double q,
                         double total, double min_value, double max_value) {
  if (!(total > 0.0)) return std::numeric_limits<double>::quiet_NaN();
  q = std::clamp(q, 0.0, 1.0);
  std::size_t last_occupied = 0;
  for (std::size_t i = 0; i < buckets.size(); ++i) {
    if (buckets[i] > 0.0) last_occupied = i;
  }
  const double target = q * total;
  double cumulative = 0.0;
  for (std::size_t i = 0; i < buckets.size(); ++i) {
    if (buckets[i] <= 0.0) continue;
    const double next = cumulative + buckets[i];
    if (next < target && i < last_occupied) {
      cumulative = next;
      continue;
    }
    double lower = i == 0 ? 0.0 : HdrHistogram::bucket_upper_bound(i - 1);
    double upper = HdrHistogram::bucket_upper_bound(i);
    if (!std::isfinite(upper)) {
      upper = std::isfinite(max_value) ? max_value : lower * 2.0;
    }
    if (std::isfinite(min_value)) lower = std::max(lower, std::min(min_value, upper));
    if (std::isfinite(max_value)) upper = std::min(upper, max_value);
    const double fraction = std::max(0.0, target - cumulative) / buckets[i];
    return std::clamp(lower + fraction * (upper - lower), lower, upper);
  }
  return std::numeric_limits<double>::quiet_NaN();
}

}  // namespace

std::int64_t window_now_ms() {
  static const std::chrono::steady_clock::time_point epoch =
      std::chrono::steady_clock::now();
  return std::chrono::duration_cast<std::chrono::milliseconds>(
             std::chrono::steady_clock::now() - epoch)
      .count();
}

// --- SlidingHdrHistogram ----------------------------------------------------

void SlidingHdrHistogram::Slot::clear(std::int64_t new_epoch) {
  std::fill(buckets.begin(), buckets.end(), 0u);
  count = 0;
  sum = 0.0;
  min = kInf;
  max = -kInf;
  epoch = new_epoch;
}

SlidingHdrHistogram::SlidingHdrHistogram(const WindowOptions& options)
    : window_ms_(std::max<std::int64_t>(options.window_ms, 1)),
      slot_ms_(std::max<std::int64_t>(
          window_ms_ / std::max<std::size_t>(options.slots, 1), 1)),
      slots_(std::max<std::size_t>(options.slots, 1)) {
  for (Slot& slot : slots_) {
    slot.buckets.assign(kNumBuckets, 0u);
    slot.min = kInf;
    slot.max = -kInf;
  }
}

SlidingHdrHistogram::Slot& SlidingHdrHistogram::slot_for(std::int64_t now_ms) {
  const std::int64_t epoch = std::max<std::int64_t>(now_ms, 0) / slot_ms_;
  Slot& slot = slots_[static_cast<std::size_t>(epoch) % slots_.size()];
  // A slot whose epoch is stale belonged to a previous ring revolution.
  if (slot.epoch != epoch) slot.clear(epoch);
  return slot;
}

void SlidingHdrHistogram::observe(double sample, std::int64_t now_ms) {
  Slot& slot = slot_for(now_ms);
  slot.buckets[HdrHistogram::bucket_index(sample)] += 1;
  slot.count += 1;
  slot.sum += sample;
  slot.min = std::min(slot.min, sample);
  slot.max = std::max(slot.max, sample);
}

namespace {

/// A slot is inside the trailing window iff its interval overlaps
/// (now - window, now]. Slot `epoch` covers [epoch*slot, (epoch+1)*slot).
bool slot_live(std::int64_t slot_epoch, std::int64_t now_ms,
               std::int64_t slot_ms, std::int64_t window_ms) {
  if (slot_epoch < 0) return false;
  const std::int64_t slot_end = (slot_epoch + 1) * slot_ms;
  return slot_end > now_ms - window_ms && slot_epoch * slot_ms <= now_ms;
}

}  // namespace

std::uint64_t SlidingHdrHistogram::count(std::int64_t now_ms) {
  std::uint64_t total = 0;
  for (const Slot& slot : slots_) {
    if (slot_live(slot.epoch, now_ms, slot_ms_, window_ms_)) total += slot.count;
  }
  return total;
}

double SlidingHdrHistogram::sum(std::int64_t now_ms) {
  double total = 0.0;
  for (const Slot& slot : slots_) {
    if (slot_live(slot.epoch, now_ms, slot_ms_, window_ms_)) total += slot.sum;
  }
  return total;
}

double SlidingHdrHistogram::min(std::int64_t now_ms) {
  double value = kInf;
  for (const Slot& slot : slots_) {
    if (slot_live(slot.epoch, now_ms, slot_ms_, window_ms_) && slot.count > 0) {
      value = std::min(value, slot.min);
    }
  }
  return value;
}

double SlidingHdrHistogram::max(std::int64_t now_ms) {
  double value = -kInf;
  for (const Slot& slot : slots_) {
    if (slot_live(slot.epoch, now_ms, slot_ms_, window_ms_) && slot.count > 0) {
      value = std::max(value, slot.max);
    }
  }
  return value;
}

std::vector<HistogramBucket> SlidingHdrHistogram::snapshot_buckets(
    std::int64_t now_ms) {
  std::vector<std::uint64_t> merged(kNumBuckets, 0);
  std::size_t highest = 0;
  bool any = false;
  for (const Slot& slot : slots_) {
    if (!slot_live(slot.epoch, now_ms, slot_ms_, window_ms_) || slot.count == 0) {
      continue;
    }
    for (std::size_t b = 0; b < kNumBuckets; ++b) {
      if (slot.buckets[b] == 0) continue;
      merged[b] += slot.buckets[b];
      highest = std::max(highest, b);
      any = true;
    }
  }
  std::vector<HistogramBucket> buckets;
  if (!any) return buckets;
  buckets.reserve(highest + 1);
  for (std::size_t b = 0; b <= highest; ++b) {
    buckets.push_back({HdrHistogram::bucket_upper_bound(b), merged[b]});
  }
  return buckets;
}

double SlidingHdrHistogram::quantile(double q, std::int64_t now_ms) {
  return estimate_quantile(snapshot_buckets(now_ms), q, min(now_ms), max(now_ms));
}

// --- DecayingHdrHistogram ---------------------------------------------------

DecayingHdrHistogram::DecayingHdrHistogram(const WindowOptions& options)
    : half_life_ms_(std::max<std::int64_t>(options.half_life_ms, 1)),
      tick_ms_(std::max<std::int64_t>(half_life_ms_ / kDecayTicksPerHalfLife, 1)),
      buckets_(kNumBuckets, 0.0),
      lifetime_min_(kInf),
      lifetime_max_(-kInf) {}

void DecayingHdrHistogram::decay_to(std::int64_t now_ms) {
  const std::int64_t tick = std::max<std::int64_t>(now_ms, 0) / tick_ms_;
  if (!started_) {
    last_tick_ = tick;
    started_ = true;
    return;
  }
  if (tick <= last_tick_) return;
  const double ticks = static_cast<double>(tick - last_tick_);
  const double factor =
      std::exp2(-ticks / static_cast<double>(kDecayTicksPerHalfLife));
  weight_ *= factor;
  if (weight_ < kNegligibleWeight) {
    std::fill(buckets_.begin(), buckets_.end(), 0.0);
    weight_ = 0.0;
  } else {
    for (double& b : buckets_) b *= factor;
  }
  last_tick_ = tick;
}

void DecayingHdrHistogram::observe(double sample, std::int64_t now_ms) {
  decay_to(now_ms);
  buckets_[HdrHistogram::bucket_index(sample)] += 1.0;
  weight_ += 1.0;
  lifetime_min_ = std::min(lifetime_min_, sample);
  lifetime_max_ = std::max(lifetime_max_, sample);
}

double DecayingHdrHistogram::weight(std::int64_t now_ms) {
  decay_to(now_ms);
  return weight_;
}

double DecayingHdrHistogram::quantile(double q, std::int64_t now_ms) {
  decay_to(now_ms);
  return weighted_quantile(buckets_, q, weight_, lifetime_min_, lifetime_max_);
}

// --- WindowedHistogram ------------------------------------------------------

WindowedHistogram::WindowedHistogram(const WindowOptions& options)
    : sliding_(options), decaying_(options) {}

void WindowedHistogram::observe(double sample, std::int64_t now_ms) {
  const std::lock_guard<std::mutex> lock(mu_);
  sliding_.observe(sample, now_ms);
  decaying_.observe(sample, now_ms);
}

WindowSnapshot WindowedHistogram::snapshot(std::int64_t now_ms) {
  const std::lock_guard<std::mutex> lock(mu_);
  WindowSnapshot snap;
  snap.count = sliding_.count(now_ms);
  if (snap.count > 0) {
    snap.sum = sliding_.sum(now_ms);
    snap.min = sliding_.min(now_ms);
    snap.max = sliding_.max(now_ms);
    snap.mean = snap.sum / static_cast<double>(snap.count);
  }
  snap.p50 = sliding_.quantile(0.50, now_ms);
  snap.p90 = sliding_.quantile(0.90, now_ms);
  snap.p99 = sliding_.quantile(0.99, now_ms);
  snap.decayed_count = decaying_.weight(now_ms);
  snap.decayed_p50 = decaying_.quantile(0.50, now_ms);
  snap.decayed_p90 = decaying_.quantile(0.90, now_ms);
  snap.decayed_p99 = decaying_.quantile(0.99, now_ms);
  return snap;
}

}  // namespace nfvm::obs
