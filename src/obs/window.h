// Time-aware variants of HdrHistogram plus the registry-facing wrapper that
// backs NFVM_WINDOW_OBSERVE.
//
// Every cumulative instrument in metrics.h answers "what happened since the
// process started" - which hides a latency regression or an admission-rate
// collapse that begins in hour three of a soak run. The two classes here
// answer "what happened recently":
//
//   * SlidingHdrHistogram - a ring of HDR bucket arrays ("slots"), each
//     covering window_ms / slots of wall time. A sample lands in the slot
//     containing its timestamp; slots older than the window are zeroed as
//     time advances. A snapshot merges the live slots, so quantiles cover
//     exactly the trailing window (quantized to one slot).
//   * DecayingHdrHistogram - one bucket array of double weights, scaled by
//     2^(-elapsed / half_life) as time advances (applied lazily on tick
//     boundaries of half_life / kDecayTicksPerHalfLife so the hot path stays
//     one array add). Recent samples dominate, old ones fade smoothly - the
//     "exponentially decaying" view of the same stream.
//
// Both take the current time as an explicit argument (milliseconds on any
// caller-chosen epoch), which keeps the rotation and decay math unit-testable
// with injected clocks - no sleeps, no flakiness. WindowedHistogram bundles
// one of each behind a mutex and stamps observations with window_now_ms()
// (process-epoch steady clock); it is what Registry::windowed_histogram
// hands out and what the timeseries sampler snapshots each tick.
//
// Bucket geometry is shared with HdrHistogram (obs/hdr_histogram.h), so
// windowed quantiles inherit the <= 1/128 relative bucket-width bound.
#pragma once

#include <cstddef>
#include <cstdint>
#include <mutex>
#include <vector>

#include "obs/hdr_histogram.h"

namespace nfvm::obs {

/// Milliseconds since the process-wide steady-clock epoch (first use). The
/// timestamp source for NFVM_WINDOW_OBSERVE and the sampler's snapshots.
std::int64_t window_now_ms();

/// Shared configuration for the windowed variants.
struct WindowOptions {
  /// Span of the sliding window.
  std::int64_t window_ms = 10'000;
  /// Ring granularity: the window is quantized to window_ms / slots.
  std::size_t slots = 8;
  /// Half-life of the exponentially-decaying variant.
  std::int64_t half_life_ms = 60'000;
};

/// Aggregate view of the samples a windowed instrument currently holds.
/// Quantiles are NaN when the (window / decayed mass) is empty - consumers
/// must not mistake an empty window for a healthy zero-latency one, which is
/// why `count` always rides along.
struct WindowSnapshot {
  std::uint64_t count = 0;  ///< samples inside the sliding window
  double sum = 0.0;
  double min = 0.0;  ///< 0 when count == 0
  double max = 0.0;
  double mean = 0.0;
  double p50 = 0.0, p90 = 0.0, p99 = 0.0;  ///< NaN when count == 0
  /// Exponentially-decayed sample mass (fractional by construction).
  double decayed_count = 0.0;
  double decayed_p50 = 0.0, decayed_p90 = 0.0, decayed_p99 = 0.0;
};

/// Ring-of-slots histogram over the trailing `window_ms`. Not thread-safe;
/// WindowedHistogram adds the lock.
class SlidingHdrHistogram {
 public:
  explicit SlidingHdrHistogram(const WindowOptions& options = {});

  /// Records `sample` at time `now_ms`. Time must not run backwards by more
  /// than one slot; stale timestamps are clamped into the current slot.
  void observe(double sample, std::int64_t now_ms);

  /// Samples currently inside the window.
  std::uint64_t count(std::int64_t now_ms);
  double sum(std::int64_t now_ms);
  /// Window min/max (tight per slot set; +inf/-inf when empty like
  /// HdrHistogram).
  double min(std::int64_t now_ms);
  double max(std::int64_t now_ms);

  /// q-quantile of the samples in the window; NaN when empty. Same
  /// interpolation and error bound as HdrHistogram::quantile.
  double quantile(double q, std::int64_t now_ms);

  /// Merged {le, count} buckets of the live slots, dense up to the highest
  /// non-empty bucket (empty when no sample is in the window).
  std::vector<HistogramBucket> snapshot_buckets(std::int64_t now_ms);

  std::int64_t window_ms() const { return window_ms_; }
  std::size_t num_slots() const { return slots_.size(); }
  std::int64_t slot_ms() const { return slot_ms_; }

 private:
  struct Slot {
    std::vector<std::uint32_t> buckets;  // HdrHistogram geometry
    std::uint64_t count = 0;
    double sum = 0.0;
    double min = 0.0;
    double max = 0.0;
    /// Slot index on the absolute time axis (now_ms / slot_ms), -1 = empty.
    std::int64_t epoch = -1;

    void clear(std::int64_t new_epoch);
  };

  Slot& slot_for(std::int64_t now_ms);

  std::int64_t window_ms_;
  std::int64_t slot_ms_;
  std::vector<Slot> slots_;
};

/// One HDR bucket array of double weights, decayed by 2^(-elapsed /
/// half_life). Decay is applied lazily whenever time crosses a tick boundary
/// (half_life / kDecayTicksPerHalfLife), so observe() between ticks is one
/// add. Not thread-safe; WindowedHistogram adds the lock.
class DecayingHdrHistogram {
 public:
  /// Decay quantization: ticks per half-life. Crossing one tick multiplies
  /// every weight by 2^(-1/kDecayTicksPerHalfLife); after a full half-life
  /// the factor composes to exactly 1/2 (up to floating rounding).
  static constexpr std::int64_t kDecayTicksPerHalfLife = 8;

  explicit DecayingHdrHistogram(const WindowOptions& options = {});

  void observe(double sample, std::int64_t now_ms);

  /// Total decayed weight (fractional). Weights below kNegligibleWeight are
  /// flushed to zero so an idle instrument eventually reads exactly empty.
  double weight(std::int64_t now_ms);

  /// q-quantile of the decayed distribution; NaN when the mass is ~zero.
  double quantile(double q, std::int64_t now_ms);

  std::int64_t half_life_ms() const { return half_life_ms_; }

 private:
  static constexpr double kNegligibleWeight = 1e-9;

  void decay_to(std::int64_t now_ms);

  std::int64_t half_life_ms_;
  std::int64_t tick_ms_;
  std::int64_t last_tick_ = 0;  // now_ms / tick_ms_ of the last decay
  bool started_ = false;
  std::vector<double> buckets_;  // HdrHistogram geometry
  double weight_ = 0.0;
  /// Lifetime (undecayed) extremes - used only to tighten quantile edges.
  double lifetime_min_;
  double lifetime_max_;
};

/// The registry-facing windowed instrument: one sliding window plus one
/// decaying view of the same sample stream, behind a mutex (recorded from
/// the simulation thread, snapshotted from the sampler thread). Created via
/// Registry::windowed_histogram / NFVM_WINDOW_OBSERVE; never written to
/// metrics.json (cumulative artifact) - it is emitted per tick in the
/// "windows" section of the nfvm-timeseries-v2 stream.
class WindowedHistogram {
 public:
  explicit WindowedHistogram(const WindowOptions& options = {});

  void observe(double sample, std::int64_t now_ms);
  WindowSnapshot snapshot(std::int64_t now_ms);

 private:
  std::mutex mu_;
  SlidingHdrHistogram sliding_;
  DecayingHdrHistogram decaying_;
};

}  // namespace nfvm::obs
