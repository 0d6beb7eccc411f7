// Process-wide metrics: named counters, gauges and histograms (HDR in
// obs/hdr_histogram.h, windowed in obs/window.h).
//
// Design constraints (this sits inside Dijkstra relaxation loops and the
// per-request admission path):
//   * Increments are lock-free - every instrument is a fixed set of relaxed
//     atomics. The registry mutex is only taken on first lookup of a name.
//   * Call sites use the NFVM_COUNTER_* / NFVM_*_OBSERVE macros, which
//     cache the instrument pointer in a function-local static: after the
//     first execution an increment is one relaxed fetch_add.
//   * Instrument pointers are stable for the life of the process: the
//     registry never removes an instrument.
//   * Compiling with -DNFVM_OBS=0 (CMake: cmake -DNFVM_OBS=0) turns every
//     macro into a no-op; the classes remain available so code that uses
//     them directly still builds.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <iosfwd>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

#ifndef NFVM_OBS
#define NFVM_OBS 1
#endif

namespace nfvm::obs {

/// Monotonic event count.
class Counter {
 public:
  void add(std::uint64_t delta) noexcept {
    value_.fetch_add(delta, std::memory_order_relaxed);
  }
  void increment() noexcept { add(1); }
  std::uint64_t value() const noexcept {
    return value_.load(std::memory_order_relaxed);
  }

 private:
  std::atomic<std::uint64_t> value_{0};
};

/// Last-written double (utilizations, configuration echoes).
class Gauge {
 public:
  void set(double value) noexcept { value_.store(value, std::memory_order_relaxed); }
  double value() const noexcept { return value_.load(std::memory_order_relaxed); }

 private:
  std::atomic<double> value_{0.0};
};

/// One exported histogram bucket: inclusive upper bound (may be +inf for the
/// overflow bucket) and the number of samples that landed in it. This is the
/// shape written by Registry::write_json and read back by nfvm-report.
struct HistogramBucket {
  double le = 0.0;
  std::uint64_t count = 0;
};

/// Estimates the q-quantile (q in [0, 1]) of a bucketed histogram by
/// linear interpolation inside the bucket containing the target rank.
/// `buckets` must be ordered by ascending `le`; the lower bound of bucket i
/// is buckets[i-1].le (0 for the first). When known, `min_value`/`max_value`
/// tighten the first/last occupied bucket and clamp the result; pass
/// +inf/-inf (the empty-histogram defaults) to skip. Returns NaN when every
/// bucket is empty.
///
/// Error bound: the true quantile lies in the same bucket as the estimate,
/// so the relative error is at most the bucket's width over its lower
/// bound (<= 1/128 for HDR buckets, a factor of 2 for the log2 buckets of
/// old artifacts).
double estimate_quantile(const std::vector<HistogramBucket>& buckets, double q,
                         double min_value, double max_value);

class HdrHistogram;        // obs/hdr_histogram.h
class WindowedHistogram;   // obs/window.h

/// Name -> instrument map. Lookups are mutex-guarded; use the macros (or
/// cache the returned pointer) on hot paths.
class Registry {
 public:
  Registry();
  ~Registry();
  Registry(const Registry&) = delete;
  Registry& operator=(const Registry&) = delete;

  /// The process-wide registry the NFVM_* macros write to.
  static Registry& global();

  /// Get-or-create. The returned pointer is valid for the registry's
  /// lifetime; repeated calls with the same name return the same pointer.
  Counter* counter(std::string_view name);
  Gauge* gauge(std::string_view name);
  /// Tight-error histogram (obs/hdr_histogram.h), written to the
  /// "histograms" JSON section tagged "kind": "hdr".
  HdrHistogram* hdr_histogram(std::string_view name);
  /// Time-aware instrument (obs/window.h): sliding-window + decaying views
  /// of one sample stream, with the default WindowOptions. Never part of
  /// write_json - windowed state is emitted per tick in the
  /// nfvm-timeseries-v2 "windows" section instead.
  WindowedHistogram* windowed_histogram(std::string_view name);

  /// Name -> instrument pointers of every windowed histogram (sorted by
  /// name; pointers are registry-lifetime stable). The sampler snapshots
  /// these outside the registry lock.
  std::vector<std::pair<std::string, WindowedHistogram*>> windowed_instruments() const;

  /// Snapshots for tests and ad-hoc consumers (sorted by name).
  std::vector<std::pair<std::string, std::uint64_t>> counter_snapshot() const;
  std::vector<std::pair<std::string, double>> gauge_snapshot() const;

  /// Writes the whole registry as one JSON object ("nfvm-metrics-v2"):
  ///   {"schema": "nfvm-metrics-v2",
  ///    "counters": {name: value, ...},
  ///    "gauges":   {name: value, ...},
  ///    "histograms": {name: {"kind": "hdr", "count": n, "sum": s,
  ///                          "min": m, "max": M, "p50": ..., "p90": ...,
  ///                          "p99": ...,
  ///                          "buckets": [{"le": bound, "count": n}, ...]}}}
  /// Histogram buckets are emitted up to the highest non-empty one. v1
  /// readers (which detect metrics by the counters/gauges/histograms shape
  /// and never re-derive percentiles when p50/p90/p99 are present) read v2
  /// documents unchanged; the "schema" and "kind" tags are additive.
  void write_json(std::ostream& out) const;
  std::string to_json() const;

 private:
  mutable std::mutex mu_;
  std::map<std::string, std::unique_ptr<Counter>, std::less<>> counters_;
  std::map<std::string, std::unique_ptr<Gauge>, std::less<>> gauges_;
  std::map<std::string, std::unique_ptr<HdrHistogram>, std::less<>> hdr_histograms_;
  std::map<std::string, std::unique_ptr<WindowedHistogram>, std::less<>> windowed_;
};

/// Schema tag written by Registry::write_json.
inline constexpr std::string_view kMetricsSchema = "nfvm-metrics-v2";

}  // namespace nfvm::obs

// --- Hot-path macros --------------------------------------------------------
//
// The instrument name must be a string literal (or at least stable for the
// lifetime of the call site): it is resolved once into a function-local
// static pointer.

#if NFVM_OBS

/// Wraps statements that only exist to feed instruments (local tally
/// variables and their updates); compiled out with the rest of the layer.
#define NFVM_OBS_ONLY(...) __VA_ARGS__

#define NFVM_COUNTER_ADD(name, delta)                                \
  do {                                                               \
    static ::nfvm::obs::Counter* const nfvm_obs_counter_ =           \
        ::nfvm::obs::Registry::global().counter(name);               \
    nfvm_obs_counter_->add(static_cast<std::uint64_t>(delta));       \
  } while (0)

#define NFVM_COUNTER_INC(name) NFVM_COUNTER_ADD(name, 1)

#define NFVM_GAUGE_SET(name, sample)                                 \
  do {                                                               \
    static ::nfvm::obs::Gauge* const nfvm_obs_gauge_ =               \
        ::nfvm::obs::Registry::global().gauge(name);                 \
    nfvm_obs_gauge_->set(static_cast<double>(sample));               \
  } while (0)

/// Records into a tight-error HDR histogram (obs/hdr_histogram.h must be
/// included by the call site's translation unit for observe()).
#define NFVM_HDR_OBSERVE(name, sample)                               \
  do {                                                               \
    static ::nfvm::obs::HdrHistogram* const nfvm_obs_hdr_ =          \
        ::nfvm::obs::Registry::global().hdr_histogram(name);         \
    nfvm_obs_hdr_->observe(static_cast<double>(sample));             \
  } while (0)

/// Records into a windowed (sliding + decaying) histogram stamped with
/// window_now_ms(). obs/window.h must be included by the call site's
/// translation unit for observe() and the clock.
#define NFVM_WINDOW_OBSERVE(name, sample)                            \
  do {                                                               \
    static ::nfvm::obs::WindowedHistogram* const nfvm_obs_window_ =  \
        ::nfvm::obs::Registry::global().windowed_histogram(name);    \
    nfvm_obs_window_->observe(static_cast<double>(sample),           \
                              ::nfvm::obs::window_now_ms());         \
  } while (0)

#else  // !NFVM_OBS

#define NFVM_OBS_ONLY(...)
#define NFVM_COUNTER_ADD(name, delta) ((void)0)
#define NFVM_COUNTER_INC(name) ((void)0)
#define NFVM_GAUGE_SET(name, sample) ((void)0)
#define NFVM_HDR_OBSERVE(name, sample) ((void)0)
#define NFVM_WINDOW_OBSERVE(name, sample) ((void)0)

#endif  // NFVM_OBS
