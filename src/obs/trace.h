// Scoped tracing spans with Chrome trace_event export.
//
//   NFVM_SPAN("appro_multi/enumerate_servers");
//
// declares an RAII scope: if the global tracer is recording, the span's
// wall-clock interval is appended to the trace buffer on scope exit.
// Nesting falls out of the timestamps - Chrome's "X" (complete) events on
// one thread render as a flame graph in chrome://tracing or Perfetto.
//
// Cost model: when the tracer is stopped (the default), a span is one
// relaxed atomic load. When recording, scope exit takes a mutex to append
// ~32 bytes. Compiling with -DNFVM_OBS=0 removes spans entirely.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <iosfwd>
#include <mutex>
#include <string>
#include <vector>

#include "obs/metrics.h"  // for the NFVM_OBS default

namespace nfvm::obs {

struct TraceEvent {
  /// Static-storage span name (the NFVM_SPAN literal).
  const char* name = "";
  /// Start, microseconds since Tracer::start().
  double ts_us = 0.0;
  /// Duration in microseconds.
  double dur_us = 0.0;
  /// Small per-thread ordinal (0 for the first thread seen).
  std::uint32_t tid = 0;
};

class SpanScope;

class Tracer {
 public:
  /// Buffer cap: further spans are counted in dropped() instead of stored,
  /// so runaway traces cannot OOM (1M events is ~32 MB).
  static constexpr std::size_t kDefaultMaxEvents = 1'000'000;

  explicit Tracer(std::size_t max_events = kDefaultMaxEvents)
      : max_events_(max_events) {}
  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  /// The process-wide tracer NFVM_SPAN records into.
  static Tracer& global();

  /// Clears the buffer and starts recording. Timestamps are relative to
  /// this call.
  void start();
  /// Stops recording; the buffer remains readable until the next start().
  void stop();
  bool enabled() const noexcept {
    return enabled_.load(std::memory_order_relaxed);
  }

  std::uint64_t dropped() const noexcept {
    return dropped_.load(std::memory_order_relaxed);
  }

  /// Writes the buffer in Chrome trace_event JSON ("traceEvents" array of
  /// ph:"X" complete events, timestamps in microseconds). Loadable in
  /// chrome://tracing and Perfetto.
  void write_chrome_trace(std::ostream& out) const;

  /// Microseconds since start(); 0 when not recording.
  double now_us() const noexcept;

  /// Appends one finished span (called by SpanScope; public for tests).
  void record(const char* name, double ts_us, double dur_us);

 private:
  std::atomic<bool> enabled_{false};
  std::atomic<std::uint64_t> dropped_{0};
  std::chrono::steady_clock::time_point epoch_{};
  mutable std::mutex mu_;
  std::vector<TraceEvent> events_;
  const std::size_t max_events_;
};

/// RAII span bound to the global tracer. Samples the enabled flag once at
/// construction: a span that starts while recording is recorded even if
/// stop() arrives before it closes.
class SpanScope {
 public:
  explicit SpanScope(const char* name) noexcept;
  ~SpanScope();
  SpanScope(const SpanScope&) = delete;
  SpanScope& operator=(const SpanScope&) = delete;

 private:
  const char* name_;  // nullptr when not recording
  double start_us_ = 0.0;
};

}  // namespace nfvm::obs

#if NFVM_OBS
#define NFVM_SPAN_CONCAT_INNER(a, b) a##b
#define NFVM_SPAN_CONCAT(a, b) NFVM_SPAN_CONCAT_INNER(a, b)
#define NFVM_SPAN(name) \
  ::nfvm::obs::SpanScope NFVM_SPAN_CONCAT(nfvm_span_, __COUNTER__)(name)
#else
#define NFVM_SPAN(name) ((void)0)
#endif
