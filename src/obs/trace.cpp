#include "obs/trace.h"

#include <ostream>

#include "obs/json.h"

namespace nfvm::obs {
namespace {

/// Small dense per-thread ordinal (std::thread::id hashes are unreadable in
/// a trace viewer).
std::uint32_t this_thread_ordinal() {
  static std::atomic<std::uint32_t> next{0};
  thread_local const std::uint32_t ordinal =
      next.fetch_add(1, std::memory_order_relaxed);
  return ordinal;
}

}  // namespace

Tracer& Tracer::global() {
  // Intentionally leaked, mirroring Registry::global(): a SpanScope living in
  // a static object may end during static destruction.
  static Tracer* const instance = new Tracer();
  return *instance;
}

void Tracer::start() {
  const std::lock_guard<std::mutex> lock(mu_);
  events_.clear();
  dropped_.store(0, std::memory_order_relaxed);
  epoch_ = std::chrono::steady_clock::now();
  enabled_.store(true, std::memory_order_relaxed);
}

void Tracer::stop() { enabled_.store(false, std::memory_order_relaxed); }

double Tracer::now_us() const noexcept {
  if (!enabled()) return 0.0;
  return std::chrono::duration<double, std::micro>(
             std::chrono::steady_clock::now() - epoch_)
      .count();
}

void Tracer::record(const char* name, double ts_us, double dur_us) {
  const std::lock_guard<std::mutex> lock(mu_);
  if (events_.size() >= max_events_) {
    dropped_.fetch_add(1, std::memory_order_relaxed);
    return;
  }
  events_.push_back(TraceEvent{name, ts_us, dur_us, this_thread_ordinal()});
}

void Tracer::write_chrome_trace(std::ostream& out) const {
  const std::lock_guard<std::mutex> lock(mu_);
  JsonWriter w(out);
  w.begin_object();
  w.key("traceEvents").begin_array();
  for (const TraceEvent& e : events_) {
    w.begin_object();
    w.key("name").value(e.name);
    w.key("cat").value("nfvm");
    w.key("ph").value("X");
    w.key("ts").value(e.ts_us);
    w.key("dur").value(e.dur_us);
    w.key("pid").value(std::uint64_t{1});
    w.key("tid").value(static_cast<std::uint64_t>(e.tid));
    w.end_object();
  }
  w.end_array();
  w.key("displayTimeUnit").value("ms");
  if (dropped() > 0) {
    w.key("nfvmDroppedEvents").value(dropped());
  }
  w.end_object();
  out << "\n";
}

SpanScope::SpanScope(const char* name) noexcept
    : name_(Tracer::global().enabled() ? name : nullptr) {
  if (name_ != nullptr) start_us_ = Tracer::global().now_us();
}

SpanScope::~SpanScope() {
  if (name_ == nullptr) return;
  Tracer& tracer = Tracer::global();
  // If the tracer was stopped mid-span, now_us() is 0; drop the event
  // rather than record a negative duration.
  const double end_us = tracer.now_us();
  if (end_us < start_us_) return;
  tracer.record(name_, start_us_, end_us - start_us_);
}

}  // namespace nfvm::obs
