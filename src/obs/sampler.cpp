#include "obs/sampler.h"

#include <cmath>
#include <vector>

#include "obs/json.h"
#include "obs/metrics.h"
#include "obs/run_info.h"
#include "obs/slo.h"
#include "obs/window.h"

namespace nfvm::obs {

bool TimeseriesSampler::start(Registry& registry, const std::string& path,
                              std::chrono::milliseconds interval) {
  if (running()) return false;
  to_file_ = !path.empty();
  if (to_file_) {
    out_.open(path, std::ios::trunc);
    if (!out_) return false;
  }
  registry_ = &registry;
  interval_ = interval.count() > 0 ? interval : std::chrono::milliseconds(1);
  epoch_ = std::chrono::steady_clock::now();
  stop_requested_ = false;
  samples_ = 0;
  prev_counters_.clear();
  prev_t_ms_ = 0.0;
  have_prev_ = false;
  thread_ = std::thread([this] { run_loop(); });
  return true;
}

void TimeseriesSampler::stop() {
  if (!running()) return;
  {
    const std::lock_guard<std::mutex> lock(mu_);
    stop_requested_ = true;
  }
  cv_.notify_all();
  thread_.join();
  write_sample(true);  // final snapshot: short runs still get >= 1 line
  if (to_file_) out_.close();
}

void TimeseriesSampler::run_loop() {
  std::unique_lock<std::mutex> lock(mu_);
  while (!stop_requested_) {
    if (cv_.wait_for(lock, interval_, [this] { return stop_requested_; })) break;
    lock.unlock();
    write_sample(false);
    lock.lock();
  }
}

void TimeseriesSampler::write_sample(bool final_sample) {
  const double t_ms = std::chrono::duration<double, std::milli>(
                          std::chrono::steady_clock::now() - epoch_)
                          .count();
  const auto counters = registry_->counter_snapshot();
  const auto gauges = registry_->gauge_snapshot();
  const auto windowed = registry_->windowed_instruments();
  const std::int64_t window_now = window_now_ms();
  const std::uint64_t peak_kb = peak_rss_kb();
  const std::uint64_t current_kb = current_rss_kb();

  /// Values offered to the SLO tracker: every scalar this sample can see,
  /// under the same keys the spec grammar resolves (obs/slo.h).
  std::map<std::string, double> values;
  values["rss_kb"] = static_cast<double>(peak_kb);
  values["current_rss_kb"] = static_cast<double>(current_kb);
  const auto put_finite = [&values](const std::string& key, double value) {
    if (std::isfinite(value)) values[key] = value;
  };

  JsonWriter w(out_);
  const bool emit = to_file_;
  if (emit) {
    w.begin_object();
    w.key("schema").value(kTimeseriesSchema);
    w.key("t_ms").value(t_ms);
    w.key("rss_kb").value(peak_kb);
    w.key("current_rss_kb").value(current_kb);
    w.key("counters").begin_object();
  }
  for (const auto& [name, value] : counters) {
    if (emit) w.key(name).value(value);
    values["counters." + name] = static_cast<double>(value);
  }
  if (emit) {
    w.end_object();
    w.key("gauges").begin_object();
  }
  for (const auto& [name, value] : gauges) {
    if (emit) w.key(name).value(value);
    values["gauges." + name] = value;
  }
  if (emit) {
    w.end_object();
    w.key("windows").begin_object();
  }
  for (const auto& [name, instrument] : windowed) {
    const WindowSnapshot snap = instrument->snapshot(window_now);
    if (emit) {
      w.key(name).begin_object();
      w.key("count").value(snap.count);
      w.key("decayed_count").value(snap.decayed_count);
      if (snap.count > 0) {
        // Quantiles of an empty window are NaN; omitting them beats the
        // writer's NaN->0 fallback, which would read as a healthy zero.
        w.key("sum").value(snap.sum);
        w.key("min").value(snap.min);
        w.key("max").value(snap.max);
        w.key("mean").value(snap.mean);
        w.key("p50").value(snap.p50);
        w.key("p90").value(snap.p90);
        w.key("p99").value(snap.p99);
      }
      if (snap.decayed_count > 0) {
        w.key("decayed_p50").value(snap.decayed_p50);
        w.key("decayed_p90").value(snap.decayed_p90);
        w.key("decayed_p99").value(snap.decayed_p99);
      }
      w.end_object();
    }
    const std::string base = "windows." + name;
    values[base + ".count"] = static_cast<double>(snap.count);
    values[base + ".decayed_count"] = snap.decayed_count;
    if (snap.count > 0) {
      put_finite(base + ".sum", snap.sum);
      put_finite(base + ".min", snap.min);
      put_finite(base + ".max", snap.max);
      put_finite(base + ".mean", snap.mean);
      put_finite(base + ".p50", snap.p50);
      put_finite(base + ".p90", snap.p90);
      put_finite(base + ".p99", snap.p99);
    }
    put_finite(base + ".decayed_p50", snap.decayed_p50);
    put_finite(base + ".decayed_p90", snap.decayed_p90);
    put_finite(base + ".decayed_p99", snap.decayed_p99);
  }
  if (emit) w.end_object();

  // Per-interval rates of the admission counters, differencing against the
  // previous sample. The first sample has no base and omits the section.
  if (have_prev_) {
    const double dt_s = std::max((t_ms - prev_t_ms_) / 1000.0, 1e-9);
    const auto delta = [&](const char* name) -> double {
      std::uint64_t now_value = 0;
      for (const auto& [n, v] : counters) {
        if (n == name) {
          now_value = v;
          break;
        }
      }
      const auto it = prev_counters_.find(name);
      const std::uint64_t prev_value = it == prev_counters_.end() ? 0 : it->second;
      return static_cast<double>(now_value - prev_value);  // counters only grow
    };
    const double d_requests = delta("online.requests");
    const double d_admitted = delta("online.admitted");
    const double d_rejected = delta("online.rejected");
    if (emit) w.key("rates").begin_object();
    const auto rate = [&](const std::string& key, double value) {
      if (emit) w.key(key).value(value);
      values["rates." + key] = value;
    };
    rate("req_s", d_requests / dt_s);
    rate("reject_s", d_rejected / dt_s);
    if (d_requests > 0) rate("admit_rate", d_admitted / d_requests);
    for (const auto& [name, value] : counters) {
      if (name.rfind("online.reject.", 0) != 0) continue;
      (void)value;
      rate(name.substr(std::string_view("online.").size()) + "_s",
           delta(name.c_str()) / dt_s);
    }
    if (emit) w.end_object();
  }

  if (emit) {
    w.end_object();
    out_ << "\n";
    out_.flush();
  }
  ++samples_;

  prev_counters_.clear();
  for (const auto& [name, value] : counters) prev_counters_[name] = value;
  prev_t_ms_ = t_ms;
  have_prev_ = true;

  if (slo_ != nullptr) {
    slo_->offer(static_cast<std::int64_t>(t_ms), values);
    if (final_sample) slo_->finish(static_cast<std::int64_t>(t_ms));
  }
}

}  // namespace nfvm::obs
