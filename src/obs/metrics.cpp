#include "obs/metrics.h"

#include <cmath>
#include <limits>
#include <sstream>

#include "obs/hdr_histogram.h"
#include "obs/json.h"
#include "obs/window.h"

namespace nfvm::obs {

// --- Quantile estimation ----------------------------------------------------

double estimate_quantile(const std::vector<HistogramBucket>& buckets, double q,
                         double min_value, double max_value) {
  std::uint64_t total = 0;
  for (const HistogramBucket& b : buckets) total += b.count;
  if (total == 0) return std::numeric_limits<double>::quiet_NaN();
  if (q < 0.0) q = 0.0;
  if (q > 1.0) q = 1.0;

  const double target = q * static_cast<double>(total);
  double cumulative = 0.0;
  for (std::size_t i = 0; i < buckets.size(); ++i) {
    if (buckets[i].count == 0) continue;
    const double next = cumulative + static_cast<double>(buckets[i].count);
    if (next < target && i + 1 < buckets.size()) {
      cumulative = next;
      continue;
    }
    double lower = i == 0 ? 0.0 : buckets[i - 1].le;
    double upper = buckets[i].le;
    if (!std::isfinite(upper)) {
      // Overflow bucket: the observed max is the only finite upper bound
      // available; without it fall back to doubling (the log2 growth rate).
      upper = std::isfinite(max_value) ? max_value : lower * 2.0;
    }
    // A finite min/max tightens the end buckets (all samples in the first
    // occupied bucket are >= min, in the last <= max).
    if (std::isfinite(min_value)) lower = std::max(lower, std::min(min_value, upper));
    if (std::isfinite(max_value)) upper = std::min(upper, max_value);
    const double fraction =
        std::max(0.0, target - cumulative) / static_cast<double>(buckets[i].count);
    const double estimate = lower + fraction * (upper - lower);
    return std::min(std::max(estimate, lower), upper);
  }
  return std::numeric_limits<double>::quiet_NaN();  // unreachable: total > 0
}

// --- Registry ---------------------------------------------------------------

// Out-of-line so HdrHistogram can stay forward-declared in the header.
Registry::Registry() = default;
Registry::~Registry() = default;

Registry& Registry::global() {
  // Intentionally leaked: instrumented code and at-exit exporters may touch
  // the registry during static destruction, so it must never be destroyed.
  static Registry* const instance = new Registry();
  return *instance;
}

Counter* Registry::counter(std::string_view name) {
  const std::lock_guard<std::mutex> lock(mu_);
  const auto it = counters_.find(name);
  if (it != counters_.end()) return it->second.get();
  return counters_.emplace(std::string(name), std::make_unique<Counter>())
      .first->second.get();
}

Gauge* Registry::gauge(std::string_view name) {
  const std::lock_guard<std::mutex> lock(mu_);
  const auto it = gauges_.find(name);
  if (it != gauges_.end()) return it->second.get();
  return gauges_.emplace(std::string(name), std::make_unique<Gauge>())
      .first->second.get();
}

HdrHistogram* Registry::hdr_histogram(std::string_view name) {
  const std::lock_guard<std::mutex> lock(mu_);
  const auto it = hdr_histograms_.find(name);
  if (it != hdr_histograms_.end()) return it->second.get();
  return hdr_histograms_.emplace(std::string(name), std::make_unique<HdrHistogram>())
      .first->second.get();
}

WindowedHistogram* Registry::windowed_histogram(std::string_view name) {
  const std::lock_guard<std::mutex> lock(mu_);
  const auto it = windowed_.find(name);
  if (it != windowed_.end()) return it->second.get();
  return windowed_
      .emplace(std::string(name), std::make_unique<WindowedHistogram>())
      .first->second.get();
}

std::vector<std::pair<std::string, WindowedHistogram*>>
Registry::windowed_instruments() const {
  const std::lock_guard<std::mutex> lock(mu_);
  std::vector<std::pair<std::string, WindowedHistogram*>> out;
  out.reserve(windowed_.size());
  for (const auto& [name, w] : windowed_) out.emplace_back(name, w.get());
  return out;
}

std::vector<std::pair<std::string, std::uint64_t>> Registry::counter_snapshot() const {
  const std::lock_guard<std::mutex> lock(mu_);
  std::vector<std::pair<std::string, std::uint64_t>> out;
  out.reserve(counters_.size());
  for (const auto& [name, c] : counters_) out.emplace_back(name, c->value());
  return out;
}

std::vector<std::pair<std::string, double>> Registry::gauge_snapshot() const {
  const std::lock_guard<std::mutex> lock(mu_);
  std::vector<std::pair<std::string, double>> out;
  out.reserve(gauges_.size());
  for (const auto& [name, g] : gauges_) out.emplace_back(name, g->value());
  return out;
}

namespace {

/// One histogram's body: stats, estimated percentiles (always exported when
/// count > 0, so readers never re-derive them from buckets) and the dense
/// bucket list up to the highest non-empty one.
void write_histogram_body(JsonWriter& w, const HdrHistogram& h) {
  const std::vector<HistogramBucket> buckets = h.snapshot_buckets();
  w.key("kind").value("hdr");
  w.key("count").value(h.count());
  w.key("sum").value(h.sum());
  if (h.count() > 0) {
    w.key("min").value(h.min());
    w.key("max").value(h.max());
    // Estimated within the containing bucket: <= 1% relative error (see
    // obs/hdr_histogram.h).
    w.key("p50").value(estimate_quantile(buckets, 0.50, h.min(), h.max()));
    w.key("p90").value(estimate_quantile(buckets, 0.90, h.min(), h.max()));
    w.key("p99").value(estimate_quantile(buckets, 0.99, h.min(), h.max()));
  }
  w.key("buckets").begin_array();
  for (const HistogramBucket& bucket : buckets) {
    w.begin_object();
    if (std::isfinite(bucket.le)) {
      w.key("le").value(bucket.le);
    } else {
      w.key("le").value("+Inf");
    }
    w.key("count").value(bucket.count);
    w.end_object();
  }
  w.end_array();
}

}  // namespace

void Registry::write_json(std::ostream& out) const {
  const std::lock_guard<std::mutex> lock(mu_);
  JsonWriter w(out);
  w.begin_object();
  w.key("schema").value(kMetricsSchema);

  w.key("counters").begin_object();
  for (const auto& [name, c] : counters_) {
    w.key(name).value(c->value());
  }
  w.end_object();

  w.key("gauges").begin_object();
  for (const auto& [name, g] : gauges_) {
    w.key(name).value(g->value());
  }
  w.end_object();

  w.key("histograms").begin_object();
  for (const auto& [name, h] : hdr_histograms_) {
    w.key(name).begin_object();
    write_histogram_body(w, *h);
    w.end_object();
  }
  w.end_object();

  w.end_object();
  out << "\n";
}

std::string Registry::to_json() const {
  std::ostringstream os;
  write_json(os);
  return os.str();
}

}  // namespace nfvm::obs
