#include "obs/request_events.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <iomanip>
#include <limits>
#include <map>
#include <memory>
#include <ostream>
#include <sstream>
#include <stdexcept>

#include "obs/hdr_histogram.h"

namespace nfvm::obs::report {

namespace {

namespace fs = std::filesystem;

/// Phase columns in display order. `field` is the event-log key; a null
/// field marks the synthetic rows fed from total_us / decision_us.
struct PhaseSpec {
  const char* phase;
  const char* field;
};
constexpr PhaseSpec kPhaseSpecs[] = {
    {"classify", "phase_classify_us"},  {"closure", "phase_closure_us"},
    {"eval", "phase_eval_us"},          {"realize", "phase_realize_us"},
    {"view_patch", "phase_view_patch_us"},
};
constexpr std::size_t kNumPhases = sizeof(kPhaseSpecs) / sizeof(kPhaseSpecs[0]);

double number_or(const JsonValue& doc, const std::string& key, double fallback) {
  if (!doc.has(key) || !doc.at(key).is_number()) return fallback;
  return doc.at(key).number;
}

std::string format_us(double value) {
  if (!std::isfinite(value)) return "-";
  std::ostringstream out;
  out << std::fixed << std::setprecision(value < 10.0 ? 2 : 1) << value;
  return out.str();
}

std::string format_share(double share) {
  if (!std::isfinite(share)) return "-";
  std::ostringstream out;
  out << std::fixed << std::setprecision(1) << share * 100.0 << "%";
  return out.str();
}

/// Lossless double formatting for the decisions projection: the same bits
/// must print the same bytes on every run.
std::string format_exact(double value) {
  char buffer[64];
  std::snprintf(buffer, sizeof(buffer), "%.17g", value);
  return buffer;
}

}  // namespace

std::vector<RequestEvent> load_request_events(const std::string& path) {
  std::string file = path;
  if (fs::is_directory(fs::path(path))) {
    file = (fs::path(path) / "events.jsonl").string();
  }
  std::ifstream in(file, std::ios::binary);
  if (!in) throw std::runtime_error("cannot open " + file);

  std::vector<RequestEvent> events;
  std::string line;
  std::size_t lineno = 0;
  while (std::getline(in, line)) {
    ++lineno;
    if (line.empty()) continue;
    JsonValue doc;
    try {
      doc = parse_json(line);
    } catch (const std::exception& e) {
      throw std::runtime_error(file + ":" + std::to_string(lineno) + ": " +
                               e.what());
    }
    if (!doc.is_object() || !doc.has("event") ||
        !doc.at("event").is_string() || doc.at("event").string != "request") {
      continue;
    }
    RequestEvent ev;
    if (doc.has("algorithm") && doc.at("algorithm").is_string()) {
      ev.algorithm = doc.at("algorithm").string;
    }
    ev.index = static_cast<std::uint64_t>(number_or(doc, "index", 0.0));
    ev.request_id = static_cast<std::uint64_t>(number_or(doc, "request_id", 0.0));
    ev.admitted = doc.has("admitted") && doc.at("admitted").is_bool() &&
                  doc.at("admitted").boolean;
    if (doc.has("reject_cause") && doc.at("reject_cause").is_string()) {
      ev.reject_cause = doc.at("reject_cause").string;
    }
    if (doc.has("reject_reason") && doc.at("reject_reason").is_string()) {
      ev.reject_reason = doc.at("reject_reason").string;
    }
    ev.decision_us = number_or(doc, "decision_us",
                               std::numeric_limits<double>::quiet_NaN());
    if (doc.has("schema") && doc.at("schema").is_string()) {
      ev.schema = doc.at("schema").string;
    }
    if (doc.has("config_hash") && doc.at("config_hash").is_string()) {
      ev.config_hash = doc.at("config_hash").string;
    }
    if (doc.has("seed") && doc.at("seed").is_number()) {
      ev.seed = static_cast<std::uint64_t>(doc.at("seed").number);
      ev.has_seed = true;
    }
    ev.has_provenance = doc.has("total_us");
    ev.raw = std::move(doc);
    events.push_back(std::move(ev));
  }
  return events;
}

LatencyReport aggregate_latency(const std::vector<RequestEvent>& events) {
  LatencyReport report;
  report.num_events = events.size();

  // Per algorithm: one HdrHistogram per phase + total + decision, plus the
  // phase/total sums the share column is derived from.
  struct Agg {
    std::unique_ptr<HdrHistogram> phases[kNumPhases];
    std::unique_ptr<HdrHistogram> total;
    std::unique_ptr<HdrHistogram> decision;
    double phase_sum[kNumPhases] = {};
    double total_sum = 0.0;
    Agg() {
      for (auto& h : phases) h = std::make_unique<HdrHistogram>();
      total = std::make_unique<HdrHistogram>();
      decision = std::make_unique<HdrHistogram>();
    }
  };
  std::map<std::string, Agg> by_algorithm;

  for (const RequestEvent& ev : events) {
    Agg& agg = by_algorithm[ev.algorithm];
    if (std::isfinite(ev.decision_us)) agg.decision->observe(ev.decision_us);
    if (!ev.has_provenance) continue;
    ++report.num_with_provenance;
    const double total = number_or(ev.raw, "total_us",
                                   std::numeric_limits<double>::quiet_NaN());
    if (std::isfinite(total)) {
      agg.total->observe(total);
      agg.total_sum += total;
    }
    for (std::size_t p = 0; p < kNumPhases; ++p) {
      const double value = number_or(ev.raw, kPhaseSpecs[p].field,
                                     std::numeric_limits<double>::quiet_NaN());
      if (!std::isfinite(value)) continue;
      agg.phases[p]->observe(value);
      agg.phase_sum[p] += value;
    }
  }

  const auto emit = [&report](const std::string& algorithm,
                              const char* phase, const HdrHistogram& h,
                              double share) {
    if (h.count() == 0) return;
    LatencyRow row;
    row.algorithm = algorithm;
    row.phase = phase;
    row.count = h.count();
    row.p50_us = h.quantile(0.50);
    row.p90_us = h.quantile(0.90);
    row.p99_us = h.quantile(0.99);
    row.mean_us = h.sum() / static_cast<double>(h.count());
    row.max_us = h.max();
    row.share = share;
    report.rows.push_back(std::move(row));
  };

  for (const auto& [algorithm, agg] : by_algorithm) {
    const double nan = std::numeric_limits<double>::quiet_NaN();
    for (std::size_t p = 0; p < kNumPhases; ++p) {
      const double share =
          agg.total_sum > 0.0 ? agg.phase_sum[p] / agg.total_sum : nan;
      emit(algorithm, kPhaseSpecs[p].phase, *agg.phases[p], share);
    }
    emit(algorithm, "total", *agg.total, nan);
    emit(algorithm, "decision", *agg.decision, nan);
  }
  return report;
}

void write_latency_text(std::ostream& out, const LatencyReport& report) {
  out << "# per-phase admission latency (microseconds; HDR quantiles, <= 1% "
         "relative error)\n";
  out << "# " << report.num_events << " request events, "
      << report.num_with_provenance << " with provenance\n";
  const char* fmt = "%-16s %-11s %8s %10s %10s %10s %10s %10s %7s\n";
  char line[160];
  std::snprintf(line, sizeof(line), fmt, "algorithm", "phase", "count", "p50",
                "p90", "p99", "mean", "max", "share");
  out << line;
  for (const LatencyRow& row : report.rows) {
    std::snprintf(line, sizeof(line), fmt, row.algorithm.c_str(),
                  row.phase.c_str(), std::to_string(row.count).c_str(),
                  format_us(row.p50_us).c_str(), format_us(row.p90_us).c_str(),
                  format_us(row.p99_us).c_str(), format_us(row.mean_us).c_str(),
                  format_us(row.max_us).c_str(), format_share(row.share).c_str());
    out << line;
  }
}

void write_latency_markdown(std::ostream& out, const LatencyReport& report) {
  out << "# per-phase admission latency\n\n";
  out << report.num_events << " request events, " << report.num_with_provenance
      << " with provenance. Microseconds; HDR quantiles (≤ 1% relative "
         "error).\n\n";
  out << "| algorithm | phase | count | p50 | p90 | p99 | mean | max | share |\n";
  out << "|---|---|---:|---:|---:|---:|---:|---:|---:|\n";
  for (const LatencyRow& row : report.rows) {
    out << "| " << row.algorithm << " | " << row.phase << " | " << row.count
        << " | " << format_us(row.p50_us) << " | " << format_us(row.p90_us)
        << " | " << format_us(row.p99_us) << " | " << format_us(row.mean_us)
        << " | " << format_us(row.max_us) << " | " << format_share(row.share)
        << " |\n";
  }
}

void write_latency_json(std::ostream& out, const LatencyReport& report) {
  JsonWriter w(out);
  w.begin_object();
  w.key("schema").value("nfvm-latency-v1");
  w.key("num_events").value(static_cast<std::uint64_t>(report.num_events));
  w.key("num_with_provenance")
      .value(static_cast<std::uint64_t>(report.num_with_provenance));
  w.key("rows").begin_array();
  for (const LatencyRow& row : report.rows) {
    w.begin_object();
    w.key("algorithm").value(row.algorithm);
    w.key("phase").value(row.phase);
    w.key("count").value(row.count);
    w.key("p50_us").value(row.p50_us);
    w.key("p90_us").value(row.p90_us);
    w.key("p99_us").value(row.p99_us);
    w.key("mean_us").value(row.mean_us);
    w.key("max_us").value(row.max_us);
    if (std::isfinite(row.share)) w.key("share").value(row.share);
    w.end_object();
  }
  w.end_array();
  w.end_object();
  out << "\n";
}

std::string check_events(const std::vector<RequestEvent>& events) {
  if (events.empty()) return "no request events in the log";
  const RequestEvent& first = events.front();
  for (std::size_t i = 0; i < events.size(); ++i) {
    const RequestEvent& ev = events[i];
    const std::string where =
        ev.algorithm + " request " + std::to_string(ev.index);
    if (!std::isfinite(ev.decision_us) || ev.decision_us < 0.0) {
      return where + ": decision_us missing or negative";
    }
    if (ev.admitted && !ev.reject_cause.empty()) {
      return where + ": admitted but carries reject_cause";
    }
    if (!ev.admitted && ev.reject_cause.empty()) {
      return where + ": rejected without reject_cause";
    }
    if (ev.config_hash != first.config_hash) {
      return where + ": config_hash differs from the first line (mixed runs?)";
    }
    if (ev.has_seed != first.has_seed ||
        (ev.has_seed && ev.seed != first.seed)) {
      return where + ": seed stamp differs from the first line (mixed runs?)";
    }
    if (!ev.has_provenance) continue;
    const double total = number_or(ev.raw, "total_us", -1.0);
    if (!(total >= 0.0)) return where + ": total_us missing or negative";
    double phase_sum = 0.0;
    for (const PhaseSpec& spec : kPhaseSpecs) {
      const double value = number_or(ev.raw, spec.field, 0.0);
      if (!(value >= 0.0)) {
        return where + ": " + spec.field + " negative";
      }
      phase_sum += value;
    }
    // Phases are disjoint sub-intervals of the total; allow a hair of clock
    // rounding slack.
    if (phase_sum > total * 1.01 + 5.0) {
      return where + ": phase timings exceed total_us (" +
             format_us(phase_sum) + " > " + format_us(total) + ")";
    }
  }
  return "";
}

const RequestEvent* find_request(const std::vector<RequestEvent>& events,
                                 const std::string& selector) {
  bool numeric = !selector.empty();
  for (char c : selector) numeric = numeric && c >= '0' && c <= '9';
  if (numeric) {
    const std::uint64_t id = std::stoull(selector);
    for (const RequestEvent& ev : events) {
      if (ev.request_id == id) return &ev;
    }
    for (const RequestEvent& ev : events) {
      if (ev.index == id) return &ev;
    }
  }
  return nullptr;
}

void write_explain(std::ostream& out, const RequestEvent& event) {
  const JsonValue& doc = event.raw;
  out << "# request " << event.request_id << " (" << event.algorithm
      << ", stream index " << event.index << ")\n";
  if (!event.config_hash.empty()) {
    out << "run        config_hash=" << event.config_hash;
    if (event.has_seed) out << " seed=" << event.seed;
    out << "\n";
  }
  out << "arrival    source=" << format_exact(number_or(doc, "source", -1))
      << " destinations=" << format_exact(number_or(doc, "num_destinations", 0))
      << " bandwidth_mbps=" << format_exact(number_or(doc, "bandwidth_mbps", 0));
  if (doc.has("arrival_time")) {
    out << " arrival_time=" << format_exact(number_or(doc, "arrival_time", 0));
  }
  out << "\n";

  if (event.admitted) {
    out << "decision   ADMITTED cost=" << format_exact(number_or(doc, "cost", 0))
        << " servers=" << format_exact(number_or(doc, "servers", 0));
    if (doc.has("chosen_server")) {
      out << " chosen_server=" << format_exact(number_or(doc, "chosen_server", -1));
    }
    out << "\n";
    if (doc.has("cost_steiner")) {
      out << "cost       total=" << format_exact(number_or(doc, "cost_total", 0))
          << " = steiner " << format_exact(number_or(doc, "cost_steiner", 0))
          << " + server " << format_exact(number_or(doc, "cost_server", 0))
          << " + backhaul " << format_exact(number_or(doc, "cost_backhaul", 0))
          << "\n";
    }
  } else {
    out << "decision   REJECTED cause=" << event.reject_cause << " (\""
        << event.reject_reason << "\")\n";
  }

  if (!event.has_provenance) {
    out << "(no provenance recorded for this run; re-run nfvm-sim with "
           "--events to capture RequestRecord fields)\n";
    return;
  }

  // Only Online_CP and Online_SP run the shared-closure scan; every other
  // algorithm records fast_path=false and has no scan to name.
  if (doc.has("fast_path") && doc.at("fast_path").boolean) {
    out << "path       shared-closure scan\n";
  }
  out << "latency_us total=" << format_us(number_or(doc, "total_us", 0))
      << " decision=" << format_us(event.decision_us) << "\n";
  for (const PhaseSpec& spec : kPhaseSpecs) {
    if (!doc.has(spec.field)) continue;
    out << "  phase    " << spec.phase << "="
        << format_us(number_or(doc, spec.field, 0)) << "\n";
  }
  out << "scan       servers_total=" << format_exact(number_or(doc, "servers_total", 0))
      << " eligible=" << format_exact(number_or(doc, "servers_eligible", 0))
      << " evaluated=" << format_exact(number_or(doc, "servers_evaluated", 0))
      << " feasible=" << format_exact(number_or(doc, "candidates_feasible", 0))
      << "\n";
  out << "gates      skip_compute=" << format_exact(number_or(doc, "skip_compute", 0))
      << " skip_sigma_v=" << format_exact(number_or(doc, "skip_sigma_v", 0))
      << " disconnected=" << format_exact(number_or(doc, "fail_disconnected", 0))
      << " sigma_e=" << format_exact(number_or(doc, "fail_sigma_e", 0))
      << " delay=" << format_exact(number_or(doc, "fail_delay", 0))
      << " capacity=" << format_exact(number_or(doc, "fail_capacity", 0))
      << " cost_pruned=" << format_exact(number_or(doc, "cost_pruned", 0))
      << "\n";
  out << "spcache    hits=" << format_exact(number_or(doc, "spcache_hits", 0))
      << " misses=" << format_exact(number_or(doc, "spcache_misses", 0))
      << "\n";
}

void write_decisions(std::ostream& out,
                     const std::vector<RequestEvent>& events) {
  for (const RequestEvent& ev : events) {
    out << ev.algorithm << " #" << ev.index << " id=" << ev.request_id << " ";
    if (ev.admitted) {
      // Only fields every build emits: provenance extras (chosen_server,
      // ...) depend on NFVM_OBS and --provenance, and this projection is
      // the cross-build byte-identity witness. `explain` shows the rest.
      out << "admit cost=" << format_exact(number_or(ev.raw, "cost", 0))
          << " servers=" << format_exact(number_or(ev.raw, "servers", 0));
    } else {
      out << "reject cause=" << ev.reject_cause << " reason=\""
          << ev.reject_reason << "\"";
    }
    out << "\n";
  }
}

}  // namespace nfvm::obs::report
