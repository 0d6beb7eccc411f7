#include "obs/report.h"

#include <bit>
#include <cmath>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <limits>
#include <ostream>
#include <sstream>
#include <stdexcept>

#include "obs/metrics.h"
#include "obs/sampler.h"  // kTimeseriesSchema
#include "obs/slo.h"      // kSloSchema

namespace nfvm::obs::report {

namespace {

namespace fs = std::filesystem;

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw std::runtime_error("cannot open " + path);
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

bool is_kind(const JsonValue& doc, std::string_view schema) {
  return doc.is_object() && doc.has("schema") && doc.at("schema").is_string() &&
         doc.at("schema").string == schema;
}

bool looks_like_metrics(const JsonValue& doc) {
  return doc.is_object() && doc.has("counters") && doc.has("gauges") &&
         doc.has("histograms");
}

// --- Validation -------------------------------------------------------------

std::string validate_metrics(const JsonValue& doc) {
  for (const char* section : {"counters", "gauges", "histograms"}) {
    if (!doc.has(section) || !doc.at(section).is_object()) {
      return std::string("metrics: missing object \"") + section + "\"";
    }
  }
  for (const auto& [name, value] : doc.at("counters").object) {
    if (!value.is_number()) return "metrics: counter \"" + name + "\" is not a number";
  }
  for (const auto& [name, value] : doc.at("gauges").object) {
    if (!value.is_number()) return "metrics: gauge \"" + name + "\" is not a number";
  }
  for (const auto& [name, hist] : doc.at("histograms").object) {
    if (!hist.is_object()) return "metrics: histogram \"" + name + "\" is not an object";
    // "kind" is new in nfvm-metrics-v2; v1 documents omit it. Artifacts
    // written before the registry went HDR-only still carry "log2".
    if (hist.has("kind") &&
        (!hist.at("kind").is_string() ||
         (hist.at("kind").string != "log2" && hist.at("kind").string != "hdr"))) {
      return "metrics: histogram \"" + name + "\" has unknown \"kind\"";
    }
    for (const char* key : {"count", "sum"}) {
      if (!hist.has(key) || !hist.at(key).is_number()) {
        return "metrics: histogram \"" + name + "\" lacks numeric \"" + key + "\"";
      }
    }
    if (!hist.has("buckets") || !hist.at("buckets").is_array()) {
      return "metrics: histogram \"" + name + "\" lacks \"buckets\" array";
    }
    for (const JsonValue& bucket : hist.at("buckets").array) {
      if (!bucket.is_object() || !bucket.has("le") || !bucket.has("count") ||
          !bucket.at("count").is_number()) {
        return "metrics: histogram \"" + name + "\" has a malformed bucket";
      }
      const JsonValue& le = bucket.at("le");
      const bool inf_bound = le.is_string() && le.string == "+Inf";
      if (!le.is_number() && !inf_bound) {
        return "metrics: histogram \"" + name + "\" bucket bound is neither a number nor \"+Inf\"";
      }
    }
  }
  return "";
}

std::string validate_bench(const JsonValue& doc) {
  if (!doc.has("name") || !doc.at("name").is_string()) return "bench: missing \"name\"";
  if (!doc.has("meta") || !doc.at("meta").is_object()) return "bench: missing \"meta\" object";
  if (!doc.has("wall_time_s") || !doc.at("wall_time_s").is_number()) {
    return "bench: missing numeric \"wall_time_s\"";
  }
  if (!doc.has("columns") || !doc.at("columns").is_array()) {
    return "bench: missing \"columns\" array";
  }
  for (const JsonValue& column : doc.at("columns").array) {
    if (!column.is_string()) return "bench: non-string column name";
  }
  if (!doc.has("rows") || !doc.at("rows").is_array()) return "bench: missing \"rows\" array";
  for (const JsonValue& row : doc.at("rows").array) {
    if (!row.is_object()) return "bench: non-object row";
    for (const auto& [column, cell] : row.object) {
      if (!cell.is_number() && !cell.is_string()) {
        return "bench: row cell \"" + column + "\" is neither number nor string";
      }
    }
  }
  if (!doc.has("metrics")) return "bench: missing \"metrics\" snapshot";
  if (std::string err = validate_metrics(doc.at("metrics")); !err.empty()) return err;
  return "";
}

std::string validate_slo(const JsonValue& doc) {
  if (!doc.has("pass") || !doc.at("pass").is_bool()) return "slo: missing bool \"pass\"";
  if (!doc.has("objectives") || !doc.at("objectives").is_array()) {
    return "slo: missing \"objectives\" array";
  }
  for (const JsonValue& objective : doc.at("objectives").array) {
    if (!objective.is_object()) return "slo: non-object objective";
    if (!objective.has("slo") || !objective.at("slo").is_string()) {
      return "slo: objective lacks string \"slo\"";
    }
    if (!objective.has("pass") || !objective.at("pass").is_bool()) {
      return "slo: objective lacks bool \"pass\"";
    }
    for (const char* key : {"threshold", "window_ms", "budget",
                            "windows_evaluated", "windows_breached",
                            "windows_skipped", "breach_fraction", "burn_rate"}) {
      if (!objective.has(key) || !objective.at(key).is_number()) {
        return std::string("slo: objective lacks numeric \"") + key + "\"";
      }
    }
    if (!objective.has("breaches") || !objective.at("breaches").is_array()) {
      return "slo: objective lacks \"breaches\" array";
    }
    for (const JsonValue& breach : objective.at("breaches").array) {
      for (const char* key : {"window_start_ms", "window_end_ms", "observed"}) {
        if (!breach.is_object() || !breach.has(key) || !breach.at(key).is_number()) {
          return std::string("slo: breach lacks numeric \"") + key + "\"";
        }
      }
    }
  }
  return "";
}

/// Per-line shape check for tagged "nfvm-timeseries-v2" samples; v1 lines
/// (no schema tag) only need to be JSON objects.
std::string validate_timeseries_line(const JsonValue& doc) {
  if (!doc.has("t_ms") || !doc.at("t_ms").is_number()) {
    return "timeseries: missing numeric \"t_ms\"";
  }
  for (const char* section : {"counters", "gauges", "windows"}) {
    if (!doc.has(section) || !doc.at(section).is_object()) {
      return std::string("timeseries: missing object \"") + section + "\"";
    }
  }
  for (const auto& [name, window] : doc.at("windows").object) {
    if (!window.is_object() || !window.has("count") ||
        !window.at("count").is_number()) {
      return "timeseries: window \"" + name + "\" lacks numeric \"count\"";
    }
  }
  return "";
}

std::string validate_manifest(const JsonValue& doc) {
  if (!doc.has("argv") || !doc.at("argv").is_array()) return "manifest: missing \"argv\" array";
  for (const char* key : {"start_time", "end_time"}) {
    if (!doc.has(key) || !doc.at(key).is_string()) {
      return std::string("manifest: missing string \"") + key + "\"";
    }
  }
  for (const char* key : {"wall_time_s", "peak_rss_kb"}) {
    if (!doc.has(key) || !doc.at(key).is_number()) {
      return std::string("manifest: missing numeric \"") + key + "\"";
    }
  }
  if (!doc.has("config") || !doc.at("config").is_object()) {
    return "manifest: missing \"config\" object";
  }
  if (!doc.has("build") || !doc.at("build").is_object()) {
    return "manifest: missing \"build\" object";
  }
  const JsonValue& build = doc.at("build");
  for (const char* key : {"git_sha", "build_type", "compiler", "cxx_flags"}) {
    if (!build.has(key) || !build.at(key).is_string()) {
      return std::string("manifest: build lacks string \"") + key + "\"";
    }
  }
  if (!build.has("obs_enabled") || !build.at("obs_enabled").is_bool()) {
    return "manifest: build lacks bool \"obs_enabled\"";
  }
  if (!doc.has("artifacts") || !doc.at("artifacts").is_array()) {
    return "manifest: missing \"artifacts\" array";
  }
  return "";
}

// --- Flattening -------------------------------------------------------------

/// Histogram buckets as exported ("le" numeric or the string "+Inf").
std::vector<HistogramBucket> parse_buckets(const JsonValue& hist) {
  std::vector<HistogramBucket> buckets;
  for (const JsonValue& b : hist.at("buckets").array) {
    const JsonValue& le = b.at("le");
    buckets.push_back(
        {le.is_number() ? le.number : std::numeric_limits<double>::infinity(),
         static_cast<std::uint64_t>(b.at("count").number)});
  }
  return buckets;
}

void flatten_metrics(const JsonValue& doc, const std::string& prefix,
                     std::map<std::string, double>& scalars) {
  for (const auto& [name, value] : doc.at("counters").object) {
    scalars[prefix + "counters." + name] = value.number;
  }
  for (const auto& [name, value] : doc.at("gauges").object) {
    scalars[prefix + "gauges." + name] = value.number;
  }
  for (const auto& [name, hist] : doc.at("histograms").object) {
    const std::string base = prefix + "histograms." + name;
    scalars[base + ".count"] = hist.at("count").number;
    if (hist.at("count").number <= 0) continue;
    scalars[base + ".sum"] = hist.at("sum").number;
    // Percentiles: take the exported ones, or derive them from the buckets
    // for artifacts written before p50/p90/p99 were added.
    const double min = hist.has("min") ? hist.at("min").number
                                       : std::numeric_limits<double>::infinity();
    const double max = hist.has("max") ? hist.at("max").number
                                       : -std::numeric_limits<double>::infinity();
    const std::vector<HistogramBucket> buckets = parse_buckets(hist);
    for (const auto& [key, q] :
         {std::pair<const char*, double>{"p50", 0.50}, {"p90", 0.90}, {"p99", 0.99}}) {
      const double value = hist.has(key) ? hist.at(key).number
                                         : estimate_quantile(buckets, q, min, max);
      if (std::isfinite(value)) scalars[base + "." + key] = value;
    }
  }
}

void flatten_bench(const JsonValue& doc, std::map<std::string, double>& scalars) {
  scalars["wall_time_s"] = doc.at("wall_time_s").number;
  const auto& rows = doc.at("rows").array;
  for (std::size_t i = 0; i < rows.size(); ++i) {
    for (const auto& [column, cell] : rows[i].object) {
      if (cell.is_number()) {
        scalars["rows[" + std::to_string(i) + "]." + column] = cell.number;
      }
    }
  }
  flatten_metrics(doc.at("metrics"), "metrics.", scalars);
}

bool key_matches(const std::string& key, const std::vector<std::string>& patterns) {
  for (const std::string& pattern : patterns) {
    if (!pattern.empty() && key.find(pattern) != std::string::npos) return true;
  }
  return false;
}

bool key_ignored(const std::string& key, const CompareOptions& options) {
  return key_matches(key, options.ignore);
}

std::string format_value(double value) {
  std::ostringstream out;
  if (value == std::floor(value) && std::abs(value) < 1e15) {
    out << static_cast<long long>(value);
  } else {
    out.precision(6);
    out << value;
  }
  return out.str();
}

std::string format_rel(double rel) {
  if (!std::isfinite(rel)) return rel > 0 ? "+inf%" : "-inf%";
  std::ostringstream out;
  out.precision(2);
  out << std::fixed << (rel >= 0 ? "+" : "") << rel * 100.0 << "%";
  return out.str();
}

}  // namespace

std::string_view kind_name(ArtifactKind kind) {
  switch (kind) {
    case ArtifactKind::kMetrics: return "metrics";
    case ArtifactKind::kBench: return "bench";
    case ArtifactKind::kManifest: return "manifest";
    case ArtifactKind::kTimeseries: return "timeseries";
    case ArtifactKind::kRunDir: return "run-dir";
    case ArtifactKind::kSlo: return "slo";
  }
  return "unknown";
}

std::string validate_document(const JsonValue& doc) {
  if (!doc.is_object()) return "artifact is not a JSON object";
  if (is_kind(doc, "nfvm-bench-v1")) return validate_bench(doc);
  if (is_kind(doc, "nfvm-run-manifest-v1")) return validate_manifest(doc);
  if (is_kind(doc, "nfvm-slo-v1")) return validate_slo(doc);
  // Metrics are matched by shape so untagged v1 documents stay readable; a
  // tagged document must carry the schema string this reader knows.
  if (looks_like_metrics(doc)) {
    if (doc.has("schema") && !is_kind(doc, kMetricsSchema)) {
      return "metrics: unknown schema (expected \"" + std::string(kMetricsSchema) +
             "\")";
    }
    return validate_metrics(doc);
  }
  return "unrecognized artifact (expected metrics, nfvm-bench-v1, "
         "nfvm-run-manifest-v1 or nfvm-slo-v1)";
}

std::string validate_file(const std::string& path) {
  std::string text;
  try {
    text = read_file(path);
  } catch (const std::exception& e) {
    return e.what();
  }
  if (path.size() >= 6 && path.compare(path.size() - 6, 6, ".jsonl") == 0) {
    // Cursor-driven walk so a truncated / partially-written stream (writer
    // killed mid-record) reports a structured error with the absolute byte
    // offset instead of a line-local one.
    JsonlCursor cursor(text);
    JsonlCursor::Record record;
    while (cursor.next(record)) {
      try {
        const JsonValue doc = parse_jsonl_record(record);
        if (is_kind(doc, kTimeseriesSchema)) {
          if (std::string err = validate_timeseries_line(doc); !err.empty()) {
            return path + ":" + std::to_string(record.number) + ": " + err;
          }
        }
      } catch (const std::exception& e) {
        return path + ": " + e.what();
      }
    }
    return "";
  }
  try {
    const JsonValue doc = parse_json(text);
    std::string err = validate_document(doc);
    if (!err.empty()) return path + ": " + err;
  } catch (const std::exception& e) {
    return path + ": " + e.what();
  }
  return "";
}

Artifact load_artifact(const std::string& path) {
  Artifact artifact;
  artifact.path = path;

  if (fs::is_directory(fs::path(path))) {
    artifact.kind = ArtifactKind::kRunDir;
    const std::string manifest_path = (fs::path(path) / "manifest.json").string();
    artifact.doc = parse_json(read_file(manifest_path));
    if (std::string err = validate_document(artifact.doc); !err.empty()) {
      throw std::runtime_error(manifest_path + ": " + err);
    }
    artifact.name = fs::path(path).filename().string();
    artifact.scalars["run.wall_time_s"] = artifact.doc.at("wall_time_s").number;
    artifact.scalars["run.peak_rss_kb"] = artifact.doc.at("peak_rss_kb").number;
    const std::string metrics_path = (fs::path(path) / "metrics.json").string();
    if (fs::exists(fs::path(metrics_path))) {
      const JsonValue metrics = parse_json(read_file(metrics_path));
      if (std::string err = validate_document(metrics); !err.empty()) {
        throw std::runtime_error(metrics_path + ": " + err);
      }
      flatten_metrics(metrics, "", artifact.scalars);
    }
    return artifact;
  }

  artifact.doc = parse_json(read_file(path));
  if (std::string err = validate_document(artifact.doc); !err.empty()) {
    throw std::runtime_error(path + ": " + err);
  }
  if (is_kind(artifact.doc, "nfvm-bench-v1")) {
    artifact.kind = ArtifactKind::kBench;
    artifact.name = artifact.doc.at("name").string;
    flatten_bench(artifact.doc, artifact.scalars);
  } else if (is_kind(artifact.doc, "nfvm-run-manifest-v1")) {
    artifact.kind = ArtifactKind::kManifest;
    artifact.name = "manifest";
    artifact.scalars["run.wall_time_s"] = artifact.doc.at("wall_time_s").number;
    artifact.scalars["run.peak_rss_kb"] = artifact.doc.at("peak_rss_kb").number;
  } else if (is_kind(artifact.doc, kSloSchema)) {
    artifact.kind = ArtifactKind::kSlo;
    artifact.name = "slo";
    artifact.scalars["slo.pass"] = artifact.doc.at("pass").boolean ? 1.0 : 0.0;
    const auto& objectives = artifact.doc.at("objectives").array;
    for (std::size_t i = 0; i < objectives.size(); ++i) {
      const std::string base = "slo[" + std::to_string(i) + "].";
      for (const char* key : {"windows_evaluated", "windows_breached",
                              "windows_skipped", "breach_fraction", "burn_rate"}) {
        artifact.scalars[base + key] = objectives[i].at(key).number;
      }
    }
  } else {
    artifact.kind = ArtifactKind::kMetrics;
    artifact.name = fs::path(path).stem().string();
    flatten_metrics(artifact.doc, "", artifact.scalars);
  }
  return artifact;
}

CompareReport compare_artifacts(const Artifact& baseline,
                                const Artifact& candidate,
                                const CompareOptions& options) {
  CompareReport report;
  auto base_it = baseline.scalars.begin();
  auto cand_it = candidate.scalars.begin();
  while (base_it != baseline.scalars.end() || cand_it != candidate.scalars.end()) {
    if (cand_it == candidate.scalars.end() ||
        (base_it != baseline.scalars.end() && base_it->first < cand_it->first)) {
      report.only_baseline.push_back(base_it->first);
      if (key_matches(base_it->first, options.exact)) {
        report.exact_missing.push_back(base_it->first);
        ++report.num_regressions;
      }
      ++base_it;
      continue;
    }
    if (base_it == baseline.scalars.end() || cand_it->first < base_it->first) {
      report.only_candidate.push_back(cand_it->first);
      ++cand_it;
      continue;
    }
    Delta delta;
    delta.key = base_it->first;
    delta.baseline = base_it->second;
    delta.candidate = cand_it->second;
    if (delta.baseline == delta.candidate) {
      delta.rel = 0.0;
    } else if (delta.baseline == 0.0) {
      delta.rel = delta.candidate > 0 ? std::numeric_limits<double>::infinity()
                                      : -std::numeric_limits<double>::infinity();
    } else {
      delta.rel = (delta.candidate - delta.baseline) / std::abs(delta.baseline);
    }
    delta.exact = key_matches(delta.key, options.exact);
    delta.regression =
        delta.exact
            ? std::bit_cast<std::uint64_t>(delta.baseline) !=
                  std::bit_cast<std::uint64_t>(delta.candidate)
            : std::abs(delta.rel) > options.threshold &&
                  !key_ignored(delta.key, options);
    if (delta.regression) ++report.num_regressions;
    report.deltas.push_back(std::move(delta));
    ++base_it;
    ++cand_it;
  }
  // Absolute floors run over the candidate alone: a key matching a
  // min-bound substring must sit at or above the bound, ignore list or not.
  for (const auto& [key, value] : candidate.scalars) {
    for (const auto& [pattern, bound] : options.min_bounds) {
      if (pattern.empty() || key.find(pattern) == std::string::npos) continue;
      if (value < bound) {
        Delta violation;
        violation.key = key;
        violation.baseline = bound;  // the floor, not a baseline value
        violation.candidate = value;
        violation.rel = bound == 0.0 ? 0.0 : (value - bound) / std::abs(bound);
        violation.regression = true;
        report.min_violations.push_back(std::move(violation));
        ++report.num_regressions;
      }
      break;  // first matching bound wins
    }
  }
  return report;
}

void write_summary(std::ostream& out, const Artifact& artifact) {
  out << "# artifact: " << artifact.path << " (" << kind_name(artifact.kind)
      << (artifact.name.empty() ? "" : ", " + artifact.name) << ")\n";
  if (artifact.kind == ArtifactKind::kRunDir || artifact.kind == ArtifactKind::kManifest) {
    const JsonValue& doc = artifact.doc;
    out << "# start " << doc.at("start_time").string << ", wall "
        << format_value(doc.at("wall_time_s").number) << " s, peak RSS "
        << format_value(doc.at("peak_rss_kb").number) << " kB\n";
    const JsonValue& build = doc.at("build");
    out << "# build " << build.at("git_sha").string << " ("
        << build.at("build_type").string << ", " << build.at("compiler").string
        << ", obs " << (build.at("obs_enabled").boolean ? "on" : "off") << ")\n";
  }
  if (artifact.kind == ArtifactKind::kBench) {
    for (const auto& [key, value] : artifact.doc.at("meta").object) {
      out << "# meta " << key << ": "
          << (value.is_string() ? value.string : format_value(value.number)) << "\n";
    }
  }
  // Histograms grouped on one line each - sample count next to the
  // quantiles, so "p99 = 12" cannot be mistaken for a healthy signal when
  // it came from three samples. Driven by the flattened scalars, so it
  // covers bare metrics files, bench artifacts and run-dir bundles alike.
  std::map<std::string, std::map<std::string, double>> histograms;
  for (const auto& [key, value] : artifact.scalars) {
    const std::size_t at = key.find("histograms.");
    if (at != 0 && (at == std::string::npos ||
                    key.compare(0, at, "metrics.") != 0)) {
      continue;
    }
    const std::size_t dot = key.rfind('.');
    const std::string stat = key.substr(dot + 1);
    if (stat != "count" && stat != "sum" && stat != "p50" && stat != "p90" &&
        stat != "p99") {
      continue;
    }
    histograms[key.substr(at + std::string_view("histograms.").size(),
                          dot - at - std::string_view("histograms.").size())]
              [stat] = value;
  }
  if (!histograms.empty()) {
    out << "# histograms (count | p50 / p90 / p99)\n";
    for (const auto& [name, stats] : histograms) {
      const auto count_it = stats.find("count");
      const auto count = static_cast<std::uint64_t>(
          count_it == stats.end() ? 0.0 : count_it->second);
      out << "#   " << name << ": " << count << " samples";
      if (count > 0) {
        out << " | ";
        const char* sep = "";
        for (const char* key : {"p50", "p90", "p99"}) {
          const auto it = stats.find(key);
          if (it == stats.end()) out << sep << "?";
          else out << sep << format_value(it->second);
          sep = " / ";
        }
      }
      out << "\n";
    }
  }
  out << artifact.scalars.size() << " comparable values\n";
  for (const auto& [key, value] : artifact.scalars) {
    out << "  " << key << " = " << format_value(value) << "\n";
  }
}

SloArtifact load_slo_artifact(const std::string& path) {
  SloArtifact artifact;
  artifact.path = path;
  std::string slo_path = path;
  std::string timeseries_path;
  if (fs::is_directory(fs::path(path))) {
    slo_path = (fs::path(path) / "slo.json").string();
    timeseries_path = (fs::path(path) / "timeseries.jsonl").string();
  }
  artifact.doc = parse_json(read_file(slo_path));
  if (!is_kind(artifact.doc, kSloSchema)) {
    throw std::runtime_error(slo_path + ": not an \"" + std::string(kSloSchema) +
                             "\" document");
  }
  if (std::string err = validate_slo(artifact.doc); !err.empty()) {
    throw std::runtime_error(slo_path + ": " + err);
  }
  if (!timeseries_path.empty() && fs::exists(fs::path(timeseries_path))) {
    const std::string text = read_file(timeseries_path);
    JsonlCursor cursor(text);
    JsonlCursor::Record record;
    while (cursor.next(record)) {
      JsonValue doc;
      try {
        doc = parse_jsonl_record(record);
      } catch (const std::exception& e) {
        throw std::runtime_error(timeseries_path + ": " + e.what());
      }
      if (is_kind(doc, kTimeseriesSchema)) {
        artifact.timeseries.push_back(std::move(doc));
      }
    }
  }
  return artifact;
}

bool slo_pass(const JsonValue& doc) { return doc.at("pass").boolean; }

void write_slo_text(std::ostream& out, const SloArtifact& artifact) {
  const JsonValue& doc = artifact.doc;
  out << "# slo: " << artifact.path << " -> "
      << (slo_pass(doc) ? "PASS" : "FAIL") << "\n";
  for (const JsonValue& o : doc.at("objectives").array) {
    const auto evaluated = static_cast<std::uint64_t>(o.at("windows_evaluated").number);
    const auto breached = static_cast<std::uint64_t>(o.at("windows_breached").number);
    const auto skipped = static_cast<std::uint64_t>(o.at("windows_skipped").number);
    out << (o.at("pass").boolean ? "ok    " : "BREACH") << "  " << o.at("slo").string
        << "\n";
    out << "        windows " << evaluated << " evaluated, " << breached
        << " breached, " << skipped << " skipped";
    const double budget = o.at("budget").number;
    out << " | budget " << format_value(budget * 100.0) << "% | burn "
        << format_value(o.at("burn_rate").number);
    if (o.has("worst")) out << " | worst " << format_value(o.at("worst").number);
    if (o.has("last")) out << " | last " << format_value(o.at("last").number);
    out << "\n";
    for (const JsonValue& b : o.at("breaches").array) {
      out << "        breach [" << format_value(b.at("window_start_ms").number)
          << " ms, " << format_value(b.at("window_end_ms").number)
          << " ms]: observed " << format_value(b.at("observed").number) << "\n";
    }
  }
  if (artifact.timeseries.empty()) return;

  // Per-window quantile evolution, one row per sample per instrument.
  out << "# windows (t_ms: instrument count | p50 / p90 / p99)\n";
  for (const JsonValue& sample : artifact.timeseries) {
    for (const auto& [name, window] : sample.at("windows").object) {
      const auto count = static_cast<std::uint64_t>(window.at("count").number);
      out << "  " << format_value(sample.at("t_ms").number) << ": " << name
          << " " << count;
      if (count > 0) {
        out << " | ";
        const char* sep = "";
        for (const char* key : {"p50", "p90", "p99"}) {
          out << sep << (window.has(key) ? format_value(window.at(key).number) : "?");
          sep = " / ";
        }
      }
      out << "\n";
    }
  }
}

void write_report_markdown(std::ostream& out, const Artifact& baseline,
                           const Artifact& candidate,
                           const CompareReport& report,
                           const CompareOptions& options) {
  out << "# nfvm-report: " << baseline.path << " vs " << candidate.path << "\n\n";
  out << "- baseline: `" << baseline.path << "` (" << kind_name(baseline.kind) << ")\n";
  out << "- candidate: `" << candidate.path << "` (" << kind_name(candidate.kind) << ")\n";
  out << "- threshold: ±" << format_value(options.threshold * 100.0) << "%";
  if (!options.ignore.empty()) {
    out << "; ignoring keys containing:";
    for (const std::string& pattern : options.ignore) out << " `" << pattern << "`";
  }
  if (!options.exact.empty()) {
    out << "\n- exact:";
    for (const std::string& pattern : options.exact) out << " `" << pattern << "`";
  }
  if (!options.min_bounds.empty()) {
    out << "\n- floors:";
    for (const auto& [pattern, bound] : options.min_bounds) {
      out << " `" << pattern << "` >= " << format_value(bound);
    }
  }
  out << "\n- regressions: **" << report.num_regressions << "**\n\n";

  if (!report.min_violations.empty()) {
    out << "| key | floor | candidate | status |\n";
    out << "|---|---:|---:|---|\n";
    for (const Delta& violation : report.min_violations) {
      out << "| `" << violation.key << "` | " << format_value(violation.baseline)
          << " | " << format_value(violation.candidate)
          << " | BELOW FLOOR |\n";
    }
    out << "\n";
  }

  std::size_t changed = 0;
  for (const Delta& delta : report.deltas) {
    if (delta.rel != 0.0) ++changed;
  }
  out << "| key | baseline | candidate | delta | status |\n";
  out << "|---|---:|---:|---:|---|\n";
  for (const Delta& delta : report.deltas) {
    if (delta.rel == 0.0) continue;
    out << "| `" << delta.key << "` | " << format_value(delta.baseline) << " | "
        << format_value(delta.candidate) << " | " << format_rel(delta.rel) << " | "
        << (delta.regression
                ? (delta.exact ? "EXACT MISMATCH" : "REGRESSION")
                : (key_ignored(delta.key, options) && std::abs(delta.rel) > options.threshold
                       ? "ignored"
                       : "ok"))
        << " |\n";
  }
  out << "\n" << report.deltas.size() - changed << " keys unchanged, " << changed
      << " changed, " << report.only_baseline.size() << " only in baseline, "
      << report.only_candidate.size() << " only in candidate.\n";
  if (!report.only_candidate.empty()) {
    out << "\nNew keys in candidate:";
    for (const std::string& key : report.only_candidate) out << " `" << key << "`";
    out << "\n";
  }
  if (!report.only_baseline.empty()) {
    out << "\nKeys missing from candidate:";
    for (const std::string& key : report.only_baseline) out << " `" << key << "`";
    out << "\n";
  }
  if (!report.exact_missing.empty()) {
    out << "\nEXACT keys missing from candidate:";
    for (const std::string& key : report.exact_missing) out << " `" << key << "`";
    out << "\n";
  }
}

void write_report_json(std::ostream& out, const Artifact& baseline,
                       const Artifact& candidate, const CompareReport& report,
                       const CompareOptions& options) {
  JsonWriter w(out);
  w.begin_object();
  w.key("schema").value("nfvm-report-v1");
  w.key("baseline").value(baseline.path);
  w.key("candidate").value(candidate.path);
  w.key("threshold").value(options.threshold);
  w.key("ignore").begin_array();
  for (const std::string& pattern : options.ignore) w.value(pattern);
  w.end_array();
  w.key("min_bounds").begin_array();
  for (const auto& [pattern, bound] : options.min_bounds) {
    w.begin_object();
    w.key("key_contains").value(pattern);
    w.key("min").value(bound);
    w.end_object();
  }
  w.end_array();
  w.key("exact").begin_array();
  for (const std::string& pattern : options.exact) w.value(pattern);
  w.end_array();
  w.key("exact_missing").begin_array();
  for (const std::string& key : report.exact_missing) w.value(key);
  w.end_array();
  w.key("min_violations").begin_array();
  for (const Delta& violation : report.min_violations) {
    w.begin_object();
    w.key("key").value(violation.key);
    w.key("min").value(violation.baseline);
    w.key("candidate").value(violation.candidate);
    w.end_object();
  }
  w.end_array();
  w.key("num_regressions").value(static_cast<std::uint64_t>(report.num_regressions));
  w.key("deltas").begin_array();
  for (const Delta& delta : report.deltas) {
    w.begin_object();
    w.key("key").value(delta.key);
    w.key("baseline").value(delta.baseline);
    w.key("candidate").value(delta.candidate);
    if (std::isfinite(delta.rel)) {
      w.key("rel").value(delta.rel);
    } else {
      w.key("rel").value(delta.rel > 0 ? "+inf" : "-inf");
    }
    w.key("regression").value(delta.regression);
    w.end_object();
  }
  w.end_array();
  w.key("only_baseline").begin_array();
  for (const std::string& key : report.only_baseline) w.value(key);
  w.end_array();
  w.key("only_candidate").begin_array();
  for (const std::string& key : report.only_candidate) w.value(key);
  w.end_array();
  w.end_object();
  out << "\n";
}

}  // namespace nfvm::obs::report
