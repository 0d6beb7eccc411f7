// Artifact loading, schema validation and baseline/candidate comparison -
// the library behind the `nfvm-report` CLI (tools/nfvm_report.cpp) and the
// CI perf-smoke gate. Understands the three artifact shapes the repo emits:
//   * metrics JSON        - Registry::write_json output
//   * bench JSON          - bench_common.h "nfvm-bench-v1" artifacts
//   * run directories     - nfvm-sim --run-dir bundles (manifest.json + the
//                           artifacts it lists)
// Artifacts are flattened into scalar key -> value maps so comparison is one
// generic pass: counters.<name>, gauges.<name>, histograms.<name>.{count,
// sum,p50,p90,p99}, rows[i].<column>, wall_time_s, run.peak_rss_kb, ...
#pragma once

#include <cstddef>
#include <iosfwd>
#include <map>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "obs/json.h"

namespace nfvm::obs::report {

enum class ArtifactKind { kMetrics, kBench, kManifest, kTimeseries, kRunDir, kSlo };

/// Human-readable kind tag ("metrics", "bench", ...).
std::string_view kind_name(ArtifactKind kind);

struct Artifact {
  ArtifactKind kind = ArtifactKind::kMetrics;
  /// The path the artifact was loaded from (file or run directory).
  std::string path;
  /// Bench name, manifest schema or file stem - display only.
  std::string name;
  /// Flattened numeric view used for comparison.
  std::map<std::string, double> scalars;
  /// The parsed document (for run dirs: the manifest).
  JsonValue doc;
};

/// Schema-checks one parsed document (auto-detects metrics / bench /
/// manifest by shape). Returns the empty string when valid, otherwise a
/// description of the first violation.
std::string validate_document(const JsonValue& doc);

/// Validates a file on disk. `.jsonl` files (event logs, timeseries) are
/// checked line-by-line for well-formed JSON objects; anything else must
/// parse as one document and pass validate_document. Returns "" or an error.
std::string validate_file(const std::string& path);

/// Loads a metrics JSON, a bench JSON, or a run directory (reads its
/// manifest.json and metrics.json). Throws std::runtime_error on I/O,
/// parse or schema failure.
Artifact load_artifact(const std::string& path);

struct Delta {
  std::string key;
  double baseline = 0.0;
  double candidate = 0.0;
  /// (candidate - baseline) / |baseline|; +-inf when baseline is 0 and the
  /// candidate moved.
  double rel = 0.0;
  /// Exceeded the threshold (in either direction) and was not ignored, or
  /// is an exact key that differs from the baseline at all.
  bool regression = false;
  /// Gated by CompareOptions::exact rather than the threshold.
  bool exact = false;
};

struct CompareOptions {
  /// Relative threshold: |rel| > threshold flags a regression.
  double threshold = 0.10;
  /// Keys containing any of these substrings are reported but never gate
  /// (timing columns on shared CI runners, for example).
  std::vector<std::string> ignore;
  /// Absolute floors: a CANDIDATE scalar whose key contains the substring
  /// and whose value is below the bound is a regression — independent of
  /// the baseline, the relative threshold, and the ignore list. This is
  /// how timing-derived ratio columns gate: their run-to-run noise forces
  /// them onto the ignore list (substring "time" matches "speedup_time" —
  /// the historical silent-regression hole), but a hard floor like
  /// `speedup_vs_legacy >= 0.95` still holds the line.
  std::vector<std::pair<std::string, double>> min_bounds;
  /// Exact keys: a key containing any of these substrings must equal the
  /// baseline bit for bit — independent of the threshold and the ignore
  /// list — and must not disappear from the candidate. For decision
  /// columns (admission counts, checksums), where a 30% threshold would let
  /// a changed decision through.
  std::vector<std::string> exact;
};

struct CompareReport {
  /// Every key present in both artifacts, sorted, with its delta.
  std::vector<Delta> deltas;
  std::vector<std::string> only_baseline;
  std::vector<std::string> only_candidate;
  /// Candidate scalars below a min_bounds floor (Delta::baseline holds the
  /// bound). Counted in num_regressions.
  std::vector<Delta> min_violations;
  /// Exact keys present in the baseline but missing from the candidate.
  /// Counted in num_regressions.
  std::vector<std::string> exact_missing;
  std::size_t num_regressions = 0;
};

CompareReport compare_artifacts(const Artifact& baseline,
                                const Artifact& candidate,
                                const CompareOptions& options);

/// One-artifact overview: counts, counters, histogram percentiles.
void write_summary(std::ostream& out, const Artifact& artifact);

/// An SLO outcome ("nfvm-slo-v1", written by nfvm-sim --slo) plus the run's
/// timeseries lines when they travelled in the same bundle - the source for
/// the per-window quantile table `nfvm-report slo` renders.
struct SloArtifact {
  std::string path;
  JsonValue doc;
  /// Parsed "nfvm-timeseries-v2" lines; empty for a bare slo.json.
  std::vector<JsonValue> timeseries;
};

/// Loads a slo.json file or a run directory (slo.json + timeseries.jsonl).
/// Throws std::runtime_error on I/O, parse or schema failure.
SloArtifact load_slo_artifact(const std::string& path);

/// Whether the outcome document's top-level verdict is a pass.
bool slo_pass(const JsonValue& doc);

/// Renders the objective table (windows evaluated/breached/skipped, error
/// budget, burn rate, worst/last), breach records, and - when timeseries
/// lines are present - the per-window quantile evolution.
void write_slo_text(std::ostream& out, const SloArtifact& artifact);

/// Markdown diff: header, regression table, changed-key table, totals.
void write_report_markdown(std::ostream& out, const Artifact& baseline,
                           const Artifact& candidate,
                           const CompareReport& report,
                           const CompareOptions& options);

/// Machine-readable diff ("nfvm-report-v1"): options echo, full delta list,
/// regression count.
void write_report_json(std::ostream& out, const Artifact& baseline,
                       const Artifact& candidate, const CompareReport& report,
                       const CompareOptions& options);

}  // namespace nfvm::obs::report
