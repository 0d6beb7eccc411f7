// nfvm-report - inspect, validate and diff observability artifacts.
//
//   nfvm-report summary ARTIFACT
//       Print a human-readable overview of one artifact (metrics JSON,
//       BENCH_*.json, manifest.json or a --run-dir bundle directory).
//   nfvm-report diff BASELINE CANDIDATE [options]
//       Compare two artifacts key-by-key and print the delta table.
//   nfvm-report --check BASELINE CANDIDATE [options]
//       Like diff, but exit 1 when any delta exceeds the threshold - the
//       CI perf-regression gate.
//   nfvm-report --validate FILE...
//       Schema-validate artifacts (JSON documents or .jsonl logs); exit 1
//       on the first invalid file.
//   nfvm-report latency ARTIFACT [--md|--json] [--check]
//       Per-phase admission-latency table (p50/p90/p99, HDR, <= 1% relative
//       error) aggregated from an events.jsonl or a run-dir bundle. --check
//       additionally verifies event-stream invariants and exits 1 on a
//       violation - the CI observability gate.
//   nfvm-report explain ARTIFACT REQUEST
//       Print one request's full decision provenance (phase timings, scan
//       counts, cost breakdown, reject context). REQUEST is a request id,
//       falling back to the stream index.
//   nfvm-report decisions ARTIFACT
//       Canonical timing-free projection of the decision stream, one line
//       per request - byte-identical across thread counts.
//   nfvm-report slo ARTIFACT [--check]
//       Render an SLO outcome ("nfvm-slo-v1" slo.json, or a run-dir bundle
//       containing one): per-objective windows, error-budget burn, breach
//       records, and - when the bundle carries a timeseries - the
//       per-window latency quantiles. --check exits 1 on a failed
//       objective - the CI soak gate.
//
// Options (diff / --check):
//   --threshold X     relative-change gate, default 0.10 (= 10%)
//   --ignore SUBSTR   keys containing SUBSTR never gate (repeatable);
//                     use for timing columns on noisy runners
//   --min SUBSTR=X    candidate keys containing SUBSTR must be >= X
//                     (repeatable); an absolute floor that gates even when
//                     the key is on the ignore list
//   --exact SUBSTR    keys containing SUBSTR must equal the baseline bit
//                     for bit (repeatable); for decision columns such as
//                     admission counts and checksums
//   --md FILE         also write a markdown report ("-" for stdout)
//   --json FILE       also write an "nfvm-report-v1" JSON report ("-")
//
// Exit codes: 0 ok, 1 regression / invalid artifact, 2 usage or load error.
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <string>
#include <vector>

#include "cli_setup.h"
#include "obs/report.h"
#include "obs/request_events.h"

namespace {

using nfvm::obs::report::Artifact;
using nfvm::obs::report::CompareOptions;
using nfvm::obs::report::CompareReport;

using nfvm::cli::usage;

constexpr const char* kUsage =
    "usage: nfvm-report summary ARTIFACT\n"
    "       nfvm-report diff BASELINE CANDIDATE [--threshold X]\n"
    "                   [--ignore SUBSTR]... [--min SUBSTR=VALUE]...\n"
    "                   [--exact SUBSTR]...\n"
    "                   [--md FILE|-] [--json FILE|-]\n"
    "       nfvm-report --check BASELINE CANDIDATE [diff options]\n"
    "       nfvm-report --validate FILE...\n"
    "       nfvm-report latency EVENTS [--md|--json] [--check]\n"
    "       nfvm-report explain EVENTS REQUEST\n"
    "       nfvm-report decisions EVENTS\n"
    "       nfvm-report slo ARTIFACT [--check]\n"
    "an ARTIFACT is a metrics JSON, a BENCH_*.json, a manifest.json or\n"
    "an nfvm-sim --run-dir directory; EVENTS is an events.jsonl or a\n"
    "run-dir bundle (see docs/observability.md)\n";

/// `load(path)`; a load error is reported with the path and exits 2.
template <typename Load>
auto load_or_die(Load load, const std::string& path) {
  try {
    return load(path);
  } catch (const std::exception& e) {
    std::cerr << "error: " << path << ": " << e.what() << "\n";
    std::exit(2);
  }
}

/// Writes one of the optional report formats to `path` ("-" = stdout).
template <typename WriteFn>
void emit(const std::string& path, const WriteFn& write) {
  if (path.empty()) return;
  if (path == "-") {
    write(std::cout);
    return;
  }
  std::ofstream out(path);
  if (!out) {
    std::cerr << "error: cannot open " << path << " for writing\n";
    std::exit(2);
  }
  write(out);
}

int run_validate(const std::vector<std::string>& files) {
  if (files.empty()) usage("--validate needs at least one file");
  int bad = 0;
  for (const std::string& file : files) {
    const std::string error = nfvm::obs::report::validate_file(file);
    if (error.empty()) {
      std::cout << "ok      " << file << "\n";
    } else {
      std::cout << "INVALID " << file << ": " << error << "\n";
      ++bad;
    }
  }
  return bad == 0 ? 0 : 1;
}

int run_diff(const std::string& baseline_path, const std::string& candidate_path,
             const CompareOptions& options, const std::string& md_path,
             const std::string& json_path, bool check) {
  const Artifact baseline = load_or_die(nfvm::obs::report::load_artifact, baseline_path);
  const Artifact candidate = load_or_die(nfvm::obs::report::load_artifact, candidate_path);
  const CompareReport report =
      nfvm::obs::report::compare_artifacts(baseline, candidate, options);

  nfvm::obs::report::write_report_markdown(std::cout, baseline, candidate,
                                           report, options);
  emit(md_path, [&](std::ostream& out) {
    nfvm::obs::report::write_report_markdown(out, baseline, candidate, report,
                                             options);
  });
  emit(json_path, [&](std::ostream& out) {
    nfvm::obs::report::write_report_json(out, baseline, candidate, report,
                                         options);
  });

  if (report.num_regressions > 0) {
    std::cerr << "nfvm-report: " << report.num_regressions
              << " regression(s) above threshold " << options.threshold;
    if (!report.min_violations.empty()) {
      std::cerr << " (" << report.min_violations.size() << " below a --min floor)";
    }
    std::size_t exact = report.exact_missing.size();
    for (const auto& delta : report.deltas) exact += delta.exact && delta.regression;
    if (exact > 0) std::cerr << " (" << exact << " --exact mismatch(es))";
    std::cerr << "\n";
    if (check) return 1;
  }
  return 0;
}

int run_latency(const std::vector<std::string>& args) {
  std::string path;
  bool md = false;
  bool json = false;
  bool check = false;
  for (const std::string& arg : args) {
    if (arg == "--md") md = true;
    else if (arg == "--json") json = true;
    else if (arg == "--check") check = true;
    else if (!arg.empty() && arg[0] == '-') usage("unknown option \"" + arg + "\"");
    else if (path.empty()) path = arg;
    else usage("latency takes exactly one events artifact");
  }
  if (path.empty()) usage("latency needs an events artifact");
  if (md && json) usage("latency: pick one of --md / --json");

  const auto events = load_or_die(nfvm::obs::report::load_request_events, path);
  if (check) {
    const std::string error = nfvm::obs::report::check_events(events);
    if (!error.empty()) {
      std::cerr << "nfvm-report latency --check: " << path << ": " << error
                << "\n";
      return 1;
    }
  }
  const auto report = nfvm::obs::report::aggregate_latency(events);
  if (json) nfvm::obs::report::write_latency_json(std::cout, report);
  else if (md) nfvm::obs::report::write_latency_markdown(std::cout, report);
  else nfvm::obs::report::write_latency_text(std::cout, report);
  return 0;
}

int run_slo(const std::vector<std::string>& args) {
  std::string path;
  bool check = false;
  for (const std::string& arg : args) {
    if (arg == "--check") check = true;
    else if (!arg.empty() && arg[0] == '-') usage("unknown option \"" + arg + "\"");
    else if (path.empty()) path = arg;
    else usage("slo takes exactly one artifact");
  }
  if (path.empty()) usage("slo needs a slo.json or run-dir artifact");

  nfvm::obs::report::SloArtifact artifact;
  try {
    artifact = nfvm::obs::report::load_slo_artifact(path);
  } catch (const std::exception& e) {
    std::cerr << "error: " << e.what() << "\n";
    return 2;
  }
  nfvm::obs::report::write_slo_text(std::cout, artifact);
  if (!nfvm::obs::report::slo_pass(artifact.doc)) {
    std::cerr << "nfvm-report slo: objectives failed in " << path << "\n";
    if (check) return 1;
  }
  return 0;
}

int run_explain(const std::string& path, const std::string& selector) {
  const auto events = load_or_die(nfvm::obs::report::load_request_events, path);
  const nfvm::obs::report::RequestEvent* event =
      nfvm::obs::report::find_request(events, selector);
  if (event == nullptr) {
    std::cerr << "error: no request \"" << selector << "\" in " << path
              << " (" << events.size() << " request events)\n";
    return 2;
  }
  nfvm::obs::report::write_explain(std::cout, *event);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  nfvm::cli::Args cursor(argc, argv, kUsage);
  if (!cursor.next()) usage("no command");
  const std::vector<std::string> args(argv + 1, argv + argc);
  std::string command = args[0];
  bool check = false;
  if (command == "--check") {
    command = "diff";
    check = true;
  }

  if (command == "--validate") {
    return run_validate({args.begin() + 1, args.end()});
  }

  if (command == "summary") {
    if (args.size() != 2) usage("summary takes exactly one artifact");
    const Artifact artifact = load_or_die(nfvm::obs::report::load_artifact, args[1]);
    nfvm::obs::report::write_summary(std::cout, artifact);
    return 0;
  }

  if (command == "latency") {
    return run_latency({args.begin() + 1, args.end()});
  }

  if (command == "explain") {
    if (args.size() != 3) usage("explain takes an events artifact and a request");
    return run_explain(args[1], args[2]);
  }

  if (command == "slo") {
    return run_slo({args.begin() + 1, args.end()});
  }

  if (command == "decisions") {
    if (args.size() != 2) usage("decisions takes exactly one events artifact");
    const auto events = load_or_die(nfvm::obs::report::load_request_events, args[1]);
    nfvm::obs::report::write_decisions(std::cout, events);
    return 0;
  }

  if (command != "diff") usage("unknown command \"" + command + "\"");

  CompareOptions options;
  std::string md_path;
  std::string json_path;
  std::vector<std::string> positional;
  while (cursor.next()) {
    const std::string& arg = cursor.flag();
    if (arg == "--threshold") {
      options.threshold = cursor.real();
      if (options.threshold < 0.0) usage("--threshold must be >= 0");
    } else if (arg == "--ignore") {
      options.ignore.push_back(cursor.value());
    } else if (arg == "--min") {
      const std::string spec = cursor.value();
      const std::size_t eq = spec.find('=');
      if (eq == std::string::npos || eq == 0) usage("--min needs SUBSTR=VALUE");
      const auto bound = nfvm::cli::parse_real(std::string_view(spec).substr(eq + 1));
      if (!bound) usage("--min needs a finite number VALUE after '='");
      options.min_bounds.emplace_back(spec.substr(0, eq), *bound);
    } else if (arg == "--exact") {
      options.exact.push_back(cursor.value());
    } else if (arg == "--md") {
      md_path = cursor.value();
    } else if (arg == "--json") {
      json_path = cursor.value();
    } else if (!arg.empty() && arg[0] == '-' && arg != "-") {
      usage("unknown option \"" + arg + "\"");
    } else {
      positional.push_back(arg);
    }
  }
  if (positional.size() != 2) {
    usage("diff needs exactly BASELINE and CANDIDATE");
  }
  return run_diff(positional[0], positional[1], options, md_path, json_path,
                  check);
}
