// Golden schema-stability tests for the observability artifacts.
//
// Downstream consumers (CI gates, dashboards, jq pipelines) parse these
// documents by field name. Removing or retyping a field is a breaking change
// that must be announced with a schema-tag bump; these tests pin the exact
// field sets so an unannounced change fails loudly here. Adding fields is
// fine - the golden sets are checked as subsets plus explicit type checks,
// and the full set equality is asserted only where the writer owns every key.
#include <gtest/gtest.h>

#include <fstream>
#include <set>
#include <sstream>
#include <string>

#include "core/online_cp.h"
#include "obs/event_log.h"
#include "obs/hdr_histogram.h"
#include "obs/json.h"
#include "obs/metrics.h"
#include "obs/report.h"
#include "obs/request_events.h"
#include "obs/run_info.h"
#include "sim/request_gen.h"
#include "sim/simulator.h"
#include "topology/waxman.h"
#include "util/rng.h"

#ifndef NFVM_SOURCE_DIR
#define NFVM_SOURCE_DIR "."
#endif

namespace nfvm::obs {
namespace {

std::set<std::string> keys_of(const JsonValue& object) {
  std::set<std::string> keys;
  for (const auto& [key, value] : object.object) keys.insert(key);
  return keys;
}

void expect_subset(const std::set<std::string>& expected,
                   const std::set<std::string>& actual, const char* where) {
  for (const std::string& key : expected) {
    EXPECT_TRUE(actual.count(key)) << where << ": missing field \"" << key
                                   << "\" - schema break, bump the tag";
  }
}

TEST(MetricsSchemaV2, GoldenShape) {
  Registry reg;
  reg.counter("c.one")->add(3);
  reg.gauge("g.one")->set(0.5);
  for (int i = 1; i <= 100; ++i) reg.hdr_histogram("h.hdr")->observe(i);
  const JsonValue doc = parse_json(reg.to_json());

  ASSERT_TRUE(doc.is_object());
  EXPECT_EQ(keys_of(doc),
            (std::set<std::string>{"schema", "counters", "gauges", "histograms"}));
  EXPECT_EQ(doc.at("schema").string, std::string(kMetricsSchema));
  EXPECT_EQ(doc.at("schema").string, "nfvm-metrics-v2");

  EXPECT_TRUE(doc.at("counters").at("c.one").is_number());
  EXPECT_TRUE(doc.at("gauges").at("g.one").is_number());

  const JsonValue& h = doc.at("histograms").at("h.hdr");
  EXPECT_EQ(keys_of(h),
            (std::set<std::string>{"kind", "count", "sum", "min", "max", "p50",
                                   "p90", "p99", "buckets"}));
  EXPECT_TRUE(h.at("count").is_number());
  EXPECT_TRUE(h.at("p99").is_number());
  EXPECT_TRUE(h.at("buckets").is_array());
  const JsonValue& bucket = h.at("buckets").array.front();
  EXPECT_EQ(keys_of(bucket), (std::set<std::string>{"le", "count"}));
  EXPECT_EQ(h.at("kind").string, "hdr");

  // The v2 document still routes through the shape-based validator, and so
  // does an older one whose histogram is of the retired "log2" kind.
  std::ostringstream out;
  reg.write_json(out);
  EXPECT_EQ(report::validate_document(parse_json(out.str())), "");
  std::string log2 = out.str();
  log2.replace(log2.find("\"hdr\""), 5, "\"log2\"");
  EXPECT_EQ(report::validate_document(parse_json(log2)), "");
}

TEST(MetricsSchemaV2, UnknownSchemaTagIsRejected) {
  Registry reg;
  reg.counter("c")->increment();
  std::string json = reg.to_json();
  const auto pos = json.find("nfvm-metrics-v2");
  ASSERT_NE(pos, std::string::npos);
  json.replace(pos, 15, "nfvm-metrics-v9");
  EXPECT_NE(report::validate_document(parse_json(json)), "");
}

TEST(EventsSchemaV2, GoldenShapeFromTheRealEmitter) {
  // Drive the real simulator + event log end to end, then pin the emitted
  // field set for admitted and rejected provenance lines.
  util::Rng rng(11);
  topo::WaxmanOptions wo;
  wo.target_mean_degree = 4.0;
  const topo::Topology topo = topo::make_waxman(40, rng, wo);
  util::Rng workload(12);
  sim::RequestGenerator gen(topo, workload);
  // Long enough to saturate resources: the log must contain both admitted
  // and rejected lines, or the golden sets are only half-checked.
  const auto requests = gen.sequence(200);

  const std::string path = ::testing::TempDir() + "/schema_events.jsonl";
  {
    EventLog log;
    ASSERT_TRUE(log.open(path));
    JsonLine stamp;
    stamp.field("schema", report::kEventsSchema)
        .field("config_hash", config_hash_hex("schema-test"))
        .field("seed", std::uint64_t{11});
    log.set_stamp(stamp);

    core::OnlineCp algo(topo);
    sim::SimulatorOptions opts;
    opts.event_log = &log;
    opts.record_provenance = true;
    sim::run_online(algo, requests, opts);
  }  // closing the log flushes it

  const std::set<std::string> stamp_fields = {"schema", "config_hash", "seed"};
  const std::set<std::string> base_fields = {
      "event",    "algorithm",        "index",          "request_id",
      "source",   "num_destinations", "bandwidth_mbps", "admitted",
      "decision_us"};
#if NFVM_OBS
  const std::set<std::string> provenance_fields = {
      "fast_path",          "total_us",          "phase_classify_us",
      "phase_closure_us",   "phase_eval_us",     "phase_realize_us",
      "phase_view_patch_us", "servers_total",    "servers_eligible",
      "servers_evaluated",  "candidates_feasible", "spcache_hits",
      "spcache_misses",     "skip_compute",      "skip_sigma_v",
      "fail_disconnected",  "fail_sigma_e",      "fail_delay",
      "fail_capacity",      "cost_pruned"};
#else
  const std::set<std::string> provenance_fields;
#endif

  std::ifstream in(path);
  std::string line;
  bool saw_admit = false;
  bool saw_reject = false;
  while (std::getline(in, line)) {
    const JsonValue doc = parse_json(line);
    const std::set<std::string> actual = keys_of(doc);
    expect_subset(stamp_fields, actual, "events stamp");
    expect_subset(base_fields, actual, "events base");
    expect_subset(provenance_fields, actual, "events provenance");
    EXPECT_EQ(doc.at("schema").string, std::string(report::kEventsSchema));
    if (doc.at("admitted").boolean) {
      saw_admit = true;
      expect_subset({"cost", "servers"}, actual, "events admitted");
#if NFVM_OBS
      expect_subset({"chosen_server", "cost_total", "cost_steiner",
                     "cost_server", "cost_backhaul"},
                    actual, "events admitted provenance");
#endif
    } else {
      saw_reject = true;
      expect_subset({"reject_cause", "reject_reason"}, actual, "events rejected");
    }
  }
  EXPECT_TRUE(saw_admit);
  EXPECT_TRUE(saw_reject);
  // The same file must satisfy the generic validator and the event checker.
  EXPECT_EQ(report::validate_file(path), "");
#if NFVM_OBS
  EXPECT_EQ(report::check_events(report::load_request_events(path)), "");
#endif
}

TEST(ManifestSchemaV1, GoldenShape) {
  RunManifest manifest;
  manifest.argv = {"nfvm-sim", "--seed", "1"};
  manifest.start_time = "2026-08-08T00:00:00Z";
  manifest.end_time = "2026-08-08T00:00:01Z";
  manifest.wall_time_s = 1.0;
  manifest.config["seed"] = "1";
  manifest.config["config_hash"] = config_hash_hex("seed=1;");
  manifest.artifacts = {"metrics.json", "events.jsonl"};
  std::ostringstream out;
  write_manifest(out, manifest);
  const JsonValue doc = parse_json(out.str());
  EXPECT_EQ(keys_of(doc),
            (std::set<std::string>{"schema", "argv", "start_time", "end_time",
                                   "wall_time_s", "peak_rss_kb", "config",
                                   "build", "artifacts"}));
  EXPECT_EQ(doc.at("schema").string, "nfvm-run-manifest-v1");
  EXPECT_EQ(keys_of(doc.at("build")),
            (std::set<std::string>{"git_sha", "build_type", "compiler",
                                   "cxx_flags", "obs_enabled"}));
  EXPECT_EQ(report::validate_document(doc), "");
}

TEST(BenchSchemaV1, CheckedInBaselineStillParses) {
  // The baselines under bench/baselines/ are consumed by the CI perf gate;
  // pin their document shape against the parser that gate uses.
  const std::string path =
      std::string(NFVM_SOURCE_DIR) + "/bench/baselines/BENCH_micro_online_admit.json";
  std::ifstream in(path);
  ASSERT_TRUE(in.is_open()) << path;
  std::stringstream buffer;
  buffer << in.rdbuf();
  const JsonValue doc = parse_json(buffer.str());
  EXPECT_EQ(doc.at("schema").string, "nfvm-bench-v1");
  expect_subset({"schema", "name", "meta", "wall_time_s", "columns", "rows"},
                keys_of(doc), "bench");
  EXPECT_TRUE(doc.at("columns").is_array());
  ASSERT_TRUE(doc.at("rows").is_array());
  ASSERT_FALSE(doc.at("rows").array.empty());
  // Every row carries exactly the declared columns, with "case"/"mode" as
  // strings and the rest numeric — except speedup_vs_legacy, which is "-"
  // on rebuild rows (no legacy-vs-legacy ratio) so the CI --min floor only
  // ever gates real speedups.
  std::set<std::string> columns;
  for (const JsonValue& c : doc.at("columns").array) columns.insert(c.string);
  for (const JsonValue& row : doc.at("rows").array) {
    EXPECT_EQ(keys_of(row), columns);
    for (const auto& [key, value] : row.object) {
      if (key == "case" || key == "mode") {
        EXPECT_TRUE(value.is_string()) << key;
      } else if (key == "speedup_vs_legacy") {
        const bool rebuild_row = row.at("mode").string == "rebuild";
        EXPECT_TRUE(rebuild_row ? value.is_string() && value.string == "-"
                                : value.is_number())
            << key;
      } else {
        EXPECT_TRUE(value.is_number()) << key;
      }
    }
  }
  EXPECT_EQ(report::validate_document(doc), "");
}

}  // namespace
}  // namespace nfvm::obs
