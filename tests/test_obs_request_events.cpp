// Request-event loading, latency aggregation, stream invariants, and the
// explain / decisions projections behind nfvm-report's observability
// subcommands.
#include "obs/request_events.h"

#include <gtest/gtest.h>

#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "obs/event_log.h"
#include "obs/run_info.h"

namespace nfvm::obs::report {
namespace {

/// Writes a small synthetic v2 event log through the real EventLog + stamp
/// machinery, exactly as nfvm-sim does. With `with_static_route`, a fourth
/// request decided by SP_static (fixed routes, fast_path false) follows.
std::string write_fixture_log(const std::string& name,
                              bool with_static_route = false) {
  const std::string path = ::testing::TempDir() + "/" + name;
  EventLog log;
  EXPECT_TRUE(log.open(path));
  JsonLine stamp;
  stamp.field("schema", kEventsSchema)
      .field("config_hash", config_hash_hex("fixture"))
      .field("seed", std::uint64_t{7});
  log.set_stamp(stamp);

  const auto emit = [&log](std::uint64_t index, bool admitted, double total_us,
                           bool fast_path = true) {
    JsonLine line;
    line.field("event", "request")
        .field("algorithm", fast_path ? "Online_CP" : "SP_static")
        .field("index", index)
        .field("request_id", index + 1)
        .field("source", std::uint64_t{3})
        .field("num_destinations", std::uint64_t{2})
        .field("bandwidth_mbps", 100.0)
        .field("admitted", admitted);
    if (admitted) {
      line.field("cost", 12.5).field("servers", std::uint64_t{1});
    } else {
      line.field("reject_cause", "threshold")
          .field("reject_reason", "tree exceeds the bandwidth threshold");
    }
    line.field("decision_us", total_us + 1.0)
        .field("fast_path", fast_path)
        .field("total_us", total_us)
        .field("phase_classify_us", total_us * 0.05)
        .field("phase_closure_us", total_us * 0.40)
        .field("phase_eval_us", total_us * 0.30)
        .field("phase_realize_us", total_us * 0.10)
        .field("phase_view_patch_us", total_us * 0.05)
        .field("servers_total", std::uint64_t{6})
        .field("servers_eligible", std::uint64_t{5})
        .field("servers_evaluated", std::uint64_t{5})
        .field("candidates_feasible", admitted ? std::uint64_t{1} : std::uint64_t{0});
    if (admitted) line.field("chosen_server", std::int64_t{4});
    log.write(line);
  };
  emit(0, true, 100.0);
  emit(1, true, 200.0);
  emit(2, false, 150.0);
  if (with_static_route) emit(3, true, 50.0, /*fast_path=*/false);
  // A non-request line (run summary) that loaders must skip.
  JsonLine summary;
  summary.field("event", "summary").field("requests", std::uint64_t{3});
  log.write(summary);
  return path;  // the log closes (and flushes) on return
}

TEST(RequestEvents, LoadsStampAndProvenance) {
  const std::string path = write_fixture_log("req_events_load.jsonl");
  const auto events = load_request_events(path);
  ASSERT_EQ(events.size(), 3u);
  EXPECT_EQ(events[0].schema, kEventsSchema);
  EXPECT_EQ(events[0].config_hash, config_hash_hex("fixture"));
  EXPECT_TRUE(events[0].has_seed);
  EXPECT_EQ(events[0].seed, 7u);
  EXPECT_TRUE(events[0].has_provenance);
  EXPECT_TRUE(events[0].admitted);
  EXPECT_FALSE(events[2].admitted);
  EXPECT_EQ(events[2].reject_cause, "threshold");
  EXPECT_EQ(events[1].request_id, 2u);
}

TEST(RequestEvents, LoadRejectsMalformedLines) {
  const std::string path = ::testing::TempDir() + "/req_events_bad.jsonl";
  std::ofstream(path) << "{\"event\":\"request\",}\n";
  EXPECT_THROW(load_request_events(path), std::runtime_error);
  EXPECT_THROW(load_request_events("/nonexistent/events.jsonl"),
               std::runtime_error);
}

TEST(RequestEvents, AggregateLatencyBuildsPhaseRows) {
  const auto events = load_request_events(write_fixture_log("req_events_agg.jsonl"));
  const LatencyReport report = aggregate_latency(events);
  EXPECT_EQ(report.num_events, 3u);
  EXPECT_EQ(report.num_with_provenance, 3u);
  bool saw_closure = false;
  for (const LatencyRow& row : report.rows) {
    EXPECT_EQ(row.algorithm, "Online_CP");
    if (row.phase == "closure") {
      saw_closure = true;
      EXPECT_EQ(row.count, 3u);
      // Closure is 40% of every total in the fixture.
      EXPECT_NEAR(row.share, 0.40, 1e-9);
      // p50 of {40, 80, 60} with <= 1% HDR error.
      EXPECT_NEAR(row.p50_us, 60.0, 60.0 * 0.01);
      EXPECT_DOUBLE_EQ(row.max_us, 80.0);
    }
    if (row.phase == "total" || row.phase == "decision") {
      EXPECT_EQ(row.count, 3u) << row.phase;
    }
  }
  EXPECT_TRUE(saw_closure);
}

TEST(RequestEvents, WritersProduceAllThreeFormats) {
  const auto events = load_request_events(write_fixture_log("req_events_fmt.jsonl"));
  const LatencyReport report = aggregate_latency(events);
  std::ostringstream text, md, json;
  write_latency_text(text, report);
  write_latency_markdown(md, report);
  write_latency_json(json, report);
  EXPECT_NE(text.str().find("closure"), std::string::npos);
  EXPECT_NE(md.str().find("| closure |"), std::string::npos);
  const JsonValue doc = parse_json(json.str());
  EXPECT_EQ(doc.at("schema").string, "nfvm-latency-v1");
  EXPECT_GT(doc.at("rows").array.size(), 0u);
  for (const JsonValue& row : doc.at("rows").array) {
    EXPECT_TRUE(row.at("p99_us").is_number());
  }
}

TEST(RequestEvents, CheckAcceptsTheFixture) {
  const auto events = load_request_events(write_fixture_log("req_events_ok.jsonl"));
  EXPECT_EQ(check_events(events), "");
}

TEST(RequestEvents, CheckFlagsViolations) {
  EXPECT_NE(check_events({}), "");

  auto events = load_request_events(write_fixture_log("req_events_bad2.jsonl"));
  auto broken = events;
  broken[1].admitted = false;  // rejected without a cause
  broken[1].reject_cause.clear();
  EXPECT_NE(check_events(broken), "");

  broken = events;
  broken[2].config_hash = "deadbeefdeadbeef";  // mixed-run stamp
  EXPECT_NE(check_events(broken), "");

  broken = events;
  broken[0].decision_us = -1.0;
  EXPECT_NE(check_events(broken), "");
}

TEST(RequestEvents, FindRequestPrefersIdThenIndex) {
  const auto events = load_request_events(write_fixture_log("req_events_find.jsonl"));
  // "2" matches request_id 2 (stream index 1), not stream index 2.
  const RequestEvent* by_id = find_request(events, "2");
  ASSERT_NE(by_id, nullptr);
  EXPECT_EQ(by_id->index, 1u);
  // "0" matches no request_id, falls back to stream index 0.
  const RequestEvent* by_index = find_request(events, "0");
  ASSERT_NE(by_index, nullptr);
  EXPECT_EQ(by_index->request_id, 1u);
  EXPECT_EQ(find_request(events, "99"), nullptr);
  EXPECT_EQ(find_request(events, "not-a-number"), nullptr);
}

TEST(RequestEvents, ExplainPrintsAdmittedAndRejected) {
  const auto events = load_request_events(
      write_fixture_log("req_events_explain.jsonl", /*with_static_route=*/true));
  ASSERT_EQ(events.size(), 4u);
  std::ostringstream admitted;
  write_explain(admitted, events[0]);
  EXPECT_NE(admitted.str().find("ADMITTED"), std::string::npos);
  EXPECT_NE(admitted.str().find("chosen_server=4"), std::string::npos);
  EXPECT_NE(admitted.str().find("closure"), std::string::npos);
  EXPECT_NE(admitted.str().find("path       shared-closure scan\n"),
            std::string::npos);
  std::ostringstream rejected;
  write_explain(rejected, events[2]);
  EXPECT_NE(rejected.str().find("REJECTED"), std::string::npos);
  EXPECT_NE(rejected.str().find("threshold"), std::string::npos);
  // SP_static routes on fixed paths: no scan, so no path line at all.
  std::ostringstream fixed;
  write_explain(fixed, events[3]);
  EXPECT_NE(fixed.str().find("ADMITTED"), std::string::npos);
  EXPECT_EQ(fixed.str().find("\npath "), std::string::npos);
}

TEST(RequestEvents, DecisionsProjectionIsTimingFree) {
  const auto events = load_request_events(write_fixture_log("req_events_dec.jsonl"));
  std::ostringstream out;
  write_decisions(out, events);
  const std::string text = out.str();
  EXPECT_EQ(std::count(text.begin(), text.end(), '\n'), 3);
  EXPECT_NE(text.find("admit cost=12.5"), std::string::npos);
  EXPECT_NE(text.find("reject cause=threshold"), std::string::npos);
  // No timing field leaks into the canonical projection.
  EXPECT_EQ(text.find("_us"), std::string::npos);
}

TEST(EventLogStamp, PrependsFieldsToEveryLine) {
  const std::string path = ::testing::TempDir() + "/stamped.jsonl";
  {
    EventLog log;
    ASSERT_TRUE(log.open(path));
    JsonLine stamp;
    stamp.field("schema", kEventsSchema).field("config_hash", "abc");
    log.set_stamp(stamp);
    JsonLine line;
    line.field("event", "request").field("index", std::uint64_t{0});
    log.write(line);
  }  // closing the log flushes it
  std::ifstream in(path);
  std::string written;
  std::getline(in, written);
  EXPECT_EQ(written,
            "{\"schema\":\"nfvm-events-v2\",\"config_hash\":\"abc\","
            "\"event\":\"request\",\"index\":0}");
}

TEST(ConfigHash, IsStableAndDistinguishes) {
  EXPECT_EQ(config_hash_hex("a"), config_hash_hex("a"));
  EXPECT_NE(config_hash_hex("a"), config_hash_hex("b"));
  EXPECT_EQ(config_hash_hex("").size(), 16u);
  // FNV-1a 64 offset basis: hash of the empty string.
  EXPECT_EQ(config_hash_hex(""), "cbf29ce484222325");
}

}  // namespace
}  // namespace nfvm::obs::report
