// SLO grammar and tracker tests. The tracker is clocked by explicit offer()
// timestamps, so window evaluation, budgets and burn rates are tested with
// arithmetic instead of sleeps.
#include <gtest/gtest.h>

#include <cmath>
#include <fstream>
#include <map>
#include <sstream>
#include <stdexcept>
#include <string>

#include "obs/event_log.h"
#include "obs/json.h"
#include "obs/report.h"
#include "obs/slo.h"

namespace nfvm::obs {
namespace {

using Values = std::map<std::string, double>;

TEST(SloParser, ParsesWindowedObjective) {
  const auto spec = parse_slo_line("online.decision_us p99 < 5000 over 10s");
  ASSERT_TRUE(spec.has_value());
  EXPECT_EQ(spec->target, "online.decision_us");
  EXPECT_EQ(spec->stat, "p99");
  EXPECT_EQ(spec->op, SloOp::kLt);
  EXPECT_DOUBLE_EQ(spec->threshold, 5000.0);
  EXPECT_EQ(spec->window_ms, 10'000);
  EXPECT_DOUBLE_EQ(spec->budget, 0.0);
}

TEST(SloParser, ParsesBudgetAndDurations) {
  const auto spec = parse_slo_line("admit_rate >= 0.9 over 2m budget 5%");
  ASSERT_TRUE(spec.has_value());
  EXPECT_EQ(spec->target, "admit_rate");
  EXPECT_TRUE(spec->stat.empty());
  EXPECT_EQ(spec->op, SloOp::kGe);
  EXPECT_EQ(spec->window_ms, 120'000);
  EXPECT_DOUBLE_EQ(spec->budget, 0.05);
  EXPECT_EQ(parse_slo_line("x < 1 over 500ms")->window_ms, 500);
  EXPECT_EQ(parse_slo_line("x < 1 over 1h")->window_ms, 3'600'000);
}

TEST(SloParser, SkipsBlanksAndComments) {
  EXPECT_FALSE(parse_slo_line("").has_value());
  EXPECT_FALSE(parse_slo_line("   ").has_value());
  EXPECT_FALSE(parse_slo_line("# a comment").has_value());
  const auto spec = parse_slo_line("x < 1 over 1s  # trailing comment");
  ASSERT_TRUE(spec.has_value());
  EXPECT_EQ(spec->target, "x");
}

TEST(SloParser, RejectsMalformedLines) {
  EXPECT_THROW(parse_slo_line("x"), std::invalid_argument);
  EXPECT_THROW(parse_slo_line("x == 1 over 1s"), std::invalid_argument);
  EXPECT_THROW(parse_slo_line("x < banana over 1s"), std::invalid_argument);
  EXPECT_THROW(parse_slo_line("x < 1"), std::invalid_argument);
  EXPECT_THROW(parse_slo_line("x < 1 over 10parsecs"), std::invalid_argument);
  EXPECT_THROW(parse_slo_line("x < 1 over -5s"), std::invalid_argument);
  EXPECT_THROW(parse_slo_line("x < 1 over 1s budget 5"), std::invalid_argument);
  EXPECT_THROW(parse_slo_line("x < 1 over 1s budget 150%"), std::invalid_argument);
  EXPECT_THROW(parse_slo_line("x < 1 over 1s extra"), std::invalid_argument);
}

TEST(SloParser, SpecFileReportsLineNumbers) {
  const auto specs = parse_slo_specs(
      "# latency\nonline.decision_us p99 < 100 over 1s\n\nadmit_rate >= 0.5 over 5s\n");
  ASSERT_EQ(specs.size(), 2u);
  try {
    parse_slo_specs("x < 1 over 1s\nbroken line here\n");
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("line 2"), std::string::npos) << e.what();
  }
}

TEST(SloTracker, EvaluatesOncePerWindow) {
  SloTracker tracker(parse_slo_specs("windows.lat.p99 < 100 over 1s"));
  tracker.offer(0, {{"windows.lat.p99", 50.0}});     // anchors the window
  tracker.offer(500, {{"windows.lat.p99", 200.0}});  // mid-window: no eval
  EXPECT_EQ(tracker.objectives()[0].windows_evaluated, 0u);
  tracker.offer(1000, {{"windows.lat.p99", 50.0}});  // window elapsed: eval
  EXPECT_EQ(tracker.objectives()[0].windows_evaluated, 1u);
  EXPECT_EQ(tracker.objectives()[0].windows_breached, 0u);
  EXPECT_TRUE(tracker.pass());
}

TEST(SloTracker, BreachAndBudgetAccounting) {
  // 25% of windows may breach.
  SloTracker tracker(parse_slo_specs("windows.lat.p99 < 100 over 1s budget 25%"));
  const double values[] = {50.0, 500.0, 60.0, 70.0};  // one breach in four
  tracker.offer(0, {{"windows.lat.p99", 10.0}});
  for (int i = 0; i < 4; ++i) {
    tracker.offer(1000 * (i + 1), {{"windows.lat.p99", values[i]}});
  }
  const SloObjective& o = tracker.objectives()[0];
  EXPECT_EQ(o.windows_evaluated, 4u);
  EXPECT_EQ(o.windows_breached, 1u);
  EXPECT_DOUBLE_EQ(o.breach_fraction(), 0.25);
  EXPECT_DOUBLE_EQ(o.burn_rate(), 1.0);  // exactly at budget
  EXPECT_TRUE(o.pass());
  EXPECT_DOUBLE_EQ(o.worst, 500.0);
  ASSERT_EQ(o.breaches.size(), 1u);
  EXPECT_EQ(o.breaches[0].window_start_ms, 1000);
  EXPECT_EQ(o.breaches[0].window_end_ms, 2000);
  EXPECT_DOUBLE_EQ(o.breaches[0].observed, 500.0);
}

TEST(SloTracker, ZeroBudgetFailsOnSingleBreach) {
  SloTracker tracker(parse_slo_specs("windows.lat.p99 < 100 over 1s"));
  tracker.offer(0, {{"windows.lat.p99", 10.0}});
  tracker.offer(1000, {{"windows.lat.p99", 10.0}});
  tracker.offer(2000, {{"windows.lat.p99", 500.0}});
  EXPECT_FALSE(tracker.pass());
  EXPECT_TRUE(std::isinf(tracker.objectives()[0].burn_rate()));
  EXPECT_EQ(tracker.num_breached_windows(), 1u);
}

TEST(SloTracker, MissingValueSkipsInsteadOfBreaching) {
  SloTracker tracker(parse_slo_specs("windows.lat.p99 < 100 over 1s"));
  tracker.offer(0, {});
  tracker.offer(1000, {});  // empty window: no p99 key offered
  tracker.offer(2000, {{"windows.lat.p99", 50.0}});
  const SloObjective& o = tracker.objectives()[0];
  EXPECT_EQ(o.windows_skipped, 1u);
  EXPECT_EQ(o.windows_evaluated, 1u);
  EXPECT_TRUE(tracker.pass());
}

TEST(SloTracker, WindowedTargetResolvesViaStatKey) {
  // Spec written without the "windows." prefix still finds the sampler key.
  SloTracker tracker(parse_slo_specs("lat p99 < 100 over 1s"));
  tracker.offer(0, {{"windows.lat.p99", 10.0}});
  tracker.offer(1000, {{"windows.lat.p99", 10.0}});
  EXPECT_EQ(tracker.objectives()[0].windows_evaluated, 1u);
}

TEST(SloTracker, BuiltinAdmitRateDifferencesCounters) {
  SloTracker tracker(parse_slo_specs("admit_rate >= 0.9 over 1s"));
  tracker.offer(0, {{"counters.online.requests", 100.0},
                    {"counters.online.admitted", 100.0}});
  // This window: 100 more requests, only 50 admitted -> rate 0.5, breach.
  tracker.offer(1000, {{"counters.online.requests", 200.0},
                       {"counters.online.admitted", 150.0}});
  const SloObjective& o = tracker.objectives()[0];
  EXPECT_EQ(o.windows_breached, 1u);
  EXPECT_DOUBLE_EQ(o.last, 0.5);
  // Quiet window (no new requests): skipped, not breached.
  tracker.offer(2000, {{"counters.online.requests", 200.0},
                       {"counters.online.admitted", 150.0}});
  EXPECT_EQ(tracker.objectives()[0].windows_skipped, 1u);
  EXPECT_EQ(tracker.objectives()[0].windows_breached, 1u);
}

TEST(SloTracker, CounterRateStatUsesWindowDelta) {
  SloTracker tracker(parse_slo_specs("online.requests rate >= 100 over 2s"));
  tracker.offer(0, {{"counters.online.requests", 0.0}});
  // 100 requests in 2 s = 50/s < 100 -> breach.
  tracker.offer(2000, {{"counters.online.requests", 100.0}});
  EXPECT_EQ(tracker.objectives()[0].windows_breached, 1u);
  EXPECT_DOUBLE_EQ(tracker.objectives()[0].last, 50.0);
  // 400 more in 2 s = 200/s -> good.
  tracker.offer(4000, {{"counters.online.requests", 500.0}});
  EXPECT_EQ(tracker.objectives()[0].windows_evaluated, 2u);
  EXPECT_EQ(tracker.objectives()[0].windows_breached, 1u);
}

TEST(SloTracker, FinishEvaluatesTrailingPartialWindow) {
  SloTracker tracker(parse_slo_specs("windows.lat.p99 < 100 over 10s"));
  tracker.offer(0, {{"windows.lat.p99", 10.0}});
  tracker.offer(3000, {{"windows.lat.p99", 500.0}});  // window not elapsed
  EXPECT_EQ(tracker.objectives()[0].windows_evaluated, 0u);
  tracker.finish(3000);
  EXPECT_EQ(tracker.objectives()[0].windows_evaluated, 1u);
  EXPECT_EQ(tracker.objectives()[0].windows_breached, 1u);
  // finish is idempotent and freezes the tracker.
  tracker.finish(3000);
  tracker.offer(20'000, {{"windows.lat.p99", 10.0}});
  EXPECT_EQ(tracker.objectives()[0].windows_evaluated, 1u);
}

TEST(SloTracker, FinishUsesTrueElapsedTimeForRates) {
  SloTracker tracker(parse_slo_specs("req_s >= 100 over 10s"));
  tracker.offer(0, {{"counters.online.requests", 0.0}});
  // 500 ms of data, 100 requests -> 200/s; a naive full-window divisor
  // (10 s) would misread this as 10/s and false-breach.
  tracker.offer(500, {{"counters.online.requests", 100.0}});
  tracker.finish(500);
  const SloObjective& o = tracker.objectives()[0];
  ASSERT_EQ(o.windows_evaluated, 1u);
  EXPECT_DOUBLE_EQ(o.last, 200.0);
  EXPECT_TRUE(o.pass());
}

TEST(SloTracker, BreachesAreLoggedAsEvents) {
  {
    EventLog log;
    ASSERT_TRUE(log.open("slo_breach_events.jsonl"));
    SloTracker tracker(parse_slo_specs("windows.lat.p99 < 100 over 1s"));
    tracker.set_event_log(&log);
    tracker.offer(0, {{"windows.lat.p99", 10.0}});
    tracker.offer(1000, {{"windows.lat.p99", 500.0}});
  }  // closing the log flushes it
  std::ifstream in("slo_breach_events.jsonl");
  std::string line;
  ASSERT_TRUE(std::getline(in, line));
  const JsonValue doc = parse_json(line);
  EXPECT_EQ(doc.at("event").string, "slo_breach");
  EXPECT_DOUBLE_EQ(doc.at("observed").number, 500.0);
  EXPECT_DOUBLE_EQ(doc.at("threshold").number, 100.0);
  EXPECT_DOUBLE_EQ(doc.at("window_start_ms").number, 0.0);
  EXPECT_DOUBLE_EQ(doc.at("window_end_ms").number, 1000.0);
}

TEST(SloTracker, WriteJsonIsValidSloSchema) {
  SloTracker tracker(
      parse_slo_specs("windows.lat.p99 < 100 over 1s budget 10%\nreq_s >= 1 over 1s"));
  tracker.offer(0, {{"windows.lat.p99", 10.0}, {"counters.online.requests", 0.0}});
  tracker.offer(1000,
                {{"windows.lat.p99", 500.0}, {"counters.online.requests", 50.0}});
  tracker.finish(1000);
  std::ostringstream out;
  tracker.write_json(out);
  const JsonValue doc = parse_json(out.str());
  EXPECT_EQ(report::validate_document(doc), "");
  EXPECT_EQ(doc.at("schema").string, "nfvm-slo-v1");
  EXPECT_FALSE(doc.at("pass").boolean);
  ASSERT_EQ(doc.at("objectives").array.size(), 2u);
}

}  // namespace
}  // namespace nfvm::obs
