#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "obs/event_log.h"
#include "obs/log.h"
#include "obs/trace.h"
#include "obs_test_util.h"

namespace nfvm::obs {
namespace {

/// Restores the global tracer to the stopped state even if a test fails.
struct TracerGuard {
  TracerGuard() { Tracer::global().start(); }
  ~TracerGuard() { Tracer::global().stop(); }
};

/// The tracer's buffer as its Chrome trace export parses it.
test::JsonValue export_trace(const Tracer& tracer) {
  std::ostringstream out;
  tracer.write_chrome_trace(out);
  return test::parse_json(out.str());
}

std::size_t num_events(const Tracer& tracer) {
  return export_trace(tracer).at("traceEvents").array.size();
}

TEST(Tracer, DisabledByDefaultRecordsNothing) {
  // Do not start the tracer: spans must be no-ops.
  const std::size_t before = num_events(Tracer::global());
  {
    NFVM_SPAN("test/should_not_record");
  }
  EXPECT_EQ(num_events(Tracer::global()), before);
}

TEST(Tracer, StartClearsBufferAndRecordsSpans) {
  TracerGuard guard;
  {
    NFVM_SPAN("test/outer");
  }
#if NFVM_OBS
  const test::JsonValue doc = export_trace(Tracer::global());
  const auto& events = doc.at("traceEvents").array;
  ASSERT_EQ(events.size(), 1u);
  EXPECT_EQ(events[0].at("name").string, "test/outer");
  EXPECT_GE(events[0].at("ts").number, 0.0);
  EXPECT_GE(events[0].at("dur").number, 0.0);
#else
  EXPECT_EQ(num_events(Tracer::global()), 0u);
#endif
  Tracer::global().start();  // restarting clears
  EXPECT_EQ(num_events(Tracer::global()), 0u);
}

#if NFVM_OBS
TEST(Tracer, NestedSpansCarryDepthAndContainment) {
  TracerGuard guard;
  {
    NFVM_SPAN("test/outer");
    {
      NFVM_SPAN("test/inner");
    }
  }
  Tracer::global().stop();
  const test::JsonValue doc = export_trace(Tracer::global());
  const auto& events = doc.at("traceEvents").array;
  ASSERT_EQ(events.size(), 2u);
  // Spans land in completion order: the inner one closes first. Chrome
  // derives the nesting depth from containment on one thread.
  const test::JsonValue& inner = events[0];
  const test::JsonValue& outer = events[1];
  EXPECT_EQ(inner.at("name").string, "test/inner");
  EXPECT_EQ(outer.at("name").string, "test/outer");
  EXPECT_EQ(inner.at("tid").number, outer.at("tid").number);
  // The inner interval nests inside the outer one.
  EXPECT_GE(inner.at("ts").number, outer.at("ts").number);
  EXPECT_LE(inner.at("ts").number + inner.at("dur").number,
            outer.at("ts").number + outer.at("dur").number);
}

TEST(Tracer, ChromeTraceExportIsWellFormed) {
  TracerGuard guard;
  {
    NFVM_SPAN("test/export \"quoted\"");
    {
      NFVM_SPAN("test/child");
    }
  }
  Tracer::global().stop();
  const test::JsonValue doc = export_trace(Tracer::global());
  ASSERT_TRUE(doc.is_object());
  EXPECT_EQ(doc.at("displayTimeUnit").string, "ms");
  const auto& events = doc.at("traceEvents").array;
  ASSERT_EQ(events.size(), 2u);
  for (const auto& e : events) {
    EXPECT_EQ(e.at("ph").string, "X");
    EXPECT_EQ(e.at("cat").string, "nfvm");
    EXPECT_EQ(e.at("pid").number, 1.0);
    EXPECT_TRUE(e.at("ts").is_number());
    EXPECT_TRUE(e.at("dur").is_number());
  }
  EXPECT_EQ(events[0].at("name").string, "test/child");
  EXPECT_EQ(events[1].at("name").string, "test/export \"quoted\"");
}

TEST(Tracer, SpanOpenAcrossStopIsDropped) {
  TracerGuard guard;
  {
    SpanScope span("test/interrupted");
    Tracer::global().stop();
  }  // closes after stop: must not record a negative-duration event
  EXPECT_EQ(num_events(Tracer::global()), 0u);
}
#endif  // NFVM_OBS

TEST(Tracer, EventCapCountsDropsInsteadOfGrowing) {
  Tracer tracer(2);
  tracer.start();
  for (int i = 0; i < 5; ++i) tracer.record("test/capped", 0.0, 1.0);
  EXPECT_EQ(tracer.dropped(), 3u);
  const test::JsonValue doc = export_trace(tracer);
  EXPECT_EQ(doc.at("traceEvents").array.size(), 2u);
  EXPECT_EQ(doc.at("nfvmDroppedEvents").number, 3.0);
}

TEST(JsonLine, BuildsFlatObjectInInsertionOrder) {
  JsonLine line;
  line.field("event", "request")
      .field("index", std::size_t{3})
      .field("cost", 2.5)
      .field("admitted", true);
  EXPECT_EQ(line.str(),
            "{\"event\":\"request\",\"index\":3,\"cost\":2.5,\"admitted\":true}");
  const test::JsonValue doc = test::parse_json(line.str());
  EXPECT_EQ(doc.at("event").string, "request");
  EXPECT_TRUE(doc.at("admitted").boolean);
}

TEST(EventLog, WritesOneLinePerEvent) {
  const std::string path = ::testing::TempDir() + "/nfvm_event_log_test.jsonl";
  {
    EventLog log;
    ASSERT_TRUE(log.open(path));
    ASSERT_TRUE(log.is_open());
    JsonLine a;
    a.field("event", "request").field("index", std::size_t{0});
    JsonLine b;
    b.field("event", "request").field("index", std::size_t{1});
    log.write(a);
    log.write(b);
    EXPECT_EQ(log.lines_written(), 2u);
  }  // the destructor flushes and closes
  std::ifstream in(path);
  std::vector<std::string> lines;
  for (std::string line; std::getline(in, line);) lines.push_back(line);
  ASSERT_EQ(lines.size(), 2u);
  EXPECT_EQ(test::parse_json(lines[0]).at("index").number, 0.0);
  EXPECT_EQ(test::parse_json(lines[1]).at("index").number, 1.0);
  std::remove(path.c_str());
}

TEST(EventLog, ClosedLogSwallowsWrites) {
  EventLog log;
  EXPECT_FALSE(log.is_open());
  JsonLine line;
  line.field("event", "ignored");
  log.write(line);  // must not crash
  EXPECT_EQ(log.lines_written(), 0u);
}

TEST(Log, LevelParsingAndThresholds) {
  EXPECT_EQ(parse_log_level("error"), LogLevel::kError);
  EXPECT_EQ(parse_log_level("warn"), LogLevel::kWarn);
  EXPECT_EQ(parse_log_level("warning"), LogLevel::kWarn);
  EXPECT_EQ(parse_log_level("info"), LogLevel::kInfo);
  EXPECT_EQ(parse_log_level("debug"), LogLevel::kDebug);
  EXPECT_FALSE(parse_log_level("verbose").has_value());

  set_log_level(LogLevel::kInfo);
  EXPECT_TRUE(log_enabled(LogLevel::kError));
  EXPECT_TRUE(log_enabled(LogLevel::kInfo));
  EXPECT_FALSE(log_enabled(LogLevel::kDebug));
  set_log_level(LogLevel::kWarn);  // the default
}

}  // namespace
}  // namespace nfvm::obs
