#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <sstream>
#include <stdexcept>
#include <thread>
#include <vector>

#include "obs/hdr_histogram.h"
#include "obs/json.h"
#include "obs/metrics.h"
#include "obs_test_util.h"

namespace nfvm::obs {
namespace {

TEST(Counter, StartsAtZeroAndAccumulates) {
  Counter c;
  EXPECT_EQ(c.value(), 0u);
  c.increment();
  c.add(41);
  EXPECT_EQ(c.value(), 42u);
}

TEST(Counter, ConcurrentIncrementsAreNotLost) {
  Counter c;
  constexpr int kThreads = 4;
  constexpr int kPerThread = 10000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&c] {
      for (int i = 0; i < kPerThread; ++i) c.increment();
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(c.value(), static_cast<std::uint64_t>(kThreads) * kPerThread);
}

TEST(Gauge, HoldsLastWrite) {
  Gauge g;
  EXPECT_EQ(g.value(), 0.0);
  g.set(0.75);
  g.set(0.25);
  EXPECT_EQ(g.value(), 0.25);
}

TEST(Registry, GetOrCreateReturnsStablePointers) {
  Registry reg;
  Counter* a = reg.counter("x");
  Counter* b = reg.counter("x");
  EXPECT_EQ(a, b);
  EXPECT_NE(reg.counter("y"), a);
  // Counters, gauges and histograms live in separate namespaces.
  EXPECT_NE(static_cast<void*>(reg.gauge("x")), static_cast<void*>(a));
}

TEST(Registry, SnapshotsAreSortedByName) {
  Registry reg;
  reg.counter("zeta")->add(1);
  reg.counter("alpha")->add(2);
  const auto snap = reg.counter_snapshot();
  ASSERT_EQ(snap.size(), 2u);
  EXPECT_EQ(snap[0].first, "alpha");
  EXPECT_EQ(snap[0].second, 2u);
  EXPECT_EQ(snap[1].first, "zeta");
  EXPECT_EQ(snap[1].second, 1u);
}

TEST(Registry, JsonRoundTrip) {
  Registry reg;
  reg.counter("graph.dijkstra.runs")->add(17);
  reg.counter("needs \"escaping\"\n")->add(1);
  reg.gauge("sim.final_bandwidth_utilization")->set(0.375);
  HdrHistogram* h = reg.hdr_histogram("online.decision_us");
  h->observe(3.0);
  h->observe(100.0);

  const test::JsonValue doc = test::parse_json(reg.to_json());
  ASSERT_TRUE(doc.is_object());
  EXPECT_EQ(doc.at("counters").at("graph.dijkstra.runs").number, 17.0);
  EXPECT_EQ(doc.at("counters").at("needs \"escaping\"\n").number, 1.0);
  EXPECT_DOUBLE_EQ(doc.at("gauges").at("sim.final_bandwidth_utilization").number,
                   0.375);

  const test::JsonValue& hist = doc.at("histograms").at("online.decision_us");
  EXPECT_EQ(hist.at("count").number, 2.0);
  EXPECT_DOUBLE_EQ(hist.at("sum").number, 103.0);
  EXPECT_DOUBLE_EQ(hist.at("min").number, 3.0);
  EXPECT_DOUBLE_EQ(hist.at("max").number, 100.0);
  const auto& buckets = hist.at("buckets").array;
  ASSERT_FALSE(buckets.empty());
  double total = 0.0;
  for (const auto& bucket : buckets) {
    ASSERT_TRUE(bucket.has("le"));
    total += bucket.at("count").number;
  }
  EXPECT_EQ(total, 2.0);
}

TEST(Registry, EmptyRegistryIsValidJson) {
  Registry reg;
  const test::JsonValue doc = test::parse_json(reg.to_json());
  EXPECT_TRUE(doc.at("counters").object.empty());
  EXPECT_TRUE(doc.at("gauges").object.empty());
  EXPECT_TRUE(doc.at("histograms").object.empty());
}

TEST(Registry, HistogramMinMaxOmittedWhenEmpty) {
  Registry reg;
  reg.hdr_histogram("unused");
  const test::JsonValue doc = test::parse_json(reg.to_json());
  const test::JsonValue& hist = doc.at("histograms").at("unused");
  EXPECT_EQ(hist.at("count").number, 0.0);
  EXPECT_FALSE(hist.has("min"));
  EXPECT_FALSE(hist.has("max"));
}

TEST(Macros, WriteToGlobalRegistry) {
  Counter* c = Registry::global().counter("test.macro.counter");
  const std::uint64_t before = c->value();
  NFVM_COUNTER_INC("test.macro.counter");
  NFVM_COUNTER_ADD("test.macro.counter", 4);
#if NFVM_OBS
  EXPECT_EQ(c->value(), before + 5);
#else
  EXPECT_EQ(c->value(), before);
#endif
  NFVM_GAUGE_SET("test.macro.gauge", 2.5);
#if NFVM_OBS
  EXPECT_EQ(Registry::global().gauge("test.macro.gauge")->value(), 2.5);
#endif
  NFVM_HDR_OBSERVE("test.macro.histogram", 9.0);
#if NFVM_OBS
  EXPECT_GE(Registry::global().hdr_histogram("test.macro.histogram")->count(), 1u);
#endif
}

TEST(Json, EscapeHandlesQuotesBackslashesAndControlChars) {
  EXPECT_EQ(json_escape("plain"), "plain");
  EXPECT_EQ(json_escape("a\"b"), "a\\\"b");
  EXPECT_EQ(json_escape("a\\b"), "a\\\\b");
  EXPECT_EQ(json_escape("a\nb\tc"), "a\\nb\\tc");
  EXPECT_EQ(json_escape(std::string_view("\x01", 1)), "\\u0001");
}

TEST(Json, NumberNeverEmitsNonFinite) {
  EXPECT_EQ(json_number(std::numeric_limits<double>::quiet_NaN()), "0");
  EXPECT_EQ(json_number(std::numeric_limits<double>::infinity()), "0");
  EXPECT_EQ(json_number(1.5), "1.5");
  EXPECT_EQ(json_number(-2.0), "-2");
  // Round-trips through the parser exactly.
  const double pi = 3.141592653589793;
  EXPECT_EQ(test::parse_json(json_number(pi)).number, pi);
}

TEST(Json, WriterEmitsWellFormedNestedDocument) {
  std::ostringstream out;
  JsonWriter w(out);
  w.begin_object();
  w.key("list").begin_array().value(std::uint64_t{1}).value("two").end_array();
  w.key("flag").value(true);
  w.end_object();
  EXPECT_EQ(w.depth(), 0u);

  const test::JsonValue doc = test::parse_json(out.str());
  ASSERT_EQ(doc.at("list").array.size(), 2u);
  EXPECT_EQ(doc.at("list").array[1].string, "two");
  EXPECT_TRUE(doc.at("flag").boolean);
}

TEST(Json, WriterThrowsOnMisuse) {
  std::ostringstream out;
  JsonWriter w(out);
  w.begin_object();
  EXPECT_THROW(w.value(1.0), std::logic_error);   // value without key
  EXPECT_THROW(w.end_array(), std::logic_error);  // mismatched close
}

}  // namespace
}  // namespace nfvm::obs
