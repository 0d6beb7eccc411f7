// Quantile estimation and the nfvm-report library: artifact validation,
// loading, flattening and baseline/candidate comparison.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <fstream>
#include <limits>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "obs/hdr_histogram.h"
#include "obs/json.h"
#include "obs/metrics.h"
#include "obs/report.h"

namespace nfvm::obs {
namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

TEST(EstimateQuantile, EmptyHistogramIsNaN) {
  EXPECT_TRUE(std::isnan(estimate_quantile({}, 0.5, kInf, -kInf)));
  EXPECT_TRUE(std::isnan(
      estimate_quantile({{2.0, 0}, {4.0, 0}}, 0.5, kInf, -kInf)));
  HdrHistogram h;
  EXPECT_TRUE(std::isnan(h.quantile(0.5)));
}

TEST(EstimateQuantile, SingleSampleReturnsExactValueViaMinMaxClamp) {
  HdrHistogram h;
  h.observe(3.0);
  // min == max == 3 clamps the interpolation to the sample itself.
  EXPECT_DOUBLE_EQ(h.quantile(0.5), 3.0);
  EXPECT_DOUBLE_EQ(h.quantile(0.99), 3.0);
}

TEST(EstimateQuantile, InterpolatesWithinBucket) {
  // 10 samples in (4, 8]: the median rank (5 of 10) sits halfway through
  // the bucket -> 6 by linear interpolation.
  const std::vector<HistogramBucket> buckets = {{4.0, 0}, {8.0, 10}};
  EXPECT_DOUBLE_EQ(estimate_quantile(buckets, 0.5, kInf, -kInf), 6.0);
  EXPECT_DOUBLE_EQ(estimate_quantile(buckets, 1.0, kInf, -kInf), 8.0);
}

TEST(EstimateQuantile, WalksCumulativeCounts) {
  // 60 below 1, 30 in (1,2], 10 in (2,4]: p50 is inside the first bucket,
  // p90 at the upper edge of the second, p99 inside the third.
  const std::vector<HistogramBucket> buckets = {{1.0, 60}, {2.0, 30}, {4.0, 10}};
  const double p50 = estimate_quantile(buckets, 0.50, kInf, -kInf);
  const double p90 = estimate_quantile(buckets, 0.90, kInf, -kInf);
  const double p99 = estimate_quantile(buckets, 0.99, kInf, -kInf);
  EXPECT_GT(p50, 0.0);
  EXPECT_LE(p50, 1.0);
  EXPECT_DOUBLE_EQ(p90, 2.0);
  EXPECT_GT(p99, 2.0);
  EXPECT_LE(p99, 4.0);
  EXPECT_LE(p50, p90);
  EXPECT_LE(p90, p99);
}

TEST(EstimateQuantile, OverflowBucketUsesMaxValue) {
  // All mass in the +Inf bucket: max_value caps the interpolation.
  const std::vector<HistogramBucket> buckets = {{2.0, 0}, {kInf, 4}};
  const double p99 = estimate_quantile(buckets, 0.99, 2.5, 40.0);
  EXPECT_GT(p99, 2.0);
  EXPECT_LE(p99, 40.0);
}

// --- validation -------------------------------------------------------------

TEST(ReportValidate, AcceptsRegistryOutput) {
  Registry registry;
  registry.counter("a")->add(3);
  registry.gauge("g")->set(0.5);
  registry.hdr_histogram("h")->observe(7.0);
  registry.hdr_histogram("h")->observe(1e30);  // lands in the overflow bucket
  const JsonValue doc = parse_json(registry.to_json());
  EXPECT_EQ(report::validate_document(doc), "");
}

TEST(ReportValidate, RejectsBrokenMetrics) {
  EXPECT_NE(report::validate_document(parse_json(
                R"({"counters":{"c":"nope"},"gauges":{},"histograms":{}})")),
            "");
  EXPECT_NE(report::validate_document(parse_json(
                R"({"counters":{},"gauges":{},"histograms":{"h":{"sum":1}}})")),
            "");
  EXPECT_NE(report::validate_document(parse_json(
                R"({"counters":{},"gauges":{},"histograms":{"h":{"count":1,)"
                R"("sum":1,"buckets":[{"le":"huge","count":1}]}}})")),
            "");
  // Unrecognizable document shape.
  EXPECT_NE(report::validate_document(parse_json(R"({"hello":"world"})")), "");
}

TEST(ReportValidate, ChecksBenchSchema) {
  const char* good =
      R"({"schema":"nfvm-bench-v1","name":"b","meta":{"k":"v"},)"
      R"("wall_time_s":0.5,"columns":["n","cost"],)"
      R"("rows":[{"n":10,"cost":3.5},{"n":20,"cost":"inf"}],)"
      R"("metrics":{"counters":{},"gauges":{},"histograms":{}}})";
  EXPECT_EQ(report::validate_document(parse_json(good)), "");
  // rows must be objects of scalar cells.
  const char* bad =
      R"({"schema":"nfvm-bench-v1","name":"b","meta":{},"wall_time_s":0,)"
      R"("columns":[],"rows":[{"n":[1]}],)"
      R"("metrics":{"counters":{},"gauges":{},"histograms":{}}})";
  EXPECT_NE(report::validate_document(parse_json(bad)), "");
}

// --- loading + comparison ---------------------------------------------------

std::string write_temp(const std::string& name, const std::string& content) {
  const std::string path = ::testing::TempDir() + "/" + name;
  std::ofstream out(path);
  out << content;
  return path;
}

constexpr const char* kBaseMetrics =
    R"({"counters":{"online.admitted":100,"online.rejected":10},)"
    R"("gauges":{"load":0.5},)"
    R"("histograms":{"route_ms":{"count":100,"sum":300,"min":1,"max":9,)"
    R"("p50":2.5,"p90":6,"p99":8.5,)"
    R"("buckets":[{"le":2,"count":40},{"le":4,"count":40},{"le":16,"count":20}]}}})";

constexpr const char* kRegressedMetrics =
    R"({"counters":{"online.admitted":60,"online.rejected":50},)"
    R"("gauges":{"load":0.5},)"
    R"("histograms":{"route_ms":{"count":110,"sum":900,"min":1,"max":60,)"
    R"("p50":7,"p90":20,"p99":55,)"
    R"("buckets":[{"le":4,"count":40},{"le":16,"count":50},{"le":64,"count":20}]}}})";

TEST(ReportLoad, FlattensMetricsIntoScalars) {
  const report::Artifact a =
      report::load_artifact(write_temp("load_metrics.json", kBaseMetrics));
  EXPECT_EQ(a.kind, report::ArtifactKind::kMetrics);
  EXPECT_EQ(a.scalars.at("counters.online.admitted"), 100.0);
  EXPECT_EQ(a.scalars.at("gauges.load"), 0.5);
  EXPECT_EQ(a.scalars.at("histograms.route_ms.count"), 100.0);
  EXPECT_EQ(a.scalars.at("histograms.route_ms.p50"), 2.5);
}

TEST(ReportLoad, DerivesPercentilesFromBucketsWhenAbsent) {
  // Pre-percentile artifacts (no p50/p90/p99 keys) still get comparable
  // percentile scalars, estimated from their buckets.
  const report::Artifact a = report::load_artifact(write_temp(
      "load_old_metrics.json",
      R"({"counters":{},"gauges":{},)"
      R"("histograms":{"h":{"count":10,"sum":60,"min":4.5,"max":8,)"
      R"("buckets":[{"le":4,"count":0},{"le":8,"count":10}]}}})"));
  ASSERT_TRUE(a.scalars.count("histograms.h.p50"));
  EXPECT_GT(a.scalars.at("histograms.h.p50"), 4.0);
  EXPECT_LE(a.scalars.at("histograms.h.p50"), 8.0);
}

TEST(ReportLoad, ThrowsOnMissingAndInvalidFiles) {
  EXPECT_THROW(report::load_artifact("/nonexistent/nowhere.json"),
               std::runtime_error);
  EXPECT_THROW(
      report::load_artifact(write_temp("load_bad.json", "{\"not\": \"art\"}")),
      std::runtime_error);
}

TEST(ReportCompare, FlagsRegressionsAboveThreshold) {
  const report::Artifact base =
      report::load_artifact(write_temp("cmp_base.json", kBaseMetrics));
  const report::Artifact cand =
      report::load_artifact(write_temp("cmp_cand.json", kRegressedMetrics));
  report::CompareOptions options;
  options.threshold = 0.10;
  const report::CompareReport r = report::compare_artifacts(base, cand, options);
  EXPECT_GT(r.num_regressions, 0u);
  bool saw_admitted = false;
  for (const report::Delta& d : r.deltas) {
    if (d.key == "counters.online.admitted") {
      saw_admitted = true;
      EXPECT_NEAR(d.rel, -0.4, 1e-9);
      EXPECT_TRUE(d.regression);
    }
    if (d.key == "gauges.load") {
      EXPECT_FALSE(d.regression);  // unchanged
    }
  }
  EXPECT_TRUE(saw_admitted);
}

TEST(ReportCompare, SelfDiffHasNoRegressions) {
  const report::Artifact a =
      report::load_artifact(write_temp("cmp_self.json", kBaseMetrics));
  const report::CompareReport r =
      report::compare_artifacts(a, a, report::CompareOptions{});
  EXPECT_EQ(r.num_regressions, 0u);
  for (const report::Delta& d : r.deltas) {
    EXPECT_EQ(d.rel, 0.0);
  }
}

TEST(ReportCompare, IgnorePatternsSuppressGating) {
  const report::Artifact base =
      report::load_artifact(write_temp("cmp_ig_base.json", kBaseMetrics));
  const report::Artifact cand =
      report::load_artifact(write_temp("cmp_ig_cand.json", kRegressedMetrics));
  report::CompareOptions options;
  options.threshold = 0.10;
  // Substrings covering every differing key family.
  options.ignore = {"counters.", "route_ms"};
  const report::CompareReport r = report::compare_artifacts(base, cand, options);
  EXPECT_EQ(r.num_regressions, 0u);
}

TEST(ReportCompare, ExactKeysMustMatchBitForBit) {
  const report::Artifact base = report::load_artifact(write_temp(
      "cmp_exact_base.json",
      R"({"counters":{"admitted":47,"checksum":120760.019,"runs":100,"gone":1},)"
      R"("gauges":{},"histograms":{}})"));
  const report::Artifact cand = report::load_artifact(write_temp(
      "cmp_exact_cand.json",
      R"({"counters":{"admitted":40,"checksum":120760.019,"runs":120},)"
      R"("gauges":{},"histograms":{}})"));
  report::CompareOptions options;
  options.threshold = 0.3;  // admitted -15% and runs +20% both pass this
  EXPECT_EQ(report::compare_artifacts(base, cand, options).num_regressions, 0u);
  options.exact = {"admitted", "checksum", "gone"};
  options.ignore = {"admitted"};  // exact gating ignores the ignore list
  const report::CompareReport r = report::compare_artifacts(base, cand, options);
  // admitted differs, gone disappeared; checksum matches, runs is not exact.
  EXPECT_EQ(r.num_regressions, 2u);
  ASSERT_EQ(r.exact_missing.size(), 1u);
  EXPECT_EQ(r.exact_missing[0], "counters.gone");
  for (const report::Delta& d : r.deltas) {
    EXPECT_EQ(d.exact, d.key != "counters.runs") << d.key;
    EXPECT_EQ(d.regression, d.key == "counters.admitted") << d.key;
  }
}

TEST(ReportCompare, TracksKeysOnlyOnOneSide) {
  const report::Artifact base = report::load_artifact(write_temp(
      "cmp_only_base.json",
      R"({"counters":{"old":1,"both":2},"gauges":{},"histograms":{}})"));
  const report::Artifact cand = report::load_artifact(write_temp(
      "cmp_only_cand.json",
      R"({"counters":{"both":2,"new":3},"gauges":{},"histograms":{}})"));
  const report::CompareReport r =
      report::compare_artifacts(base, cand, report::CompareOptions{});
  ASSERT_EQ(r.only_baseline.size(), 1u);
  EXPECT_EQ(r.only_baseline[0], "counters.old");
  ASSERT_EQ(r.only_candidate.size(), 1u);
  EXPECT_EQ(r.only_candidate[0], "counters.new");
  // New/removed keys inform but never gate.
  EXPECT_EQ(r.num_regressions, 0u);
}

TEST(ReportCompare, ZeroBaselineMovementIsInfiniteRelativeChange) {
  const report::Artifact base = report::load_artifact(write_temp(
      "cmp_zero_base.json", R"({"counters":{"c":0},"gauges":{},"histograms":{}})"));
  const report::Artifact cand = report::load_artifact(write_temp(
      "cmp_zero_cand.json", R"({"counters":{"c":5},"gauges":{},"histograms":{}})"));
  report::CompareOptions options;
  options.threshold = 1e9;  // even a huge threshold cannot absorb inf
  const report::CompareReport r = report::compare_artifacts(base, cand, options);
  ASSERT_EQ(r.deltas.size(), 1u);
  EXPECT_TRUE(std::isinf(r.deltas[0].rel));
  EXPECT_TRUE(r.deltas[0].regression);
  EXPECT_EQ(r.num_regressions, 1u);
}

TEST(ReportOutput, JsonReportRoundTrips) {
  const report::Artifact base =
      report::load_artifact(write_temp("out_base.json", kBaseMetrics));
  const report::Artifact cand =
      report::load_artifact(write_temp("out_cand.json", kRegressedMetrics));
  report::CompareOptions options;
  options.threshold = 0.25;
  options.ignore = {"sum"};
  const report::CompareReport r = report::compare_artifacts(base, cand, options);

  std::ostringstream os;
  report::write_report_json(os, base, cand, r, options);
  const JsonValue doc = parse_json(os.str());
  EXPECT_EQ(doc.at("schema").string, "nfvm-report-v1");
  EXPECT_EQ(doc.at("threshold").number, 0.25);
  ASSERT_EQ(doc.at("ignore").array.size(), 1u);
  EXPECT_EQ(doc.at("ignore").array[0].string, "sum");
  EXPECT_EQ(doc.at("num_regressions").number,
            static_cast<double>(r.num_regressions));
  EXPECT_EQ(doc.at("deltas").array.size(), r.deltas.size());

  std::ostringstream md;
  report::write_report_markdown(md, base, cand, r, options);
  EXPECT_NE(md.str().find("regression"), std::string::npos);

  std::ostringstream summary;
  report::write_summary(summary, base);
  EXPECT_NE(summary.str().find("online.admitted"), std::string::npos);
}

TEST(ReportValidateFile, ChecksJsonlLineByLine) {
  const std::string good =
      write_temp("lines.jsonl", "{\"a\":1}\n{\"b\":2}\n");
  EXPECT_EQ(report::validate_file(good), "");
  const std::string bad =
      write_temp("bad_lines.jsonl", "{\"a\":1}\nnot json\n");
  EXPECT_NE(report::validate_file(bad), "");
}

}  // namespace
}  // namespace nfvm::obs
