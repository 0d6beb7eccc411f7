// serve/fault_plan.h: plan parsing and validation, per-line fault lookup,
// and the determinism of the generated garbage lines (same plan -> same
// injected bytes, the property the fault-smoke CI job relies on).
#include <gtest/gtest.h>

#include <stdexcept>

#include "serve/fault_plan.h"

namespace nfvm::serve {
namespace {

constexpr std::string_view kValidPlan = R"({
  "schema": "nfvm-fault-plan-v1",
  "seed": 42,
  "faults": [
    {"line": 100, "kind": "stall_ms", "value": 50},
    {"line": 120, "kind": "garbage"},
    {"line": 120, "kind": "dup_depart"},
    {"line": 130, "kind": "unknown_depart"},
    {"line": 200, "kind": "kill"}
  ]
})";

TEST(FaultPlan, ParsesAndIndexesByLine) {
  const FaultPlan plan = FaultPlan::parse(kValidPlan);
  EXPECT_FALSE(plan.empty());
  EXPECT_EQ(plan.num_faults(), 5u);
  EXPECT_EQ(plan.seed(), 42u);

  ASSERT_NE(plan.at(100), nullptr);
  ASSERT_EQ(plan.at(100)->size(), 1u);
  EXPECT_EQ((*plan.at(100))[0].kind, FaultKind::kStallMs);
  EXPECT_EQ((*plan.at(100))[0].value, 50.0);

  // Two faults on the same line, kept in plan order.
  ASSERT_NE(plan.at(120), nullptr);
  ASSERT_EQ(plan.at(120)->size(), 2u);
  EXPECT_EQ((*plan.at(120))[0].kind, FaultKind::kGarbage);
  EXPECT_EQ((*plan.at(120))[1].kind, FaultKind::kDupDepart);

  EXPECT_EQ(plan.at(99), nullptr);
  EXPECT_EQ(plan.at(0), nullptr);
}

TEST(FaultPlan, DefaultPlanIsEmpty) {
  const FaultPlan plan;
  EXPECT_TRUE(plan.empty());
  EXPECT_EQ(plan.num_faults(), 0u);
  EXPECT_EQ(plan.at(1), nullptr);
}

TEST(FaultPlan, GarbageLinesAreDeterministicAndNeverJson) {
  const FaultPlan a = FaultPlan::parse(kValidPlan);
  const FaultPlan b = FaultPlan::parse(kValidPlan);
  EXPECT_EQ(a.garbage_line(120), b.garbage_line(120));
  EXPECT_NE(a.garbage_line(120), a.garbage_line(121));
  // Starts with '}' so it can never parse as a JSON value.
  EXPECT_EQ(a.garbage_line(120).front(), '}');
  EXPECT_FALSE(a.garbage_line(120).empty());
}

TEST(FaultPlan, SeedChangesGarbage) {
  const FaultPlan a = FaultPlan::parse(kValidPlan);
  const FaultPlan b = FaultPlan::parse(
      R"({"schema":"nfvm-fault-plan-v1","seed":43,"faults":[]})");
  EXPECT_NE(a.garbage_line(120), b.garbage_line(120));
}

TEST(FaultPlan, RejectsMalformedPlans) {
  // Wrong schema.
  EXPECT_THROW(
      FaultPlan::parse(R"({"schema":"other","seed":1,"faults":[]})"),
      std::invalid_argument);
  // Unknown kind.
  EXPECT_THROW(FaultPlan::parse(
                   R"({"schema":"nfvm-fault-plan-v1","seed":1,)"
                   R"("faults":[{"line":1,"kind":"explode"}]})"),
               std::invalid_argument);
  // Line 0 (lines are 1-based).
  EXPECT_THROW(FaultPlan::parse(
                   R"({"schema":"nfvm-fault-plan-v1","seed":1,)"
                   R"("faults":[{"line":0,"kind":"garbage"}]})"),
               std::invalid_argument);
  // A seed no 64-bit integer can hold.
  EXPECT_THROW(FaultPlan::parse(
                   R"({"schema":"nfvm-fault-plan-v1","seed":1e30,"faults":[]})"),
               std::invalid_argument);
  // A stall sleep_for cannot convert to its clock (undefined behaviour).
  EXPECT_THROW(FaultPlan::parse(
                   R"({"schema":"nfvm-fault-plan-v1","seed":1,)"
                   R"("faults":[{"line":1,"kind":"stall_ms","value":1e300}]})"),
               std::invalid_argument);
  // Missing faults array.
  EXPECT_THROW(
      FaultPlan::parse(R"({"schema":"nfvm-fault-plan-v1","seed":1})"),
      std::invalid_argument);
  // Not JSON at all.
  EXPECT_THROW(FaultPlan::parse("}{"), std::invalid_argument);
}

}  // namespace
}  // namespace nfvm::serve
