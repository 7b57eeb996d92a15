#include "fault/plan.h"

#include <gtest/gtest.h>

namespace ctrtl::fault {
namespace {

TEST(FaultPlan, ParsesEveryKind) {
  common::DiagnosticBag diags;
  const FaultPlan plan = parse_fault_plan(
      "# a comment line\n"
      "stuck-disc R1\n"
      "stuck-illegal R2 @3\n"
      "\n"
      "force-bus B1 = 99 @5:ra\n"
      "drop R1.in @6:cr\n"
      "drop B2 @5\n"
      "corrupt-module ADD = -7\n",
      diags);
  EXPECT_FALSE(diags.has_errors()) << diags.to_text();
  ASSERT_EQ(plan.faults.size(), 6u);
  EXPECT_EQ(plan.faults[0],
            (FaultSpec{FaultKind::kStuckDisc, "R1", 0, std::nullopt, 0}));
  EXPECT_EQ(plan.faults[1],
            (FaultSpec{FaultKind::kStuckIllegal, "R2", 3, std::nullopt, 0}));
  EXPECT_EQ(plan.faults[2],
            (FaultSpec{FaultKind::kForceBus, "B1", 5, rtl::Phase::kRa, 99}));
  EXPECT_EQ(plan.faults[3],
            (FaultSpec{FaultKind::kDropTransfer, "R1.in", 6, rtl::Phase::kCr, 0}));
  EXPECT_EQ(plan.faults[4],
            (FaultSpec{FaultKind::kDropTransfer, "B2", 5, std::nullopt, 0}));
  EXPECT_EQ(plan.faults[5],
            (FaultSpec{FaultKind::kCorruptModule, "ADD", 0, std::nullopt, -7}));
}

TEST(FaultPlan, RoundTripsThroughText) {
  common::DiagnosticBag diags;
  const FaultPlan plan = parse_fault_plan(
      "stuck-disc R1 @2\n"
      "stuck-illegal R2\n"
      "force-bus B1 = -3 @1:wb\n"
      "drop ADD.in1 @4\n"
      "corrupt-module MUL = 12 @6\n",
      diags);
  ASSERT_FALSE(diags.has_errors()) << diags.to_text();
  common::DiagnosticBag reparse_diags;
  const FaultPlan reparsed = parse_fault_plan(to_text(plan), reparse_diags);
  EXPECT_FALSE(reparse_diags.has_errors()) << reparse_diags.to_text();
  EXPECT_EQ(reparsed, plan);
}

TEST(FaultPlan, MalformedLinesErrorAndAreSkipped) {
  // Each bad line must produce an error anchored to its line number while
  // the well-formed remainder still parses — no crash, no lost faults.
  common::DiagnosticBag diags;
  const FaultPlan plan = parse_fault_plan(
      "stuck-disc\n"                     // 1: missing target
      "stuck-disc R1 @5:ra\n"            // 2: phase not allowed
      "force-bus B1 = 4\n"               // 3: missing @step:phase
      "force-bus B1 = 4 @5:cm\n"         // 4: cm is not a transfer phase
      "force-bus B1 = x @5:ra\n"         // 5: value is not a number
      "drop B1\n"                        // 6: missing @step
      "corrupt-module ADD\n"             // 7: missing = value
      "frobnicate R1\n"                  // 8: unknown keyword
      "stuck-disc R1 @banana\n"          // 9: step is not a number
      "stuck-illegal R9 extra tokens\n"  // 10: trailing garbage
      "force-bus B1 = 5 @4294967298:ra\n"  // 11: step wraps past UINT_MAX
      "drop B1 @-1\n"                      // 12: negative step
      "drop B1 @+3\n"                      // 13: signed step
      "force-bus B1 = 2 @5:ra   # ok\n"  // 14: valid (comment stripped)
      "stuck-disc R2   # also ok\n",     // 15: valid
      diags);
  EXPECT_TRUE(diags.has_errors());
  ASSERT_EQ(diags.error_count(), 13u) << diags.to_text();
  ASSERT_EQ(diags.entries().size(), 13u) << "parse emits only errors";
  for (std::size_t i = 0; i < diags.entries().size(); ++i) {
    EXPECT_EQ(diags.entries()[i].location.line, i + 1) << diags.to_text();
  }
  EXPECT_EQ(diags.entries()[10].message, "bad control step '4294967298'");
  EXPECT_EQ(diags.entries()[11].message, "bad control step '-1'");
  EXPECT_EQ(diags.entries()[12].message, "bad control step '+3'");
  ASSERT_EQ(plan.faults.size(), 2u);
  EXPECT_EQ(plan.faults[0],
            (FaultSpec{FaultKind::kForceBus, "B1", 5, rtl::Phase::kRa, 2}));
  EXPECT_EQ(plan.faults[1],
            (FaultSpec{FaultKind::kStuckDisc, "R2", 0, std::nullopt, 0}));
}

TEST(FaultPlan, EmptyAndCommentOnlyInputsAreValid) {
  common::DiagnosticBag diags;
  EXPECT_TRUE(parse_fault_plan("", diags).faults.empty());
  EXPECT_TRUE(parse_fault_plan("# nothing\n\n  \n# here\n", diags).faults.empty());
  EXPECT_TRUE(diags.empty()) << diags.to_text();
}

TEST(FaultPlan, KindNamesMatchGrammarKeywords) {
  EXPECT_EQ(to_string(FaultKind::kStuckDisc), "stuck-disc");
  EXPECT_EQ(to_string(FaultKind::kStuckIllegal), "stuck-illegal");
  EXPECT_EQ(to_string(FaultKind::kForceBus), "force-bus");
  EXPECT_EQ(to_string(FaultKind::kDropTransfer), "drop");
  EXPECT_EQ(to_string(FaultKind::kCorruptModule), "corrupt-module");
}

}  // namespace
}  // namespace ctrtl::fault
