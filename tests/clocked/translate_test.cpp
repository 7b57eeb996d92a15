#include "clocked/translate.h"

#include <gtest/gtest.h>

namespace ctrtl::clocked {
namespace {

using transfer::Design;
using transfer::ModuleKind;
using transfer::RegisterTransfer;

Design fig1_design() {
  Design d;
  d.name = "fig1";
  d.cs_max = 7;
  d.registers = {{"R1", 30}, {"R2", 12}};
  d.buses = {{"B1"}, {"B2"}};
  d.modules = {{"ADD", ModuleKind::kAdd, 1}};
  d.transfers = {
      RegisterTransfer::full("R1", "B1", "R2", "B2", 5, "ADD", 6, "B1", "R1")};
  return d;
}

TEST(PlanTranslation, Fig1MuxTables) {
  const Design d = fig1_design();
  const TranslationPlan plan = plan_translation(d);
  EXPECT_EQ(plan.clock_cycles, 8u);  // cs_max + 1

  ASSERT_TRUE(plan.module_schedule.contains("ADD"));
  const auto& add_schedule = plan.module_schedule.at("ADD");
  ASSERT_TRUE(add_schedule.contains(5));
  const ModuleActivation& activation = add_schedule.at(5);
  ASSERT_EQ(activation.operands.size(), 2u);
  EXPECT_EQ(activation.operands[0],
            (OperandSelect{0, transfer::Endpoint::register_out("R1")}));
  EXPECT_EQ(activation.operands[1],
            (OperandSelect{1, transfer::Endpoint::register_out("R2")}));
  EXPECT_FALSE(activation.op.has_value());

  ASSERT_TRUE(plan.register_schedule.contains("R1"));
  EXPECT_EQ(plan.register_schedule.at("R1"),
            (std::vector<WriteSelect>{{6, "ADD"}}));
}

TEST(PlanTranslation, RejectsConflictingSchedule) {
  Design d = fig1_design();
  d.transfers[0].operand_b->bus = "B1";  // bus double-booked
  try {
    (void)plan_translation(d);
    FAIL() << "expected rejection";
  } catch (const std::invalid_argument& error) {
    EXPECT_NE(std::string(error.what()).find("resource conflicts"),
              std::string::npos);
  }
}

TEST(PlanTranslation, RejectsInvalidDesign) {
  Design d = fig1_design();
  d.transfers[0].module = "NOPE";
  EXPECT_THROW(plan_translation(d), std::invalid_argument);
}

TEST(PlanTranslation, RejectsCycleCountThatWraps) {
  // cs_max 4294967295 validates, but cs_max + 1 clock cycles would wrap to
  // 0 and clock nothing.
  Design d = fig1_design();
  d.cs_max = 4294967295u;
  try {
    (void)plan_translation(d);
    FAIL() << "expected rejection";
  } catch (const std::invalid_argument& error) {
    EXPECT_NE(std::string(error.what()).find("cs_max 4294967295"),
              std::string::npos)
        << error.what();
  }
}

TEST(PlanTranslation, WriteMuxSortedByStep) {
  Design d = fig1_design();
  d.cs_max = 10;
  d.transfers.push_back(
      RegisterTransfer::full("R1", "B1", "R2", "B2", 8, "ADD", 9, "B1", "R1"));
  d.transfers.push_back(
      RegisterTransfer::full("R1", "B1", "R2", "B2", 2, "ADD", 3, "B1", "R1"));
  const TranslationPlan plan = plan_translation(d);
  const auto& writes = plan.register_schedule.at("R1");
  ASSERT_EQ(writes.size(), 3u);
  EXPECT_EQ(writes[0].step, 3u);
  EXPECT_EQ(writes[1].step, 6u);
  EXPECT_EQ(writes[2].step, 9u);
}

TEST(PlanTranslation, ToTextMentionsEverything) {
  const TranslationPlan plan = plan_translation(fig1_design());
  const std::string text = plan.to_text();
  EXPECT_NE(text.find("clock cycles: 8"), std::string::npos);
  EXPECT_NE(text.find("ADD reads"), std::string::npos);
  EXPECT_NE(text.find("R1 <= ADD.out"), std::string::npos);
}

}  // namespace
}  // namespace ctrtl::clocked
