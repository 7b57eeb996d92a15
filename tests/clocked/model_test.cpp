#include <gtest/gtest.h>

#include <vector>

#include "baseline/clocked_rtl.h"
#include "clocked/translate.h"

namespace ctrtl::clocked {
namespace {

// The clocked implementation of a translation plan, run by the one clocked
// simulator, baseline::ClockedRtlSim: directed designs whose results are
// known by hand.

using baseline::ClockedRtlSim;
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

TEST(ClockedRtlSim, Fig1ComputesSameResult) {
  const Design d = fig1_design();
  ClockedRtlSim sim(plan_translation(d));
  const ClockedRtlSim::Result result = sim.run();
  EXPECT_EQ(sim.register_value("R1"), rtl::RtValue::of(42));
  EXPECT_EQ(sim.register_value("R2"), rtl::RtValue::of(12));
  EXPECT_EQ(result.clock_cycles, 8u);
  EXPECT_GT(result.elapsed_fs, 0u) << "clocked: physical time advances";
  EXPECT_EQ(result.elapsed_fs, sim.scheduler().now().fs);
}

TEST(ClockedRtlSim, WriteTraceTagsSteps) {
  ClockedRtlSim sim(plan_translation(fig1_design()));
  sim.run();
  ASSERT_EQ(sim.writes().size(), 1u);
  EXPECT_EQ(sim.writes()[0],
            (verify::RegisterWrite{6, "R1", rtl::RtValue::of(42)}));
}

TEST(ClockedRtlSim, PipelinedMultiplierLatency) {
  Design d;
  d.cs_max = 6;
  d.registers = {{"A", 6}, {"B", 7}, {"OUT", std::nullopt}};
  d.buses = {{"B1"}, {"B2"}};
  d.modules = {{"MUL", ModuleKind::kMul, 2, 0}};
  d.transfers = {
      RegisterTransfer::full("A", "B1", "B", "B2", 1, "MUL", 3, "B1", "OUT")};
  for (const ClockScheme scheme :
       {ClockScheme::kOneCyclePerStep, ClockScheme::kTwoCyclesPerStep}) {
    ClockedRtlSim sim(plan_translation(d), scheme);
    sim.run();
    EXPECT_EQ(sim.register_value("OUT"), rtl::RtValue::of(42));
    EXPECT_EQ(sim.writes(),
              (std::vector<verify::RegisterWrite>{
                  {3, "OUT", rtl::RtValue::of(42)}}));
  }
}

TEST(ClockedRtlSim, InputsWork) {
  Design d;
  d.cs_max = 3;
  d.registers = {{"OUT", std::nullopt}};
  d.buses = {{"B1"}, {"B2"}};
  d.inputs = {{"x_in"}, {"y_in"}};
  d.modules = {{"ADD", ModuleKind::kAdd, 1}};
  RegisterTransfer t;
  t.operand_a = transfer::OperandPath{transfer::Endpoint::input("x_in"), "B1"};
  t.operand_b = transfer::OperandPath{transfer::Endpoint::input("y_in"), "B2"};
  t.read_step = 1;
  t.module = "ADD";
  t.write_step = 2;
  t.write_bus = "B1";
  t.destination = "OUT";
  d.transfers = {t};
  ClockedRtlSim sim(plan_translation(d));
  sim.set_input("x_in", rtl::RtValue::of(20));
  sim.set_input("y_in", rtl::RtValue::of(22));
  sim.run();
  EXPECT_EQ(sim.register_value("OUT"), rtl::RtValue::of(42));
}

TEST(ClockedRtlSim, UnknownNamesThrow) {
  ClockedRtlSim sim(plan_translation(fig1_design()));
  EXPECT_THROW((void)sim.register_value("X"), std::invalid_argument);
  EXPECT_THROW(sim.set_input("X", rtl::RtValue::of(1)), std::invalid_argument);
}

}  // namespace
}  // namespace ctrtl::clocked
