#include "transfer/module_sim.h"

#include <gtest/gtest.h>

#include "rtl/modules.h"

namespace ctrtl::transfer {
namespace {

using rtl::RtValue;

std::vector<RtValue> vals(std::initializer_list<std::int64_t> payloads) {
  std::vector<RtValue> out;
  for (const std::int64_t p : payloads) {
    out.push_back(RtValue::of(p));
  }
  return out;
}

const RtValue kDisc = RtValue::disc();

TEST(ModuleSim, AddPipelineLatencyOne) {
  const ModuleDecl decl{"ADD", ModuleKind::kAdd, 1};
  ModuleSim sim(decl);
  EXPECT_TRUE(sim.step(vals({30, 12}), kDisc).is_disc()) << "pipe still empty";
  EXPECT_EQ(sim.step({&kDisc, 1}, kDisc), RtValue::of(42));
}

TEST(ModuleSim, ZeroLatencyCombinational) {
  const ModuleDecl decl{"CP", ModuleKind::kCopy, 0};
  ModuleSim sim(decl);
  EXPECT_EQ(sim.step(vals({7}), kDisc), RtValue::of(7));
  EXPECT_EQ(sim.out(), RtValue::of(7));
  std::vector<RtValue> idle = {kDisc};
  EXPECT_TRUE(sim.step(idle, kDisc).is_disc());
}

TEST(ModuleSim, MulTwoStage) {
  const ModuleDecl decl{"MUL", ModuleKind::kMul, 2, 0};
  ModuleSim sim(decl);
  std::vector<RtValue> idle = {kDisc, kDisc};
  EXPECT_TRUE(sim.step(vals({6, 7}), kDisc).is_disc());
  EXPECT_TRUE(sim.step(idle, kDisc).is_disc());
  EXPECT_EQ(sim.step(idle, kDisc), RtValue::of(42));
}

TEST(ModuleSim, MixedOperandsPoison) {
  const ModuleDecl decl{"ADD", ModuleKind::kAdd, 1};
  ModuleSim sim(decl);
  std::vector<RtValue> mixed = {RtValue::of(1), kDisc};
  sim.step(mixed, kDisc);
  EXPECT_TRUE(sim.poisoned());
  // Healthy operands afterwards cannot heal the unit.
  EXPECT_TRUE(sim.step(vals({2, 3}), kDisc).is_illegal());
  EXPECT_TRUE(sim.step(vals({2, 3}), kDisc).is_illegal());
}

TEST(ModuleSim, IllegalOperandIsIllegal) {
  const ModuleDecl decl{"ADD", ModuleKind::kAdd, 1};
  ModuleSim sim(decl);
  std::vector<RtValue> operands = {RtValue::illegal(), RtValue::of(1)};
  EXPECT_TRUE(sim.evaluate(operands, kDisc).is_illegal());
}

TEST(ModuleSim, AluOpSelectAndArity) {
  const ModuleDecl decl{"ALU", ModuleKind::kAlu, 1};
  ModuleSim sim(decl);
  EXPECT_EQ(operand_arity(decl, rtl::alu_ops::kAdd), 2u);
  EXPECT_EQ(operand_arity(decl, rtl::alu_ops::kPassA), 1u);
  EXPECT_EQ(sim.evaluate(vals({9, 4}), RtValue::of(rtl::alu_ops::kSub)),
            RtValue::of(5));
  std::vector<RtValue> unary = {RtValue::of(80), kDisc};
  EXPECT_EQ(sim.evaluate(unary, RtValue::of(rtl::alu_ops::kRshiftBase + 3)),
            RtValue::of(10));
  EXPECT_FALSE(operand_arity(decl, 999).has_value());
  EXPECT_THROW((void)sim.evaluate(vals({9, 4}), RtValue::of(999)),
               std::domain_error);
}

TEST(ModuleSim, AluOperandWithoutOpIsIllegal) {
  const ModuleDecl decl{"ALU", ModuleKind::kAlu, 1};
  ModuleSim sim(decl);
  std::vector<RtValue> operands = {RtValue::of(1), kDisc};
  EXPECT_TRUE(sim.evaluate(operands, kDisc).is_illegal());
  std::vector<RtValue> idle = {kDisc, kDisc};
  EXPECT_TRUE(sim.evaluate(idle, kDisc).is_disc());
}

TEST(ModuleSim, MaccStatefulOps) {
  const ModuleDecl decl{"MACC", ModuleKind::kMacc, 1, 0};
  ModuleSim sim(decl);
  std::vector<RtValue> idle = {kDisc, kDisc};
  EXPECT_EQ(sim.evaluate(idle, RtValue::of(rtl::MaccModule::kOpClear)),
            RtValue::of(0));
  EXPECT_EQ(sim.evaluate(vals({3, 4}), RtValue::of(rtl::MaccModule::kOpMac)),
            RtValue::of(12));
  EXPECT_EQ(sim.evaluate(vals({5, 6}), RtValue::of(rtl::MaccModule::kOpMac)),
            RtValue::of(42));
  EXPECT_EQ(sim.evaluate(idle, kDisc), RtValue::of(42)) << "idle holds acc";
  std::vector<RtValue> load = {RtValue::of(7), kDisc};
  EXPECT_EQ(sim.evaluate(load, RtValue::of(rtl::MaccModule::kOpLoad)),
            RtValue::of(7));
  EXPECT_EQ(sim.evaluate(idle, RtValue::of(rtl::MaccModule::kOpHold)),
            RtValue::of(7));
}

TEST(ModuleSim, MaccStrayOperandOnIdleIsIllegal) {
  const ModuleDecl decl{"MACC", ModuleKind::kMacc, 1, 0};
  ModuleSim sim(decl);
  std::vector<RtValue> stray = {RtValue::of(1), kDisc};
  EXPECT_TRUE(sim.evaluate(stray, kDisc).is_illegal());
}

TEST(ModuleSim, CordicMatchesModuleKernel) {
  const ModuleDecl decl{"CORDIC", ModuleKind::kCordic, 1, 16, 24};
  ModuleSim sim(decl);
  const std::int64_t angle = 1 << 15;  // 0.5 rad in Q16
  std::vector<RtValue> operands = {RtValue::of(angle)};
  const RtValue sin_val =
      sim.evaluate(operands, RtValue::of(rtl::CordicModule::kOpSin));
  const auto expected = rtl::CordicModule::rotate(angle, 16, 24);
  EXPECT_EQ(sin_val, RtValue::of(expected.sin));
}

TEST(ModuleSim, MatchesKernelModuleOnRandomSequences) {
  // Differential check: ModuleSim::step vs the kernel rtl::Module pipeline
  // discipline for a latency-1 adder over a mixed healthy/idle sequence.
  const ModuleDecl decl{"ADD", ModuleKind::kAdd, 1};
  ModuleSim sim(decl);
  const std::vector<std::vector<RtValue>> sequence = {
      vals({1, 2}), {kDisc, kDisc}, vals({3, 4}), vals({5, 6}), {kDisc, kDisc}};
  const std::vector<RtValue> expected_out = {
      kDisc, RtValue::of(3), kDisc, RtValue::of(7), RtValue::of(11)};
  for (std::size_t i = 0; i < sequence.size(); ++i) {
    EXPECT_EQ(sim.step(sequence[i], kDisc), expected_out[i]) << "step " << i;
  }
}

}  // namespace
}  // namespace ctrtl::transfer
