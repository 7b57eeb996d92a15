#include "rtl/module.h"

#include <gtest/gtest.h>

#include <cmath>

#include "rtl/controller.h"
#include "rtl/modules.h"
#include "rtl/transfer_process.h"

namespace ctrtl::rtl {
namespace {

std::int64_t add_fn_result(std::span<const std::int64_t> v) { return v[0] + v[1]; }

/// Harness: a module under test with constant sources wired through
/// transfer processes, mimicking the paper's usage.
struct Fixture {
  kernel::Scheduler sched;
  Controller ctl;

  explicit Fixture(unsigned cs_max) : ctl(sched, cs_max) {}

  RtSignal& constant(const std::string& name, std::int64_t value) {
    return sched.make_signal<RtValue>(name, RtValue::of(value));
  }

  void feed(Module& module, unsigned step, RtSignal& a, RtSignal& b) {
    transfers.push_back(std::make_unique<TransferProcess>(
        sched, ctl, step, Phase::kRb, a, module.input(0), "fa" + std::to_string(step)));
    transfers.push_back(std::make_unique<TransferProcess>(
        sched, ctl, step, Phase::kRb, b, module.input(1), "fb" + std::to_string(step)));
  }

  void feed_op(Module& module, unsigned step, RtSignal& op) {
    transfers.push_back(std::make_unique<TransferProcess>(
        sched, ctl, step, Phase::kRb, op, module.op_port(), "op" + std::to_string(step)));
  }

  /// Output port value observed at phase `wa` of each step.
  std::vector<std::string> run_and_sample_out(Module& module) {
    sched.initialize();
    std::vector<std::string> samples;
    while (sched.step()) {
      if (ctl.ph().read() == Phase::kWa) {
        samples.push_back(to_string(module.out().read()));
      }
    }
    return samples;
  }

  std::vector<std::unique_ptr<TransferProcess>> transfers;
};

TEST(Module, PaperAdderPipelineTiming) {
  // Operands fetched in step 1 appear at the output in step 2 (latency 1).
  Fixture f(3);
  FixedFunctionModule add(f.sched, f.ctl, "ADD", 2, 1, add_fn_result);
  add.start(f.sched);
  f.feed(add, 1, f.constant("c30", 30), f.constant("c12", 12));
  const auto samples = f.run_and_sample_out(add);
  EXPECT_EQ(samples, (std::vector<std::string>{"DISC", "42", "DISC"}));
}

TEST(Module, AdderIdleWhenBothOperandsDisc) {
  Fixture f(2);
  FixedFunctionModule add(f.sched, f.ctl, "ADD", 2, 1, add_fn_result);
  add.start(f.sched);
  const auto samples = f.run_and_sample_out(add);
  EXPECT_EQ(samples, (std::vector<std::string>{"DISC", "DISC"}));
  EXPECT_FALSE(add.poisoned());
}

TEST(Module, MixedOperandsProduceIllegal) {
  // Paper: "either both operand values are natural values or both are DISC"
  // — one operand alone poisons the module.
  Fixture f(3);
  FixedFunctionModule add(f.sched, f.ctl, "ADD", 2, 1, add_fn_result);
  add.start(f.sched);
  RtSignal& c = f.constant("c1", 1);
  f.transfers.push_back(std::make_unique<TransferProcess>(
      f.sched, f.ctl, 1, Phase::kRb, c, add.input(0), "only_a"));
  const auto samples = f.run_and_sample_out(add);
  EXPECT_EQ(samples, (std::vector<std::string>{"DISC", "ILLEGAL", "ILLEGAL"}));
  EXPECT_TRUE(add.poisoned());
}

TEST(Module, PoisonIsSticky) {
  // Valid operands after a poisoning event must not heal the module
  // (paper's `if M /= ILLEGAL` guard).
  Fixture f(4);
  FixedFunctionModule add(f.sched, f.ctl, "ADD", 2, 1, add_fn_result);
  add.start(f.sched);
  RtSignal& c = f.constant("c1", 1);
  f.transfers.push_back(std::make_unique<TransferProcess>(
      f.sched, f.ctl, 1, Phase::kRb, c, add.input(0), "only_a"));
  f.feed(add, 3, f.constant("c2", 2), f.constant("c3", 3));  // valid operands later
  const auto samples = f.run_and_sample_out(add);
  EXPECT_EQ(samples, (std::vector<std::string>{"DISC", "ILLEGAL", "ILLEGAL", "ILLEGAL"}));
}

TEST(Module, ZeroLatencyComputesWithinStep) {
  Fixture f(2);
  FixedFunctionModule add(f.sched, f.ctl, "ADD0", 2, 0, add_fn_result);
  add.start(f.sched);
  f.feed(add, 1, f.constant("c3", 3), f.constant("c4", 4));
  const auto samples = f.run_and_sample_out(add);
  EXPECT_EQ(samples, (std::vector<std::string>{"7", "DISC"}));
}

TEST(Module, TwoStagePipelineDelaysTwoSteps) {
  Fixture f(4);
  FixedFunctionModule mul(f.sched, f.ctl, "MUL", 2, 2,
                          [](std::span<const std::int64_t> v) { return v[0] * v[1]; });
  mul.start(f.sched);
  f.feed(mul, 1, f.constant("c6", 6), f.constant("c7", 7));
  const auto samples = f.run_and_sample_out(mul);
  EXPECT_EQ(samples, (std::vector<std::string>{"DISC", "DISC", "42", "DISC"}));
}

TEST(Module, PipelinedBackToBackOperands) {
  // Pipelined module accepts new operands every step (paper: "can fetch
  // operands in each control step and provide the results in the next").
  Fixture f(4);
  FixedFunctionModule add(f.sched, f.ctl, "ADD", 2, 1, add_fn_result);
  add.start(f.sched);
  f.feed(add, 1, f.constant("a1", 1), f.constant("b1", 2));
  f.feed(add, 2, f.constant("a2", 10), f.constant("b2", 20));
  f.feed(add, 3, f.constant("a3", 100), f.constant("b3", 200));
  const auto samples = f.run_and_sample_out(add);
  EXPECT_EQ(samples, (std::vector<std::string>{"DISC", "3", "30", "300"}));
}

TEST(Module, ThreeStagePipelineKeepsOperandOrder) {
  Fixture f(6);
  FixedFunctionModule add(f.sched, f.ctl, "ADD3", 2, 3, add_fn_result);
  add.start(f.sched);
  f.feed(add, 1, f.constant("a1", 1), f.constant("b1", 2));
  f.feed(add, 2, f.constant("a2", 10), f.constant("b2", 20));
  f.feed(add, 3, f.constant("a3", 100), f.constant("b3", 200));
  const auto samples = f.run_and_sample_out(add);
  EXPECT_EQ(samples, (std::vector<std::string>{"DISC", "DISC", "DISC", "3",
                                               "30", "300"}));
}

TEST(Module, PipelineDeeperThanTheRunKeepsCsMaxPlusOneStages) {
  // A run has cs_max `cm` steps, so nothing leaves a pipeline deeper than
  // cs_max + 1 stages: a declared latency of four billion costs no more
  // than that and still shows DISC for the whole run.
  Fixture f(3);
  FixedFunctionModule add(f.sched, f.ctl, "SLOW", 2, 4000000000u, add_fn_result);
  add.start(f.sched);
  f.feed(add, 1, f.constant("c30", 30), f.constant("c12", 12));
  const auto samples = f.run_and_sample_out(add);
  EXPECT_EQ(samples, (std::vector<std::string>{"DISC", "DISC", "DISC"}));
  EXPECT_EQ(add.config().latency, 4000000000u);
}

TEST(Module, InputPortValidation) {
  Fixture f(1);
  FixedFunctionModule add(f.sched, f.ctl, "ADD", 2, 1, add_fn_result);
  EXPECT_NO_THROW(add.input(0));
  EXPECT_NO_THROW(add.input(1));
  EXPECT_THROW(add.input(2), std::out_of_range);
  EXPECT_THROW(add.op_port(), std::logic_error) << "no op port configured";
}

TEST(Module, NullFunctionRejected) {
  Fixture f(1);
  EXPECT_THROW(
      FixedFunctionModule(f.sched, f.ctl, "BAD", 2, 1, nullptr),
      std::invalid_argument);
}

// --- AluModule ---------------------------------------------------------------

TEST(AluModule, OpSelectsOperation) {
  Fixture f(3);
  AluModule alu(f.sched, f.ctl, "ALU", 2, 1, make_standard_alu_ops());
  alu.start(f.sched);
  f.feed(alu, 1, f.constant("c9", 9), f.constant("c4", 4));
  f.feed_op(alu, 1, f.constant("sub", alu_ops::kSub));
  const auto samples = f.run_and_sample_out(alu);
  EXPECT_EQ(samples, (std::vector<std::string>{"DISC", "5", "DISC"}));
}

TEST(AluModule, UnaryOpIgnoresSecondPort) {
  Fixture f(3);
  AluModule alu(f.sched, f.ctl, "ALU", 2, 1, make_standard_alu_ops());
  alu.start(f.sched);
  RtSignal& a = f.constant("c9", 9);
  f.transfers.push_back(std::make_unique<TransferProcess>(
      f.sched, f.ctl, 1, Phase::kRb, a, alu.input(0), "a"));
  f.feed_op(alu, 1, f.constant("passa", alu_ops::kPassA));
  const auto samples = f.run_and_sample_out(alu);
  EXPECT_EQ(samples, (std::vector<std::string>{"DISC", "9", "DISC"}));
}

TEST(AluModule, RshiftFamily) {
  Fixture f(3);
  AluModule alu(f.sched, f.ctl, "ALU", 2, 1, make_standard_alu_ops());
  alu.start(f.sched);
  RtSignal& a = f.constant("c80", 80);
  f.transfers.push_back(std::make_unique<TransferProcess>(
      f.sched, f.ctl, 1, Phase::kRb, a, alu.input(0), "a"));
  f.feed_op(alu, 1, f.constant("shift3", alu_ops::kRshiftBase + 3));
  const auto samples = f.run_and_sample_out(alu);
  EXPECT_EQ(samples, (std::vector<std::string>{"DISC", "10", "DISC"}));
}

TEST(AluModule, OperandWithoutOpIsIllegal) {
  Fixture f(2);
  AluModule alu(f.sched, f.ctl, "ALU", 2, 1, make_standard_alu_ops());
  alu.start(f.sched);
  RtSignal& a = f.constant("c1", 1);
  f.transfers.push_back(std::make_unique<TransferProcess>(
      f.sched, f.ctl, 1, Phase::kRb, a, alu.input(0), "a"));
  const auto samples = f.run_and_sample_out(alu);
  EXPECT_EQ(samples, (std::vector<std::string>{"DISC", "ILLEGAL"}));
}

TEST(AluModule, MissingOperandForBinaryOpIsIllegal) {
  Fixture f(2);
  AluModule alu(f.sched, f.ctl, "ALU", 2, 1, make_standard_alu_ops());
  alu.start(f.sched);
  RtSignal& a = f.constant("c1", 1);
  f.transfers.push_back(std::make_unique<TransferProcess>(
      f.sched, f.ctl, 1, Phase::kRb, a, alu.input(0), "a"));
  f.feed_op(alu, 1, f.constant("add", alu_ops::kAdd));
  const auto samples = f.run_and_sample_out(alu);
  EXPECT_EQ(samples, (std::vector<std::string>{"DISC", "ILLEGAL"}));
}

TEST(AluModule, OpValidationAtConstruction) {
  Fixture f(1);
  AluModule::OpTable ops;
  ops[0] = {"triple", 3, [](std::span<const std::int64_t>) { return 0; }};
  EXPECT_THROW(AluModule(f.sched, f.ctl, "ALU", 2, 1, std::move(ops)),
               std::invalid_argument);
}

TEST(AluModule, StandardTableContents) {
  const auto ops = make_standard_alu_ops();
  EXPECT_EQ(ops.at(alu_ops::kAdd).mnemonic, "add");
  EXPECT_EQ(ops.at(alu_ops::kSub).arity, 2u);
  EXPECT_EQ(ops.at(alu_ops::kPassA).arity, 1u);
  EXPECT_TRUE(ops.contains(alu_ops::kRshiftBase));
  EXPECT_TRUE(ops.contains(alu_ops::kRshiftMax));
}

// --- CopyModule --------------------------------------------------------------

TEST(CopyModule, PassesThroughSameStep) {
  Fixture f(2);
  CopyModule copy(f.sched, f.ctl, "CP");
  copy.start(f.sched);
  RtSignal& a = f.constant("c5", 5);
  f.transfers.push_back(std::make_unique<TransferProcess>(
      f.sched, f.ctl, 1, Phase::kRb, a, copy.input(0), "a"));
  const auto samples = f.run_and_sample_out(copy);
  EXPECT_EQ(samples, (std::vector<std::string>{"5", "DISC"}));
}

// --- MaccModule --------------------------------------------------------------

TEST(MaccModule, AccumulatesFixedPointProducts) {
  Fixture f(5);
  MaccModule macc(f.sched, f.ctl, "MACC", 0);  // frac_bits 0: plain integers
  macc.start(f.sched);
  f.feed_op(macc, 1, f.constant("clr", MaccModule::kOpClear));
  f.feed(macc, 2, f.constant("a2", 3), f.constant("b2", 4));
  f.feed_op(macc, 2, f.constant("mac2", MaccModule::kOpMac));
  f.feed(macc, 3, f.constant("a3", 5), f.constant("b3", 6));
  f.feed_op(macc, 3, f.constant("mac3", MaccModule::kOpMac));
  const auto samples = f.run_and_sample_out(macc);
  // acc: step1 clear -> 0, step2 -> 12, step3 -> 42; output lags one step.
  EXPECT_EQ(samples, (std::vector<std::string>{"DISC", "0", "12", "42", "42"}));
}

TEST(MaccModule, LoadReplacesAccumulator) {
  Fixture f(3);
  MaccModule macc(f.sched, f.ctl, "MACC", 0);
  macc.start(f.sched);
  RtSignal& a = f.constant("c7", 7);
  f.transfers.push_back(std::make_unique<TransferProcess>(
      f.sched, f.ctl, 1, Phase::kRb, a, macc.input(0), "a"));
  f.feed_op(macc, 1, f.constant("ld", MaccModule::kOpLoad));
  const auto samples = f.run_and_sample_out(macc);
  EXPECT_EQ(samples, (std::vector<std::string>{"DISC", "7", "7"}));
}

TEST(MaccModule, StrayOperandOnIdleUnitIsIllegal) {
  Fixture f(2);
  MaccModule macc(f.sched, f.ctl, "MACC", 0);
  macc.start(f.sched);
  RtSignal& a = f.constant("c7", 7);
  f.transfers.push_back(std::make_unique<TransferProcess>(
      f.sched, f.ctl, 1, Phase::kRb, a, macc.input(0), "a"));
  const auto samples = f.run_and_sample_out(macc);
  EXPECT_EQ(samples, (std::vector<std::string>{"DISC", "ILLEGAL"}));
}

TEST(MaccModule, FixedPointMacRounds) {
  Fixture f(3);
  MaccModule macc(f.sched, f.ctl, "MACC", 16);
  macc.start(f.sched);
  const std::int64_t half = 1 << 15;  // 0.5 in Q16
  const std::int64_t two = 2 << 16;
  f.feed(macc, 1, f.constant("a", half), f.constant("b", two));
  f.feed_op(macc, 1, f.constant("mac", MaccModule::kOpMac));
  const auto samples = f.run_and_sample_out(macc);
  EXPECT_EQ(samples[1], std::to_string(1 << 16));  // 0.5 * 2 = 1.0
}

// --- CordicModule ------------------------------------------------------------

TEST(CordicModule, RotateMatchesLibm) {
  constexpr unsigned kFrac = 16;
  constexpr unsigned kIters = 24;
  const double one = static_cast<double>(1 << kFrac);
  for (const double angle : {0.0, 0.5, 1.0, -0.5, 3.0, -3.0, 2.0, -2.0}) {
    const auto raw = static_cast<std::int64_t>(std::llround(angle * one));
    const auto [sin_raw, cos_raw] = CordicModule::rotate(raw, kFrac, kIters);
    EXPECT_NEAR(sin_raw / one, std::sin(angle), 2e-4) << "angle " << angle;
    EXPECT_NEAR(cos_raw / one, std::cos(angle), 2e-4) << "angle " << angle;
  }
}

TEST(CordicModule, OpSelectsSinOrCos) {
  constexpr unsigned kFrac = 16;
  Fixture f(3);
  CordicModule cordic(f.sched, f.ctl, "CORDIC", kFrac, 24, 1);
  cordic.start(f.sched);
  const std::int64_t angle = 1 << 15;  // 0.5 rad
  RtSignal& a = f.constant("ang", angle);
  f.transfers.push_back(std::make_unique<TransferProcess>(
      f.sched, f.ctl, 1, Phase::kRb, a, cordic.input(0), "a"));
  f.feed_op(cordic, 1, f.constant("sin", CordicModule::kOpSin));
  const auto samples = f.run_and_sample_out(cordic);
  const double got = std::stod(samples[1]) / (1 << kFrac);
  EXPECT_NEAR(got, std::sin(0.5), 2e-4);
}

// --- fixed_mul ---------------------------------------------------------------

TEST(FixedMul, ZeroFracBitsIsPlainMultiply) {
  EXPECT_EQ(fixed_mul(6, 7, 0), 42);
  EXPECT_EQ(fixed_mul(-6, 7, 0), -42);
}

TEST(FixedMul, RescalesQ16) {
  const std::int64_t one = 1 << 16;
  EXPECT_EQ(fixed_mul(one, one, 16), one);
  EXPECT_EQ(fixed_mul(one / 2, one / 2, 16), one / 4);
  EXPECT_EQ(fixed_mul(-one / 2, one, 16), -one / 2);
}

}  // namespace
}  // namespace ctrtl::rtl
