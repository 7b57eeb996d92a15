#include <gtest/gtest.h>

#include "baseline/clocked_rtl.h"
#include "baseline/handshake.h"
#include "transfer/build.h"
#include "transfer/conflict.h"
#include "verify/equivalence.h"
#include "verify/random_design.h"
#include "vhdl/elaborator.h"
#include "vhdl/emitter.h"

namespace ctrtl {
namespace {

// The grand tour: one design pushed through EVERY layer of the library,
// all observations agreeing. This is the closest thing to the paper's
// thesis statement — one abstract RT model, many consistent views.
//
//   Design --(build_model)--------> clock-free simulation
//          --(verify::evaluate)---> formal reference semantics
//          --(emit_vhdl + parse +
//             elaborate)----------> interpreted VHDL simulation
//          --(plan_translation)---> clocked RTL, one and two cycles per step
//          --(HandshakeModel)-----> handshake-style abstract simulation

class FullChain : public ::testing::TestWithParam<int> {};

TEST_P(FullChain, AllSevenViewsAgree) {
  verify::RandomDesignOptions options;
  options.seed = static_cast<std::uint32_t>(GetParam()) + 9000;
  options.num_transfers = 4 + static_cast<unsigned>(GetParam() % 5);
  // ALU op ports are outside the VHDL emitter's cell library; stay with
  // fixed-function units so every layer can execute the same design. The
  // emitted VHDL carries the paper's in-band Integer encoding, so payloads
  // must remain naturals (negative values collide with DISC/ILLEGAL).
  options.use_alu = false;
  options.naturals_only = true;
  const transfer::Design design = verify::random_design(options);
  ASSERT_TRUE(transfer::analyze(design).clean());

  // 1. Clock-free simulation (paper-faithful TRANS processes).
  auto abstract = transfer::build_model(design);
  const rtl::RunResult abstract_result = abstract->run();
  ASSERT_TRUE(abstract_result.conflict_free());

  // 2. Dispatcher ablation.
  auto dispatched = transfer::build_model(design, rtl::TransferMode::kDispatch);
  dispatched->run();

  // 3. Formal reference semantics.
  const verify::EvalResult reference = verify::evaluate(design);

  // 4. Interpreted VHDL of the emitted subset source.
  common::DiagnosticBag diags;
  auto vhdl_model =
      vhdl::load_model(vhdl::emit_vhdl(design), vhdl::vhdl_name(design.name), diags);
  ASSERT_NE(vhdl_model, nullptr) << diags.to_text();
  vhdl_model->run();

  // 5. Clocked RTL, one cycle per step; 6. two cycles per step.
  const clocked::TranslationPlan plan = clocked::plan_translation(design);
  baseline::ClockedRtlSim clocked_rtl(plan);
  clocked_rtl.run();
  baseline::ClockedRtlSim two_cycle(plan, clocked::ClockScheme::kTwoCyclesPerStep);
  two_cycle.run();

  // 7. Handshake-style abstract model.
  baseline::HandshakeModel handshake(design);
  handshake.run();

  for (const transfer::RegisterDecl& reg : design.registers) {
    const rtl::RtValue expected = abstract->find_register(reg.name)->value();
    EXPECT_EQ(dispatched->find_register(reg.name)->value(), expected)
        << "dispatch: " << reg.name;
    EXPECT_EQ(reference.registers.at(reg.name), expected)
        << "semantics: " << reg.name;
    EXPECT_EQ(rtl::RtValue::from_inband(
                  vhdl_model->read(vhdl::vhdl_name(reg.name) + "_out")),
              expected)
        << "vhdl: " << reg.name;
    EXPECT_EQ(clocked_rtl.register_value(reg.name), expected)
        << "clocked rtl: " << reg.name;
    EXPECT_EQ(two_cycle.register_value(reg.name), expected)
        << "clocked rtl, two cycles per step: " << reg.name;
    EXPECT_EQ(handshake.register_value(reg.name), expected)
        << "handshake: " << reg.name;
  }

  // Delta-time invariants: clock-free views burn no physical time; the
  // clocked ones do.
  EXPECT_EQ(abstract->scheduler().now().fs, 0u);
  EXPECT_EQ(vhdl_model->scheduler().now().fs, 0u);
  EXPECT_EQ(handshake.scheduler().now().fs, 0u);
  EXPECT_GT(clocked_rtl.scheduler().now().fs, 0u);
  EXPECT_GT(two_cycle.scheduler().now().fs, 0u);
}

INSTANTIATE_TEST_SUITE_P(Seeds, FullChain, ::testing::Range(1, 11));

}  // namespace
}  // namespace ctrtl
