#include <gtest/gtest.h>

#include "baseline/clocked_rtl.h"
#include "baseline/handshake.h"
#include "transfer/build.h"
#include "verify/random_design.h"

namespace ctrtl {
namespace {

// Regression guards for a dangling-pointer bug class: every executable
// model must own (copy) whatever it needs from the Design/plan it was
// constructed from, so construction from *temporaries* is safe. (An ASan
// run caught HandshakeModel keeping ModuleDecl pointers into a dead
// temporary; these tests pin the contract for all models.)

transfer::Design make_design() {
  verify::RandomDesignOptions options;
  options.seed = 12345;
  options.num_transfers = 5;
  return verify::random_design(options);
}

TEST(Lifetime, HandshakeModelFromTemporaryDesign) {
  baseline::HandshakeModel model(make_design());  // temporary dies here
  model.run();
  SUCCEED();
}

TEST(Lifetime, ClockedRtlSimFromTemporaryPlan) {
  for (const clocked::ClockScheme scheme :
       {clocked::ClockScheme::kOneCyclePerStep,
        clocked::ClockScheme::kTwoCyclesPerStep}) {
    baseline::ClockedRtlSim sim(clocked::plan_translation(make_design()), scheme);
    sim.run();
  }
  SUCCEED();
}

TEST(Lifetime, ModelsOutliveTheirResults) {
  // Values read after the design and every intermediate is gone.
  std::unique_ptr<rtl::RtModel> model;
  {
    const transfer::Design design = make_design();
    model = transfer::build_model(design);
  }
  const rtl::RunResult result = model->run();
  EXPECT_GE(result.stats.delta_cycles, 6u);
  SUCCEED();
}

TEST(Lifetime, AllModelsAgreeWhenBuiltFromTemporaries) {
  auto abstract = transfer::build_model(make_design());
  abstract->run();
  baseline::HandshakeModel handshake(make_design());
  handshake.run();
  baseline::ClockedRtlSim clocked_rtl(clocked::plan_translation(make_design()));
  clocked_rtl.run();
  const transfer::Design reference = make_design();
  for (const transfer::RegisterDecl& reg : reference.registers) {
    const rtl::RtValue expected = abstract->find_register(reg.name)->value();
    EXPECT_EQ(handshake.register_value(reg.name), expected) << reg.name;
    EXPECT_EQ(clocked_rtl.register_value(reg.name), expected) << reg.name;
  }
}

}  // namespace
}  // namespace ctrtl
