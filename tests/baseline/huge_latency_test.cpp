#include <gtest/gtest.h>

#include "baseline/clocked_rtl.h"
#include "baseline/handshake.h"
#include "common/diagnostics.h"
#include "transfer/text_format.h"

namespace ctrtl::baseline {
namespace {

// fig1 beside two unused modules of latency 4000000000, a kernel kind and
// an op-port kind. A simulator that kept one pipeline stage per unit of
// declared latency would reserve tens of GB here; these keep at most one
// stage per clock cycle of the run (the handshake model, which collapses
// latencies, keeps one). This binary is registered only under a 1 GB
// address-space limit (tools/CMakeLists.txt), so such a simulator ends in
// std::bad_alloc instead of exhausting the host.
constexpr const char* kHugeLatencyFig1 =
    "design fig1\ncs_max 7\nregister R1 init 30\nregister R2 init 12\n"
    "bus B1\nbus B2\nmodule ADD add latency 1\n"
    "module SLOW add latency 4000000000\nmodule DEEP alu latency 4000000000\n"
    "transfer R1 B1 R2 B2 5 ADD 6 B1 R1\n";

transfer::Design huge_latency_design() {
  common::DiagnosticBag diags;
  transfer::Design design = transfer::parse_design(kHugeLatencyFig1, diags);
  EXPECT_FALSE(diags.has_errors()) << diags.to_text();
  return design;
}

TEST(HugeLatency, ClockedRtlSimRunsBothSchemes) {
  const clocked::TranslationPlan plan =
      clocked::plan_translation(huge_latency_design());
  for (const clocked::ClockScheme scheme : {clocked::ClockScheme::kOneCyclePerStep,
                                            clocked::ClockScheme::kTwoCyclesPerStep}) {
    ClockedRtlSim sim(plan, scheme);
    sim.run();
    EXPECT_EQ(sim.register_value("R1"), rtl::RtValue::of(42));
  }
}

TEST(HugeLatency, HandshakeModelRuns) {
  HandshakeModel model(huge_latency_design());
  model.run();
  EXPECT_EQ(model.register_value("R1"), rtl::RtValue::of(42));
}

}  // namespace
}  // namespace ctrtl::baseline
