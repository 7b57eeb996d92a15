#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "baseline/clocked_rtl.h"
#include "clocked/translate.h"
#include "common/diagnostics.h"
#include "transfer/build.h"
#include "transfer/text_format.h"
#include "verify/equivalence.h"
#include "verify/random_design.h"
#include "verify/semantics.h"

namespace ctrtl::clocked {
namespace {

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

TEST(ClockScheme, TwoCycleCountMustFit) {
  // cs_max 2147483647 plans 2^31 one-cycle clock cycles, which fit; twice
  // that does not, and would wrap to 0. Nothing here runs a cycle.
  Design d = fig1_design();
  d.cs_max = 2147483647;
  const TranslationPlan plan = plan_translation(d);
  EXPECT_EQ(plan.clock_cycles, 2147483648u);
  EXPECT_NO_THROW({ ClockedRtlSim sim(plan, ClockScheme::kOneCyclePerStep); });
  try {
    ClockedRtlSim sim(plan, ClockScheme::kTwoCyclesPerStep);
    ADD_FAILURE() << "a two-cycle count of 2^32 was accepted";
  } catch (const std::invalid_argument& error) {
    EXPECT_NE(std::string(error.what()).find("cs_max 2147483647"),
              std::string::npos)
        << error.what();
  }
  d.cs_max = 2147483646;
  EXPECT_NO_THROW({
    ClockedRtlSim sim(plan_translation(d), ClockScheme::kTwoCyclesPerStep);
  });
}

// --- E7: abstract vs clocked equivalence --------------------------------------
// The paper: "The transformation into a usual synthesizable RT description
// based on clock signals can be performed automatically", and "of course,
// there are different ways to implement control steps". Under both clock
// schemes the clocked register-write trace must equal the clock-free
// model's, and the final registers the reference semantics'. The two-cycle
// scheme pays twice the cycles and twice the physical time.

void expect_schemes_agree(const Design& design) {
  auto abstract = transfer::build_model(design);
  verify::RegisterWriteTrace abstract_trace(*abstract);
  ASSERT_TRUE(abstract->run().conflict_free());
  const verify::EvalResult reference = verify::evaluate(design);

  const TranslationPlan plan = plan_translation(design);
  ClockedRtlSim one_cycle(plan, ClockScheme::kOneCyclePerStep);
  const ClockedRtlSim::Result one_result = one_cycle.run();
  ClockedRtlSim two_cycle(plan, ClockScheme::kTwoCyclesPerStep);
  const ClockedRtlSim::Result two_result = two_cycle.run();
  EXPECT_EQ(two_result.clock_cycles, 2 * one_result.clock_cycles);
  EXPECT_EQ(two_result.elapsed_fs, 2 * one_result.elapsed_fs);

  for (const ClockedRtlSim* sim : {&one_cycle, &two_cycle}) {
    SCOPED_TRACE(sim == &one_cycle ? "one cycle per step" : "two cycles per step");
    const verify::CheckReport report = verify::compare_write_traces(
        abstract_trace.writes(), sim->writes(), /*ignore_preload=*/true);
    EXPECT_TRUE(report.consistent()) << report.to_text();
    for (const transfer::RegisterDecl& reg : design.registers) {
      EXPECT_EQ(sim->register_value(reg.name), reference.registers.at(reg.name))
          << "register " << reg.name;
    }
  }
}

/// Three seed families: 1–25, 701–715 and 6001–6015.
std::vector<verify::RandomDesignOptions> random_cases() {
  std::vector<verify::RandomDesignOptions> cases;
  const auto add = [&cases](std::uint32_t seed, unsigned transfers, bool alu) {
    verify::RandomDesignOptions options;
    options.seed = seed;
    options.num_transfers = transfers;
    options.use_alu = alu;
    cases.push_back(options);
  };
  for (unsigned i = 1; i <= 25; ++i) {
    add(i, 4 + i % 8, i % 3 == 0);
  }
  for (unsigned i = 1; i <= 15; ++i) {
    add(700 + i, 3 + i % 8, i % 2 == 1);
  }
  for (unsigned i = 1; i <= 15; ++i) {
    add(6000 + i, 4 + i % 6, i % 2 == 0);
  }
  return cases;
}

class RandomDesignAgreement
    : public ::testing::TestWithParam<verify::RandomDesignOptions> {};

TEST_P(RandomDesignAgreement, SchemesMatchAbstractModel) {
  expect_schemes_agree(verify::random_design(GetParam()));
}

INSTANTIATE_TEST_SUITE_P(
    Seeds, RandomDesignAgreement, ::testing::ValuesIn(random_cases()),
    [](const ::testing::TestParamInfo<verify::RandomDesignOptions>& info) {
      return "seed" + std::to_string(info.param.seed);
    });

/// Declared latencies beyond the kinds' usual ones (the lane engine's
/// declared-latency cases): a latency-2 COPY, a latency-3 MACC, and
/// read-only transfers into modules deeper than the run.
struct DeclaredLatencyCase {
  const char* name;
  const char* text;
};

const DeclaredLatencyCase kDeclaredLatencyCases[] = {
    {"Copy2",
     "design copy2\ncs_max 5\nregister R1 init 30\nregister R2 init 0\n"
     "bus B1\nbus B2\nmodule C copy latency 2\n"
     "transfer R1 B1 - - 2 C 4 B2 R2\n"},
    {"Macc3",
     "design macc3\ncs_max 7\nregister R1 init 30\nregister R2 init 12\n"
     "register R3 init 0\nregister R4 init 0\nbus B1\nbus B2\nbus B3\n"
     "module M macc latency 3\n"
     "transfer R1 B1 R2 B2 2 M 5 B3 R3 op 1\n"
     "transfer R1 B1 R2 B2 3 M 6 B3 R4 op 1\n"},
    {"DeeperThanRun",
     "design deep\ncs_max 7\nregister R1 init 30\nregister R2 init 12\n"
     "bus B1\nbus B2\nbus B3\nbus B4\nmodule ADD add latency 1\n"
     "module SLOW sub latency 9\nmodule DEEP alu latency 12\n"
     "module ACC macc latency 10\n"
     "transfer R1 B3 R2 B4 1 SLOW - - -\n"
     "transfer R1 B3 R2 B4 2 DEEP - - - op 0\n"
     "transfer R1 B3 R2 B4 3 ACC - - - op 1\n"
     "transfer R1 B1 R2 B2 5 ADD 6 B1 R1\n"},
};

class DeclaredLatencyAgreement
    : public ::testing::TestWithParam<DeclaredLatencyCase> {};

TEST_P(DeclaredLatencyAgreement, SchemesMatchAbstractModel) {
  common::DiagnosticBag diags;
  const Design design = transfer::parse_design(GetParam().text, diags);
  ASSERT_FALSE(diags.has_errors()) << diags.to_text();
  expect_schemes_agree(design);
}

INSTANTIATE_TEST_SUITE_P(
    Designs, DeclaredLatencyAgreement, ::testing::ValuesIn(kDeclaredLatencyCases),
    [](const ::testing::TestParamInfo<DeclaredLatencyCase>& info) {
      return std::string(info.param.name);
    });

}  // namespace
}  // namespace ctrtl::clocked
