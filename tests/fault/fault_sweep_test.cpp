#include <gtest/gtest.h>

#include "fault/inject.h"
#include "fault/plan.h"
#include "rtl/batch_runner.h"
#include "rtl/lane_engine.h"
#include "transfer/build.h"
#include "transfer/mapping.h"
#include "transfer/schedule.h"
#include "verify/equivalence.h"
#include "verify/random_design.h"

namespace ctrtl::fault {
namespace {

using transfer::Design;
using transfer::Endpoint;
using transfer::TransInstance;

// --- fault sweep ------------------------------------------------------------
//
// The tentpole acceptance property: for >= 30 seeded random designs and every
// fault kind, the faulted instance stream must drive the event kernel, the
// compiled engine, and the lane engine to identical registers, ordered
// conflicts, counters, and event traces — also when the per-instance models
// are elaborated from the compiled design, as a BatchRunner does. Fault
// sites are derived from the design's own instance stream, so every plan is
// guaranteed to hit.

class FaultSweepTest : public ::testing::TestWithParam<std::uint32_t> {};

Design sweep_design(std::uint32_t seed) {
  verify::RandomDesignOptions options;
  options.seed = seed;
  options.num_registers = 5;
  options.num_buses = 3;
  options.num_transfers = 8;
  options.use_alu = (seed % 2) == 0;
  options.inject_conflicts = (seed % 3) == 0;
  return verify::random_design(options);
}

// Fault specs aimed at sites the design actually exercises.
std::vector<FaultPlan> derived_plans(const Design& design) {
  const std::vector<TransInstance> instances =
      transfer::to_instances(design.transfers);
  std::vector<FaultPlan> plans;
  for (const TransInstance& instance : instances) {
    if (instance.source.kind == Endpoint::Kind::kRegisterOut) {
      plans.push_back({{{FaultKind::kStuckDisc, instance.source.resource}}});
      plans.push_back({{{FaultKind::kStuckIllegal, instance.source.resource}}});
      break;
    }
  }
  for (const TransInstance& instance : instances) {
    if (instance.sink.kind == Endpoint::Kind::kBus) {
      plans.push_back({{{FaultKind::kForceBus, instance.sink.resource,
                         instance.step, instance.phase, 77}}});
      break;
    }
  }
  const TransInstance& last = instances.back();
  plans.push_back({{{FaultKind::kDropTransfer, to_string(last.sink),
                     last.step, last.phase}}});
  for (const TransInstance& instance : instances) {
    if (instance.source.kind == Endpoint::Kind::kModuleOut) {
      plans.push_back(
          {{{FaultKind::kCorruptModule, instance.source.resource, 0,
             std::nullopt, -5}}});
      break;
    }
  }
  return plans;
}

TEST_P(FaultSweepTest, AllEnginesAgreeUnderEveryFaultKind) {
  const Design design = sweep_design(GetParam());
  const std::vector<FaultPlan> plans = derived_plans(design);
  ASSERT_GE(plans.size(), 4u) << "sweep must cover >= 4 fault kinds";
  for (const FaultPlan& plan : plans) {
    common::DiagnosticBag diags;
    const auto faulted = apply_plan(design, plan, diags);
    ASSERT_TRUE(faulted.has_value())
        << "seed " << GetParam() << ": " << diags.to_text();
    const verify::CheckReport report = verify::check_engine_equivalence(*faulted);
    EXPECT_TRUE(report.consistent())
        << "seed " << GetParam() << ", plan:\n"
        << to_text(plan) << report.to_text();

    // Models elaborated from the compiled design must run the faulted
    // stream too, in every transfer mode, and so must the per-instance
    // models a BatchRunner elaborates from it.
    auto event_model = build_model(*faulted);
    const rtl::InstanceResult event = rtl::run_instance(*event_model);
    const auto compiled = compile(*faulted);
    for (const rtl::TransferMode mode :
         {rtl::TransferMode::kProcessPerTransfer, rtl::TransferMode::kDispatch,
          rtl::TransferMode::kCompiled}) {
      EXPECT_EQ(rtl::run_instance(*transfer::build_model(*compiled, mode)), event)
          << "seed " << GetParam() << ", mode " << static_cast<int>(mode)
          << ", plan:\n"
          << to_text(plan);
    }
    const rtl::BatchRunResult batch =
        rtl::BatchRunner(compiled, {.workers = 1}).run(1);
    ASSERT_EQ(batch.instances.size(), 1u);
    EXPECT_EQ(batch.instances[0], event)
        << "seed " << GetParam() << ", plan:\n"
        << to_text(plan);
  }
}

TEST_P(FaultSweepTest, CombinedPlanKeepsEquivalence) {
  // All derived faults applied together: transformations compose (drop,
  // rewrite, append are order-respecting on one stream), and the engines
  // must still agree on the composite behaviour.
  const Design design = sweep_design(GetParam() + 4000);
  FaultPlan combined;
  for (const FaultPlan& plan : derived_plans(design)) {
    combined.faults.insert(combined.faults.end(), plan.faults.begin(),
                           plan.faults.end());
  }
  common::DiagnosticBag diags;
  const auto faulted = apply_plan(design, combined, diags);
  ASSERT_TRUE(faulted.has_value()) << diags.to_text();
  const verify::CheckReport report = verify::check_engine_equivalence(*faulted);
  EXPECT_TRUE(report.consistent()) << "seed " << GetParam() << ":\n"
                                   << report.to_text();
}

INSTANTIATE_TEST_SUITE_P(Seeds, FaultSweepTest,
                         ::testing::Range(1u, 31u));  // 30 designs per test

// --- watchdog determinism ---------------------------------------------------
//
// A true register-transfer design cannot oscillate (the phase wheel is a
// finite schedule), so non-convergence is emulated by arming the watchdog
// below the wheel length. All three engines must stop at the same delta
// ordinal with byte-equal reports and identical partial register state.

struct EngineRuns {
  rtl::InstanceResult event;
  rtl::InstanceResult compiled;
  rtl::InstanceResult lane;
};

EngineRuns run_all_engines(const Design& design, std::uint64_t limit) {
  const rtl::RunOptions options{.max_delta_cycles = limit};
  EngineRuns runs;
  {
    auto model =
        transfer::build_model(design, rtl::TransferMode::kProcessPerTransfer);
    runs.event = rtl::run_instance(*model, options);
  }
  {
    auto model = transfer::build_model(design, rtl::TransferMode::kCompiled);
    runs.compiled = rtl::run_instance(*model, options);
  }
  {
    const rtl::LaneEngine engine(transfer::CompiledDesign::compile(design));
    runs.lane = engine.run_block(0, 1, nullptr,
                                 kernel::Scheduler::kNoLimit, limit)[0];
  }
  return runs;
}

Design fig1_design() {
  Design d;
  d.name = "fig1";
  d.cs_max = 7;
  d.registers = {{"R1", 30}, {"R2", 12}};
  d.buses = {{"B1"}, {"B2"}};
  d.modules = {{"ADD", transfer::ModuleKind::kAdd, 1}};
  d.transfers = {transfer::RegisterTransfer::full("R1", "B1", "R2", "B2", 5,
                                                  "ADD", 6, "B1", "R1")};
  return d;
}

TEST(WatchdogDeterminism, MidWheelTripIsByteEqualAcrossEngines) {
  // fig1's wheel is 7 * 6 = 42 delta cycles; a limit of 10 trips every
  // engine mid-wheel, at the identical (step, phase) provenance.
  const EngineRuns runs = run_all_engines(fig1_design(), 10);
  ASSERT_EQ(runs.event.report.status, rtl::RunStatus::kWatchdogTripped);
  EXPECT_EQ(runs.event.report.to_text(), runs.compiled.report.to_text());
  EXPECT_EQ(runs.event.report.to_text(), runs.lane.report.to_text());
  EXPECT_EQ(runs.event.registers, runs.compiled.registers);
  EXPECT_EQ(runs.event.registers, runs.lane.registers);
  EXPECT_EQ(runs.event.conflicts, runs.compiled.conflicts);
  EXPECT_EQ(runs.event.conflicts, runs.lane.conflicts);
  EXPECT_EQ(runs.event.stats.delta_cycles, 10u);
  EXPECT_EQ(runs.compiled.stats.delta_cycles, 10u);
  EXPECT_EQ(runs.lane.stats.delta_cycles, 10u);
}

TEST(WatchdogDeterminism, EveryLimitAgreesAcrossEngines) {
  // Sweep the limit across the whole wheel (including the boundary at the
  // wheel length and past quiescence): whatever each limit produces —
  // trip or clean finish — must be identical on all three engines.
  const Design design = fig1_design();
  for (const std::uint64_t limit : {1u, 2u, 6u, 41u, 42u, 43u, 100u}) {
    const EngineRuns runs = run_all_engines(design, limit);
    EXPECT_EQ(runs.event.report, runs.compiled.report) << "limit " << limit;
    EXPECT_EQ(runs.event.report, runs.lane.report) << "limit " << limit;
    EXPECT_EQ(runs.event.registers, runs.compiled.registers)
        << "limit " << limit;
    EXPECT_EQ(runs.event.registers, runs.lane.registers) << "limit " << limit;
    EXPECT_EQ(runs.event.stats.delta_cycles, runs.compiled.stats.delta_cycles)
        << "limit " << limit;
    EXPECT_EQ(runs.event.stats.delta_cycles, runs.lane.stats.delta_cycles)
        << "limit " << limit;
  }
  EXPECT_EQ(run_all_engines(design, 100).event.report.status,
            rtl::RunStatus::kOk);
}

TEST(WatchdogDeterminism, FaultedDesignStillTripsIdentically) {
  // Watchdog and fault injection compose: a faulted stream tripped mid-run
  // reports the same diagnostics and partial state on every engine.
  common::DiagnosticBag diags;
  const FaultPlan plan =
      parse_fault_plan("force-bus B1 = 99 @5:ra\nstuck-disc R2\n", diags);
  const auto faulted = apply_plan(fig1_design(), plan, diags);
  ASSERT_TRUE(faulted.has_value()) << diags.to_text();

  const rtl::RunOptions options{.max_delta_cycles = 31};
  auto event_model = build_model(*faulted);
  const rtl::InstanceResult event = rtl::run_instance(*event_model, options);
  auto compiled_model = build_model(*faulted, rtl::TransferMode::kCompiled);
  const rtl::InstanceResult compiled =
      rtl::run_instance(*compiled_model, options);
  const rtl::LaneEngine engine(compile(*faulted));
  const rtl::InstanceResult lane =
      engine.run_block(0, 1, nullptr, kernel::Scheduler::kNoLimit, 31)[0];

  ASSERT_EQ(event.report.status, rtl::RunStatus::kWatchdogTripped);
  EXPECT_EQ(event.report, compiled.report);
  EXPECT_EQ(event.report, lane.report);
  EXPECT_EQ(event.registers, compiled.registers);
  EXPECT_EQ(event.registers, lane.registers);
  EXPECT_EQ(event.conflicts, compiled.conflicts);
  EXPECT_EQ(event.conflicts, lane.conflicts);
}

TEST(WatchdogDeterminism, MultiLaneBlockTripsEveryLaneUniformly) {
  // A mid-wheel trip stops the shared wheel, so every lane of a block must
  // carry the identical report — byte-for-byte the single-lane one.
  const rtl::LaneEngine engine(
      transfer::CompiledDesign::compile(fig1_design()));
  const std::vector<rtl::InstanceResult> block =
      engine.run_block(0, 4, nullptr, kernel::Scheduler::kNoLimit, 10);
  const std::vector<rtl::InstanceResult> single =
      engine.run_block(0, 1, nullptr, kernel::Scheduler::kNoLimit, 10);
  ASSERT_EQ(block.size(), 4u);
  for (const rtl::InstanceResult& lane : block) {
    EXPECT_EQ(lane.report.status, rtl::RunStatus::kWatchdogTripped);
    EXPECT_EQ(lane, single[0]);
  }
}

}  // namespace
}  // namespace ctrtl::fault
