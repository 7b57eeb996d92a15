#include <gtest/gtest.h>

#include <map>
#include <set>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "rtl/phase.h"
#include "transfer/design.h"
#include "transfer/lane_plan.h"
#include "transfer/schedule.h"

namespace ctrtl::transfer {
namespace {

using Update = LanePlan::Update;

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

/// fig1 with both operands on B1: two drivers fire into B1 at (5, ra).
Design fig1_bus_conflict_design() {
  Design d = fig1_design();
  d.transfers[0].operand_b->bus = "B1";
  return d;
}

/// An idle MACC of latency 2 beside fig1's transfer: it is never driven.
Design fig1_with_idle_macc_design() {
  Design d = fig1_design();
  d.modules.push_back({"MAC", ModuleKind::kMacc, 2});
  return d;
}

std::uint32_t signal_index(const LanePlan& plan, const std::string& name) {
  for (std::uint32_t s = 0; s < plan.signal_names.size(); ++s) {
    if (plan.signal_names[s] == name) {
      return s;
    }
  }
  ADD_FAILURE() << "no signal named " << name;
  return LanePlan::kNoSignal;
}

/// The control steps whose `cm` cycle steps module `m`.
std::vector<unsigned> stepped_at(const LanePlan& plan, std::uint32_t m) {
  std::vector<unsigned> steps;
  for (std::uint64_t d = 1; d < plan.cycles.size(); ++d) {
    for (const std::uint32_t stepped : plan.module_steps_at(d)) {
      EXPECT_EQ(plan.cycles[d].phase, rtl::Phase::kCm) << "cycle " << d;
      if (stepped == m) {
        steps.push_back(plan.cycles[d].step);
      }
    }
  }
  return steps;
}

TEST(LanePlan, Fig1LatchesOnlyR1AtStepSix) {
  const auto compiled = CompiledDesign::compile(fig1_design());
  const LanePlan& plan = compiled->plan;
  std::vector<std::pair<std::uint64_t, std::uint32_t>> latches;
  for (std::uint64_t d = 1; d < plan.cycles.size(); ++d) {
    for (const std::uint32_t r : plan.latches_at(d)) {
      latches.emplace_back(d, r);
    }
  }
  ASSERT_EQ(latches.size(), 1u);
  const auto [cycle, reg] = latches.front();
  EXPECT_EQ(reg, 0u);  // R1
  EXPECT_EQ(plan.cycles[cycle].step, 6u);
  EXPECT_EQ(plan.cycles[cycle].phase, rtl::kPhaseHigh);

  // Register outputs update for the two preloads at cycle 1 and for R1 in
  // the cycle after its latch, nowhere else.
  std::vector<std::pair<std::uint64_t, std::uint32_t>> outputs;
  for (std::uint64_t d = 1; d < plan.cycles.size(); ++d) {
    for (const Update& entry : plan.updates_at(d)) {
      if (entry.kind == Update::Kind::kRegisterOut) {
        outputs.emplace_back(d, entry.index);
      }
    }
  }
  const std::vector<std::pair<std::uint64_t, std::uint32_t>> expected = {
      {1, 0}, {1, 1}, {cycle + 1, 0}};
  EXPECT_EQ(outputs, expected);
}

TEST(LanePlan, Fig1AddStepsOnlyInItsWindows) {
  const auto compiled = CompiledDesign::compile(fig1_design());
  const LanePlan& plan = compiled->plan;
  // Steps 1-2: the initial window (latency 1 + 1); 5: driven at (5, rb);
  // 6-7: the drain after it.
  EXPECT_EQ(stepped_at(plan, 0), (std::vector<unsigned>{1, 2, 5, 6, 7}));

  // ADD's output updates exactly after the cm cycles it steps at, while
  // the lane-uniform counters still count its evaluation and output update
  // at every cm.
  std::vector<unsigned> outputs;
  for (std::uint64_t d = 2; d < plan.cycles.size(); ++d) {
    const LanePlan::Cycle& prev = plan.cycles[d - 1];
    std::uint32_t sinks = 0;
    for (const Update& entry : plan.updates_at(d)) {
      if (entry.kind == Update::Kind::kModuleOut) {
        EXPECT_EQ(prev.phase, rtl::Phase::kCm);
        outputs.push_back(prev.step);
      }
      sinks += entry.kind == Update::Kind::kSink ? 1 : 0;
    }
    if (prev.phase == rtl::Phase::kCm) {
      // PH, ADD's output, and the sinks.
      EXPECT_EQ(plan.cycles[d].uniform_updates, 1u + 1u + sinks) << d;
      EXPECT_GE(prev.uniform_transactions, 1u + 1u) << d;  // PH + ADD
    }
  }
  EXPECT_EQ(outputs, (std::vector<unsigned>{1, 2, 5, 6, 7}));
}

TEST(LanePlan, IdleMaccStepsThroughItsFirstLatencyPlusOneSteps) {
  // An idle MACC outputs its accumulator, a VALUE, while its pipeline
  // starts DISC: it must step until that VALUE has reached its output.
  const auto compiled = CompiledDesign::compile(fig1_with_idle_macc_design());
  const LanePlan& plan = compiled->plan;
  EXPECT_EQ(stepped_at(plan, 1), (std::vector<unsigned>{1, 2, 3}));
  EXPECT_EQ(stepped_at(plan, 0), (std::vector<unsigned>{1, 2, 5, 6, 7}));
}

/// Every sink update names exactly the drivers fired into its slot in the
/// previous cycle, and every slot fired or released in the previous cycle
/// is updated exactly once.
void expect_ranges_match_previous_fires(const LanePlan& plan) {
  for (std::uint64_t d = 2; d < plan.cycles.size(); ++d) {
    std::map<std::uint32_t, std::set<std::uint32_t>> fired;
    for (const LanePlan::Fire& fire : plan.fires_at(d - 1)) {
      fired[fire.slot].insert(fire.driver);
    }
    std::set<std::uint32_t> expected_slots;
    for (const auto& [slot, drivers] : fired) {
      expected_slots.insert(slot);
    }
    for (const LanePlan::Fire& fire : plan.fires_at(d - 2)) {
      expected_slots.insert(fire.slot);
    }
    std::set<std::uint32_t> updated;
    for (const Update& entry : plan.updates_at(d)) {
      if (entry.kind != Update::Kind::kSink) {
        continue;
      }
      EXPECT_TRUE(updated.insert(entry.index).second)
          << "slot " << entry.index << " updated twice at cycle " << d;
      std::set<std::uint32_t> range;
      for (std::uint32_t i = 0; i < entry.drivers; ++i) {
        range.insert(entry.first_driver + i);
      }
      EXPECT_EQ(range, fired[entry.index])
          << "slot " << entry.index << " at cycle " << d;
    }
    EXPECT_EQ(updated, expected_slots) << "cycle " << d;
  }
}

/// (step, phase, first driver, driver count) of a sink update.
using Range = std::tuple<unsigned, rtl::Phase, std::uint32_t, std::uint32_t>;

/// Every non-empty update of the slot whose sink is `signal`.
std::vector<Range> active_ranges(const LanePlan& plan, std::uint32_t signal) {
  std::vector<Range> out;
  for (std::uint64_t d = 1; d < plan.cycles.size(); ++d) {
    for (const Update& entry : plan.updates_at(d)) {
      if (entry.kind == Update::Kind::kSink &&
          plan.slots[entry.index].signal == signal && entry.drivers > 0) {
        out.emplace_back(plan.cycles[d].step, plan.cycles[d].phase,
                         entry.first_driver, entry.drivers);
      }
    }
  }
  return out;
}

TEST(LanePlan, SinkUpdatesNameExactlyThePreviousCycleFires) {
  const auto fig1 = CompiledDesign::compile(fig1_design());
  expect_ranges_match_previous_fires(fig1->plan);
  // B1 has two drivers, each active alone: R1 at (5, ra), resolved at rb,
  // and ADD at (6, wa), resolved at wb.
  using rtl::Phase;
  const std::uint32_t b1 = signal_index(fig1->plan, "B1");
  EXPECT_EQ(active_ranges(fig1->plan, b1),
            (std::vector<Range>{
                {5, Phase::kRb, 0, 1}, {6, Phase::kWb, 1, 1}}));

  // Both operands on B1: two drivers fire into it in one cycle, and the
  // write-back's driver follows them.
  const auto conflict = CompiledDesign::compile(fig1_bus_conflict_design());
  expect_ranges_match_previous_fires(conflict->plan);
  const std::uint32_t bus = signal_index(conflict->plan, "B1");
  EXPECT_EQ(active_ranges(conflict->plan, bus),
            (std::vector<Range>{
                {5, Phase::kRb, 0, 2}, {6, Phase::kWb, 2, 1}}));

  expect_ranges_match_previous_fires(
      CompiledDesign::compile(fig1_with_idle_macc_design())->plan);
}

}  // namespace
}  // namespace ctrtl::transfer
