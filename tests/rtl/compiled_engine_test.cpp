#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "rtl/batch_runner.h"
#include "rtl/model.h"
#include "transfer/build.h"

// kCompiled mode: `transfer::build_model` elaborates the model's signals
// without processes, and `RtModel::run` executes one lane of the design's
// `LanePlan`. Every run here must be indistinguishable from the event
// kernel's.

namespace ctrtl::transfer {
namespace {

using rtl::Conflict;
using rtl::Phase;
using rtl::RtValue;
using rtl::RunResult;
using rtl::TransferMode;

TransInstance at(unsigned step, Phase phase, Endpoint source, Endpoint sink) {
  return TransInstance{step, phase, std::move(source), std::move(sink)};
}

/// The paper's figure 1 example.
Design fig1(std::int64_t a, std::int64_t b) {
  Design design;
  design.name = "fig1";
  design.cs_max = 7;
  design.registers = {{"R1", a}, {"R2", b}};
  design.buses = {{"B1"}, {"B2"}};
  design.modules = {{"ADD", ModuleKind::kAdd, 1}};
  design.transfers = {
      RegisterTransfer::full("R1", "B1", "R2", "B2", 5, "ADD", 6, "B1", "R1")};
  return design;
}

/// Two registers driving one bus in the same phase.
Design two_sources(std::optional<std::int64_t> a, std::optional<std::int64_t> b,
                   unsigned cs_max) {
  Design design;
  design.cs_max = cs_max;
  design.registers = {{"R1", a}, {"R2", b}};
  design.buses = {{"B1"}, {"B2"}};
  return design;
}

/// Runs `design` over `instances` in kCompiled mode and on the event kernel
/// and expects identical results: registers, ordered conflicts, counters
/// and report.
rtl::InstanceResult expect_matches_event(const Design& design,
                                         const std::vector<TransInstance>& instances) {
  auto compiled = build_model(design, instances, TransferMode::kCompiled);
  auto event = build_model(design, instances, TransferMode::kProcessPerTransfer);
  const rtl::InstanceResult result = rtl::run_instance(*compiled);
  EXPECT_EQ(result, rtl::run_instance(*event));
  return result;
}

TEST(CompiledMode, Figure1ComputesR1PlusR2) {
  auto model = build_model(fig1(30, 12), TransferMode::kCompiled);
  const RunResult result = model->run();
  EXPECT_EQ(model->find_register("R1")->value(), RtValue::of(42));
  EXPECT_EQ(model->find_register("R2")->value(), RtValue::of(12));
  EXPECT_TRUE(result.conflict_free());
}

TEST(CompiledMode, Figure1StatsMatchEventEngine) {
  auto compiled = build_model(fig1(3, 4), TransferMode::kCompiled);
  auto event = build_model(fig1(3, 4), TransferMode::kProcessPerTransfer);
  const RunResult cr = compiled->run();
  const RunResult er = event->run();
  EXPECT_EQ(cr.cycles, er.cycles);
  EXPECT_EQ(cr.stats.delta_cycles, er.stats.delta_cycles);
  EXPECT_EQ(cr.stats.events, er.stats.events);
  EXPECT_EQ(cr.stats.updates, er.stats.updates);
  EXPECT_EQ(cr.stats.transactions, er.stats.transactions);
  EXPECT_EQ(compiled->find_register("R1")->value(),
            event->find_register("R1")->value());
  EXPECT_EQ(compiled->find_register("R2")->value(),
            event->find_register("R2")->value());
  // The run's counts also land in the model's scheduler.
  EXPECT_EQ(compiled->scheduler().stats().events, er.stats.events);
}

TEST(CompiledMode, Figure1TakesExactly42DeltaCycles) {
  auto model = build_model(fig1(1, 2), TransferMode::kCompiled);
  const RunResult result = model->run();
  EXPECT_EQ(result.stats.delta_cycles, 42u);  // CS_MAX * 6 = 7 * 6
  EXPECT_EQ(result.cycles, 42u);
}

TEST(CompiledMode, ConflictDetectedAtExactStepAndPhase) {
  const rtl::InstanceResult result = expect_matches_event(
      two_sources(1, 2, 7),
      {at(5, Phase::kRa, Endpoint::register_out("R1"), Endpoint::bus("B1")),
       at(5, Phase::kRa, Endpoint::register_out("R2"), Endpoint::bus("B1"))});
  ASSERT_EQ(result.conflicts.size(), 1u);
  EXPECT_EQ(result.conflicts[0], (Conflict{"B1", 5, Phase::kRb}));
}

TEST(CompiledMode, ConflictOnModuleInputPort) {
  Design design = two_sources(1, 2, 3);
  design.modules = {{"ADD", ModuleKind::kAdd, 1}};
  const rtl::InstanceResult result = expect_matches_event(
      design,
      {at(1, Phase::kRa, Endpoint::register_out("R1"), Endpoint::bus("B1")),
       at(1, Phase::kRa, Endpoint::register_out("R2"), Endpoint::bus("B2")),
       at(1, Phase::kRb, Endpoint::bus("B1"), Endpoint::module_in("ADD", 0)),
       at(1, Phase::kRb, Endpoint::bus("B2"), Endpoint::module_in("ADD", 0))});
  ASSERT_FALSE(result.conflicts.empty());
  EXPECT_EQ(result.conflicts[0], (Conflict{"ADD.in1", 1, Phase::kCm}));
}

TEST(CompiledMode, DiscSourcesDoNotConflict) {
  const rtl::InstanceResult result = expect_matches_event(
      two_sources(std::nullopt, std::nullopt, 2),  // never loaded -> DISC
      {at(1, Phase::kRa, Endpoint::register_out("R1"), Endpoint::bus("B1")),
       at(1, Phase::kRa, Endpoint::register_out("R2"), Endpoint::bus("B1"))});
  EXPECT_TRUE(result.conflicts.empty());
}

TEST(CompiledMode, InputsSettableBeforeRun) {
  Design design;
  design.cs_max = 2;
  design.registers = {{"R", std::nullopt}};
  design.buses = {{"B"}, {"B2"}};
  design.inputs = {{"x_in"}, {"y_in"}};
  design.modules = {{"CP", ModuleKind::kCopy, 1}};
  const std::vector<TransInstance> instances = {
      at(1, Phase::kRa, Endpoint::input("x_in"), Endpoint::bus("B")),
      at(1, Phase::kRb, Endpoint::bus("B"), Endpoint::module_in("CP", 0)),
      at(2, Phase::kWa, Endpoint::module_out("CP"), Endpoint::bus("B2")),
      at(2, Phase::kWb, Endpoint::bus("B2"), Endpoint::register_in("R"))};
  auto compiled = build_model(design, instances, TransferMode::kCompiled);
  auto event = build_model(design, instances, TransferMode::kProcessPerTransfer);
  for (rtl::RtModel* model : {compiled.get(), event.get()}) {
    model->set_input("x_in", RtValue::of(77));
    model->set_input("y_in", RtValue::disc());  // an update, never an event
  }
  const rtl::InstanceResult result = rtl::run_instance(*compiled);
  EXPECT_EQ(result, rtl::run_instance(*event));
  EXPECT_EQ(compiled->find_register("R")->value(), RtValue::of(77));
  EXPECT_EQ(compiled->find_input("x_in")->read(), RtValue::of(77));
}

TEST(CompiledMode, SetInputAfterRunRejected) {
  Design design;
  design.inputs = {{"x_in"}};
  auto model = build_model(design, TransferMode::kCompiled);
  model->run();
  EXPECT_THROW(model->set_input("x_in", RtValue::of(1)), std::logic_error);
}

TEST(CompiledMode, AddTransferAfterBuildRejected) {
  // The lowered plan fixes the transfers: one added to the built model
  // would never run.
  auto model = build_model(fig1(1, 1), TransferMode::kCompiled);
  rtl::Register& r1 = *model->find_register("R1");
  EXPECT_THROW(model->add_transfer(1, Phase::kRa, r1.out(), *model->find_bus("B2")),
               std::logic_error);
}

TEST(CompiledMode, HandBuiltModelCannotRun) {
  // Without `transfer::build_model` there is no lowered plan to execute.
  rtl::RtModel model(2, TransferMode::kCompiled);
  rtl::Register& r = model.add_register("R", RtValue::of(5));
  rtl::RtSignal& b = model.add_bus("B");
  EXPECT_EQ(model.add_transfer(1, Phase::kRa, r.out(), b), nullptr);
  EXPECT_THROW(model.run(), std::logic_error);
}

TEST(CompiledMode, RunStatsCoverOnlyThisRun) {
  auto model = build_model(fig1(1, 1), TransferMode::kCompiled);
  const RunResult first = model->run();
  const RunResult second = model->run();  // quiescent: nothing more happens
  EXPECT_EQ(first.stats.delta_cycles, 42u);
  EXPECT_EQ(second.stats.delta_cycles, 0u);
  EXPECT_EQ(second.stats.events, 0u);
  EXPECT_EQ(second.cycles, 0u);
}

TEST(CompiledMode, PartialRunsResumeWhereTheyStopped) {
  auto compiled = build_model(fig1(9, 8), TransferMode::kCompiled);
  auto event = build_model(fig1(9, 8), TransferMode::kProcessPerTransfer);
  std::uint64_t compiled_total = 0;
  std::uint64_t event_total = 0;
  for (int chunk = 0; chunk < 10; ++chunk) {
    const RunResult c = compiled->run(5);
    const RunResult e = event->run(5);
    EXPECT_EQ(c.stats.events, e.stats.events) << "chunk " << chunk;
    EXPECT_EQ(c.stats.transactions, e.stats.transactions) << "chunk " << chunk;
    compiled_total += c.cycles;
    event_total += e.cycles;
  }
  EXPECT_EQ(compiled_total, event_total);
  EXPECT_EQ(compiled->find_register("R1")->value(),
            event->find_register("R1")->value());
  EXPECT_EQ(compiled->find_register("R1")->value(), RtValue::of(17));
}

TEST(CompiledMode, WatchdogTripsLikeTheEventKernelAndResumes) {
  auto compiled = build_model(fig1(20, 22), TransferMode::kCompiled);
  auto event = build_model(fig1(20, 22), TransferMode::kProcessPerTransfer);
  const rtl::RunOptions bound{.max_delta_cycles = 31};
  const rtl::InstanceResult tripped = rtl::run_instance(*compiled, bound);
  EXPECT_EQ(tripped.report.status, rtl::RunStatus::kWatchdogTripped);
  EXPECT_EQ(tripped, rtl::run_instance(*event, bound));
  // Unbounded, both finish from where the trip left them.
  EXPECT_EQ(rtl::run_instance(*compiled), rtl::run_instance(*event));
  EXPECT_EQ(compiled->find_register("R1")->value(), RtValue::of(42));
}

TEST(CompiledMode, PreloadOnlyModelLatchesNothingButShowsPreloads) {
  Design design;
  design.registers = {{"R", 9}};
  const rtl::InstanceResult result = expect_matches_event(design, {});
  ASSERT_EQ(result.registers.size(), 1u);
  EXPECT_EQ(result.registers[0].second, RtValue::of(9));
  EXPECT_TRUE(result.conflicts.empty());
}

}  // namespace
}  // namespace ctrtl::transfer
