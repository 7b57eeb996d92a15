#include "rtl/batch_runner.h"

#include <gtest/gtest.h>

#include <array>
#include <atomic>
#include <stdexcept>

#include "transfer/build.h"
#include "transfer/schedule.h"

namespace ctrtl::rtl {
namespace {

using transfer::Design;
using transfer::ModuleKind;
using transfer::RegisterTransfer;

// R1 := R1 + R2 on a 2-step wheel: quiesces in 12 delta cycles.
Design quick_design() {
  Design d;
  d.name = "quick";
  d.cs_max = 2;
  d.registers = {{"R1", 30}, {"R2", 12}};
  d.buses = {{"B1"}, {"B2"}};
  d.modules = {{"ADD", ModuleKind::kAdd, 1}};
  d.transfers = {
      RegisterTransfer::full("R1", "B1", "R2", "B2", 1, "ADD", 2, "B1", "R1")};
  return d;
}

// Same computation on the paper's 7-step wheel: needs 42 delta cycles, so it
// trips any watchdog armed below that.
Design slow_design() {
  Design d = quick_design();
  d.name = "slow";
  d.cs_max = 7;
  d.transfers = {
      RegisterTransfer::full("R1", "B1", "R2", "B2", 5, "ADD", 6, "B1", "R1")};
  return d;
}

RtValue register_value(const InstanceResult& result, const std::string& name) {
  for (const auto& [reg, value] : result.registers) {
    if (reg == name) {
      return value;
    }
  }
  ADD_FAILURE() << "no register " << name;
  return RtValue::disc();
}

TEST(BatchIsolation, FailingInstancesDoNotStopTheBatch) {
  // Instance 3 throws at construction, instance 5 trips the watchdog; the
  // other six instances must complete normally, and the whole result must be
  // byte-stable across worker counts.
  const BatchRunner::ModelFactory factory = [](std::size_t instance) {
    if (instance == 3) {
      throw std::runtime_error("injected factory failure");
    }
    return transfer::build_model(instance == 5 ? slow_design() : quick_design());
  };

  std::vector<BatchRunResult> results;
  for (const std::size_t workers : {1u, 2u, 4u}) {
    BatchRunner runner(factory,
                       {.workers = workers, .max_delta_cycles = 15});
    results.push_back(runner.run(8));
  }

  const BatchRunResult& batch = results[0];
  ASSERT_EQ(batch.instances.size(), 8u);
  EXPECT_EQ(batch.failure_count(), 2u);

  EXPECT_EQ(batch.instances[3].report.status, RunStatus::kError);
  ASSERT_EQ(batch.instances[3].report.diagnostics.size(), 1u);
  EXPECT_EQ(batch.instances[3].report.diagnostics[0].message,
            "injected factory failure");
  EXPECT_TRUE(batch.instances[3].registers.empty())
      << "no model was built, so there is nothing to snapshot";

  EXPECT_EQ(batch.instances[5].report.status, RunStatus::kWatchdogTripped);
  EXPECT_EQ(batch.instances[5].stats.delta_cycles, 15u);
  // Partial-but-valid state: the slow design writes at step 6, far past the
  // trip point, so its registers still hold their initial values.
  EXPECT_EQ(register_value(batch.instances[5], "R1"), RtValue::of(30));

  for (const std::size_t i : {0u, 1u, 2u, 4u, 6u, 7u}) {
    EXPECT_TRUE(batch.instances[i].report.ok()) << "instance " << i;
    EXPECT_EQ(register_value(batch.instances[i], "R1"), RtValue::of(42))
        << "instance " << i;
  }

  for (std::size_t variant = 1; variant < results.size(); ++variant) {
    ASSERT_EQ(results[variant].instances.size(), batch.instances.size());
    for (std::size_t i = 0; i < batch.instances.size(); ++i) {
      EXPECT_EQ(results[variant].instances[i], batch.instances[i])
          << "worker variant " << variant << ", instance " << i;
    }
  }
}

TEST(BatchIsolation, LanePathIsolatesAThrowingInputProvider) {
  // The lane engine simulates a whole SoA block at once. A lane whose input
  // provider throws fails alone while its block publishes the inputs: the
  // block runs on, every provider is called exactly once, healthy lanes are
  // byte-identical to an unpoisoned run and only the offender reports the
  // error.
  Design d = quick_design();
  d.inputs = {{"X"}};
  transfer::RegisterTransfer& t = d.transfers[0];
  t.operand_b->source = transfer::Endpoint::input("X");
  const auto design = transfer::CompiledDesign::compile(d);

  std::array<std::atomic<unsigned>, 10> calls{};
  const BatchInputProvider provider = [&calls](std::size_t instance)
      -> std::vector<std::pair<std::string, RtValue>> {
    ++calls[instance];
    if (instance == 7) {
      throw std::runtime_error("input provider failed for instance 7");
    }
    return {{"X", RtValue::of(static_cast<std::int64_t>(instance))}};
  };

  std::vector<BatchRunResult> results;
  for (const std::size_t workers : {1u, 2u, 4u}) {
    for (std::atomic<unsigned>& count : calls) {
      count = 0;
    }
    BatchRunner runner(design,
                       {.workers = workers,
                        .engine = BatchEngineKind::kCompiledLanes,
                        .lane_block = 4},
                       provider);
    results.push_back(runner.run(10));
    for (std::size_t i = 0; i < calls.size(); ++i) {
      EXPECT_EQ(calls[i].load(), 1u)
          << "instance " << i << " with " << workers << " workers";
    }
  }

  const BatchRunResult& batch = results[0];
  ASSERT_EQ(batch.instances.size(), 10u);
  EXPECT_EQ(batch.failure_count(), 1u);
  EXPECT_EQ(batch.instances[7].report.status, RunStatus::kError);
  ASSERT_EQ(batch.instances[7].report.diagnostics.size(), 1u);
  EXPECT_EQ(batch.instances[7].report.diagnostics[0].message,
            "input provider failed for instance 7");

  for (std::size_t i = 0; i < batch.instances.size(); ++i) {
    if (i == 7) {
      continue;
    }
    EXPECT_TRUE(batch.instances[i].report.ok()) << "instance " << i;
    EXPECT_EQ(register_value(batch.instances[i], "R1"),
              RtValue::of(30 + static_cast<std::int64_t>(i)))
        << "instance " << i;
  }
  // Lanes 4-6 shared the poisoned block; they must equal the corresponding
  // instances of an unpoisoned reference batch.
  BatchRunner reference_runner(
      design,
      {.workers = 1,
       .engine = BatchEngineKind::kCompiledLanes,
       .lane_block = 4},
      [](std::size_t instance) -> std::vector<std::pair<std::string, RtValue>> {
        return {{"X", RtValue::of(static_cast<std::int64_t>(instance))}};
      });
  const BatchRunResult reference = reference_runner.run(10);
  for (const std::size_t i : {4u, 5u, 6u}) {
    EXPECT_EQ(batch.instances[i], reference.instances[i]) << "instance " << i;
  }

  for (std::size_t variant = 1; variant < results.size(); ++variant) {
    ASSERT_EQ(results[variant].instances.size(), batch.instances.size());
    for (std::size_t i = 0; i < batch.instances.size(); ++i) {
      EXPECT_EQ(results[variant].instances[i], batch.instances[i])
          << "worker variant " << variant << ", instance " << i;
    }
  }
}

TEST(BatchIsolation, NullFactoryResultIsStillCallerMisuse) {
  // Isolation covers *instance* failures; a factory returning null violates
  // the factory contract itself and must keep throwing loudly.
  BatchRunner runner([](std::size_t) { return std::unique_ptr<RtModel>(); },
                     {.workers = 1});
  EXPECT_THROW((void)runner.run(1), std::invalid_argument);
}

}  // namespace
}  // namespace ctrtl::rtl
