#include <gtest/gtest.h>

#include "rtl/batch_runner.h"
#include "transfer/build.h"
#include "verify/equivalence.h"
#include "verify/random_design.h"
#include "verify/trace.h"

namespace ctrtl {
namespace {

// The dispatcher execution mode (rtl::TransferMode::kDispatch) must be
// observationally identical to the paper-faithful process-per-transfer
// mode: the same InstanceResult (register values, conflicts at the same
// (step, phase) in the same order, delta cycles, events, updates,
// transactions, report) and the same register-write trace. It is the
// per-instance reference `BatchRunner` checks the lanes against.

class DispatchEquivalence : public ::testing::TestWithParam<int> {};

TEST_P(DispatchEquivalence, CleanDesignsMatch) {
  verify::RandomDesignOptions options;
  options.seed = static_cast<std::uint32_t>(GetParam()) + 4000;
  options.num_transfers = 4 + static_cast<unsigned>(GetParam() % 9);
  options.use_alu = GetParam() % 2 == 0;
  const transfer::Design design = verify::random_design(options);

  auto faithful =
      transfer::build_model(design, rtl::TransferMode::kProcessPerTransfer);
  verify::RegisterWriteTrace faithful_trace(*faithful);
  const rtl::InstanceResult faithful_result = rtl::run_instance(*faithful);

  auto dispatched = transfer::build_model(design, rtl::TransferMode::kDispatch);
  verify::RegisterWriteTrace dispatched_trace(*dispatched);
  const rtl::InstanceResult dispatched_result = rtl::run_instance(*dispatched);

  EXPECT_EQ(faithful_result, dispatched_result) << "seed " << GetParam();
  EXPECT_TRUE(verify::compare_write_traces(faithful_trace.writes(),
                                           dispatched_trace.writes())
                  .consistent());
}

TEST_P(DispatchEquivalence, ConflictingDesignsMatch) {
  verify::RandomDesignOptions options;
  options.seed = static_cast<std::uint32_t>(GetParam()) + 5000;
  options.num_transfers = 4 + static_cast<unsigned>(GetParam() % 6);
  options.inject_conflicts = true;
  const transfer::Design design = verify::random_design(options);

  auto faithful =
      transfer::build_model(design, rtl::TransferMode::kProcessPerTransfer);
  const rtl::InstanceResult faithful_result = rtl::run_instance(*faithful);
  auto dispatched = transfer::build_model(design, rtl::TransferMode::kDispatch);
  const rtl::InstanceResult dispatched_result = rtl::run_instance(*dispatched);

  ASSERT_FALSE(faithful_result.conflicts.empty());
  EXPECT_EQ(faithful_result, dispatched_result)
      << "conflicts must be located identically (seed " << GetParam() << ")";
}

INSTANTIATE_TEST_SUITE_P(Seeds, DispatchEquivalence, ::testing::Range(1, 21));

TEST(DispatchMode, TransferCountTracked) {
  verify::RandomDesignOptions options;
  options.seed = 1;
  options.num_transfers = 5;
  const transfer::Design design = verify::random_design(options);
  auto faithful =
      transfer::build_model(design, rtl::TransferMode::kProcessPerTransfer);
  auto dispatched = transfer::build_model(design, rtl::TransferMode::kDispatch);
  EXPECT_EQ(faithful->transfer_count(), dispatched->transfer_count());
  EXPECT_EQ(faithful->transfers().size(), faithful->transfer_count());
  EXPECT_TRUE(dispatched->transfers().empty()) << "no TRANS processes in dispatch mode";
  EXPECT_EQ(dispatched->transfer_mode(), rtl::TransferMode::kDispatch);
}

TEST(DispatchMode, TableFollowsTheTransfersNotCsMax) {
  // Figure 1's transfer in a design four billion steps long: the dispatch
  // table holds its twelve actions, not one slot per delta ordinal.
  transfer::Design design;
  design.cs_max = 4000000000u;
  design.registers = {{"R1", 30}, {"R2", 12}};
  design.buses = {{"B1"}, {"B2"}};
  design.modules = {{"ADD", transfer::ModuleKind::kAdd, 1}};
  design.transfers = {transfer::RegisterTransfer::full("R1", "B1", "R2", "B2", 5,
                                                       "ADD", 6, "B1", "R1")};
  auto model = transfer::build_model(design, rtl::TransferMode::kDispatch);
  const rtl::RunResult result = model->run(rtl::RunOptions{.max_delta_cycles = 42});
  EXPECT_EQ(result.stats.delta_cycles, 42u);
  EXPECT_EQ(result.report.status, rtl::RunStatus::kWatchdogTripped);
  EXPECT_EQ(model->find_register("R1")->value(), rtl::RtValue::of(42));
}

}  // namespace
}  // namespace ctrtl
