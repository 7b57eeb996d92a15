#include "transfer/schedule.h"

#include <gtest/gtest.h>

#include <algorithm>

#include "transfer/mapping.h"
#include "transfer/walk.h"

namespace ctrtl::transfer {
namespace {

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

TEST(InstanceWalker, Fig1LevelsSixInstancesIntoFourLevels) {
  const auto compiled = CompiledDesign::compile(fig1_design());
  ASSERT_EQ(compiled->instances.size(), 6u);
  const InstanceWalker walker(compiled->instances, compiled->design.cs_max);

  std::size_t instances = 0;
  std::size_t occupied = 0;
  std::size_t busiest = 0;
  for (unsigned step = 1; step <= 7; ++step) {
    for (int index = 0; index < rtl::kPhasesPerStep; ++index) {
      const std::size_t fires =
          walker.fires(step, rtl::phase_from_index(index)).size();
      instances += fires;
      occupied += fires > 0 ? 1 : 0;
      busiest = std::max(busiest, fires);
    }
  }
  EXPECT_EQ(instances, 6u);
  EXPECT_EQ(occupied, 4u);  // (5,ra) (5,rb) (6,wa) (6,wb)
  EXPECT_EQ(busiest, 2u);   // two ra fires, two rb fires

  const auto ra = walker.fires(5, rtl::Phase::kRa);
  ASSERT_EQ(ra.size(), 2u);
  EXPECT_EQ(ra[0]->source, Endpoint::register_out("R1"));
  EXPECT_EQ(ra[0]->sink, Endpoint::bus("B1"));
  EXPECT_EQ(ra[1]->source, Endpoint::register_out("R2"));

  EXPECT_TRUE(walker.fires(5, rtl::Phase::kCm).empty());
  EXPECT_TRUE(walker.fires(8, rtl::Phase::kRa).empty());
  EXPECT_TRUE(walker.fires(0, rtl::Phase::kRa).empty());
}

TEST(InstanceWalker, LevelsPreserveStreamOrderWithinASlot) {
  Design d = fig1_design();
  // A second tuple sharing (5, ra): its fires must come after the first
  // tuple's within the same level.
  d.registers.push_back({"R3", 1});
  d.buses.push_back({"B3"});
  d.modules.push_back({"ADD2", ModuleKind::kAdd, 1});
  d.transfers.push_back(
      RegisterTransfer::full("R3", "B3", "R2", "B2", 5, "ADD2", 6, "B3", "R3"));
  // Conflicts on B2/ADD-operand sharing are irrelevant here; only the
  // order within a level matters.
  const auto compiled = CompiledDesign::compile(d);
  const InstanceWalker walker(compiled->instances, d.cs_max);
  const auto ra = walker.fires(5, rtl::Phase::kRa);
  ASSERT_EQ(ra.size(), 4u);
  EXPECT_EQ(ra[0]->source, Endpoint::register_out("R1"));
  EXPECT_EQ(ra[2]->source, Endpoint::register_out("R3"));
}

TEST(CompiledDesign, InvalidDesignRejected) {
  Design d = fig1_design();
  d.transfers[0].read_step = 9;  // outside 1..cs_max window for write at 6
  EXPECT_THROW((void)CompiledDesign::compile(d), std::invalid_argument);
}

/// fig1's own stream plus one instance driving R2.out onto B2 at
/// (`step`, `phase`).
std::vector<TransInstance> fig1_stream_with(unsigned step, rtl::Phase phase) {
  std::vector<TransInstance> instances =
      to_instances(fig1_design().transfers);
  TransInstance extra = instances[1];
  extra.step = step;
  extra.phase = phase;
  instances.push_back(extra);
  return instances;
}

TEST(CompiledDesign, StreamStepZeroRejected) {
  EXPECT_THROW((void)CompiledDesign::compile(
                   fig1_design(), fig1_stream_with(0, rtl::Phase::kRa)),
               std::invalid_argument);
}

TEST(CompiledDesign, StreamStepPastCsMaxRejected) {
  EXPECT_THROW((void)CompiledDesign::compile(
                   fig1_design(), fig1_stream_with(8, rtl::Phase::kRa)),
               std::invalid_argument);
}

TEST(CompiledDesign, StreamCrFireRejected) {
  EXPECT_THROW((void)CompiledDesign::compile(
                   fig1_design(), fig1_stream_with(3, rtl::Phase::kCr)),
               std::invalid_argument);
}

TEST(CompiledDesign, KeepsTheStreamItLowered) {
  const std::vector<TransInstance> stream =
      fig1_stream_with(7, rtl::Phase::kRa);
  const auto compiled = CompiledDesign::compile(fig1_design(), stream);
  EXPECT_EQ(compiled->instances, stream);
}

}  // namespace
}  // namespace ctrtl::transfer
