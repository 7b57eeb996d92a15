#include "baseline/clocked_rtl.h"

#include <gtest/gtest.h>

#include <sstream>
#include <string>

#include "verify/random_design.h"

namespace ctrtl::baseline {
namespace {

using clocked::plan_translation;
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

/// A zero-latency COPY: its combinational output is written in the step
/// it reads.
Design copy_design() {
  Design d;
  d.cs_max = 3;
  d.registers = {{"A", 7}, {"OUT", std::nullopt}};
  d.buses = {{"B1"}, {"B2"}};
  d.modules = {{"CP", ModuleKind::kCopy, 0}};
  RegisterTransfer t;
  t.operand_a = transfer::OperandPath{transfer::Endpoint::register_out("A"), "B1"};
  t.read_step = 1;
  t.module = "CP";
  t.write_step = 1;
  t.write_bus = "B2";
  t.destination = "OUT";
  d.transfers = {t};
  return d;
}

TEST(ClockedRtlSim, ZeroLatencyCombinationalPath) {
  ClockedRtlSim sim(plan_translation(copy_design()));
  sim.run();
  EXPECT_EQ(sim.register_value("OUT"), rtl::RtValue::of(7));
}

TEST(ClockedRtlSim, PaysClockTrafficOnIdleCycles) {
  // E6's second leg: the conventional clocked simulation pays clock-edge
  // events and flop-process resumptions on every cycle whether or not work
  // happens; the quantitative comparison against the clock-free model is
  // measured in bench_vs_clocked.
  Design d = fig1_design();
  d.cs_max = 50;  // 49 idle steps
  ClockedRtlSim sim(plan_translation(d));
  const ClockedRtlSim::Result result = sim.run();
  // >= 2 clk events per cycle plus one step event.
  EXPECT_GE(result.stats.events, std::uint64_t{3} * result.clock_cycles);
  // Every sync process resumes on every rising edge: step counter + module
  // + 2 registers = 4 resumptions per cycle minimum.
  EXPECT_GE(result.stats.resumptions, std::uint64_t{4} * result.clock_cycles);
  EXPECT_GT(sim.scheduler().now().fs, 0u);
}

// E6's `e6.clocked.*` rows time this simulator's one-cycle event traffic.
// These counts pin it exactly, so a change to the simulator that alters
// what E6 measures shows here first.
std::string one_cycle_traffic(const Design& design) {
  ClockedRtlSim sim(plan_translation(design));
  const ClockedRtlSim::Result result = sim.run();
  const kernel::KernelStats& stats = result.stats;
  std::ostringstream out;
  out << "clock_cycles " << result.clock_cycles << " kernel_cycles "
      << result.kernel_cycles << " delta_cycles " << stats.delta_cycles
      << " timed_cycles " << stats.timed_cycles << " events " << stats.events
      << " updates " << stats.updates << " resumptions " << stats.resumptions
      << " condition_rejects " << stats.condition_rejects << " transactions "
      << stats.transactions << " waiter_visits " << stats.waiter_visits
      << " observer_calls " << stats.observer_calls << " now_fs "
      << sim.scheduler().now().fs;
  return out.str();
}

TEST(ClockedRtlSim, OneCycleEventTrafficIsPinned) {
  verify::RandomDesignOptions plain;
  plain.seed = 1;
  verify::RandomDesignOptions alu;
  alu.seed = 3;
  alu.use_alu = true;
  EXPECT_EQ(one_cycle_traffic(fig1_design()),
            "clock_cycles 8 kernel_cycles 40 delta_cycles 24 timed_cycles 16 "
            "events 27 updates 33 resumptions 53 condition_rejects 32 "
            "transactions 33 waiter_visits 64 observer_calls 0 now_fs 8000000");
  EXPECT_EQ(one_cycle_traffic(verify::random_design(plain)),
            "clock_cycles 21 kernel_cycles 105 delta_cycles 63 timed_cycles 42 "
            "events 87 updates 134 resumptions 263 condition_rejects 210 "
            "transactions 134 waiter_visits 420 observer_calls 0 "
            "now_fs 21000000");
  EXPECT_EQ(one_cycle_traffic(verify::random_design(alu)),
            "clock_cycles 20 kernel_cycles 100 delta_cycles 60 timed_cycles 40 "
            "events 84 updates 148 resumptions 272 condition_rejects 220 "
            "transactions 148 waiter_visits 440 observer_calls 0 "
            "now_fs 20000000");
  EXPECT_EQ(one_cycle_traffic(copy_design()),
            "clock_cycles 4 kernel_cycles 24 delta_cycles 16 timed_cycles 8 "
            "events 15 updates 18 resumptions 29 condition_rejects 12 "
            "transactions 18 waiter_visits 28 observer_calls 0 now_fs 4000000");
}

}  // namespace
}  // namespace ctrtl::baseline
