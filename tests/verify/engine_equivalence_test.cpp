#include <gtest/gtest.h>

#include <algorithm>

#include "common/diagnostics.h"
#include "rtl/batch_runner.h"
#include "rtl/lane_engine.h"
#include "rtl/modules.h"
#include "transfer/build.h"
#include "transfer/schedule.h"
#include "transfer/text_format.h"
#include "verify/equivalence.h"
#include "verify/random_design.h"
#include "verify/trace.h"
#include "verify/vcd.h"

namespace ctrtl::verify {
namespace {

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

TEST(EngineEquivalence, Fig1) {
  const CheckReport report = check_engine_equivalence(fig1_design());
  EXPECT_TRUE(report.consistent()) << report.to_text();
}

TEST(EngineEquivalence, Fig1WithBusConflict) {
  Design d = fig1_design();
  d.transfers[0].operand_b->bus = "B1";  // double-books B1 at (5, ra)
  const CheckReport report = check_engine_equivalence(d);
  EXPECT_TRUE(report.consistent()) << report.to_text();
}

/// The differential sweep: seeded random designs, run through all engines
/// (`check_engine_equivalence` covers the event kernel, the compiled engine,
/// and the lane engine), must agree on registers, conflicts (exact order),
/// delta cycles, kernel counters, and — for the per-instance engines — the
/// complete event trace.
class EngineSweepTest : public ::testing::TestWithParam<std::uint32_t> {};

TEST_P(EngineSweepTest, CleanDesignsAgree) {
  RandomDesignOptions options;
  options.seed = GetParam();
  options.num_registers = 6;
  options.num_buses = 4;
  options.num_transfers = 10;
  options.use_alu = (GetParam() % 2) == 0;
  const CheckReport report = check_engine_equivalence(random_design(options));
  EXPECT_TRUE(report.consistent()) << "seed " << GetParam() << ":\n"
                                   << report.to_text();
}

TEST_P(EngineSweepTest, ConflictingDesignsAgree) {
  // Deliberate bus conflicts: both engines must report the identical ILLEGAL
  // events, pinned to the identical (step, phase) delta cycles.
  RandomDesignOptions options;
  options.seed = GetParam() + 90000;
  options.num_registers = 5;
  options.num_buses = 3;
  options.num_transfers = 9;
  options.inject_conflicts = true;
  const CheckReport report = check_engine_equivalence(random_design(options));
  EXPECT_TRUE(report.consistent()) << "seed " << options.seed << ":\n"
                                   << report.to_text();
}

INSTANTIATE_TEST_SUITE_P(Seeds, EngineSweepTest,
                         ::testing::Range(1u, 16u));  // 15 x 2 = 30 designs

/// Designs whose module latencies are not their kinds' usual ones, with
/// the register values the reference semantics gives them. Every engine
/// must elaborate the declared latency: the event kernel and the compiled
/// engine through `rtl::CopyModule`/`rtl::MaccModule`, the lane engine
/// through its pipeline rows, bounded by cs_max + 1.
struct DeclaredLatencyCase {
  const char* name;
  const char* text;
  std::vector<std::pair<std::string, std::int64_t>> registers;
};

const DeclaredLatencyCase kDeclaredLatencyCases[] = {
    // A latency-2 COPY: R2 receives R1 two steps after the read.
    {"Copy2",
     "design copy2\ncs_max 5\nregister R1 init 30\nregister R2 init 0\n"
     "bus B1\nbus B2\nmodule C copy latency 2\n"
     "transfer R1 B1 - - 2 C 4 B2 R2\n",
     {{"R1", 30}, {"R2", 30}}},
    // A latency-3 MACC: the MACs read at steps 2 and 3 arrive at 5 and 6,
    // so R3 holds the first product alone.
    {"Macc3",
     "design macc3\ncs_max 7\nregister R1 init 30\nregister R2 init 12\n"
     "register R3 init 0\nregister R4 init 0\nbus B1\nbus B2\nbus B3\n"
     "module M macc latency 3\n"
     "transfer R1 B1 R2 B2 2 M 5 B3 R3 op 1\n"
     "transfer R1 B1 R2 B2 3 M 6 B3 R4 op 1\n",
     {{"R1", 30}, {"R2", 12}, {"R3", 360}, {"R4", 720}}},
    // Read-only transfers into modules deeper than the run (a kernel kind
    // and two op-port kinds) beside fig1's addition: their values never
    // leave the pipelines.
    {"DeeperThanRun",
     "design deep\ncs_max 7\nregister R1 init 30\nregister R2 init 12\n"
     "bus B1\nbus B2\nbus B3\nbus B4\nmodule ADD add latency 1\n"
     "module SLOW sub latency 9\nmodule DEEP alu latency 12\n"
     "module ACC macc latency 10\n"
     "transfer R1 B3 R2 B4 1 SLOW - - -\n"
     "transfer R1 B3 R2 B4 2 DEEP - - - op 0\n"
     "transfer R1 B3 R2 B4 3 ACC - - - op 1\n"
     "transfer R1 B1 R2 B2 5 ADD 6 B1 R1\n",
     {{"R1", 42}, {"R2", 12}}},
};

class DeclaredLatencyTest : public ::testing::TestWithParam<DeclaredLatencyCase> {};

TEST_P(DeclaredLatencyTest, EnginesAndReferenceSemanticsAgree) {
  common::DiagnosticBag diags;
  const Design design = transfer::parse_design(GetParam().text, diags);
  ASSERT_FALSE(diags.has_errors()) << diags.to_text();
  const CheckReport engines = check_engine_equivalence(design);
  EXPECT_TRUE(engines.consistent()) << design.name << ":\n" << engines.to_text();
  const CheckReport reference = check_consistency(design);
  EXPECT_TRUE(reference.consistent()) << design.name << ":\n"
                                      << reference.to_text();
  const EvalResult expected = evaluate(design);
  for (const auto& [name, value] : GetParam().registers) {
    EXPECT_EQ(expected.registers.at(name), rtl::RtValue::of(value))
        << design.name << " " << name;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Designs, DeclaredLatencyTest, ::testing::ValuesIn(kDeclaredLatencyCases),
    [](const ::testing::TestParamInfo<DeclaredLatencyCase>& info) {
      return std::string(info.param.name);
    });

TEST(EngineEquivalence, VcdOutputIsByteIdentical) {
  RandomDesignOptions options;
  options.seed = 7;
  options.inject_conflicts = true;
  const Design design = random_design(options);

  const auto dump = [&](rtl::TransferMode mode) {
    auto model = transfer::build_model(design, mode);
    TraceRecorder trace(model->scheduler());
    (void)model->run();
    return to_vcd(trace.events());
  };
  EXPECT_EQ(dump(rtl::TransferMode::kProcessPerTransfer),
            dump(rtl::TransferMode::kCompiled));
}

TEST(EngineEquivalence, BatchRunnerInstanceResultsMatch) {
  // The batch facade with a compiled-mode factory must produce the exact
  // InstanceResult (registers, conflicts, counters) of the event-mode
  // factory, per instance.
  const auto factory_for = [](rtl::TransferMode mode) {
    return [mode](std::size_t instance) {
      RandomDesignOptions options;
      options.seed = 500 + static_cast<std::uint32_t>(instance);
      options.inject_conflicts = (instance % 3) == 0;
      return transfer::build_model(random_design(options), mode);
    };
  };
  rtl::BatchRunner event_runner(factory_for(rtl::TransferMode::kProcessPerTransfer),
                                {.workers = 2});
  rtl::BatchRunner compiled_runner(factory_for(rtl::TransferMode::kCompiled),
                                   {.workers = 2});
  const rtl::BatchRunResult event_batch = event_runner.run(8);
  const rtl::BatchRunResult compiled_batch = compiled_runner.run(8);
  ASSERT_EQ(event_batch.instances.size(), compiled_batch.instances.size());
  for (std::size_t i = 0; i < event_batch.instances.size(); ++i) {
    EXPECT_EQ(event_batch.instances[i], compiled_batch.instances[i])
        << "instance " << i;
  }
}

TEST(EngineEquivalence, DispatchModeAlsoAgreesWithCompiled) {
  // Three-way: the dispatcher ablation shares the event kernel, so checking
  // it against compiled mode transitively covers all three engines.
  RandomDesignOptions options;
  options.seed = 11;
  options.num_transfers = 12;
  const Design design = random_design(options);
  auto dispatch_model = transfer::build_model(design, rtl::TransferMode::kDispatch);
  auto compiled_model = transfer::build_model(design, rtl::TransferMode::kCompiled);
  const rtl::InstanceResult dispatch_result = rtl::run_instance(*dispatch_model);
  const rtl::InstanceResult compiled_result = rtl::run_instance(*compiled_model);
  // The dispatcher trades transactions/updates for fewer processes, so only
  // behaviour (not counters) is comparable.
  EXPECT_EQ(dispatch_result.cycles, compiled_result.cycles);
  EXPECT_EQ(dispatch_result.conflicts, compiled_result.conflicts);
  EXPECT_EQ(dispatch_result.registers, compiled_result.registers);
}

// --- lane engine ------------------------------------------------------------

/// fig1 with one operand replaced by an external input, so lanes carry
/// genuinely different data through the same shared schedule.
Design lane_input_design() {
  Design d;
  d.name = "lane_input";
  d.cs_max = 3;
  d.registers = {{"R1", 1}};
  d.buses = {{"B1"}, {"B2"}};
  d.modules = {{"ADD", ModuleKind::kAdd, 1}};
  d.inputs = {{"X"}};
  RegisterTransfer t;
  t.operand_a = transfer::OperandPath{transfer::Endpoint::register_out("R1"), "B1"};
  t.operand_b = transfer::OperandPath{transfer::Endpoint::input("X"), "B2"};
  t.read_step = 1;
  t.module = "ADD";
  t.write_step = 2;
  t.write_bus = "B1";
  t.destination = "R1";
  d.transfers = {t};
  return d;
}

TEST(LaneEngine, PerInstanceInputsFlowThroughLanes) {
  const Design design = lane_input_design();
  const rtl::BatchInputProvider provider = [](std::size_t instance) {
    return std::vector<std::pair<std::string, rtl::RtValue>>{
        {"X", rtl::RtValue::of(static_cast<std::int64_t>(instance) * 10)}};
  };
  rtl::BatchRunner lanes(transfer::CompiledDesign::compile(design),
                         {.workers = 2,
                          .engine = rtl::BatchEngineKind::kCompiledLanes,
                          .lane_block = 4},
                         provider);
  const rtl::BatchRunResult batch = lanes.run(10);
  ASSERT_EQ(batch.instances.size(), 10u);
  for (std::size_t i = 0; i < batch.instances.size(); ++i) {
    // Event-kernel reference with the same instance input.
    auto model = transfer::build_model(design, rtl::TransferMode::kProcessPerTransfer);
    model->set_input("X", rtl::RtValue::of(static_cast<std::int64_t>(i) * 10));
    const rtl::InstanceResult reference = rtl::run_instance(*model);
    EXPECT_EQ(batch.instances[i], reference) << "instance " << i;
    ASSERT_EQ(batch.instances[i].registers.size(), 1u);
    EXPECT_EQ(batch.instances[i].registers[0].second,
              rtl::RtValue::of(1 + static_cast<std::int64_t>(i) * 10))
        << "instance " << i;
  }
}

/// Input X feeds module operands (MUL, MACC, CORDIC) and, at step 2, drives
/// bus B3 beside R2. The design also holds an ALU (op port), a latency-0
/// COPY, a latency-2 MUL and an ADD fed from lane-varying registers, so a
/// block whose lanes leave X unset (DISC) in some lanes puts different tags
/// through every module kind and both conflict paths at once.
Design divergent_input_design() {
  Design d;
  d.name = "divergent_input";
  d.cs_max = 7;
  d.registers = {{"R1", 5}, {"R2", 7}, {"R3", {}}, {"R4", {}},
                 {"R5", {}}, {"R6", {}}, {"R7", {}}};
  d.buses = {{"B1"}, {"B2"}, {"B3"}, {"B4"}};
  d.modules = {{"MUL", ModuleKind::kMul, 2, 0},
               {"ALU", ModuleKind::kAlu, 1},
               {"COPY", ModuleKind::kCopy, 0},
               {"MACC", ModuleKind::kMacc, 1, 0},
               {"CORDIC", ModuleKind::kCordic, 1, 16, 12},
               {"ADD", ModuleKind::kAdd, 1}};
  d.inputs = {{"X"}};
  const transfer::Endpoint x = transfer::Endpoint::input("X");
  // R3 = R1 * X: an unset X is a lone operand, ILLEGAL by the discipline.
  RegisterTransfer mul =
      RegisterTransfer::full("R1", "B1", "R2", "B2", 1, "MUL", 3, "B1", "R3");
  mul.operand_b->source = x;
  // X and R2 both drive B3 at (2, ra): a conflict only where X is set.
  RegisterTransfer alu = RegisterTransfer::full(
      "R1", "B3", "R2", "B4", 2, "ALU", 3, "B2", "R4", rtl::alu_ops::kAdd);
  alu.operand_a->source = x;
  RegisterTransfer copy =
      RegisterTransfer::full("R2", "B3", "R2", "B3", 2, "COPY", 2, "B1", "R5");
  copy.operand_b.reset();
  // R6 = MACC(R1 * X).
  RegisterTransfer macc = RegisterTransfer::full(
      "R1", "B1", "R2", "B2", 4, "MACC", 5, "B2", "R6", rtl::MaccModule::kOpMac);
  macc.operand_b->source = x;
  // R7 = sin(X); an unset X leaves the op without its operand.
  RegisterTransfer cordic = RegisterTransfer::full(
      "R2", "B3", "R2", "B3", 5, "CORDIC", 6, "B1", "R7",
      rtl::CordicModule::kOpSin);
  cordic.operand_a->source = x;
  cordic.operand_b.reset();
  // R1 = R3 + R6: VALUE + VALUE where X is set, ILLEGAL + ILLEGAL elsewhere.
  const RegisterTransfer add =
      RegisterTransfer::full("R3", "B2", "R6", "B3", 6, "ADD", 7, "B2", "R1");
  d.transfers = {mul, alu, copy, macc, cordic, add};
  return d;
}

TEST(LaneEngine, DivergentTagsInOneBlockMatchEventKernel) {
  const Design design = divergent_input_design();
  common::DiagnosticBag diags;
  ASSERT_TRUE(transfer::validate(design, diags)) << diags.to_text();

  // X is unset in every third instance, so blocks of 3, 16, 17 and 64 lanes
  // each mix both kinds of lane, and width 1 alternates them across blocks.
  const auto x_is_set = [](std::size_t instance) { return instance % 3 != 1; };
  const rtl::BatchInputProvider provider = [&](std::size_t instance) {
    std::vector<std::pair<std::string, rtl::RtValue>> inputs;
    if (x_is_set(instance)) {
      inputs.emplace_back(
          "X", rtl::RtValue::of(static_cast<std::int64_t>(instance) * 37 - 900));
    }
    return inputs;
  };
  constexpr std::size_t kInstances = 70;
  std::vector<rtl::InstanceResult> reference;
  for (std::size_t i = 0; i < kInstances; ++i) {
    auto model =
        transfer::build_model(design, rtl::TransferMode::kProcessPerTransfer);
    for (const auto& [name, value] : provider(i)) {
      model->set_input(name, value);
    }
    reference.push_back(rtl::run_instance(*model));
  }
  // The lanes really diverge: only lanes with X set see the B3 conflict,
  // only lanes without it see their MUL output turn ILLEGAL.
  const auto conflicts_on = [](const rtl::InstanceResult& result,
                               const std::string& signal, unsigned step) {
    return std::ranges::count_if(result.conflicts, [&](const rtl::Conflict& c) {
      return c.signal == signal && c.step == step;
    });
  };
  for (std::size_t i = 0; i < kInstances; ++i) {
    EXPECT_EQ(conflicts_on(reference[i], "B3", 2) > 0, x_is_set(i)) << i;
    EXPECT_EQ(conflicts_on(reference[i], "R3.in", 3) > 0, !x_is_set(i)) << i;
  }

  const auto compiled = transfer::CompiledDesign::compile(design);
  for (const std::size_t width : {1u, 3u, 16u, 17u, 64u}) {
    rtl::BatchRunner lanes(compiled,
                           {.workers = 2,
                            .engine = rtl::BatchEngineKind::kCompiledLanes,
                            .lane_block = width},
                           provider);
    const rtl::BatchRunResult batch = lanes.run(kInstances);
    ASSERT_EQ(batch.instances.size(), kInstances);
    for (std::size_t i = 0; i < kInstances; ++i) {
      EXPECT_EQ(batch.instances[i], reference[i])
          << "block width " << width << ", instance " << i;
    }
  }
}

TEST(LaneEngine, BatchResultByteStableAcrossWorkerCounts) {
  // The lane shard size is fixed (not derived from the worker count), so the
  // whole BatchRunResult — per-instance registers, conflict order, every
  // counter — must be identical for 1, 2, and 4 workers.
  RandomDesignOptions options;
  options.seed = 42;
  options.num_transfers = 12;
  options.inject_conflicts = true;
  const auto design = transfer::CompiledDesign::compile(random_design(options));

  std::vector<rtl::BatchRunResult> results;
  for (const std::size_t workers : {1u, 2u, 4u}) {
    rtl::BatchRunner runner(design,
                            {.workers = workers,
                             .engine = rtl::BatchEngineKind::kCompiledLanes,
                             .lane_block = 8});
    results.push_back(runner.run(37));  // not a multiple of the block size
  }
  EXPECT_GT(results[0].conflict_count(), 0u)
      << "conflict-injected design must surface ILLEGAL events";
  for (std::size_t variant = 1; variant < results.size(); ++variant) {
    ASSERT_EQ(results[variant].instances.size(), results[0].instances.size());
    for (std::size_t i = 0; i < results[0].instances.size(); ++i) {
      EXPECT_EQ(results[variant].instances[i], results[0].instances[i])
          << "worker variant " << variant << ", instance " << i;
    }
    EXPECT_EQ(results[variant].total.updates, results[0].total.updates);
    EXPECT_EQ(results[variant].total.events, results[0].total.events);
    EXPECT_EQ(results[variant].total.transactions, results[0].total.transactions);
  }
}

TEST(LaneEngine, TableStatsReflectLoweredDesign) {
  const rtl::LaneEngine engine(transfer::CompiledDesign::compile(fig1_design()));
  const rtl::LaneEngine::TableStats stats = engine.table_stats();
  // fig1: 7 steps x 6 phases + the trailing latch cycle.
  EXPECT_EQ(stats.cycles, 7u * 6u + 1u);
  // R1.in/out, R2.in/out, B1, B2, ADD.in1/in2/out.
  EXPECT_EQ(stats.signals, 9u);
  // Sinks: B1 (2 drivers), B2, ADD.in1, ADD.in2, R1.in.
  EXPECT_EQ(stats.resolved_sinks, 5u);
  EXPECT_EQ(stats.drivers, 6u);
  // One fire and one release per TRANS instance of the tuple.
  EXPECT_EQ(stats.fire_actions, 6u);
  EXPECT_EQ(stats.release_actions, 6u);
  // 2 preloads, 12 sink re-resolutions (one per fire and release), the ADD
  // output after the 5 cm cycles it steps at (steps 1-2 for its initial
  // window, 5 for the read, 6-7 for the latency-1 drain), and R1's output
  // after the one cr it latches at (step 6).
  EXPECT_EQ(stats.update_entries, 2u + 12u + 5u + 1u);
  EXPECT_EQ(stats.modules, 1u);
  EXPECT_EQ(stats.registers, 2u);
}

TEST(LaneEngine, BatchRunnersShareTheCompiledPlan) {
  // The plan is lowered by CompiledDesign::compile, not per runner: every
  // runner over one compiled design executes the same plan object.
  const auto design = transfer::CompiledDesign::compile(fig1_design());
  const rtl::BatchRunOptions options{.engine =
                                         rtl::BatchEngineKind::kCompiledLanes};
  const rtl::BatchRunner first(design, options);
  const rtl::BatchRunner second(design, options);
  ASSERT_NE(first.lane_engine(), nullptr);
  ASSERT_NE(second.lane_engine(), nullptr);
  EXPECT_EQ(&first.lane_engine()->plan(), &design->plan);
  EXPECT_EQ(&second.lane_engine()->plan(), &design->plan);
}

TEST(LaneEngine, SharedScheduleLoweredOnce) {
  // CompiledDesign lowers at compile() time; the lane engine reuses its
  // plan and any number of per-instance elaborations reuse its stream.
  const auto design = transfer::CompiledDesign::compile(fig1_design());
  EXPECT_EQ(design->design.cs_max, 7u);
  EXPECT_EQ(design->instances.size(), 6u);
  const rtl::LaneEngine engine(design);
  EXPECT_EQ(&engine.compiled(), design.get());
  auto model = transfer::build_model(*design);  // elaborates design->instances
  const rtl::InstanceResult reference = rtl::run_instance(*model);
  const std::vector<rtl::InstanceResult> lane =
      engine.run_block(0, 1, nullptr);
  ASSERT_EQ(lane.size(), 1u);
  EXPECT_EQ(lane[0], reference);
}

}  // namespace
}  // namespace ctrtl::verify
