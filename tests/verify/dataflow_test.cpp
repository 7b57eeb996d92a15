#include "verify/dataflow.h"

#include <gtest/gtest.h>

#include <random>

#include "hls/emit.h"
#include "iks/program.h"
#include "rtl/modules.h"
#include "iks/resources.h"

namespace ctrtl::verify {
namespace {

using transfer::Design;
using transfer::ModuleKind;
using transfer::RegisterTransfer;

TEST(DfExpr, CanonicalForms) {
  const DfExprPtr a = DfExpr::input("a");
  const DfExprPtr b = DfExpr::input("b");
  EXPECT_EQ(canonical(DfExpr::make("add", {a, b})), "add($a,$b)");
  EXPECT_EQ(canonical(DfExpr::make("add", {b, a})), "add($a,$b)")
      << "commutative ops sort their arguments";
  EXPECT_EQ(canonical(DfExpr::make("sub", {b, a})), "sub($b,$a)")
      << "sub is not commutative";
  EXPECT_EQ(canonical(DfExpr::literal(5)), "5");
  EXPECT_EQ(canonical(DfExpr::disc()), "DISC");
  EXPECT_EQ(canonical(DfExpr::illegal()), "ILLEGAL");
}

TEST(DfExpr, EquivalenceModuloCommutativity) {
  const DfExprPtr a = DfExpr::input("a");
  const DfExprPtr b = DfExpr::input("b");
  const DfExprPtr c = DfExpr::literal(3);
  const DfExprPtr left = DfExpr::make("mul0", {DfExpr::make("add", {a, b}), c});
  const DfExprPtr right = DfExpr::make("mul0", {c, DfExpr::make("add", {b, a})});
  EXPECT_TRUE(equivalent(left, right));
  EXPECT_FALSE(equivalent(left, DfExpr::make("mul0", {a, c})));
}

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

TEST(ExtractDataflow, Fig1YieldsSymbolicSum) {
  const DataflowResult result = extract_dataflow(fig1_design());
  EXPECT_EQ(canonical(result.registers.at("R1")), "add(12,30)");
  EXPECT_EQ(canonical(result.registers.at("R2")), "12");
  EXPECT_FALSE(result.saw_illegal);
}

TEST(ExtractDataflow, ConflictSurfacesSymbolically) {
  Design d = fig1_design();
  d.transfers[0].operand_b->bus = "B1";
  const DataflowResult result = extract_dataflow(d);
  EXPECT_TRUE(result.saw_illegal);
  EXPECT_EQ(canonical(result.registers.at("R1")), "ILLEGAL");
}

TEST(ExtractDataflow, UnreadDisciplineViolationStillCounts) {
  // ADD receives one operand of two at step 5 and nothing reads its output:
  // no sink ever resolves to ILLEGAL, yet the unit computed it.
  Design d = fig1_design();
  d.transfers[0].operand_b.reset();
  d.transfers[0].write_step.reset();
  d.transfers[0].write_bus.reset();
  d.transfers[0].destination.reset();
  const DataflowResult result = extract_dataflow(d);
  EXPECT_TRUE(result.saw_illegal);
  EXPECT_EQ(canonical(result.registers.at("R1")), "30");
}

TEST(ExtractDataflow, CopiesAreTransparent) {
  Design d;
  d.cs_max = 3;
  d.registers = {{"A", std::nullopt}, {"OUT", std::nullopt}};
  d.buses = {{"B1"}, {"B2"}};
  d.inputs = {{"x"}};
  d.modules = {{"CP", ModuleKind::kCopy, 0}};
  RegisterTransfer t;
  t.operand_a = transfer::OperandPath{transfer::Endpoint::input("x"), "B1"};
  t.read_step = 1;
  t.module = "CP";
  t.write_step = 1;
  t.write_bus = "B2";
  t.destination = "OUT";
  d.transfers = {t};
  const DataflowResult result = extract_dataflow(d);
  EXPECT_EQ(canonical(result.registers.at("OUT")), "$x")
      << "the direct-link copy module adds no operation node";
}

TEST(ExtractDataflow, MaccNormalizesToAddMul) {
  // A MACC accumulation and the equivalent MULT+ADD schedule must extract
  // to the same expression.
  Design macc_design;
  macc_design.cs_max = 5;
  macc_design.registers = {{"OUT", std::nullopt}};
  macc_design.inputs = {{"a"}, {"b"}, {"c"}, {"d"}};
  macc_design.buses = {{"B1"}, {"B2"}, {"B3"}};
  macc_design.modules = {{"MACC", ModuleKind::kMacc, 1, 0}};
  RegisterTransfer clear;
  clear.read_step = 1;
  clear.module = "MACC";
  clear.op = rtl::MaccModule::kOpClear;
  RegisterTransfer mac1;
  mac1.operand_a = transfer::OperandPath{transfer::Endpoint::input("a"), "B1"};
  mac1.operand_b = transfer::OperandPath{transfer::Endpoint::input("b"), "B2"};
  mac1.read_step = 2;
  mac1.module = "MACC";
  mac1.op = rtl::MaccModule::kOpMac;
  RegisterTransfer mac2 = mac1;
  mac2.operand_a = transfer::OperandPath{transfer::Endpoint::input("c"), "B1"};
  mac2.operand_b = transfer::OperandPath{transfer::Endpoint::input("d"), "B2"};
  mac2.read_step = 3;
  mac2.write_step = 4;
  mac2.write_bus = "B3";
  mac2.destination = "OUT";
  macc_design.transfers = {clear, mac1, mac2};

  const DataflowResult result = extract_dataflow(macc_design);
  EXPECT_EQ(canonical(result.registers.at("OUT")),
            "add(add(0,mul0($a,$b)),mul0($c,$d))");
}

// --- HLS equivalence: the automatic proving procedure -------------------------

hls::Dfg sample_dfg() {
  hls::Dfg dfg;
  dfg.add_input("a");
  dfg.add_input("b");
  const std::size_t sum = dfg.add_node(
      hls::OpKind::kAdd, {hls::ValueRef::of_input("a"), hls::ValueRef::of_input("b")});
  const std::size_t diff = dfg.add_node(
      hls::OpKind::kSub, {hls::ValueRef::of_input("a"), hls::ValueRef::of_constant(3)});
  const std::size_t product = dfg.add_node(
      hls::OpKind::kMul, {hls::ValueRef::of_node(sum), hls::ValueRef::of_node(diff)});
  dfg.mark_output("out", hls::ValueRef::of_node(product));
  return dfg;
}

TEST(CheckHls, SampleSynthesisIsEquivalent) {
  const hls::Dfg dfg = sample_dfg();
  const hls::EmitResult emitted =
      hls::synthesize(dfg, hls::default_resources(), "sample");
  const auto mismatches =
      check_hls_equivalence(dfg, emitted.design, emitted.output_registers);
  EXPECT_TRUE(mismatches.empty()) << mismatches.front();
}

TEST(CheckHls, DetectsWrongBinding) {
  const hls::Dfg dfg = sample_dfg();
  hls::EmitResult emitted = hls::synthesize(dfg, hls::default_resources(), "sample");
  // Corrupt the result mapping: claim the output lives in the wrong place.
  auto wrong = emitted.output_registers;
  wrong["out"] = emitted.design.registers.front().name == wrong["out"]
                     ? emitted.design.registers.back().name
                     : emitted.design.registers.front().name;
  const auto mismatches = check_hls_equivalence(dfg, emitted.design, wrong);
  EXPECT_FALSE(mismatches.empty());
}

TEST(CheckHls, DetectsCorruptedSchedule) {
  const hls::Dfg dfg = sample_dfg();
  hls::EmitResult emitted = hls::synthesize(dfg, hls::default_resources(), "sample");
  // Flip the first ALU tuple's op code (add -> sub): the dataflow changes.
  for (transfer::RegisterTransfer& tuple : emitted.design.transfers) {
    if (tuple.op == rtl::alu_ops::kAdd) {
      tuple.op = rtl::alu_ops::kSub;
      break;
    }
  }
  const auto mismatches =
      check_hls_equivalence(dfg, emitted.design, emitted.output_registers);
  EXPECT_FALSE(mismatches.empty());
}

class HlsEquivalenceProperty : public ::testing::TestWithParam<int> {};

TEST_P(HlsEquivalenceProperty, RandomDfgsVerify) {
  std::mt19937 rng(static_cast<unsigned>(GetParam()) * 131);
  hls::Dfg dfg;
  dfg.add_input("x");
  dfg.add_input("y");
  std::vector<hls::ValueRef> pool = {hls::ValueRef::of_input("x"),
                                     hls::ValueRef::of_input("y"),
                                     hls::ValueRef::of_constant(2)};
  std::uniform_int_distribution<int> op_pick(0, 4);
  const unsigned ops = 3 + static_cast<unsigned>(GetParam() % 7);
  for (unsigned i = 0; i < ops; ++i) {
    std::uniform_int_distribution<std::size_t> arg(0, pool.size() - 1);
    std::size_t node = 0;
    switch (op_pick(rng)) {
      case 0:
        node = dfg.add_node(hls::OpKind::kAdd, {pool[arg(rng)], pool[arg(rng)]});
        break;
      case 1:
        node = dfg.add_node(hls::OpKind::kSub, {pool[arg(rng)], pool[arg(rng)]});
        break;
      case 2:
        node = dfg.add_node(hls::OpKind::kMul, {pool[arg(rng)], pool[arg(rng)]});
        break;
      case 3:
        node = dfg.add_node(hls::OpKind::kMax, {pool[arg(rng)], pool[arg(rng)]});
        break;
      default:
        node = dfg.add_node(hls::OpKind::kNeg, {pool[arg(rng)]});
        break;
    }
    pool.push_back(hls::ValueRef::of_node(node));
  }
  dfg.mark_output("out", pool.back());
  const hls::EmitResult emitted =
      hls::synthesize(dfg, hls::default_resources(), "rand");
  const auto mismatches =
      check_hls_equivalence(dfg, emitted.design, emitted.output_registers);
  EXPECT_TRUE(mismatches.empty())
      << "seed " << GetParam() << ": " << mismatches.front();
}

INSTANTIATE_TEST_SUITE_P(Seeds, HlsEquivalenceProperty, ::testing::Range(1, 26));

TEST(CheckHls, ScheduleIndependence) {
  // The same DFG on two different resource allocations: different
  // schedules, bindings, and registers — identical dataflow.
  const hls::Dfg dfg = sample_dfg();
  const hls::EmitResult rich =
      hls::synthesize(dfg, hls::default_resources(), "rich");
  hls::Resources tight;
  tight.units = {{"ALU", transfer::ModuleKind::kAlu, 1},
                 {"MULA", transfer::ModuleKind::kMul, 2},
                 {"MULB", transfer::ModuleKind::kMul, 3}};
  const hls::EmitResult wide = hls::synthesize(dfg, tight, "wide");

  const DataflowResult a = extract_dataflow(rich.design);
  const DataflowResult b = extract_dataflow(wide.design);
  EXPECT_TRUE(equivalent(a.registers.at(rich.output_registers.at("out")),
                         b.registers.at(wide.output_registers.at("out"))));
}

// --- IKS: the chip's dataflow matches the golden formula ----------------------

TEST(ExtractDataflow, IksProgramIsSymbolicallyWellFormed) {
  iks::IksInputs inputs;  // zeros: values are irrelevant symbolically
  const transfer::Design design = iks::iks_design(inputs);
  const DataflowResult result = extract_dataflow(design);
  EXPECT_FALSE(result.saw_illegal)
      << "the IKS schedule violates no discipline, symbolically";
  // theta1' = theta1 + ((x*ey - y*ex) >> k): the outermost ops must be an
  // add of an asr of a sub.
  const std::string theta1 = canonical(result.registers.at(iks::r_reg(4)));
  EXPECT_TRUE(theta1.starts_with("add(")) << theta1;
  EXPECT_NE(theta1.find("asr" + std::to_string(iks::kGainShift)),
            std::string::npos)
      << theta1;
  EXPECT_NE(theta1.find("sin("), std::string::npos) << theta1;
  EXPECT_NE(theta1.find("cos("), std::string::npos) << theta1;
}

}  // namespace
}  // namespace ctrtl::verify
