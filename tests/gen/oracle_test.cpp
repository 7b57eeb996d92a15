#include "gen/oracle.h"

#include <gtest/gtest.h>

#include <algorithm>

#include "fault/inject.h"
#include "fault/plan.h"
#include "rtl/modules.h"
#include "transfer/design.h"
#include "transfer/tuple.h"
#include "verify/dataflow.h"
#include "verify/oracle_check.h"
#include "verify/semantics.h"

namespace ctrtl::gen {
namespace {

using transfer::Design;
using transfer::Endpoint;
using transfer::ModuleKind;
using transfer::OperandPath;
using transfer::RegisterTransfer;
using verify::DiscSite;

// The paper's figure 1: (R1,B1,R2,B2,5,ADD,6,B1,R1), CS_MAX = 7. Clean run
// computes R1 := R1 + R2 = 42 with no conflict and no DISC resolution.
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

bool has_disc_site(const verify::OutcomePrediction& oracle,
                   const DiscSite& site) {
  return std::find(oracle.disc_sites.begin(), oracle.disc_sites.end(), site) !=
         oracle.disc_sites.end();
}

fault::FaultedDesign apply(const Design& design, const std::string& plan_text) {
  common::DiagnosticBag diags;
  const fault::FaultPlan plan = fault::parse_fault_plan(plan_text, diags);
  auto faulted = fault::apply_plan(design, plan, diags);
  EXPECT_TRUE(faulted.has_value()) << diags.to_text();
  return *faulted;
}

TEST(ConflictOracle, CleanFig1PredictsNothing) {
  const Design design = fig1_design();
  const verify::OutcomePrediction oracle = predict_outcomes(design);
  EXPECT_TRUE(oracle.conflicts.empty());
  EXPECT_TRUE(oracle.disc_sites.empty());
  EXPECT_EQ(oracle.registers.at("R1"), rtl::RtValue::Kind::kValue);
  EXPECT_EQ(oracle.registers.at("R2"), rtl::RtValue::Kind::kValue);
  const verify::CheckReport report = verify::check_prediction(design, oracle);
  EXPECT_TRUE(report.consistent()) << report.to_text();
}

TEST(ConflictOracle, DoubleBookedBusPredictsExactConflict) {
  // A second read of R2 routed over B1 in step 5 double-books the bus:
  // two non-DISC contributions drive B1 at ra, so it resolves ILLEGAL at rb.
  Design design = fig1_design();
  design.modules.push_back({"ADD2", ModuleKind::kAdd, 1});
  design.transfers.push_back(
      RegisterTransfer::full("R2", "B1", "R2", "B2", 5, "ADD2", 6, "B2", "R2"));
  common::DiagnosticBag diags;
  ASSERT_TRUE(transfer::validate(design, diags)) << diags.to_text();

  const verify::OutcomePrediction oracle = predict_outcomes(design);
  ASSERT_FALSE(oracle.conflicts.empty());
  EXPECT_EQ(oracle.conflicts.front(), (rtl::Conflict{"B1", 5, rtl::Phase::kRb}));
  // The ILLEGAL latches: both destination registers end up poisoned.
  EXPECT_EQ(oracle.registers.at("R1"), rtl::RtValue::Kind::kIllegal);
  EXPECT_EQ(oracle.registers.at("R2"), rtl::RtValue::Kind::kIllegal);
  const verify::CheckReport report = verify::check_prediction(design, oracle);
  EXPECT_TRUE(report.consistent()) << report.to_text();
}

TEST(ConflictOracle, UninitializedReadPredictsDiscSite) {
  // U has no initial value: its read fire contributes DISC, so B1 is driven
  // yet resolves DISC at (5, rb). The ADD then sees one operand present and
  // one missing — the operand discipline makes it ILLEGAL, which cascades
  // into R1 by latch time.
  Design design = fig1_design();
  design.registers.push_back({"U", std::nullopt});
  design.transfers[0].operand_a =
      OperandPath{Endpoint::register_out("U"), "B1"};
  common::DiagnosticBag diags;
  ASSERT_TRUE(transfer::validate(design, diags)) << diags.to_text();

  const verify::OutcomePrediction oracle = predict_outcomes(design);
  ASSERT_FALSE(oracle.disc_sites.empty());
  EXPECT_TRUE(has_disc_site(oracle, DiscSite{"B1", 5, rtl::Phase::kRb}));
  EXPECT_EQ(oracle.registers.at("R1"), rtl::RtValue::Kind::kIllegal);
  EXPECT_EQ(oracle.registers.at("U"), rtl::RtValue::Kind::kDisc);
  const verify::CheckReport report = verify::check_prediction(design, oracle);
  EXPECT_TRUE(report.consistent()) << report.to_text();
}

TEST(ConflictOracle, FaultInducedOnlyConflictIsPredictedExactly) {
  // Edge case demanded by the corpus contract: a design whose ONLY conflict
  // is fault-induced. Clean fig1 predicts nothing; under a forced extra bus
  // contribution the re-predicted (faulted) stream must carry exactly the
  // conflict the engines observe — at (5, rb) on B1, where the forced value
  // contends with R1's read fire.
  const Design design = fig1_design();
  ASSERT_TRUE(predict_outcomes(design).conflicts.empty());

  const fault::FaultedDesign forced =
      apply(design, "force-bus B1 = 99 @5:ra\n");
  const verify::OutcomePrediction oracle = predict_outcomes(forced);
  // The root conflict is B1 at (5, rb); the ILLEGAL then cascades through
  // the ADD and the write-back path, each transition getting its own record
  // (exactly as the engines report them). Sorted by (step, phase), the root
  // comes first.
  ASSERT_FALSE(oracle.conflicts.empty());
  EXPECT_EQ(oracle.conflicts.front(), (rtl::Conflict{"B1", 5, rtl::Phase::kRb}));
  const verify::CheckReport report = verify::check_prediction(forced, oracle);
  EXPECT_TRUE(report.consistent()) << report.to_text();
}

TEST(ConflictOracle, StuckIllegalFaultPredictedExactly) {
  // Second fault kind over the same clean design: stuck-illegal joins every
  // read fire of R1 with two extra contributions, so the conflict again
  // appears at (5, rb) on B1 — and nowhere else.
  const fault::FaultedDesign stuck =
      apply(fig1_design(), "stuck-illegal R1\n");
  const verify::OutcomePrediction oracle = predict_outcomes(stuck);
  ASSERT_FALSE(oracle.conflicts.empty());
  EXPECT_EQ(oracle.conflicts.front(), (rtl::Conflict{"B1", 5, rtl::Phase::kRb}));
  const verify::CheckReport report = verify::check_prediction(stuck, oracle);
  EXPECT_TRUE(report.consistent()) << report.to_text();
}

TEST(ConflictOracle, StuckDiscFaultAgreesWithSimulation) {
  // stuck-disc drops R2's read fire: B2 is no longer driven (so no DISC
  // site there), the ADD sees a vanished operand and computes ILLEGAL.
  const fault::FaultedDesign stuck = apply(fig1_design(), "stuck-disc R2\n");
  const verify::OutcomePrediction oracle = predict_outcomes(stuck);
  EXPECT_EQ(oracle.registers.at("R1"), rtl::RtValue::Kind::kIllegal);
  const verify::CheckReport report = verify::check_prediction(stuck, oracle);
  EXPECT_TRUE(report.consistent()) << report.to_text();
}

TEST(ConflictOracle, ZeroTransferModuleDesignSurvivesEveryLayer) {
  // Edge case demanded by the corpus contract: a module with no transfers at
  // all. The oracle must predict nothing, classify registers from their
  // initial values, and the comparison harness must run the empty stream
  // through the engines without tripping.
  Design design;
  design.name = "empty";
  design.cs_max = 4;
  design.registers = {{"R1", 30}, {"U", std::nullopt}};
  design.buses = {{"B1"}};
  design.modules = {{"ADD", ModuleKind::kAdd, 1}};
  common::DiagnosticBag diags;
  ASSERT_TRUE(transfer::validate(design, diags)) << diags.to_text();

  const verify::OutcomePrediction oracle = predict_outcomes(design);
  EXPECT_TRUE(oracle.conflicts.empty());
  EXPECT_TRUE(oracle.disc_sites.empty());
  EXPECT_EQ(oracle.registers.at("R1"), rtl::RtValue::Kind::kValue);
  EXPECT_EQ(oracle.registers.at("U"), rtl::RtValue::Kind::kDisc);
  const verify::CheckReport report = verify::check_prediction(design, oracle);
  EXPECT_TRUE(report.consistent()) << report.to_text();
}

TEST(ConflictOracle, InputsActAsPresenceSet) {
  // An external input operand: provided, the case is clean; unprovided, the
  // input reads DISC and the bus it drives is a predicted DISC site.
  Design design;
  design.name = "with_input";
  design.cs_max = 5;
  design.registers = {{"R1", 30}, {"R2", 12}};
  design.buses = {{"B1"}, {"B2"}};
  design.modules = {{"ADD", ModuleKind::kAdd, 1}};
  design.inputs = {{"X"}};
  RegisterTransfer t =
      RegisterTransfer::full("R2", "B2", "R2", "B2", 2, "ADD", 3, "B1", "R1");
  t.operand_a = OperandPath{Endpoint::input("X"), "B1"};
  design.transfers = {t};
  common::DiagnosticBag diags;
  ASSERT_TRUE(transfer::validate(design, diags)) << diags.to_text();

  const verify::OutcomePrediction provided =
      predict_outcomes(design, {{"X", 5}});
  EXPECT_TRUE(provided.conflicts.empty());
  EXPECT_TRUE(provided.disc_sites.empty());
  EXPECT_EQ(provided.registers.at("R1"), rtl::RtValue::Kind::kValue);
  const verify::CheckReport with_input =
      verify::check_prediction(design, provided, {{"X", 5}});
  EXPECT_TRUE(with_input.consistent()) << with_input.to_text();

  const verify::OutcomePrediction missing = predict_outcomes(design);
  ASSERT_FALSE(missing.disc_sites.empty());
  EXPECT_TRUE(has_disc_site(missing, DiscSite{"B1", 2, rtl::Phase::kRb}));
  EXPECT_EQ(missing.registers.at("R1"), rtl::RtValue::Kind::kIllegal);
  const verify::CheckReport without_input =
      verify::check_prediction(design, missing);
  EXPECT_TRUE(without_input.consistent()) << without_input.to_text();
}

TEST(ConflictOracle, IdleMaccHoldsItsAccumulatorInEveryDomain) {
  // The MACC clears at step 1 and accumulates A * B at step 2. At steps 3
  // and 4 it sees neither operand nor op, so it is idle and holds 12, which
  // a write-only transfer reads at step 4. The reference semantics, the
  // dataflow extractor and the oracle must all see the held value, and the
  // event kernel must agree with them.
  Design design;
  design.name = "idle_macc";
  design.cs_max = 4;
  design.registers = {{"A", 3}, {"B", 4}, {"OUT", std::nullopt}};
  design.buses = {{"B1"}, {"B2"}, {"B3"}};
  design.modules = {{"MACC", ModuleKind::kMacc, 1, 0}};
  RegisterTransfer clear;
  clear.read_step = 1;
  clear.module = "MACC";
  clear.op = rtl::MaccModule::kOpClear;
  RegisterTransfer mac;
  mac.operand_a = OperandPath{Endpoint::register_out("A"), "B1"};
  mac.operand_b = OperandPath{Endpoint::register_out("B"), "B2"};
  mac.read_step = 2;
  mac.module = "MACC";
  mac.op = rtl::MaccModule::kOpMac;
  RegisterTransfer write;
  write.module = "MACC";
  write.write_step = 4;
  write.write_bus = "B3";
  write.destination = "OUT";
  design.transfers = {clear, mac, write};
  common::DiagnosticBag diags;
  ASSERT_TRUE(transfer::validate(design, diags)) << diags.to_text();

  EXPECT_EQ(verify::evaluate(design).registers.at("OUT"), rtl::RtValue::of(12));
  EXPECT_EQ(verify::canonical(verify::extract_dataflow(design).registers.at("OUT")),
            "add(0,mul0(3,4))");
  const verify::OutcomePrediction oracle = predict_outcomes(design);
  EXPECT_EQ(oracle.registers.at("OUT"), rtl::RtValue::Kind::kValue);
  const verify::CheckReport report = verify::check_prediction(design, oracle);
  EXPECT_TRUE(report.consistent()) << report.to_text();
}

TEST(ConflictOracle, RejectsInvalidDesign) {
  Design design = fig1_design();
  design.transfers[0].write_step = 99;  // beyond cs_max, fails validation
  EXPECT_THROW((void)predict_outcomes(design), std::invalid_argument);
}

}  // namespace
}  // namespace ctrtl::gen
