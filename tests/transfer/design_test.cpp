#include "transfer/design.h"

#include <gtest/gtest.h>

namespace ctrtl::transfer {
namespace {

Design fig1_design() {
  Design d;
  d.name = "fig1";
  d.cs_max = 7;
  d.registers = {{"R1", 30}, {"R2", 12}};
  d.buses = {{"B1"}, {"B2"}};
  d.modules = {{"ADD", ModuleKind::kAdd, 1, 0, 24}};
  d.transfers = {
      RegisterTransfer::full("R1", "B1", "R2", "B2", 5, "ADD", 6, "B1", "R1")};
  return d;
}

TEST(Design, Fig1Validates) {
  common::DiagnosticBag diags;
  EXPECT_TRUE(validate(fig1_design(), diags)) << diags.to_text();
  EXPECT_FALSE(diags.has_errors());
}

TEST(Design, Lookups) {
  const Design d = fig1_design();
  EXPECT_NE(d.find_register("R1"), nullptr);
  EXPECT_EQ(d.find_register("Rx"), nullptr);
  EXPECT_NE(d.find_module("ADD"), nullptr);
  EXPECT_TRUE(d.has_bus("B1"));
  EXPECT_FALSE(d.has_bus("B9"));
  EXPECT_EQ(d.find_constant("zero"), nullptr);
  EXPECT_FALSE(d.has_input("x"));
}

TEST(Design, ModuleDeclShape) {
  EXPECT_EQ((ModuleDecl{"m", ModuleKind::kAdd}).num_inputs(), 2u);
  EXPECT_EQ((ModuleDecl{"m", ModuleKind::kCopy}).num_inputs(), 1u);
  EXPECT_EQ((ModuleDecl{"m", ModuleKind::kCordic}).num_inputs(), 1u);
  EXPECT_FALSE((ModuleDecl{"m", ModuleKind::kAdd}).has_op_port());
  EXPECT_TRUE((ModuleDecl{"m", ModuleKind::kAlu}).has_op_port());
  EXPECT_TRUE((ModuleDecl{"m", ModuleKind::kMacc}).has_op_port());
  EXPECT_TRUE((ModuleDecl{"m", ModuleKind::kCordic}).has_op_port());
}

TEST(Design, ModuleKindNames) {
  EXPECT_EQ(to_string(ModuleKind::kAdd), "add");
  EXPECT_EQ(to_string(ModuleKind::kMacc), "macc");
  EXPECT_EQ(to_string(ModuleKind::kCordic), "cordic");
}

TEST(DesignValidate, RejectsCsMaxZero) {
  Design d = fig1_design();
  d.cs_max = 0;
  common::DiagnosticBag diags;
  EXPECT_FALSE(validate(d, diags));
}

TEST(DesignValidate, RejectsDuplicateNames) {
  Design d = fig1_design();
  d.buses.push_back({"R1"});  // collides with register R1
  common::DiagnosticBag diags;
  EXPECT_FALSE(validate(d, diags));
}

TEST(DesignValidate, RejectsUndeclaredRegister) {
  Design d = fig1_design();
  d.transfers[0].operand_a->source = Endpoint::register_out("NOPE");
  common::DiagnosticBag diags;
  EXPECT_FALSE(validate(d, diags));
  EXPECT_NE(diags.to_text().find("NOPE"), std::string::npos);
}

TEST(DesignValidate, RejectsUndeclaredBus) {
  Design d = fig1_design();
  d.transfers[0].operand_a->bus = "B9";
  common::DiagnosticBag diags;
  EXPECT_FALSE(validate(d, diags));
}

TEST(DesignValidate, RejectsUndeclaredModule) {
  Design d = fig1_design();
  d.transfers[0].module = "MUL";
  common::DiagnosticBag diags;
  EXPECT_FALSE(validate(d, diags));
}

TEST(DesignValidate, RejectsStepsOutOfRange) {
  Design d = fig1_design();
  d.transfers[0].read_step = 0;
  common::DiagnosticBag diags;
  EXPECT_FALSE(validate(d, diags));

  d = fig1_design();
  d.transfers[0].write_step = 99;
  diags.clear();
  EXPECT_FALSE(validate(d, diags));
}

TEST(DesignValidate, RejectsLatencyMismatch) {
  Design d = fig1_design();
  d.transfers[0].write_step = 7;  // read 5 + latency 1 = 6, not 7
  common::DiagnosticBag diags;
  EXPECT_FALSE(validate(d, diags));
  EXPECT_NE(diags.to_text().find("latency"), std::string::npos);
}

TEST(DesignValidate, RejectsIncompleteWriteSide) {
  Design d = fig1_design();
  d.transfers[0].write_bus.reset();
  common::DiagnosticBag diags;
  EXPECT_FALSE(validate(d, diags));
}

TEST(DesignValidate, RejectsOpOnPlainModule) {
  Design d = fig1_design();
  d.transfers[0].op = 1;
  common::DiagnosticBag diags;
  EXPECT_FALSE(validate(d, diags));
}

TEST(DesignValidate, RequiresOpOnOpPortModule) {
  Design d = fig1_design();
  d.modules[0].kind = ModuleKind::kAlu;
  common::DiagnosticBag diags;
  EXPECT_FALSE(validate(d, diags)) << "ALU operand transfer without op code";
  d.transfers[0].op = 0;
  diags.clear();
  EXPECT_TRUE(validate(d, diags)) << diags.to_text();
}

TEST(DesignValidate, RejectsOpCodesTheModuleKindLacks) {
  // Each op-port kind takes only the codes its engines implement: an entry
  // of the standard ALU op table, MACC clear/mac/load/hold, CORDIC sin/cos.
  struct Case {
    ModuleKind kind;
    std::int64_t defined;
    std::int64_t undefined;
  };
  for (const Case& c : {Case{ModuleKind::kAlu, 63, 999},
                        Case{ModuleKind::kMacc, 3, 4},
                        Case{ModuleKind::kCordic, 1, 7}}) {
    Design d = fig1_design();
    d.modules[0].kind = c.kind;
    if (c.kind == ModuleKind::kCordic) {
      d.transfers[0].operand_b.reset();
    }
    d.transfers[0].op = c.defined;
    common::DiagnosticBag diags;
    EXPECT_TRUE(validate(d, diags)) << to_string(c.kind) << ": " << diags.to_text();
    d.transfers[0].op = c.undefined;
    diags.clear();
    EXPECT_FALSE(validate(d, diags)) << to_string(c.kind);
    EXPECT_NE(diags.to_text().find("op code " + std::to_string(c.undefined) +
                                   " is not an operation of " +
                                   to_string(c.kind) + " module 'ADD'"),
              std::string::npos)
        << diags.to_text();
  }
}

TEST(DesignValidate, RejectsSecondOperandOnUnaryModule) {
  Design d = fig1_design();
  d.modules[0].kind = ModuleKind::kCopy;
  d.modules[0].latency = 0;
  d.transfers[0].write_step = 5;
  common::DiagnosticBag diags;
  EXPECT_FALSE(validate(d, diags));
}

TEST(DesignValidate, RejectsEmptyTransfer) {
  Design d = fig1_design();
  RegisterTransfer empty;
  empty.module = "ADD";
  d.transfers.push_back(empty);
  common::DiagnosticBag diags;
  EXPECT_FALSE(validate(d, diags));
}

TEST(DesignValidate, AcceptsConstantAndInputSources) {
  Design d = fig1_design();
  d.constants = {{"zero", 0}};
  d.inputs = {{"x_in"}};
  d.transfers[0].operand_a->source = Endpoint::constant("zero");
  d.transfers[0].operand_b->source = Endpoint::input("x_in");
  common::DiagnosticBag diags;
  EXPECT_TRUE(validate(d, diags)) << diags.to_text();
}

TEST(DesignValidate, RejectsUndeclaredConstant) {
  Design d = fig1_design();
  d.transfers[0].operand_a->source = Endpoint::constant("zero");
  common::DiagnosticBag diags;
  EXPECT_FALSE(validate(d, diags));
}

TEST(DesignValidate, CollectsAllErrorsAtOnce) {
  Design d = fig1_design();
  d.transfers[0].operand_a->source = Endpoint::register_out("NOPE1");
  d.transfers[0].operand_b->source = Endpoint::register_out("NOPE2");
  d.transfers[0].module = "NOPE3";
  common::DiagnosticBag diags;
  EXPECT_FALSE(validate(d, diags));
  EXPECT_GE(diags.error_count(), 3u);
}

}  // namespace
}  // namespace ctrtl::transfer
