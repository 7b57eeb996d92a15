#include "transfer/text_format.h"

#include <gtest/gtest.h>

#include <algorithm>

#include "rtl/modules.h"
#include "verify/random_design.h"

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

TEST(TextFormat, Fig1RendersReadably) {
  const std::string text = to_text(fig1_design());
  EXPECT_NE(text.find("design fig1"), std::string::npos);
  EXPECT_NE(text.find("cs_max 7"), std::string::npos);
  EXPECT_NE(text.find("register R1 init 30"), std::string::npos);
  EXPECT_NE(text.find("module ADD add latency 1"), std::string::npos);
  EXPECT_NE(text.find("transfer R1 B1 R2 B2 5 ADD 6 B1 R1"), std::string::npos);
}

TEST(TextFormat, Fig1RoundTrips) {
  const Design original = fig1_design();
  common::DiagnosticBag diags;
  const Design reparsed = parse_design(to_text(original), diags);
  EXPECT_FALSE(diags.has_errors()) << diags.to_text();
  EXPECT_EQ(reparsed.name, original.name);
  EXPECT_EQ(reparsed.cs_max, original.cs_max);
  EXPECT_EQ(reparsed.registers.size(), original.registers.size());
  EXPECT_EQ(reparsed.transfers, original.transfers);
}

TEST(TextFormat, PartialTuplesAndOps) {
  Design d;
  d.name = "partial";
  d.cs_max = 4;
  d.registers = {{"A", 1}};
  d.buses = {{"B1"}};
  d.modules = {{"MACC", ModuleKind::kMacc, 1, 16}};
  RegisterTransfer clear;
  clear.read_step = 1;
  clear.module = "MACC";
  clear.op = rtl::MaccModule::kOpClear;
  d.transfers = {clear};

  common::DiagnosticBag diags;
  const Design reparsed = parse_design(to_text(d), diags);
  EXPECT_FALSE(diags.has_errors()) << diags.to_text();
  ASSERT_EQ(reparsed.transfers.size(), 1u);
  EXPECT_EQ(reparsed.transfers[0], clear);
  ASSERT_EQ(reparsed.modules.size(), 1u);
  EXPECT_EQ(reparsed.modules[0].frac_bits, 16u);
}

TEST(TextFormat, ConstantsAndInputsWithSigils) {
  Design d;
  d.name = "sig";
  d.cs_max = 3;
  d.registers = {{"OUT", std::nullopt}};
  d.buses = {{"B1"}, {"B2"}};
  d.constants = {{"two", 2}};
  d.inputs = {{"x"}};
  d.modules = {{"ADD", ModuleKind::kAdd, 1}};
  RegisterTransfer t;
  t.operand_a = OperandPath{Endpoint::constant("two"), "B1"};
  t.operand_b = OperandPath{Endpoint::input("x"), "B2"};
  t.read_step = 1;
  t.module = "ADD";
  t.write_step = 2;
  t.write_bus = "B1";
  t.destination = "OUT";
  d.transfers = {t};

  const std::string text = to_text(d);
  EXPECT_NE(text.find("transfer %two B1 $x B2 1 ADD 2 B1 OUT"),
            std::string::npos);
  common::DiagnosticBag diags;
  const Design reparsed = parse_design(text, diags);
  EXPECT_FALSE(diags.has_errors()) << diags.to_text();
  EXPECT_EQ(reparsed.transfers, d.transfers);
}

TEST(TextFormat, CommentsAndBlankLinesIgnored) {
  common::DiagnosticBag diags;
  const Design d = parse_design(R"(
# a comment
design test   # trailing comment

cs_max 2
register R
)",
                                diags);
  EXPECT_FALSE(diags.has_errors()) << diags.to_text();
  EXPECT_EQ(d.name, "test");
  EXPECT_EQ(d.cs_max, 2u);
  EXPECT_EQ(d.registers.size(), 1u);
  EXPECT_FALSE(d.registers[0].initial.has_value());
}

TEST(TextFormat, ErrorsCarryLineNumbers) {
  common::DiagnosticBag diags;
  (void)parse_design("design x\nfrobnicate y\n", diags);
  ASSERT_TRUE(diags.has_errors());
  EXPECT_NE(diags.to_text().find("unknown keyword 'frobnicate' at 2:1"),
            std::string::npos);
}

TEST(TextFormat, BadNumbersReported) {
  common::DiagnosticBag diags;
  (void)parse_design("cs_max banana\n", diags);
  EXPECT_TRUE(diags.has_errors());

  // Counts narrowed to unsigned must be range-checked, not wrapped, and
  // step numbers must be whole numbers; each error names its line.
  const std::string header = "design d\ncs_max 7\nregister R1\nbus B1\n";
  const std::string module = "module ADD add\n";
  for (const std::string& text : {
           std::string("design d\ncs_max -1\n"),
           std::string("design d\ncs_max 99999999999\n"),
           std::string("design d\ncs_max 99999999999999999999\n"),
           header + "module ADD add latency -1\n",
           header + "module ADD add latency 4294967296\n",
           header + "module ADD add frac -3\n",
           header + "module ADD add iters 99999999999\n",
           header + module + "transfer R1 B1 - - 5x ADD 6 B1 R1\n",
           header + module + "transfer R1 B1 - - abc ADD 6 B1 R1\n",
           header + module + "transfer R1 B1 - - 5 ADD -6 B1 R1\n",
           header + module + "transfer R1 B1 - - 5 ADD 4294967296 B1 R1\n",
       }) {
    common::DiagnosticBag bag;
    (void)parse_design(text, bag);
    ASSERT_TRUE(bag.has_errors()) << text;
    const unsigned last_line = static_cast<unsigned>(
        std::count(text.begin(), text.end(), '\n'));
    EXPECT_EQ(bag.entries().front().location.line, last_line) << text;
  }

  // The bounds themselves still parse.
  common::DiagnosticBag bounds;
  const Design design = parse_design(
      header + "module ADD add latency 0\n"
               "transfer R1 B1 - - 4294967295 ADD 0 B1 R1\n",
      bounds);
  EXPECT_FALSE(bounds.has_errors()) << bounds.to_text();
  ASSERT_EQ(design.transfers.size(), 1u);
  EXPECT_EQ(design.transfers[0].read_step, 4294967295u);
  EXPECT_EQ(design.transfers[0].write_step, 0u);
}

TEST(TextFormat, TruncatedTransferReported) {
  common::DiagnosticBag diags;
  (void)parse_design("transfer R1 B1\n", diags);
  EXPECT_TRUE(diags.has_errors());
}

class TextFormatRoundTrip : public ::testing::TestWithParam<int> {};

TEST_P(TextFormatRoundTrip, RandomDesignsSurvive) {
  verify::RandomDesignOptions options;
  options.seed = static_cast<std::uint32_t>(GetParam()) + 7000;
  options.num_transfers = 3 + static_cast<unsigned>(GetParam() % 8);
  options.use_alu = GetParam() % 2 == 0;
  const Design original = verify::random_design(options);

  common::DiagnosticBag diags;
  const Design reparsed = parse_design(to_text(original), diags);
  EXPECT_FALSE(diags.has_errors()) << diags.to_text();
  EXPECT_EQ(reparsed.transfers, original.transfers) << "seed " << GetParam();
  EXPECT_EQ(reparsed.cs_max, original.cs_max);
  EXPECT_EQ(reparsed.registers.size(), original.registers.size());
  EXPECT_EQ(reparsed.modules.size(), original.modules.size());
}

INSTANTIATE_TEST_SUITE_P(Seeds, TextFormatRoundTrip, ::testing::Range(1, 21));

}  // namespace
}  // namespace ctrtl::transfer
