#include "verify/dataflow.h"

#include <algorithm>
#include <sstream>
#include <stdexcept>
#include <utility>

#include "rtl/modules.h"
#include "transfer/mapping.h"
#include "transfer/walk.h"

namespace ctrtl::verify {

using transfer::TransInstance;

DfExprPtr DfExpr::disc() {
  static const DfExprPtr instance = std::make_shared<DfExpr>();
  return instance;
}

DfExprPtr DfExpr::illegal() {
  auto expr = std::make_shared<DfExpr>();
  expr->kind = Kind::kIllegal;
  return expr;
}

DfExprPtr DfExpr::input(std::string name) {
  auto expr = std::make_shared<DfExpr>();
  expr->kind = Kind::kInput;
  expr->name = std::move(name);
  return expr;
}

DfExprPtr DfExpr::literal(std::int64_t value) {
  auto expr = std::make_shared<DfExpr>();
  expr->kind = Kind::kConstant;
  expr->constant = value;
  return expr;
}

DfExprPtr DfExpr::initial(std::string reg) {
  auto expr = std::make_shared<DfExpr>();
  expr->kind = Kind::kInitial;
  expr->name = std::move(reg);
  return expr;
}

DfExprPtr DfExpr::make(std::string op, std::vector<DfExprPtr> args) {
  auto expr = std::make_shared<DfExpr>();
  expr->kind = Kind::kOp;
  expr->op = std::move(op);
  expr->args = std::move(args);
  return expr;
}

namespace {

bool is_commutative(const std::string& op) {
  return op == "add" || op == "min" || op == "max" || op.starts_with("mul");
}

}  // namespace

std::string canonical(const DfExprPtr& expr) {
  if (!expr) {
    return "<null>";
  }
  switch (expr->kind) {
    case DfExpr::Kind::kDisc:
      return "DISC";
    case DfExpr::Kind::kIllegal:
      return "ILLEGAL";
    case DfExpr::Kind::kInput:
      return "$" + expr->name;
    case DfExpr::Kind::kConstant:
      return std::to_string(expr->constant);
    case DfExpr::Kind::kInitial:
      return "@" + expr->name;
    case DfExpr::Kind::kOp: {
      std::vector<std::string> parts;
      parts.reserve(expr->args.size());
      for (const DfExprPtr& arg : expr->args) {
        parts.push_back(canonical(arg));
      }
      if (is_commutative(expr->op)) {
        std::sort(parts.begin(), parts.end());
      }
      std::ostringstream out;
      out << expr->op << '(';
      for (std::size_t i = 0; i < parts.size(); ++i) {
        out << (i != 0 ? "," : "") << parts[i];
      }
      out << ')';
      return out.str();
    }
  }
  return "<corrupt>";
}

bool equivalent(const DfExprPtr& a, const DfExprPtr& b) {
  return canonical(a) == canonical(b);
}

// ---------------------------------------------------------------------------
// Symbolic execution of the schedule
// ---------------------------------------------------------------------------

namespace {

/// `transfer::walk_phases` over dataflow expressions.
struct Symbolic {
  using Value = DfExprPtr;

  static Value disc() { return DfExpr::disc(); }
  static Value illegal() { return DfExpr::illegal(); }
  static bool is_disc(const Value& value) {
    return value->kind == DfExpr::Kind::kDisc;
  }
  static bool is_illegal(const Value& value) {
    return value->kind == DfExpr::Kind::kIllegal;
  }
  static Value constant(std::int64_t value) { return DfExpr::literal(value); }
  static Value input(const std::string& name) { return DfExpr::input(name); }
  static Value resolve(std::span<const Value> values) {
    return transfer::resolve_contributions<Symbolic>(values);
  }
  static void resolved(const std::string& /*sink*/, unsigned /*step*/,
                       rtl::Phase /*phase*/, const Value& /*value*/) {}

  static std::int64_t op_code(const transfer::ModuleDecl& /*decl*/, const Value& op) {
    if (op->kind != DfExpr::Kind::kConstant) {
      throw std::invalid_argument(
          "symbolic execution: op codes must be literal constants");
    }
    return op->constant;
  }
  /// MACC holds its accumulator when idle.
  static Value idle(const transfer::ModuleDecl& decl, const Value& acc) {
    return decl.kind == transfer::ModuleKind::kMacc ? acc : disc();
  }
  static Value apply(const transfer::ModuleDecl& decl, Value& acc,
                     std::span<const Value> operands, std::int64_t op);
};

Symbolic::Value Symbolic::apply(const transfer::ModuleDecl& decl, Value& acc,
                                std::span<const Value> operands, std::int64_t op) {
  std::vector<DfExprPtr> v(operands.begin(), operands.end());
  const std::string mul_name = "mul" + std::to_string(decl.frac_bits);
  switch (decl.kind) {
    case transfer::ModuleKind::kAdd:
      return DfExpr::make("add", std::move(v));
    case transfer::ModuleKind::kSub:
      return DfExpr::make("sub", std::move(v));
    case transfer::ModuleKind::kMul:
      return DfExpr::make(mul_name, std::move(v));
    case transfer::ModuleKind::kCopy:
      return v[0];  // copies vanish (the direct-link helper is transparent)
    case transfer::ModuleKind::kAlu:
      switch (op) {
        case rtl::alu_ops::kAdd:
          return DfExpr::make("add", std::move(v));
        case rtl::alu_ops::kSub:
          return DfExpr::make("sub", std::move(v));
        case rtl::alu_ops::kMin:
          return DfExpr::make("min", std::move(v));
        case rtl::alu_ops::kMax:
          return DfExpr::make("max", std::move(v));
        case rtl::alu_ops::kPassA:
          return v[0];
        case rtl::alu_ops::kPassB:
          return v[1];
        case rtl::alu_ops::kNegA:
          return DfExpr::make("neg", std::move(v));
        default:
          if (op >= rtl::alu_ops::kRshiftBase && op <= rtl::alu_ops::kRshiftMax) {
            return DfExpr::make("asr" + std::to_string(op - rtl::alu_ops::kRshiftBase),
                                std::move(v));
          }
          throw std::invalid_argument("symbolic execution: unknown ALU op");
      }
    case transfer::ModuleKind::kMacc:
      switch (op) {
        case rtl::MaccModule::kOpClear:
          acc = DfExpr::literal(0);
          break;
        case rtl::MaccModule::kOpHold:
          break;
        case rtl::MaccModule::kOpLoad:
          acc = v[0];
          break;
        default:
          // MACC steps normalize to add/mul nodes so accumulations
          // compare equal to the same computation on ALU + MULT units.
          acc = DfExpr::make("add", {acc, DfExpr::make(mul_name, std::move(v))});
          break;
      }
      return acc;
    case transfer::ModuleKind::kCordic:
      return DfExpr::make(op == rtl::CordicModule::kOpSin ? "sin" : "cos",
                          std::move(v));
  }
  throw std::logic_error("symbolic execution: corrupt module kind");
}

}  // namespace

DataflowResult extract_dataflow(const transfer::Design& design) {
  common::DiagnosticBag diags;
  if (!validate(design, diags)) {
    throw std::invalid_argument("extract_dataflow: design does not validate:\n" +
                                diags.to_text());
  }
  const std::vector<TransInstance> instances =
      transfer::to_instances(design.transfers);
  Symbolic domain;
  transfer::PhaseWalk<DfExprPtr> walk =
      transfer::walk_phases(design, instances, domain);
  return DataflowResult{std::move(walk.registers),
                        !walk.conflicts.empty() || walk.unit_illegal};
}

DfExprPtr dfg_expr(const hls::Dfg& dfg, const hls::ValueRef& ref) {
  switch (ref.kind) {
    case hls::ValueRef::Kind::kInput:
      return DfExpr::input(ref.input);
    case hls::ValueRef::Kind::kConstant:
      return DfExpr::literal(ref.constant);
    case hls::ValueRef::Kind::kNode: {
      const hls::Dfg::Node& node = dfg.nodes()[ref.node];
      std::vector<DfExprPtr> args;
      args.reserve(node.args.size());
      for (const hls::ValueRef& arg : node.args) {
        args.push_back(dfg_expr(dfg, arg));
      }
      switch (node.kind) {
        case hls::OpKind::kAdd:
          return DfExpr::make("add", std::move(args));
        case hls::OpKind::kSub:
          return DfExpr::make("sub", std::move(args));
        case hls::OpKind::kMul:
          return DfExpr::make("mul0", std::move(args));
        case hls::OpKind::kMin:
          return DfExpr::make("min", std::move(args));
        case hls::OpKind::kMax:
          return DfExpr::make("max", std::move(args));
        case hls::OpKind::kNeg:
          return DfExpr::make("neg", std::move(args));
        case hls::OpKind::kCopy:
          return args[0];
      }
      throw std::logic_error("dfg_expr: corrupt op kind");
    }
  }
  throw std::logic_error("dfg_expr: corrupt ref");
}

std::vector<std::string> check_hls_equivalence(
    const hls::Dfg& dfg, const transfer::Design& design,
    const std::map<std::string, std::string>& output_registers) {
  const DataflowResult extracted = extract_dataflow(design);
  std::vector<std::string> mismatches;
  for (const auto& [output, reg] : output_registers) {
    const auto ref_it = dfg.outputs().find(output);
    if (ref_it == dfg.outputs().end()) {
      mismatches.push_back(output + ": not a DFG output");
      continue;
    }
    const DfExprPtr expected = dfg_expr(dfg, ref_it->second);
    const auto reg_it = extracted.registers.find(reg);
    if (reg_it == extracted.registers.end()) {
      mismatches.push_back(output + ": register '" + reg + "' missing");
      continue;
    }
    if (!equivalent(expected, reg_it->second)) {
      mismatches.push_back(output + ": expected " + canonical(expected) +
                           ", design computes " + canonical(reg_it->second));
    }
  }
  return mismatches;
}

}  // namespace ctrtl::verify
