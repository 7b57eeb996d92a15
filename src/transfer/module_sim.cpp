#include "transfer/module_sim.h"

#include <algorithm>
#include <stdexcept>
#include <vector>

#include "rtl/modules.h"

namespace ctrtl::transfer {

using rtl::RtValue;

ModuleSim::ModuleSim(const ModuleDecl& decl) : ModuleSim(decl, decl.latency) {}

ModuleSim::ModuleSim(const ModuleDecl& decl, unsigned stages) : decl_(&decl) {
  pipeline_.assign(std::min(stages, decl.latency), RtValue::disc());
}

unsigned ModuleSim::arity_for(std::int64_t op) const {
  switch (decl_->kind) {
    case ModuleKind::kAlu: {
      static const rtl::AluModule::OpTable kOps = rtl::make_standard_alu_ops();
      const auto it = kOps.find(op);
      if (it == kOps.end()) {
        throw std::domain_error("ModuleSim: unknown ALU op " + std::to_string(op));
      }
      return it->second.arity;
    }
    case ModuleKind::kMacc:
      switch (op) {
        case rtl::MaccModule::kOpClear:
        case rtl::MaccModule::kOpHold:
          return 0;
        case rtl::MaccModule::kOpLoad:
          return 1;
        case rtl::MaccModule::kOpMac:
          return 2;
        default:
          throw std::domain_error("ModuleSim: unknown MACC op " +
                                  std::to_string(op));
      }
    case ModuleKind::kCordic:
      return 1;
    default:
      return decl_->num_inputs();
  }
}

std::int64_t ModuleSim::apply(std::span<const std::int64_t> v, std::int64_t op) {
  switch (decl_->kind) {
    case ModuleKind::kAdd:
      return v[0] + v[1];
    case ModuleKind::kSub:
      return v[0] - v[1];
    case ModuleKind::kMul:
      return rtl::fixed_mul(v[0], v[1], decl_->frac_bits);
    case ModuleKind::kCopy:
      return v[0];
    case ModuleKind::kAlu: {
      static const rtl::AluModule::OpTable kOps = rtl::make_standard_alu_ops();
      return kOps.at(op).function(v);
    }
    case ModuleKind::kMacc:
      switch (op) {
        case rtl::MaccModule::kOpClear:
          acc_ = 0;
          break;
        case rtl::MaccModule::kOpHold:
          break;
        case rtl::MaccModule::kOpLoad:
          acc_ = v[0];
          break;
        default:
          acc_ += rtl::fixed_mul(v[0], v[1], decl_->frac_bits);
          break;
      }
      return acc_;
    case ModuleKind::kCordic: {
      const auto result =
          rtl::CordicModule::rotate(v[0], decl_->frac_bits, decl_->iterations);
      return op == rtl::CordicModule::kOpSin ? result.sin : result.cos;
    }
  }
  throw std::logic_error("ModuleSim: corrupt module kind");
}

RtValue ModuleSim::evaluate(std::span<const RtValue> operands, const RtValue& op) {
  for (const RtValue& operand : operands) {
    if (operand.is_illegal()) {
      return RtValue::illegal();
    }
  }
  const bool has_op = decl_->has_op_port();
  std::int64_t op_payload = 0;
  unsigned arity = decl_->num_inputs();
  if (has_op) {
    if (op.is_illegal()) {
      return RtValue::illegal();
    }
    if (op.is_disc()) {
      for (const RtValue& operand : operands) {
        if (!operand.is_disc()) {
          return RtValue::illegal();
        }
      }
      // MACC holds its accumulator when idle.
      return decl_->kind == ModuleKind::kMacc ? RtValue::of(acc_)
                                              : RtValue::disc();
    }
    op_payload = op.payload();
    arity = arity_for(op_payload);
  }
  unsigned present = 0;
  for (unsigned i = 0; i < arity && i < operands.size(); ++i) {
    if (operands[i].has_value()) {
      ++present;
    }
  }
  if (present == 0 && !has_op) {
    return RtValue::disc();
  }
  if (present != arity) {
    return RtValue::illegal();
  }
  std::vector<std::int64_t> payloads;
  payloads.reserve(arity);
  for (unsigned i = 0; i < arity && i < operands.size(); ++i) {
    payloads.push_back(operands[i].payload());
  }
  return RtValue::of(apply(payloads, op_payload));
}

RtValue ModuleSim::step(std::span<const RtValue> operands, const RtValue& op) {
  if (decl_->latency == 0) {
    out_ = evaluate(operands, op);
    return out_;
  }
  out_ = pipeline_.back();
  const RtValue next = poisoned_ ? RtValue::illegal() : evaluate(operands, op);
  pipeline_.pop_back();
  pipeline_.push_front(next);
  if (next.is_illegal()) {
    poisoned_ = true;
  }
  return out_;
}

}  // namespace ctrtl::transfer
