#pragma once

#include <algorithm>
#include <cstdint>
#include <deque>
#include <optional>
#include <span>
#include <stdexcept>
#include <string>
#include <utility>

#include "rtl/value.h"
#include "transfer/design.h"

namespace ctrtl::transfer {

/// Kernel-independent semantics of one functional unit, driven by its
/// `ModuleDecl` and written once for every value domain `D`: the operand
/// discipline, the pipeline and its poisoning. Mirrors `rtl::Module` and its
/// concrete subclasses exactly. `D` supplies
///   - `Value`, `disc()`, `illegal()`, `is_disc(v)`, `is_illegal(v)` and
///     `constant(n)` (the MACC accumulator starts at `constant(0)`);
///   - `op_code(decl, op)`: the code of an op that is neither DISC nor
///     ILLEGAL;
///   - `apply(decl, acc, operands, op)`: the result for exactly
///     `operand_arity(decl, op)` present operands, updating the MACC
///     accumulator `acc`;
///   - `idle(decl, acc)`: what an op-port unit computes when it sees neither
///     op nor operand.
template <class D>
class UnitSim {
 public:
  using Value = typename D::Value;

  explicit UnitSim(const ModuleDecl& decl) : UnitSim(decl, decl.latency) {}

  /// Keeps only `stages` pipeline stages (at least 1, at most the declared
  /// latency). A run that steps the unit fewer than `stages` times sees no
  /// value leave a deeper pipeline either, so its results are unchanged.
  UnitSim(const ModuleDecl& decl, unsigned stages) : decl_(&decl) {
    pipeline_.assign(std::min(stages, decl.latency), D::disc());
  }

  /// Pure combinational evaluation under the operand discipline; does not
  /// touch the pipeline (but does update the MACC accumulator).
  [[nodiscard]] Value evaluate(std::span<const Value> operands, const Value& op) {
    for (const Value& operand : operands) {
      if (D::is_illegal(operand)) {
        return D::illegal();
      }
    }
    const bool has_op = decl_->has_op_port();
    std::int64_t code = 0;
    unsigned arity = decl_->num_inputs();
    if (has_op) {
      if (D::is_illegal(op)) {
        return D::illegal();
      }
      if (D::is_disc(op)) {
        for (const Value& operand : operands) {
          if (!D::is_disc(operand)) {
            return D::illegal();
          }
        }
        return D::idle(*decl_, acc_);
      }
      code = D::op_code(*decl_, op);
      const std::optional<unsigned> op_arity = operand_arity(*decl_, code);
      if (!op_arity.has_value()) {
        throw std::domain_error("unit '" + decl_->name + "': op " +
                                std::to_string(code) +
                                " is not an operation of its kind");
      }
      arity = *op_arity;
    }
    unsigned present = 0;
    for (unsigned i = 0; i < arity && i < operands.size(); ++i) {
      if (!D::is_disc(operands[i])) {
        ++present;
      }
    }
    if (present == 0 && !has_op) {
      return D::disc();
    }
    if (present != arity) {
      return D::illegal();
    }
    return D::apply(*decl_, acc_, operands.first(arity), code);
  }

  /// One compute phase (`cm` in the abstract model, one clock cycle in the
  /// clocked one): evaluates, advances the pipeline, and returns the value
  /// now visible at the output port.
  Value step(std::span<const Value> operands, const Value& op) {
    if (decl_->latency == 0) {
      out_ = evaluate(operands, op);
      return out_;
    }
    out_ = pipeline_.back();
    Value next = poisoned_ ? D::illegal() : evaluate(operands, op);
    poisoned_ = D::is_illegal(next);
    pipeline_.pop_back();
    pipeline_.push_front(std::move(next));
    return out_;
  }

  [[nodiscard]] const Value& out() const { return out_; }
  [[nodiscard]] bool poisoned() const { return poisoned_; }
  [[nodiscard]] const ModuleDecl& decl() const { return *decl_; }

 private:
  const ModuleDecl* decl_;
  std::deque<Value> pipeline_;  // front() newest
  Value out_ = D::disc();
  Value acc_ = D::constant(0);
  bool poisoned_ = false;
};

/// The concrete domain: payload-carrying `rtl::RtValue`s and the arithmetic
/// of the ADD/SUB/MUL/COPY/ALU/MACC/CORDIC kinds.
struct RtDomain {
  using Value = rtl::RtValue;

  static Value disc() { return Value::disc(); }
  static Value illegal() { return Value::illegal(); }
  static bool is_disc(const Value& value) { return value.is_disc(); }
  static bool is_illegal(const Value& value) { return value.is_illegal(); }
  static Value constant(std::int64_t payload) { return Value::of(payload); }
  static std::int64_t op_code(const ModuleDecl& /*decl*/, const Value& op) {
    return op.payload();
  }
  static Value apply(const ModuleDecl& decl, Value& acc,
                     std::span<const Value> operands, std::int64_t op);
  /// MACC holds its accumulator when idle.
  static Value idle(const ModuleDecl& decl, const Value& acc) {
    return decl.kind == ModuleKind::kMacc ? acc : disc();
  }
};

/// The concrete unit, which the lane engine's op-port modules and the
/// clocked back ends step. The reference semantics' walk steps the same
/// template over a domain derived from `RtDomain`.
using ModuleSim = UnitSim<RtDomain>;
extern template class UnitSim<RtDomain>;

}  // namespace ctrtl::transfer
