#pragma once

#include <cstdint>
#include <deque>
#include <span>

#include "rtl/value.h"
#include "transfer/design.h"

namespace ctrtl::transfer {

/// Kernel-independent reference semantics of one functional unit, driven by
/// its `ModuleDecl`. Used by the formal reference evaluator
/// (verify::semantics) and by the clocked back end — both need module
/// behaviour without instantiating kernel processes. Mirrors `rtl::Module`
/// and its concrete subclasses exactly (operand discipline, pipeline
/// poisoning, MACC accumulator, CORDIC rotation).
class ModuleSim {
 public:
  explicit ModuleSim(const ModuleDecl& decl);

  /// Keeps only `stages` pipeline stages (at least 1, at most the declared
  /// latency). A run that steps the unit fewer than `stages` times sees no
  /// value leave a deeper pipeline either, so its results are unchanged.
  ModuleSim(const ModuleDecl& decl, unsigned stages);

  /// Operand count the given op consumes.
  [[nodiscard]] unsigned arity_for(std::int64_t op) const;

  /// Pure combinational evaluation under the operand discipline; does not
  /// touch the pipeline (but does update MACC accumulator state).
  [[nodiscard]] rtl::RtValue evaluate(std::span<const rtl::RtValue> operands,
                                      const rtl::RtValue& op);

  /// One compute phase (`cm` in the abstract model, one clock cycle in the
  /// clocked one): evaluates, advances the pipeline, and returns the value
  /// now visible at the output port.
  rtl::RtValue step(std::span<const rtl::RtValue> operands, const rtl::RtValue& op);

  [[nodiscard]] const rtl::RtValue& out() const { return out_; }
  [[nodiscard]] bool poisoned() const { return poisoned_; }
  [[nodiscard]] const ModuleDecl& decl() const { return *decl_; }

 private:
  [[nodiscard]] std::int64_t apply(std::span<const std::int64_t> payloads,
                                   std::int64_t op);

  const ModuleDecl* decl_;
  std::deque<rtl::RtValue> pipeline_;  // front() newest; size == latency
  rtl::RtValue out_ = rtl::RtValue::disc();
  bool poisoned_ = false;
  std::int64_t acc_ = 0;
};

}  // namespace ctrtl::transfer
