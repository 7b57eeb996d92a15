#include "verify/semantics.h"

#include <stdexcept>
#include <utility>

#include "transfer/mapping.h"
#include "transfer/walk.h"

namespace ctrtl::verify {

namespace {

using rtl::RtValue;

/// The concrete domain, reading the caller's inputs and reporting every
/// resolution to the caller's observer.
struct Reference : transfer::RtDomain {
  const std::map<std::string, std::int64_t>& inputs;
  const ResolutionObserver& observer;

  [[nodiscard]] RtValue input(const std::string& name) const {
    const auto it = inputs.find(name);
    return it == inputs.end() ? RtValue::disc() : RtValue::of(it->second);
  }
  static RtValue resolve(std::span<const RtValue> values) {
    return rtl::resolve_rt(values);
  }
  void resolved(const std::string& sink, unsigned step, rtl::Phase phase,
                const RtValue& value) const {
    if (observer) {
      observer(Resolution{sink, step, phase, value});
    }
  }
};

}  // namespace

EvalResult evaluate(const transfer::Design& design,
                    const std::map<std::string, std::int64_t>& inputs) {
  return evaluate(design, transfer::to_instances(design.transfers), inputs);
}

EvalResult evaluate(const transfer::Design& design,
                    std::span<const transfer::TransInstance> instances,
                    const std::map<std::string, std::int64_t>& inputs,
                    const ResolutionObserver& observer) {
  common::DiagnosticBag diags;
  if (!validate(design, diags)) {
    throw std::invalid_argument("reference semantics: design does not validate:\n" +
                                diags.to_text());
  }
  Reference domain{{}, inputs, observer};
  transfer::PhaseWalk<RtValue> walk =
      transfer::walk_phases(design, instances, domain);
  return EvalResult{
      std::move(walk.registers), std::move(walk.conflicts),
      static_cast<std::uint64_t>(design.cs_max) * rtl::kPhasesPerStep};
}

}  // namespace ctrtl::verify
