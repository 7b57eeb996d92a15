#include "gen/oracle.h"

#include <algorithm>
#include <stdexcept>
#include <utility>
#include <vector>

#include "common/diagnostics.h"
#include "transfer/mapping.h"
#include "transfer/walk.h"

namespace ctrtl::gen {

namespace {

using transfer::TransInstance;

/// The oracle's abstract domain: DISC / ILLEGAL / value, with the value
/// class split into "known payload" (constants — the only split the model
/// ever branches on, via the op-port arity lookup) and "unknown payload"
/// (everything data-dependent).
struct AbsValue {
  enum class Kind : std::uint8_t { kDisc, kIllegal, kKnown, kUnknown };
  Kind kind = Kind::kDisc;
  std::int64_t payload = 0;  // meaningful only for kKnown

  [[nodiscard]] rtl::RtValue::Kind classification() const {
    switch (kind) {
      case Kind::kDisc:
        return rtl::RtValue::Kind::kDisc;
      case Kind::kIllegal:
        return rtl::RtValue::Kind::kIllegal;
      case Kind::kKnown:
      case Kind::kUnknown:
        return rtl::RtValue::Kind::kValue;
    }
    return rtl::RtValue::Kind::kIllegal;
  }
};

/// `transfer::walk_phases` over AbsValue. Every rule that separates the
/// classes depends only on the classes of its inputs, so a unit's result is
/// an unknown payload, and a MACC holds a value when idle.
struct Abstract {
  using Value = AbsValue;

  const std::map<std::string, std::int64_t>& inputs;
  std::vector<verify::DiscSite> disc_sites;

  static Value disc() { return {}; }
  static Value illegal() { return {AbsValue::Kind::kIllegal, 0}; }
  static Value unknown() { return {AbsValue::Kind::kUnknown, 0}; }
  static Value constant(std::int64_t payload) {
    return {AbsValue::Kind::kKnown, payload};
  }
  static bool is_disc(const Value& value) {
    return value.kind == AbsValue::Kind::kDisc;
  }
  static bool is_illegal(const Value& value) {
    return value.kind == AbsValue::Kind::kIllegal;
  }

  [[nodiscard]] Value input(const std::string& name) const {
    const auto it = inputs.find(name);
    return it == inputs.end() ? disc() : constant(it->second);
  }

  static Value resolve(std::span<const Value> values) {
    return transfer::resolve_contributions<Abstract>(values);
  }

  void resolved(const std::string& sink, unsigned step, rtl::Phase phase,
                const Value& value) {
    if (is_disc(value)) {
      disc_sites.push_back(verify::DiscSite{sink, step, phase});
    }
  }

  static std::int64_t op_code(const transfer::ModuleDecl& decl, const Value& op) {
    if (op.kind != AbsValue::Kind::kKnown) {
      throw std::domain_error(
          "conflict oracle: module '" + decl.name +
          "' op port driven by a payload that is not statically known — "
          "outside the tuple/fault-plan model class");
    }
    return op.payload;
  }
  static Value apply(const transfer::ModuleDecl& /*decl*/, Value& /*acc*/,
                     std::span<const Value> /*operands*/, std::int64_t /*op*/) {
    return unknown();
  }
  static Value idle(const transfer::ModuleDecl& decl, const Value& /*acc*/) {
    return decl.kind == transfer::ModuleKind::kMacc ? unknown() : disc();
  }
};

}  // namespace

verify::OutcomePrediction predict_outcomes(
    const transfer::Design& design,
    std::span<const TransInstance> instances,
    const std::map<std::string, std::int64_t>& inputs) {
  common::DiagnosticBag diags;
  if (!transfer::validate(design, diags)) {
    throw std::invalid_argument("conflict oracle: design does not validate:\n" +
                                diags.to_text());
  }
  Abstract domain{inputs, {}};
  transfer::PhaseWalk<AbsValue> walk =
      transfer::walk_phases(design, instances, domain);

  verify::OutcomePrediction prediction;
  prediction.conflicts = std::move(walk.conflicts);
  prediction.disc_sites = std::move(domain.disc_sites);
  std::sort(prediction.disc_sites.begin(), prediction.disc_sites.end());
  for (const auto& [name, value] : walk.registers) {
    prediction.registers[name] = value.classification();
  }
  return prediction;
}

verify::OutcomePrediction predict_outcomes(
    const transfer::Design& design,
    const std::map<std::string, std::int64_t>& inputs) {
  const std::vector<TransInstance> instances =
      transfer::to_instances(design.transfers);
  return predict_outcomes(design, instances, inputs);
}

verify::OutcomePrediction predict_outcomes(
    const fault::FaultedDesign& faulted,
    const std::map<std::string, std::int64_t>& inputs) {
  return predict_outcomes(faulted.design, faulted.instances, inputs);
}

}  // namespace ctrtl::gen
