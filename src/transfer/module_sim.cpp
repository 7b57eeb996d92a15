#include "transfer/module_sim.h"

#include <array>

#include "rtl/modules.h"

namespace ctrtl::transfer {

using rtl::RtValue;

RtValue RtDomain::apply(const ModuleDecl& decl, RtValue& acc,
                        std::span<const RtValue> operands, std::int64_t op) {
  std::array<std::int64_t, 2> payloads{};
  for (std::size_t i = 0; i < operands.size(); ++i) {
    payloads[i] = operands[i].payload();
  }
  const std::span<const std::int64_t> v(payloads.data(), operands.size());
  switch (decl.kind) {
    case ModuleKind::kAdd:
      return RtValue::of(v[0] + v[1]);
    case ModuleKind::kSub:
      return RtValue::of(v[0] - v[1]);
    case ModuleKind::kMul:
      return RtValue::of(rtl::fixed_mul(v[0], v[1], decl.frac_bits));
    case ModuleKind::kCopy:
      return RtValue::of(v[0]);
    case ModuleKind::kAlu: {
      static const rtl::AluModule::OpTable kOps = rtl::make_standard_alu_ops();
      return RtValue::of(kOps.at(op).function(v));
    }
    case ModuleKind::kMacc:
      switch (op) {
        case rtl::MaccModule::kOpClear:
          acc = RtValue::of(0);
          break;
        case rtl::MaccModule::kOpHold:
          break;
        case rtl::MaccModule::kOpLoad:
          acc = RtValue::of(v[0]);
          break;
        default:
          acc = RtValue::of(acc.payload() +
                            rtl::fixed_mul(v[0], v[1], decl.frac_bits));
          break;
      }
      return acc;
    case ModuleKind::kCordic: {
      const auto result =
          rtl::CordicModule::rotate(v[0], decl.frac_bits, decl.iterations);
      return RtValue::of(op == rtl::CordicModule::kOpSin ? result.sin : result.cos);
    }
  }
  throw std::logic_error("ModuleSim: corrupt module kind");
}

template class UnitSim<RtDomain>;

}  // namespace ctrtl::transfer
