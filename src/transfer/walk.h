#pragma once

#include <algorithm>
#include <cstdint>
#include <map>
#include <span>
#include <stdexcept>
#include <string>
#include <vector>

#include "rtl/model.h"
#include "transfer/design.h"
#include "transfer/mapping.h"
#include "transfer/module_sim.h"
#include "transfer/tuple.h"

namespace ctrtl::transfer {

/// Read-only view of a TRANS instance stream grouped onto the phase wheel:
/// for every level `(step, phase)` of a cs_max-step run, the instances that
/// *fire* (drive source -> sink) at that level, in stream order. A fire's
/// level is syntactically known (`(step-1)*6 + phase`, paper §2.7), so this
/// is the only levelization the system needs: the lane plan
/// (`lower_lane_plan`) and `walk_phases` walk the exact execution structure
/// every engine realizes through it.
///
/// Non-owning: it keeps one pointer per instance, stable-sorted by level,
/// so its memory follows the instance count, not cs_max. Instances outside
/// 1..cs_max are ignored (they never fire on any engine within the run
/// window); `CompiledDesign::compile` and `rtl::RtModel::add_transfer` are
/// where out-of-range streams are rejected.
class InstanceWalker {
 public:
  InstanceWalker(std::span<const TransInstance> instances, unsigned cs_max);

  /// Instances firing at `(step, phase)`, in stream order. Empty span when
  /// the level is idle or out of range.
  [[nodiscard]] std::span<const TransInstance* const> fires(
      unsigned step, rtl::Phase phase) const;

 private:
  unsigned cs_max_ = 0;
  std::vector<const TransInstance*> by_level_;
};

/// The section 2.3 resolution function over a value domain `D`: DISC when
/// every contribution is DISC, ILLEGAL when any is ILLEGAL or two are not
/// DISC, else the one that is not DISC. (`rtl::resolve_rt` is the event
/// kernel's, over concrete values.)
template <class D>
typename D::Value resolve_contributions(std::span<const typename D::Value> values) {
  const typename D::Value* single = nullptr;
  for (const typename D::Value& value : values) {
    if (D::is_illegal(value) || (single != nullptr && !D::is_disc(value))) {
      return D::illegal();
    }
    if (!D::is_disc(value)) {
      single = &value;
    }
  }
  return single != nullptr ? *single : D::disc();
}

/// What `walk_phases` leaves after cs_max control steps.
template <class Value>
struct PhaseWalk {
  /// Each register's value after the last `cr`.
  std::map<std::string, Value> registers;
  /// Every driven sink's change *to* ILLEGAL, in (step, phase, signal)
  /// order: the records the simulator's conflict monitor produces.
  std::vector<rtl::Conflict> conflicts;
  /// True when some unit computed ILLEGAL, also where no sink read it.
  bool unit_illegal = false;
};

/// The paper's dedicated semantics of register transfer models (section
/// 2.7): a transition system over (step, phase), written once and run over
/// a value domain `D` — concrete values (`verify::evaluate`), the conflict
/// oracle's abstract classes (`gen::predict_outcomes`) or dataflow
/// expressions (`verify::extract_dataflow`). It does not use the
/// event-driven kernel, which stays the independent check of it.
///
/// Each control step evaluates its six phases in order. At every phase but
/// `ra`, each sink driven by instances fired at pred(phase) of the step
/// resolves their source values with the section 2.3 function and becomes
/// visible; sinks nobody drove read DISC. Units step at `cm`
/// (`UnitSim<D>`) and registers latch their non-DISC inputs at `cr`.
///
/// `D` is what `UnitSim<D>` needs plus
///   - `input(name)`: the value of an external input;
///   - `resolve(values)`: the section 2.3 function over `D::Value`;
///   - `resolved(sink, step, phase, value)`: sees every resolution, in
///     (step, phase, sink) order.
///
/// Units keep at most cs_max + 1 pipeline stages: a unit steps once per
/// control step, so a value entering a deeper pipeline never leaves it
/// within the run.
template <class D>
PhaseWalk<typename D::Value> walk_phases(const Design& design,
                                         std::span<const TransInstance> instances,
                                         D& domain) {
  using Value = typename D::Value;
  PhaseWalk<Value> walk;
  for (const RegisterDecl& reg : design.registers) {
    walk.registers.emplace(reg.name, reg.initial.has_value()
                                         ? D::constant(*reg.initial)
                                         : D::disc());
  }
  std::map<std::string, UnitSim<D>> units;
  for (const ModuleDecl& module : design.modules) {
    const auto stages = static_cast<unsigned>(std::min<std::uint64_t>(
        module.latency, std::uint64_t{design.cs_max} + 1));
    units.emplace(module.name, UnitSim<D>(module, stages));
  }
  const InstanceWalker walker(instances, design.cs_max);

  // The sinks that resolved at the phase before the one being evaluated:
  // exactly what an instance firing at that phase reads from a bus.
  std::map<std::string, Value> visible;
  const auto read = [&](const std::string& sink) -> Value {
    const auto it = visible.find(sink);
    return it == visible.end() ? D::disc() : it->second;
  };
  const auto source_value = [&](const Endpoint& source) -> Value {
    switch (source.kind) {
      case Endpoint::Kind::kRegisterOut:
        return walk.registers.at(source.resource);
      case Endpoint::Kind::kConstant: {
        if (const ConstantDecl* constant = design.find_constant(source.resource)) {
          return D::constant(constant->value);
        }
        std::int64_t code = 0;
        if (parse_op_constant_name(source.resource, code)) {
          return D::constant(code);
        }
        throw std::logic_error("walk_phases: unknown constant '" +
                               source.resource + "'");
      }
      case Endpoint::Kind::kInput:
        return domain.input(source.resource);
      case Endpoint::Kind::kModuleOut:
        return units.at(source.resource).out();
      case Endpoint::Kind::kBus:
        return read(source.resource);
      default:
        throw std::logic_error("walk_phases: bad source endpoint");
    }
  };

  for (unsigned step = 1; step <= design.cs_max; ++step) {
    for (int phase_index = 0; phase_index < rtl::kPhasesPerStep; ++phase_index) {
      const rtl::Phase phase = rtl::phase_from_index(phase_index);

      std::map<std::string, std::vector<Value>> contributions;
      if (phase != rtl::kPhaseLow) {
        for (const TransInstance* instance : walker.fires(step, rtl::pred(phase))) {
          contributions[to_string(instance->sink)].push_back(
              source_value(instance->source));
        }
      }
      std::map<std::string, Value> next_visible;
      for (const auto& [sink, values] : contributions) {
        const Value value = domain.resolve(values);
        domain.resolved(sink, step, phase, value);
        if (D::is_illegal(value) && !D::is_illegal(read(sink))) {
          walk.conflicts.push_back(rtl::Conflict{sink, step, phase});
        }
        next_visible.emplace(sink, value);
      }
      visible = std::move(next_visible);

      if (phase == rtl::Phase::kCm) {
        for (auto& [name, unit] : units) {
          std::vector<Value> operands;
          for (unsigned port = 0; port < unit.decl().num_inputs(); ++port) {
            operands.push_back(read(to_string(Endpoint::module_in(name, port))));
          }
          const Value op = unit.decl().has_op_port()
                               ? read(to_string(Endpoint::module_op(name)))
                               : D::disc();
          unit.step(operands, op);
          walk.unit_illegal = walk.unit_illegal || unit.poisoned() ||
                              D::is_illegal(unit.out());
        }
      } else if (phase == rtl::Phase::kCr) {
        for (auto& [name, value] : walk.registers) {
          const Value in = read(to_string(Endpoint::register_in(name)));
          if (!D::is_disc(in)) {
            value = in;
          }
        }
      }
    }
    // Between steps every single-phase transfer window has closed: the
    // next step's `ra` phase sees all transfer-driven sinks at DISC.
    visible.clear();
  }
  return walk;
}

}  // namespace ctrtl::transfer
