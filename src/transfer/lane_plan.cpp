#include "transfer/lane_plan.h"

#include <algorithm>
#include <set>
#include <stdexcept>

#include "rtl/controller.h"
#include "transfer/design.h"
#include "transfer/mapping.h"
#include "transfer/walk.h"

namespace ctrtl::transfer {

LanePlan lower_lane_plan(const Design& design,
                         std::span<const TransInstance> instances) {
  using rtl::RtValue;
  LanePlan plan;

  // --- signal table: same resources, same names, same initial values the
  // elaborated RtModel would create (names feed the conflict records) -------
  const auto add_signal = [&plan](std::string name, RtValue initial) {
    plan.signal_names.push_back(std::move(name));
    plan.signal_initial.push_back(initial);
    return static_cast<std::uint32_t>(plan.signal_names.size() - 1);
  };
  std::unordered_map<std::string, std::uint32_t> register_index;
  for (const RegisterDecl& reg : design.registers) {
    LanePlan::Register table;
    table.in = add_signal(reg.name + ".in", RtValue::disc());
    table.out = add_signal(reg.name + ".out", RtValue::disc());
    if (reg.initial.has_value()) {
      plan.preloaded_registers.push_back(
          static_cast<std::uint32_t>(plan.registers.size()));
      plan.preload_values.push_back(RtValue::of(*reg.initial));
    }
    register_index[reg.name] = static_cast<std::uint32_t>(plan.registers.size());
    plan.registers.push_back(table);
  }
  std::unordered_map<std::string, std::uint32_t> bus_index;
  for (const BusDecl& bus : design.buses) {
    bus_index[bus.name] = add_signal(bus.name, RtValue::disc());
  }
  std::unordered_map<std::string, std::uint32_t> constant_index;
  for (const ConstantDecl& constant : design.constants) {
    constant_index[constant.name] =
        add_signal(constant.name, RtValue::of(constant.value));
  }
  for (const InputDecl& input : design.inputs) {
    plan.input_index[input.name] = add_signal(input.name, RtValue::disc());
  }
  std::unordered_map<std::string, std::uint32_t> module_index;
  for (const ModuleDecl& module : design.modules) {
    LanePlan::Module table;
    for (unsigned i = 0; i < module.num_inputs(); ++i) {
      table.inputs.push_back(
          add_signal(module.name + ".in" + std::to_string(i + 1), RtValue::disc()));
    }
    if (module.has_op_port()) {
      table.op = add_signal(module.name + ".op", RtValue::disc());
    }
    table.out = add_signal(module.name + ".out", RtValue::disc());
    module_index[module.name] = static_cast<std::uint32_t>(plan.modules.size());
    plan.modules.push_back(std::move(table));
  }
  // Implicit constant sources for op codes (mirrors build_model).
  std::set<std::int64_t> op_codes;
  for (const RegisterTransfer& transfer : design.transfers) {
    if (transfer.op) {
      op_codes.insert(*transfer.op);
    }
  }
  for (const std::int64_t code : op_codes) {
    const std::string name = op_constant_name(code);
    if (!constant_index.contains(name)) {
      constant_index[name] = add_signal(name, RtValue::of(code));
    }
  }

  const auto signal_of = [&](const Endpoint& endpoint) -> std::uint32_t {
    using Kind = Endpoint::Kind;
    switch (endpoint.kind) {
      case Kind::kRegisterOut:
        return plan.registers.at(register_index.at(endpoint.resource)).out;
      case Kind::kRegisterIn:
        return plan.registers.at(register_index.at(endpoint.resource)).in;
      case Kind::kModuleOut:
        return plan.modules.at(module_index.at(endpoint.resource)).out;
      case Kind::kModuleIn:
        return plan.modules.at(module_index.at(endpoint.resource))
            .inputs.at(endpoint.port);
      case Kind::kModuleOp: {
        const std::uint32_t op =
            plan.modules.at(module_index.at(endpoint.resource)).op;
        if (op == LanePlan::kNoSignal) {
          throw std::invalid_argument("module '" + endpoint.resource +
                                      "' has no operation port");
        }
        return op;
      }
      case Kind::kBus:
        return bus_index.at(endpoint.resource);
      case Kind::kConstant:
        return constant_index.at(endpoint.resource);
      case Kind::kInput:
        return plan.input_index.at(endpoint.resource);
    }
    throw std::logic_error("lower_lane_plan: corrupt endpoint kind");
  };

  // Which module owns each input/op port signal, and which register each
  // `.in` signal: a fire into one of these makes the owner step or latch.
  std::vector<std::uint32_t> port_owner(plan.signal_names.size(),
                                        LanePlan::kNoSignal);
  std::vector<std::uint32_t> latch_owner(plan.signal_names.size(),
                                         LanePlan::kNoSignal);
  for (std::uint32_t m = 0; m < plan.modules.size(); ++m) {
    for (const std::uint32_t input : plan.modules[m].inputs) {
      port_owner[input] = m;
    }
    if (plan.modules[m].op != LanePlan::kNoSignal) {
      port_owner[plan.modules[m].op] = m;
    }
  }
  for (std::uint32_t r = 0; r < plan.registers.size(); ++r) {
    latch_owner[plan.registers[r].in] = r;
  }

  // --- per-cycle lists, built in ordinal order straight into the flat
  // arrays. Cycle d fires the instances of its own (step, phase) level. Its
  // update list is the event kernel's pending order after cycle d-1,
  // statically derived, less the entries that cannot change a lane's state:
  //   - the outputs of the modules stepped at a `cm` cycle d-1;
  //   - the sinks fired at d-1, each with the range of drivers fired into
  //     it (drivers fired earlier were released by now);
  //   - the register outputs latched at a `cr` cycle d-1;
  //   - the sinks whose drivers fired at d-2 and were released at d-1 and
  //     that d-1 did not fire again: they resolve to DISC.
  // Always-lane-uniform work is folded into the counters instead of
  // materialized:
  //   - CS/PH assignments are one update + one event each for every lane
  //     (CS steps 0 -> 1 -> ... -> cs_max, PH walks the six-phase wheel from
  //     its cr initial — every assignment changes the value);
  //   - releases, and every module's evaluation and output update at every
  //     `cm`, stepped or not (an unstepped module's output already holds
  //     its idle value, so the update changes nothing);
  //   - externally set inputs are per-lane *counts* added at cycle 1 (the
  //     value itself is published before the first cycle, like the event
  //     kernel's initialization applies RtModel::set_input's drive).
  // Register preloads stay materialized as (dirty-gated) register-out
  // entries, like any other latch.
  const unsigned cs_max = design.cs_max;
  const InstanceWalker walker(instances, cs_max);
  plan.wheel_cycles = static_cast<std::uint64_t>(cs_max) * rtl::kPhasesPerStep;
  plan.cycles.resize(plan.wheel_cycles + 2);  // [0] unused; last = trailing
  std::unordered_map<std::uint32_t, std::uint32_t> slot_of;
  std::vector<std::uint64_t> sink_stamp;
  std::vector<std::size_t> sink_entry;
  // A module steps while its last drive (step 0 before any) lies at most
  // `latency + 1` steps back.
  std::vector<unsigned> last_driven(plan.modules.size(), 0);
  std::vector<std::uint64_t> latch_stamp(plan.registers.size(), 0);
  const auto modules = static_cast<std::uint32_t>(plan.modules.size());
  for (std::uint64_t d = 1; d <= plan.wheel_cycles + 1; ++d) {
    LanePlan::Cycle& cycle = plan.cycles[d];
    // Opening this cycle's slices also closes the previous cycle's.
    cycle.fires = static_cast<std::uint32_t>(plan.fires.size());
    cycle.updates = static_cast<std::uint32_t>(plan.updates.size());
    cycle.module_steps = static_cast<std::uint32_t>(plan.module_steps.size());
    cycle.latches = static_cast<std::uint32_t>(plan.latches.size());
    const auto [step, phase] = rtl::Controller::locate(d);
    cycle.step = step;
    cycle.phase = phase;
    const bool in_wheel = d <= plan.wheel_cycles;

    // Update list.
    const auto add = [&plan](LanePlan::Update::Kind kind, std::uint32_t index) {
      plan.updates.push_back(LanePlan::Update{kind, index, 0, 0});
    };
    if (d == 1) {
      if (cs_max > 0) {
        cycle.uniform_updates += 2;
        cycle.uniform_events += 2;
      }
      for (const std::uint32_t reg : plan.preloaded_registers) {
        add(LanePlan::Update::Kind::kRegisterOut, reg);
      }
    } else {
      const LanePlan::Cycle& prev = plan.cycles[d - 1];
      sink_stamp.resize(plan.slots.size(), 0);
      sink_entry.resize(plan.slots.size(), 0);
      for (const std::uint32_t m : plan.module_steps_at(d - 1)) {
        add(LanePlan::Update::Kind::kModuleOut, m);
      }
      if (prev.phase == rtl::Phase::kCm) {
        cycle.uniform_updates += modules;
      }
      for (const LanePlan::Fire& fire : plan.fires_at(d - 1)) {
        if (sink_stamp[fire.slot] == d) {
          ++plan.updates[sink_entry[fire.slot]].drivers;
          continue;
        }
        sink_stamp[fire.slot] = d;
        sink_entry[fire.slot] = plan.updates.size();
        plan.updates.push_back(LanePlan::Update{LanePlan::Update::Kind::kSink,
                                                fire.slot, fire.driver, 1});
      }
      for (const std::uint32_t r : plan.latches_at(d - 1)) {
        add(LanePlan::Update::Kind::kRegisterOut, r);
      }
      for (const LanePlan::Fire& fire : plan.fires_at(d - 2)) {
        if (sink_stamp[fire.slot] != d) {
          sink_stamp[fire.slot] = d;
          add(LanePlan::Update::Kind::kSink, fire.slot);
        }
      }
      if (prev.phase == rtl::kPhaseHigh) {
        if (prev.step < cs_max) {
          cycle.uniform_updates += 2;
          cycle.uniform_events += 2;
        }
      } else {
        cycle.uniform_updates += 1;
        cycle.uniform_events += 1;
      }
    }
    for (std::size_t u = cycle.updates; u < plan.updates.size(); ++u) {
      // Sink updates are unconditional for every lane; register-out updates
      // only count when the lane's latch is dirty.
      if (plan.updates[u].kind == LanePlan::Update::Kind::kSink) {
        ++cycle.uniform_updates;
      }
    }
    if (!in_wheel) {
      continue;
    }

    // Fires: this cycle's level, in stream order, each with its own driver
    // row on its sink's slot.
    for (const TransInstance* instance : walker.fires(step, phase)) {
      const std::uint32_t sink = signal_of(instance->sink);
      const auto [it, inserted] = slot_of.try_emplace(
          sink, static_cast<std::uint32_t>(plan.slots.size()));
      if (inserted) {
        plan.slots.push_back(LanePlan::SinkSlot{sink, 0, 0});
      }
      const std::uint32_t driver = plan.slots[it->second].drivers++;
      plan.fires.push_back(
          LanePlan::Fire{it->second, driver, signal_of(instance->source)});
    }

    // Module steps and latches, from what the previous cycle drove: a port
    // holds a non-DISC value only in the cycle after a fire into it.
    if (phase == rtl::Phase::kCm) {
      for (const LanePlan::Fire& fire : plan.fires_at(d - 1)) {
        const std::uint32_t owner = port_owner[plan.slots[fire.slot].signal];
        if (owner != LanePlan::kNoSignal) {
          last_driven[owner] = step;
        }
      }
      for (std::uint32_t m = 0; m < modules; ++m) {
        if (step - last_driven[m] <=
            std::uint64_t{design.modules[m].latency} + 1) {
          plan.module_steps.push_back(m);
        }
      }
    } else if (phase == rtl::kPhaseHigh) {
      for (const LanePlan::Fire& fire : plan.fires_at(d - 1)) {
        const std::uint32_t owner = latch_owner[plan.slots[fire.slot].signal];
        if (owner != LanePlan::kNoSignal && latch_stamp[owner] != d) {
          latch_stamp[owner] = d;
          plan.latches.push_back(owner);
        }
      }
      // Register processes latch, and their outputs update, in elaboration
      // order on the event kernel.
      std::sort(plan.latches.begin() + cycle.latches, plan.latches.end());
    }

    // Transactions every lane performs this cycle: fires, releases (every
    // fire of the previous cycle drives DISC now), one evaluation per
    // module, plus the controller's CS/PH drives (both when cr opens the
    // next step, nothing at the final cr, PH elsewhere). Register latches
    // are gated on a non-DISC input and stay per-lane.
    const std::uint32_t controller =
        phase == rtl::kPhaseHigh ? (step < cs_max ? 2u : 0u) : 1u;
    cycle.uniform_transactions =
        static_cast<std::uint32_t>(plan.fires.size() - cycle.fires +
                                   plan.fires_at(d - 1).size()) +
        (phase == rtl::Phase::kCm ? modules : 0u) + controller;
  }

  // The plan lives as long as its cache entry: drop the growth slack.
  plan.fires.shrink_to_fit();
  plan.updates.shrink_to_fit();
  plan.module_steps.shrink_to_fit();
  plan.latches.shrink_to_fit();

  std::uint32_t contrib_base = 0;
  for (LanePlan::SinkSlot& slot : plan.slots) {
    slot.contrib_base = contrib_base;
    contrib_base += slot.drivers;
  }
  plan.total_drivers = contrib_base;

  for (const LanePlan::Update& entry : plan.updates_at(plan.wheel_cycles + 1)) {
    if (entry.kind == LanePlan::Update::Kind::kSink) {
      plan.trailing_has_static_updates = true;
      break;
    }
  }
  plan.init_transactions =
      (cs_max > 0 ? 2u : 0u) + plan.preloaded_registers.size();
  return plan;
}

}  // namespace ctrtl::transfer
