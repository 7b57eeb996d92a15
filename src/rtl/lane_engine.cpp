#include "rtl/lane_engine.h"

#include <algorithm>
#include <chrono>
#include <span>
#include <stdexcept>

#include "transfer/module_sim.h"

namespace ctrtl::rtl {

/// All mutable state of one block of lanes, structure-of-arrays: every array
/// is indexed `row * lanes + lane`, so the per-lane inner loops in
/// `execute_cycle` walk contiguous memory. Stack-local to `run_block` — the
/// engine itself stays immutable and shareable across threads.
struct LaneEngine::LaneBlock {
  std::size_t lanes = 0;

  std::vector<RtValue> values;             ///< signals × lanes
  std::vector<RtValue> contributions;      ///< total drivers × lanes
  std::vector<std::uint32_t> non_disc;     ///< sink slots × lanes
  std::vector<std::uint32_t> illegal;      ///< sink slots × lanes
  std::vector<std::uint32_t> last_driver;  ///< sink slots × lanes
  std::vector<transfer::ModuleSim> sims;   ///< modules × lanes
  std::vector<RtValue> module_pending;     ///< modules × lanes
  std::vector<RtValue> reg_pending;        ///< registers × lanes
  std::vector<std::uint8_t> reg_dirty;     ///< registers × lanes
  std::vector<RtValue> scratch;            ///< one module's operands

  // Lane-varying counter parts; the lane-uniform parts accumulate as
  // scalars in run_block and are added once at collection time.
  std::vector<std::uint64_t> lane_updates;
  std::vector<std::uint64_t> lane_events;
  std::vector<std::uint64_t> lane_transactions;
  std::vector<std::vector<Conflict>> conflicts;

  /// CompiledEngine::write_contribution, one lane: swaps the contribution
  /// and maintains the slot's non-DISC/ILLEGAL counters and value cache.
  void write_contribution(const SinkSlot& slot, std::uint32_t slot_index,
                          std::uint32_t driver, std::size_t lane,
                          const RtValue& value) {
    RtValue& contribution =
        contributions[(slot.contrib_base + driver) * lanes + lane];
    const std::size_t counter = slot_index * lanes + lane;
    if (!contribution.is_disc()) {
      --non_disc[counter];
    }
    if (contribution.is_illegal()) {
      --illegal[counter];
    }
    contribution = value;
    if (!value.is_disc()) {
      ++non_disc[counter];
      last_driver[counter] = driver;
    }
    if (value.is_illegal()) {
      ++illegal[counter];
    }
  }

  /// CompiledEngine::resolve_slot, one lane: `resolve_rt` from the counters,
  /// with the last-value cache and the rare scan fallback.
  [[nodiscard]] RtValue resolve(const SinkSlot& slot, std::uint32_t slot_index,
                                std::size_t lane) const {
    const std::size_t counter = slot_index * lanes + lane;
    if (illegal[counter] > 0 || non_disc[counter] > 1) {
      return RtValue::illegal();
    }
    if (non_disc[counter] == 0) {
      return RtValue::disc();
    }
    const RtValue& cached =
        contributions[(slot.contrib_base + last_driver[counter]) * lanes + lane];
    if (!cached.is_disc()) {
      return cached;
    }
    for (std::uint32_t driver = 0; driver < slot.drivers; ++driver) {
      const RtValue& contribution =
          contributions[(slot.contrib_base + driver) * lanes + lane];
      if (!contribution.is_disc()) {
        return contribution;
      }
    }
    return RtValue::disc();  // unreachable: non_disc == 1
  }
};

LaneEngine::LaneEngine(std::shared_ptr<const transfer::CompiledDesign> compiled)
    : compiled_(std::move(compiled)) {
  if (!compiled_) {
    throw std::invalid_argument("LaneEngine requires a compiled design");
  }
}

void LaneEngine::execute_cycle(std::uint64_t ordinal, LaneBlock& block) const {
  using Update = transfer::LanePlan::Update;
  const transfer::LanePlan& tables = compiled_->plan;
  const transfer::LanePlan::Cycle& plan = tables.cycles[ordinal];
  const std::size_t lanes = block.lanes;

  // --- update phase --------------------------------------------------------
  for (const Update& entry : tables.updates_at(ordinal)) {
    switch (entry.kind) {
      case Update::Kind::kSink: {
        const SinkSlot& slot = tables.slots[entry.index];
        const std::size_t value_row = static_cast<std::size_t>(slot.signal) * lanes;
        for (std::size_t lane = 0; lane < lanes; ++lane) {
          const RtValue value = block.resolve(slot, entry.index, lane);
          RtValue& current = block.values[value_row + lane];
          if (current != value) {
            current = value;
            ++block.lane_events[lane];
            if (value.is_illegal()) {
              block.conflicts[lane].push_back(
                  Conflict{tables.signal_names[slot.signal], plan.step,
                           plan.phase});
            }
          }
        }
        break;
      }
      case Update::Kind::kModuleOut: {
        const transfer::LanePlan::Module& module = tables.modules[entry.index];
        const std::size_t value_row = static_cast<std::size_t>(module.out) * lanes;
        const std::size_t pending_row =
            static_cast<std::size_t>(entry.index) * lanes;
        for (std::size_t lane = 0; lane < lanes; ++lane) {
          RtValue& current = block.values[value_row + lane];
          const RtValue& pending = block.module_pending[pending_row + lane];
          if (current != pending) {
            current = pending;
            ++block.lane_events[lane];
          }
        }
        break;
      }
      case Update::Kind::kRegisterOut: {
        const transfer::LanePlan::Register& reg = tables.registers[entry.index];
        const std::size_t value_row = static_cast<std::size_t>(reg.out) * lanes;
        const std::size_t pending_row =
            static_cast<std::size_t>(entry.index) * lanes;
        for (std::size_t lane = 0; lane < lanes; ++lane) {
          if (block.reg_dirty[pending_row + lane] == 0) {
            continue;  // no latch this step: the signal was never pending
          }
          block.reg_dirty[pending_row + lane] = 0;
          ++block.lane_updates[lane];
          RtValue& current = block.values[value_row + lane];
          const RtValue& pending = block.reg_pending[pending_row + lane];
          if (current != pending) {
            current = pending;
            ++block.lane_events[lane];
          }
        }
        break;
      }
    }
  }

  // --- execution phase (the trailing cycle only applies updates) -----------
  if (ordinal > tables.wheel_cycles) {
    return;
  }
  for (const transfer::LanePlan::Fire& fire : tables.fires_at(ordinal)) {
    const SinkSlot& slot = tables.slots[fire.slot];
    const std::size_t source_row = static_cast<std::size_t>(fire.source) * lanes;
    for (std::size_t lane = 0; lane < lanes; ++lane) {
      block.write_contribution(slot, fire.slot, fire.driver, lane,
                               block.values[source_row + lane]);
    }
  }
  if (plan.eval_modules) {
    for (std::size_t m = 0; m < tables.modules.size(); ++m) {
      const transfer::LanePlan::Module& module = tables.modules[m];
      const std::size_t arity = module.inputs.size();
      const std::size_t op_row = module.op != transfer::LanePlan::kNoSignal
                                     ? static_cast<std::size_t>(module.op) * lanes
                                     : 0;
      const std::size_t pending_row = m * lanes;
      for (std::size_t lane = 0; lane < lanes; ++lane) {
        for (std::size_t i = 0; i < arity; ++i) {
          block.scratch[i] =
              block.values[static_cast<std::size_t>(module.inputs[i]) * lanes +
                           lane];
        }
        const RtValue op = module.op != transfer::LanePlan::kNoSignal
                               ? block.values[op_row + lane]
                               : RtValue::disc();
        block.module_pending[pending_row + lane] =
            block.sims[pending_row + lane].step(
                std::span<const RtValue>(block.scratch.data(), arity), op);
      }
    }
  }
  if (plan.latch_registers) {
    for (std::size_t r = 0; r < tables.registers.size(); ++r) {
      const std::size_t value_row =
          static_cast<std::size_t>(tables.registers[r].in) * lanes;
      const std::size_t pending_row = r * lanes;
      for (std::size_t lane = 0; lane < lanes; ++lane) {
        const RtValue& value = block.values[value_row + lane];
        if (!value.is_disc()) {
          block.reg_pending[pending_row + lane] = value;
          block.reg_dirty[pending_row + lane] = 1;
          ++block.lane_transactions[lane];
        }
      }
    }
  }
  for (const transfer::LanePlan::Release& release : tables.releases_at(ordinal)) {
    const SinkSlot& slot = tables.slots[release.slot];
    for (std::size_t lane = 0; lane < lanes; ++lane) {
      block.write_contribution(slot, release.slot, release.driver, lane,
                               RtValue::disc());
    }
  }
}

std::vector<InstanceResult> LaneEngine::run_block(
    std::size_t first_instance, std::size_t lanes, const InputProvider& inputs,
    std::uint64_t max_cycles, std::uint64_t max_delta_cycles) const {
  const auto start = std::chrono::steady_clock::now();
  std::vector<InstanceResult> results(lanes);
  if (lanes == 0) {
    return results;
  }

  const transfer::LanePlan& tables = compiled_->plan;
  const transfer::Design& design = compiled_->design;
  LaneBlock block;
  block.lanes = lanes;
  const std::size_t signals = tables.signal_names.size();
  block.values.resize(signals * lanes);
  for (std::size_t s = 0; s < signals; ++s) {
    std::fill_n(block.values.begin() + static_cast<std::ptrdiff_t>(s * lanes),
                lanes, tables.signal_initial[s]);
  }
  block.contributions.assign(
      static_cast<std::size_t>(tables.total_drivers) * lanes, RtValue::disc());
  block.non_disc.assign(tables.slots.size() * lanes, 0);
  block.illegal.assign(tables.slots.size() * lanes, 0);
  block.last_driver.assign(tables.slots.size() * lanes, 0);
  block.module_pending.assign(tables.modules.size() * lanes, RtValue::disc());
  block.reg_pending.assign(tables.registers.size() * lanes, RtValue::disc());
  block.reg_dirty.assign(tables.registers.size() * lanes, 0);
  block.sims.reserve(tables.modules.size() * lanes);
  std::size_t max_arity = 0;
  for (std::size_t m = 0; m < tables.modules.size(); ++m) {
    max_arity = std::max(max_arity, tables.modules[m].inputs.size());
    for (std::size_t lane = 0; lane < lanes; ++lane) {
      block.sims.emplace_back(design.modules[m]);
    }
  }
  block.scratch.resize(max_arity);
  block.lane_updates.assign(lanes, 0);
  block.lane_events.assign(lanes, 0);
  block.lane_transactions.assign(lanes, 0);
  block.conflicts.resize(lanes);

  // --- per-lane inputs: publish now, count the first touches at cycle 1 ----
  std::vector<std::uint64_t> touched_inputs(lanes, 0);
  if (inputs) {
    std::vector<std::uint32_t> touched;
    for (std::size_t lane = 0; lane < lanes; ++lane) {
      touched.clear();
      for (const auto& [name, value] : inputs(first_instance + lane)) {
        const auto it = tables.input_index.find(name);
        if (it == tables.input_index.end()) {
          throw std::invalid_argument("no input named '" + name + "'");
        }
        block.values[static_cast<std::size_t>(it->second) * lanes + lane] = value;
        if (std::find(touched.begin(), touched.end(), it->second) ==
            touched.end()) {
          touched.push_back(it->second);
        }
      }
      touched_inputs[lane] = touched.size();
    }
  }

  // --- initialization: controller CS/PH drives and register preloads are
  // transactions scheduled before the first delta cycle -----------------
  for (std::size_t i = 0; i < tables.preloaded_registers.size(); ++i) {
    const std::size_t pending_row =
        static_cast<std::size_t>(tables.preloaded_registers[i]) * lanes;
    std::fill_n(block.reg_pending.begin() +
                    static_cast<std::ptrdiff_t>(pending_row),
                lanes, tables.preload_values[i]);
    std::fill_n(
        block.reg_dirty.begin() + static_cast<std::ptrdiff_t>(pending_row),
        lanes, static_cast<std::uint8_t>(1));
  }
  std::uint64_t uniform_updates = 0;
  std::uint64_t uniform_events = 0;
  std::uint64_t uniform_transactions = tables.init_transactions;

  std::uint64_t executed = 0;
  std::uint64_t cursor = 1;
  // Watchdog bookkeeping: `executed` matches the event scheduler's
  // now().delta and the compiled engine's cursor_ - 1, so the trip point —
  // executing the next cycle would exceed the bound while work remains —
  // lands on the same ordinal on all three engines. The max_cycles bound is
  // checked first (silent cap wins when the two coincide), and a mid-wheel
  // trip hits every lane: controller work is pending for all of them.
  bool tripped_wheel = false;
  std::uint64_t trip_ordinal = 0;
  const std::uint64_t wheel_cycles = tables.wheel_cycles;
  while (executed < max_cycles && cursor <= wheel_cycles) {
    if (executed >= max_delta_cycles) {
      tripped_wheel = true;
      trip_ordinal = cursor;
      break;
    }
    execute_cycle(cursor, block);
    const transfer::LanePlan::Cycle& cycle = tables.cycles[cursor];
    uniform_updates += cycle.uniform_updates;
    uniform_events += cycle.uniform_events;
    uniform_transactions += cycle.uniform_transactions;
    ++cursor;
    ++executed;
  }
  const bool ran_first_cycle = executed > 0;

  // --- trailing cycle: per-lane quiescence ---------------------------------
  // With static updates pending (releases from final-step wb fires) every
  // lane executes it; otherwise only lanes whose final cr latched something.
  std::vector<std::uint8_t> trailing(lanes, 0);
  std::vector<std::uint8_t> lane_tripped(lanes, 0);
  if (tripped_wheel) {
    std::fill(lane_tripped.begin(), lane_tripped.end(),
              static_cast<std::uint8_t>(1));
  }
  if (!tripped_wheel && executed < max_cycles && cursor == wheel_cycles + 1) {
    bool any = false;
    for (std::size_t lane = 0; lane < lanes; ++lane) {
      bool needed = tables.trailing_has_static_updates;
      for (std::size_t r = 0; !needed && r < tables.registers.size(); ++r) {
        needed = block.reg_dirty[r * lanes + lane] != 0;
      }
      trailing[lane] = needed ? 1 : 0;
      any = any || needed;
    }
    if (any && executed >= max_delta_cycles) {
      // The trailing cycle would exceed the bound: the lanes that still had
      // work trip (the event scheduler throws at exactly this point), the
      // already-quiescent lanes finish clean. `executed` is lane-uniform,
      // so this split is deterministic.
      trip_ordinal = wheel_cycles + 1;
      for (std::size_t lane = 0; lane < lanes; ++lane) {
        lane_tripped[lane] = trailing[lane];
        trailing[lane] = 0;
      }
    } else if (any) {
      // Safe over non-participating lanes: their register latches are clean
      // and sink updates only exist when every lane participates.
      execute_cycle(wheel_cycles + 1, block);
      const transfer::LanePlan::Cycle& last = tables.cycles[wheel_cycles + 1];
      for (std::size_t lane = 0; lane < lanes; ++lane) {
        if (trailing[lane] != 0) {
          block.lane_updates[lane] += last.uniform_updates;
          block.lane_events[lane] += last.uniform_events;
        }
      }
    }
  }

  // --- collection ----------------------------------------------------------
  const std::uint64_t elapsed_ns = static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now() - start)
          .count());
  for (std::size_t lane = 0; lane < lanes; ++lane) {
    InstanceResult& result = results[lane];
    const std::uint64_t lane_cycles = executed + (trailing[lane] != 0 ? 1 : 0);
    result.cycles = lane_cycles;
    result.stats.delta_cycles = lane_cycles;
    result.stats.updates = uniform_updates + block.lane_updates[lane] +
                           (ran_first_cycle ? touched_inputs[lane] : 0);
    result.stats.events = uniform_events + block.lane_events[lane];
    result.stats.transactions = uniform_transactions + block.lane_transactions[lane];
    result.stats.wall_time_ns = elapsed_ns / lanes;  // amortized block time
    result.conflicts = std::move(block.conflicts[lane]);
    if (lane_tripped[lane] != 0) {
      result.report.status = RunStatus::kWatchdogTripped;
      result.report.diagnostics.push_back(
          watchdog_diagnostic(max_delta_cycles, trip_ordinal));
    }
    result.registers.reserve(tables.registers.size());
    for (std::size_t r = 0; r < tables.registers.size(); ++r) {
      result.registers.emplace_back(
          design.registers[r].name,
          block.values[static_cast<std::size_t>(tables.registers[r].out) * lanes +
                       lane]);
    }
  }
  return results;
}

LaneEngine::TableStats LaneEngine::table_stats() const {
  const transfer::LanePlan& tables = compiled_->plan;
  TableStats stats;
  stats.cycles = tables.cycles.size() - 1;
  stats.signals = tables.signal_names.size();
  stats.resolved_sinks = tables.slots.size();
  stats.drivers = tables.total_drivers;
  stats.fire_actions = tables.fires.size();
  stats.release_actions = tables.releases.size();
  stats.update_entries = tables.updates.size();
  stats.modules = tables.modules.size();
  stats.registers = tables.registers.size();
  return stats;
}

}  // namespace ctrtl::rtl
