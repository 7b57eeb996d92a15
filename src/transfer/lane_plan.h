#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <string>
#include <unordered_map>
#include <vector>

#include "rtl/phase.h"
#include "rtl/value.h"

namespace ctrtl::transfer {

struct Design;
struct TransInstance;

/// The lane engine's action tables for one design: the signal table, the
/// sink slots with their statically assigned drivers, and for every delta
/// cycle the work that can change lane state — its fires, update entries,
/// module steps and register latches — plus its lane-uniform counter
/// increments. Lowered once by `CompiledDesign::compile` and shared
/// read-only by every `rtl::LaneEngine` over that design, so a cache hit in
/// `ctrtl_serve` reuses the plan instead of rebuilding it.
///
/// The six-phase schedule fixes at lowering time which drivers of a sink
/// are active in every cycle (a TRANS drives for one delta cycle, then
/// DISC), so the plan resolves sinks statically: a sink update names the
/// drivers that fired into its slot in the previous cycle, and releases
/// never run. The same fact bounds the rest of the run-time work: a
/// register can only latch at a `cr` whose `wb` drove its `.in` port, and a
/// module whose ports were not driven only drains its pipeline towards its
/// idle value, so the plan lists just those latches and module steps. Work
/// left out of the lists still counts in the lane-uniform counters.
///
/// Stored flat: all fires, update entries, module steps and latches of the
/// run sit in one array each, in delta-cycle order, and each `Cycle` holds
/// the offsets of its slices (`fires_at`, `updates_at`, `module_steps_at`,
/// `latches_at`). Declarations are referred to by index: module `m` is
/// `design.modules[m]` and register `r` is `design.registers[r]`.
struct LanePlan {
  static constexpr std::uint32_t kNoSignal = 0xffffffffu;

  /// One transfer sink signal with its statically assigned drivers. The
  /// per-lane contribution values live in the engine's block state; this
  /// holds only the shared layout.
  struct SinkSlot {
    std::uint32_t signal = 0;        ///< value-table index
    std::uint32_t contrib_base = 0;  ///< first row in the contribution table
    std::uint32_t drivers = 0;
  };

  /// Drives contribution row `contrib_base + driver` of sink slot `slot`
  /// with the value of signal `source`.
  struct Fire {
    std::uint32_t slot = 0;
    std::uint32_t driver = 0;
    std::uint32_t source = 0;  ///< value-table index
  };

  struct Update {
    enum class Kind : std::uint8_t {
      kSink,         ///< re-resolve sink slot `index` (conflict-monitored)
      kModuleOut,    ///< module `index` output takes its pending value
      kRegisterOut,  ///< register `index` output takes its latch, if dirty
    };
    Kind kind = Kind::kSink;
    std::uint32_t index = 0;
    /// kSink only: the slot's drivers `first_driver .. first_driver +
    /// drivers - 1` fired in the previous cycle and are the only active
    /// ones (one cycle's fires into one slot get consecutive driver
    /// numbers). No driver resolves to DISC, one to a copy of its
    /// contribution, two or more to the `resolve_rt` fold.
    std::uint32_t first_driver = 0;
    std::uint32_t drivers = 0;
  };

  /// Everything one delta cycle does besides its action slices, shared by
  /// all lanes. CS/PH assignments never carry lane-varying state, so they
  /// are folded into the lane-uniform counter increments instead of update
  /// entries; so are the releases, and the evaluations and output updates
  /// of modules that do not step.
  struct Cycle {
    std::uint32_t fires = 0;         ///< offset of the first fire in `fires`
    std::uint32_t updates = 0;       ///< offset of the first update entry
    std::uint32_t module_steps = 0;  ///< offset of the first module step
    std::uint32_t latches = 0;       ///< offset of the first latch
    /// Counter increments identical for every lane this cycle: updates from
    /// CS/PH/sinks/every module's output, events from CS/PH (each
    /// assignment on the phase wheel changes the value), transactions from
    /// fires/releases/every module's evaluation/controller drives.
    std::uint32_t uniform_updates = 0;
    std::uint32_t uniform_events = 0;
    std::uint32_t uniform_transactions = 0;
    unsigned step = 0;
    rtl::Phase phase = rtl::Phase::kRa;
  };

  struct Module {
    std::vector<std::uint32_t> inputs;  ///< value-table indices
    std::uint32_t op = kNoSignal;
    std::uint32_t out = 0;
  };

  struct Register {
    std::uint32_t in = 0;
    std::uint32_t out = 0;
  };

  /// Signal table: the same resources, names and initial values the
  /// elaborated `RtModel` would create (names feed the conflict records).
  std::vector<std::string> signal_names;
  std::vector<rtl::RtValue> signal_initial;
  std::unordered_map<std::string, std::uint32_t> input_index;

  std::vector<SinkSlot> slots;
  std::uint32_t total_drivers = 0;
  std::vector<Module> modules;      ///< in `design.modules` order
  std::vector<Register> registers;  ///< in `design.registers` order
  std::vector<std::uint32_t> preloaded_registers;
  std::vector<rtl::RtValue> preload_values;

  /// cycles[d] is delta-cycle ordinal d (1-based; cycles[0] is unused and
  /// empty). The last entry is the trailing cycle that applies the final
  /// `cr` latches.
  std::vector<Cycle> cycles;
  std::vector<Fire> fires;
  std::vector<Update> updates;
  /// Module indices stepped at a `cm`: the ones whose input or op ports
  /// were driven at the `rb` before, those within `latency + 1` steps after
  /// such a step (the pipeline drains to the idle value), and every module
  /// in its first `latency + 1` steps (an idle MACC outputs its accumulator,
  /// a VALUE, while its pipeline starts DISC).
  std::vector<std::uint32_t> module_steps;
  /// Register indices latched at a `cr`: the ones whose `.in` port was
  /// driven at the `wb` before.
  std::vector<std::uint32_t> latches;

  std::uint64_t wheel_cycles = 0;  ///< cs_max * kPhasesPerStep
  bool trailing_has_static_updates = false;
  std::size_t init_transactions = 0;

  [[nodiscard]] std::span<const Fire> fires_at(std::uint64_t d) const {
    return slice(fires, &Cycle::fires, d);
  }
  [[nodiscard]] std::span<const Update> updates_at(std::uint64_t d) const {
    return slice(updates, &Cycle::updates, d);
  }
  [[nodiscard]] std::span<const std::uint32_t> module_steps_at(
      std::uint64_t d) const {
    return slice(module_steps, &Cycle::module_steps, d);
  }
  [[nodiscard]] std::span<const std::uint32_t> latches_at(std::uint64_t d) const {
    return slice(latches, &Cycle::latches, d);
  }

 private:
  template <typename T>
  [[nodiscard]] std::span<const T> slice(const std::vector<T>& all,
                                         std::uint32_t Cycle::*begin,
                                         std::uint64_t d) const {
    const std::size_t first = cycles[d].*begin;
    const std::size_t end = d + 1 < cycles.size() ? cycles[d + 1].*begin
                                                  : all.size();
    return {all.data() + first, end - first};
  }
};

/// Lowers a design and its TRANS instance stream into the lane plan. The
/// levels come from `InstanceWalker`: a cycle fires its level's instances
/// in stream order, the order the event kernel's TRANS processes fire them
/// in, so the per-lane conflict order matches the per-instance engines
/// exactly. Update lists follow the event kernel's pending order (latches
/// in register order), less the entries that cannot change a lane's state. Expects every
/// instance inside 1..cs_max and none at `cr` (`CompiledDesign::compile`
/// checks both). Throws `std::invalid_argument` for an operation endpoint
/// on a module without an operation port.
[[nodiscard]] LanePlan lower_lane_plan(const Design& design,
                                       std::span<const TransInstance> instances);

}  // namespace ctrtl::transfer
