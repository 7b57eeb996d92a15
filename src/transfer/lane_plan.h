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
struct StaticSchedule;

/// The lane engine's action tables for one design: the signal table, the
/// sink slots with their statically assigned drivers, and for every delta
/// cycle its fires, releases, update entries and lane-uniform counter
/// increments. Lowered once by `CompiledDesign::compile` and shared
/// read-only by every `rtl::LaneEngine` over that design, so a cache hit in
/// `ctrtl_serve` reuses the plan instead of rebuilding it.
///
/// Stored flat: all fires, releases and update entries of the run sit in
/// one array each, in delta-cycle order, and each `Cycle` holds the offsets
/// of its slices (`fires_at`, `releases_at`, `updates_at`). Declarations
/// are referred to by index: module `m` is `design.modules[m]` and register
/// `r` is `design.registers[r]`.
struct LanePlan {
  static constexpr std::uint32_t kNoSignal = 0xffffffffu;

  /// One transfer sink signal with its statically assigned drivers. The
  /// per-lane contribution values and resolution counters live in the
  /// engine's block state; this holds only the shared layout.
  struct SinkSlot {
    std::uint32_t signal = 0;        ///< value-table index
    std::uint32_t contrib_base = 0;  ///< first row in the contribution table
    std::uint32_t drivers = 0;
  };

  struct Fire {
    std::uint32_t slot = 0;
    std::uint32_t driver = 0;
    std::uint32_t source = 0;  ///< value-table index
  };

  struct Release {
    std::uint32_t slot = 0;
    std::uint32_t driver = 0;
  };

  struct Update {
    enum class Kind : std::uint8_t {
      kSink,         ///< re-resolve sink slot `index` (conflict-monitored)
      kModuleOut,    ///< module `index` output takes its pending value
      kRegisterOut,  ///< register `index` output takes its latch, if dirty
    };
    Kind kind = Kind::kSink;
    std::uint32_t index = 0;
  };

  /// Everything one delta cycle does besides its action slices, shared by
  /// all lanes. CS/PH assignments never carry lane-varying state, so they
  /// are folded into the lane-uniform counter increments instead of update
  /// entries.
  struct Cycle {
    std::uint32_t fires = 0;     ///< offset of the first fire in `fires`
    std::uint32_t releases = 0;  ///< offset of the first release
    std::uint32_t updates = 0;   ///< offset of the first update entry
    /// Counter increments identical for every lane this cycle: updates from
    /// CS/PH/sink/module-out entries, events from CS/PH (each assignment on
    /// the phase wheel changes the value), transactions from
    /// fires/releases/module evaluations/controller drives.
    std::uint32_t uniform_updates = 0;
    std::uint32_t uniform_events = 0;
    std::uint32_t uniform_transactions = 0;
    unsigned step = 0;
    rtl::Phase phase = rtl::Phase::kRa;
    bool eval_modules = false;
    bool latch_registers = false;
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
  std::vector<Release> releases;
  std::vector<Update> updates;

  std::uint64_t wheel_cycles = 0;  ///< cs_max * kPhasesPerStep
  bool trailing_has_static_updates = false;
  std::size_t init_transactions = 0;

  [[nodiscard]] std::span<const Fire> fires_at(std::uint64_t d) const {
    return slice(fires, &Cycle::fires, d);
  }
  [[nodiscard]] std::span<const Release> releases_at(std::uint64_t d) const {
    return slice(releases, &Cycle::releases, d);
  }
  [[nodiscard]] std::span<const Update> updates_at(std::uint64_t d) const {
    return slice(updates, &Cycle::updates, d);
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

/// Lowers a design and its static schedule into the lane plan: identical
/// slot/driver assignment and fire/release placement to
/// `rtl::CompiledEngine` (level order == `RtModel` add order, so the
/// per-lane conflict order matches the per-instance engines exactly) and
/// the event kernel's pending order as static update lists. Throws
/// `std::invalid_argument` for an operation endpoint on a module without
/// an operation port.
[[nodiscard]] LanePlan lower_lane_plan(const Design& design,
                                       const StaticSchedule& schedule);

}  // namespace ctrtl::transfer
