#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "transfer/design.h"

namespace ctrtl::clocked {

/// One operand feeding a module in a specific control step (a mux entry in
/// the clocked implementation).
struct OperandSelect {
  unsigned port = 0;
  transfer::Endpoint source;

  friend bool operator==(const OperandSelect&, const OperandSelect&) = default;
};

/// Per-module read activity in one step: which sources feed which ports and
/// which operation is selected.
struct ModuleActivation {
  std::vector<OperandSelect> operands;
  std::optional<std::int64_t> op;
};

/// Per-register write activity: in step `step`, register latches the output
/// of `module`.
struct WriteSelect {
  unsigned step = 0;
  std::string module;

  friend bool operator==(const WriteSelect&, const WriteSelect&) = default;
};

/// How control steps map onto clock cycles — the paper: "of course, there
/// are different ways to implement control steps."
enum class ClockScheme : std::uint8_t {
  /// One clock cycle per control step: units evaluate and registers latch
  /// on the same edge (mux-based interconnect).
  kOneCyclePerStep,
  /// Two clock cycles per control step: a compute edge (units evaluate and
  /// advance their pipelines) followed by a latch edge (registers commit).
  /// Slower in cycles, looser timing per cycle — a second legal low-level
  /// architecture for the same abstract model.
  kTwoCyclesPerStep,
};

/// The control-step → clock-cycle translation of a design (the paper's
/// "succeeding synthesis step ... performed by commercial synthesis tools").
///
/// Buses dissolve into operand/write multiplexers selected by a step
/// counter, registers become D-flip-flops with hold paths, pipelined modules
/// keep internal stage registers. A `ClockScheme` then fixes how many clock
/// cycles one control step takes: each is one of the "several low-level
/// architectures" the abstract model admits.
struct TranslationPlan {
  /// Owned copy: the plan (and models built from it) are self-contained.
  transfer::Design design;
  /// module name -> (read step -> activation)
  std::map<std::string, std::map<unsigned, ModuleActivation>> module_schedule;
  /// register name -> write mux entries (sorted by step)
  std::map<std::string, std::vector<WriteSelect>> register_schedule;
  /// clock cycles of the one-cycle scheme: cs_max + 1 (final writes latch
  /// on the edge that ends step cs_max)
  unsigned clock_cycles = 0;

  [[nodiscard]] std::string to_text() const;
};

/// Builds the plan. Requires a valid design whose static conflict analysis
/// is clean — translating a schedule with resource conflicts would bake the
/// bug into hardware, so it is rejected with std::invalid_argument (this is
/// exactly the paper's point about catching conflicts at the abstract
/// level). A cs_max whose cycle count does not fit `clock_cycles` is
/// rejected the same way.
[[nodiscard]] TranslationPlan plan_translation(const transfer::Design& design);

}  // namespace ctrtl::clocked
