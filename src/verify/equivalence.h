#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "fault/inject.h"
#include "transfer/design.h"
#include "verify/semantics.h"
#include "verify/trace.h"

namespace ctrtl::verify {

/// Outcome of a consistency/equivalence check; empty `mismatches` means the
/// two sides agree.
struct CheckReport {
  std::vector<std::string> mismatches;

  [[nodiscard]] bool consistent() const { return mismatches.empty(); }
  [[nodiscard]] std::string to_text() const;
};

/// The paper's semantics-consistency theorem, checked mechanically: runs a
/// design through BOTH the reference transition-system semantics
/// (`verify::evaluate`) and the event-driven kernel (`transfer::build_model`
/// + simulate), and compares
///   - final register values,
///   - the full conflict record (signal, step, phase — order-insensitive),
///   - the delta-cycle count against cs_max * 6.
[[nodiscard]] CheckReport check_consistency(
    const transfer::Design& design,
    const std::map<std::string, std::int64_t>& inputs = {});

/// Differential check of the compiled executor against the event kernel,
/// the independent side: elaborates `design` once with paper-faithful TRANS
/// processes and once in `rtl::TransferMode::kCompiled` (one lane of the
/// design's `LanePlan`, publishing onto the model's signals), runs both on
/// the same inputs, and compares
///   - final register values,
///   - the full conflict record (exact order — the lane pins conflicts to
///     the same (step, phase) delta cycles),
///   - delta-cycle counts and the event/update/transaction counters,
///   - the complete signal-event trace (every event, in order, with the
///     same SimTime — i.e. VCD output is identical).
///
/// The lane engine's block run (`rtl::LaneEngine::run_block`) is checked as
/// a third side against the event kernel — final registers, ordered
/// conflicts, and all counters, both as a single-lane block and as an inner
/// lane of a multi-lane block.
[[nodiscard]] CheckReport check_engine_equivalence(
    const transfer::Design& design,
    const std::map<std::string, std::int64_t>& inputs = {});

/// Fault-sweep mode of the same differential check: all three engines
/// execute the *faulted* instance stream (`fault::apply_plan` output)
/// through the fault facade, and must agree on everything the clean check
/// compares — registers, ordered conflicts, counters, and the full event
/// trace. This is the tentpole property: a fault plan is an instance-stream
/// transformation, so engine equivalence must survive any plan.
[[nodiscard]] CheckReport check_engine_equivalence(
    const fault::FaultedDesign& faulted,
    const std::map<std::string, std::int64_t>& inputs = {});

/// Compares two register-write traces (e.g. abstract vs clocked
/// implementations of the same schedule). Writes must agree in per-register
/// order and value; `ignore_preload` drops step-0 entries (initial loads)
/// before comparing.
[[nodiscard]] CheckReport compare_write_traces(
    const std::vector<RegisterWrite>& expected,
    const std::vector<RegisterWrite>& actual, bool ignore_preload = false);

}  // namespace ctrtl::verify
