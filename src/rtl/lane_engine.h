#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "kernel/scheduler.h"
#include "rtl/batch_runner.h"
#include "rtl/model.h"
#include "transfer/schedule.h"

namespace ctrtl::rtl {

/// Lane-parallel compiled execution of many instances of ONE design, and
/// the only compiled executor: `RtModel::run` in kCompiled mode is one lane
/// of it (`model_run`).
///
/// The six-phase control steps are fully static, so a design lowers into
/// straight-line per-delta-cycle tables. All instances of a batch share one
/// immutable action plan (`transfer::LanePlan`, lowered exactly once by
/// `CompiledDesign::compile`), while the per-instance mutable state —
/// signal values, sink contributions, module pipelines, register latches,
/// conflict records, kernel counters — is laid out structure-of-arrays with
/// one *lane* per instance. Every value lives in two planes, a one-byte tag
/// plane and an `int64` payload plane (0 for DISC and ILLEGAL), rather than
/// as a padded `RtValue`. Every fire/resolve/step/latch action then runs as
/// a tight inner loop over contiguous lanes, instead of re-walking the
/// schedule once per instance. The plan holds only lane-varying work: a
/// sink resolves from the drivers it names (the ones that fired in the
/// previous cycle), so releases never run; only the registers driven at
/// `wb` latch, and only the modules the plan lists step. ADD/SUB/MUL/COPY
/// modules step as per-block kernels over a ring of pipeline rows; only the
/// op-port kinds (ALU, MACC, CORDIC) keep one `transfer::ModuleSim` per
/// lane.
///
/// The engine object only refers to the compiled design's plan, so
/// constructing one costs no lowering, and one instance can be shared
/// read-only by any number of threads: `run_block` keeps all mutable lane
/// state on the caller's stack. `BatchRunner` shards a batch into
/// fixed-size lane blocks across its `kernel::BatchEngine` worker pool
/// (`BatchRunOptions::engine = BatchEngineKind::kCompiledLanes`).
///
/// Equivalence contract, per lane: final register values, conflicts with
/// the event kernel's exact `(step, phase)` pinning *and order*, and the
/// delta_cycles/events/updates/transactions counters are identical to an
/// event-kernel run of the same instance; through `model_run`, so is the
/// event trace. Verified by `verify::check_engine_equivalence` and the
/// differential sweep in tests/verify/engine_equivalence_test.cpp.
class LaneEngine {
 public:
  /// Per-instance external inputs: `(input name, value)` pairs applied in
  /// order before control step 1 (the `RtModel::set_input` protocol).
  /// A null provider means no instance sets any input.
  using InputProvider = BatchInputProvider;

  /// Runs the pre-compiled design's plan. The `CompiledDesign` (and the
  /// plan inside it) is retained read-only for the engine's lifetime.
  explicit LaneEngine(std::shared_ptr<const transfer::CompiledDesign> compiled);

  LaneEngine(const LaneEngine&) = delete;
  LaneEngine& operator=(const LaneEngine&) = delete;

  /// Simulates instances `first_instance .. first_instance + lanes - 1` in
  /// SoA lockstep and returns their results indexed by lane (so slot `i`
  /// is instance `first_instance + i`). Thread-safe: `const`, all mutable
  /// state is local to the call. `max_cycles` has `RtModel::run` semantics
  /// applied to every lane; `max_delta_cycles` arms the per-lane watchdog
  /// (`RunOptions::max_delta_cycles` semantics) — a trip marks the affected
  /// lanes' reports kWatchdogTripped with the same diagnostic the other
  /// engines emit, while already-quiescent lanes stay kOk. A lane whose
  /// input provider throws, or names an input the design lacks, reports
  /// kError with that message, no registers and zero counters; the other
  /// lanes run on. Anything else that throws (allocation) fails the block.
  [[nodiscard]] std::vector<InstanceResult> run_block(
      std::size_t first_instance, std::size_t lanes,
      const InputProvider& inputs,
      std::uint64_t max_cycles = kernel::Scheduler::kNoLimit,
      std::uint64_t max_delta_cycles = kernel::Scheduler::kNoLimit) const;

  /// One lane of `compiled`'s plan as `model`'s kCompiled run
  /// (`RtModel::set_compiled_run`), with `RtModel::run`'s contract: a call
  /// resumes where the last stopped, and `max_cycles`, the watchdog and
  /// quiescence act as on the event kernel. Each lane-value change is
  /// published with `set_effective` and dispatched to the event observers
  /// in the plan's update order (CS and PH last in a cycle, before the
  /// preloads in cycle 1), so traces and VCD match the event kernel's; the
  /// counts go to `external_stats()`. `model` must be elaborated in
  /// kCompiled mode from `compiled`'s design and must own the run.
  [[nodiscard]] static RtModel::CompiledRun model_run(
      std::shared_ptr<const transfer::CompiledDesign> compiled, RtModel& model);

  /// Sizes of the shared lowered tables (diagnostics, tests, tools).
  /// Everything here is per-design, independent of the lane count.
  struct TableStats {
    std::size_t cycles = 0;          ///< planned delta cycles incl. trailing
    std::size_t signals = 0;         ///< distinct signals in the value table
    std::size_t resolved_sinks = 0;  ///< distinct transfer sink signals
    std::size_t drivers = 0;         ///< total sink contributions per lane
    std::size_t fire_actions = 0;
    std::size_t release_actions = 0;  ///< one per fire, counted, never run
    std::size_t update_entries = 0;
    std::size_t modules = 0;
    std::size_t registers = 0;
  };
  [[nodiscard]] TableStats table_stats() const;

  [[nodiscard]] const transfer::CompiledDesign& compiled() const {
    return *compiled_;
  }

  /// The plan this engine runs: `compiled().plan`, shared by every engine
  /// over the same compiled design.
  [[nodiscard]] const transfer::LanePlan& plan() const {
    return compiled_->plan;
  }

 private:
  using SinkSlot = transfer::LanePlan::SinkSlot;

  struct LaneBlock;  // mutable SoA state, defined in the .cpp

  [[nodiscard]] LaneBlock start_block(
      std::size_t first_instance, std::size_t lanes, const InputProvider& inputs,
      std::vector<std::pair<std::size_t, std::string>>& input_failures) const;
  template <typename Publish>
  void advance(LaneBlock& block, std::uint64_t max_cycles,
               std::uint64_t max_delta_cycles, Publish& publish) const;
  template <typename Publish>
  void execute_cycle(std::uint64_t ordinal, LaneBlock& block,
                     Publish& publish) const;
  [[nodiscard]] kernel::KernelStats lane_stats(const LaneBlock& block,
                                               std::size_t lane) const;

  std::shared_ptr<const transfer::CompiledDesign> compiled_;
};

}  // namespace ctrtl::rtl
