#pragma once

#include <cstddef>
#include <memory>
#include <string>
#include <vector>

#include "transfer/design.h"
#include "transfer/lane_plan.h"
#include "transfer/tuple.h"

namespace ctrtl::transfer {

/// One level of the statically lowered six-phase schedule: the TRANS
/// instances that fire (drive source -> sink) at the delta cycle realizing
/// `(step, phase)`. Every instance implicitly releases (drives DISC) at the
/// next level — the level list therefore *is* the compiled engine's action
/// table in symbolic form.
struct ScheduleLevel {
  unsigned step = 0;
  rtl::Phase phase = rtl::Phase::kRa;
  std::vector<TransInstance> fires;
};

/// A `Design` lowered onto the phase wheel: one level per delta ordinal
/// (1..cs_max*6, in execution order), plus the canonical levelized module
/// evaluation order and occupancy statistics.
///
/// The six-phase discipline makes this levelization trivial in the best
/// sense: a fire's level is syntactically known (`(step-1)*6 + phase`), and
/// within one `cm` cycle all module evaluations are mutually independent
/// (an output only becomes visible one delta cycle later), so *any*
/// intra-level order computes the same values. The compiled engine still
/// needs a canonical order for event/trace parity with the event kernel —
/// levels preserve instance declaration order, and `module_order` sorts
/// modules topologically by producer->consumer data dependencies (declaration
/// order breaks ties and register-feedback cycles).
struct StaticSchedule {
  std::string design_name;
  unsigned cs_max = 0;
  /// levels[i] is delta ordinal i+1; exactly cs_max * 6 entries.
  std::vector<ScheduleLevel> levels;
  /// Module names in levelized (dependency-topological) evaluation order.
  std::vector<std::string> module_order;

  struct Occupancy {
    std::size_t instances = 0;        ///< total TRANS instances lowered
    std::size_t occupied_levels = 0;  ///< levels with at least one fire
    std::size_t busiest_level = 0;    ///< max fires in any single level
  };
  Occupancy occupancy;

  /// The level realizing `(step, phase)`; nullptr when out of range.
  [[nodiscard]] const ScheduleLevel* level(unsigned step, rtl::Phase phase) const;
};

/// Lowers a validated design into its static schedule. Throws
/// `std::invalid_argument` when the design does not validate or when an
/// instance fires at phase `cr` (which has no release level — the same
/// restriction `rtl::RtModel::add_transfer` enforces in compiled mode).
[[nodiscard]] StaticSchedule lower_schedule(const Design& design);

/// Same lowering, but from an explicit TRANS instance stream instead of the
/// design's own tuples. This is the fault-injection entry point: a
/// `fault::FaultPlan` transforms the canonical instance stream (drop,
/// rewrite, append) and the transformed stream must reach every engine
/// unchanged. Stream order is preserved within each level — instances keep
/// the relative order the equivalent TRANS processes would be spawned in.
[[nodiscard]] StaticSchedule lower_schedule(const Design& design,
                                            std::vector<TransInstance> instances);

/// A design paired with its statically lowered schedule and the lane
/// engine's plan, both lowered exactly once. Every consumer — per-instance
/// compiled models, the lane engine, tools — shares the same immutable
/// tables read-only; the shared_ptr makes the sharing explicit across
/// `rtl::BatchRunner` instances and worker threads (lowering N times for an
/// N-instance batch was pure elaboration overhead, see
/// build_model(const CompiledDesign&)). `ctrtl_serve` caches this object,
/// so a cache hit runs without rebuilding any table.
struct CompiledDesign {
  Design design;
  StaticSchedule schedule;
  /// What `rtl::LaneEngine` executes (`lower_lane_plan` over `schedule`).
  LanePlan plan;

  /// Validates and lowers `design` (throws like `lower_schedule`, and like
  /// `lower_lane_plan`).
  [[nodiscard]] static std::shared_ptr<const CompiledDesign> compile(Design design);

  /// Validates `design` but lowers the explicit `instances` stream instead
  /// of the design's own tuples (the fault-injection path).
  [[nodiscard]] static std::shared_ptr<const CompiledDesign> compile(
      Design design, std::vector<TransInstance> instances);
};

/// Human-readable rendering, one line per occupied level:
///   "step 5 ra   | R1.out -> B1, R2.out -> B2"
/// followed by the module order and occupancy summary. Used by
/// `ctrtl_design --engine=compiled` diagnostics and the docs.
[[nodiscard]] std::string to_text(const StaticSchedule& schedule);

}  // namespace ctrtl::transfer
