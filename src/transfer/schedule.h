#pragma once

#include <memory>
#include <vector>

#include "transfer/design.h"
#include "transfer/lane_plan.h"
#include "transfer/tuple.h"

namespace ctrtl::transfer {

/// A design paired with the TRANS instance stream every engine runs and
/// the lane engine's plan, lowered exactly once. Every consumer —
/// per-instance models (`build_model(const CompiledDesign&)`), the lane
/// engine, tools — shares the same immutable object read-only; the
/// shared_ptr makes the sharing explicit across `rtl::BatchRunner`
/// instances and worker threads. `ctrtl_serve` caches this object, so a
/// cache hit runs without rebuilding any table. Only `compile` makes one,
/// so every `CompiledDesign` is owned by a shared_ptr (`shared_from_this`).
struct CompiledDesign : std::enable_shared_from_this<CompiledDesign> {
  Design design;
  /// In stream order: the design's own tuples expanded (`to_instances`),
  /// or the stream a `fault::FaultPlan` transformed. Every step lies in
  /// 1..cs_max and no instance fires at `cr`.
  std::vector<TransInstance> instances;
  /// What `rtl::LaneEngine` executes (`lower_lane_plan` over `instances`).
  LanePlan plan;

  /// Validates `design` and lowers its own tuples. Throws
  /// `std::invalid_argument` when the design does not validate, and like
  /// `lower_lane_plan`.
  [[nodiscard]] static std::shared_ptr<const CompiledDesign> compile(Design design);

  /// Validates `design` but lowers the explicit `instances` stream instead
  /// of the design's own tuples (the fault-injection path). Also throws
  /// `std::invalid_argument` for an instance whose step lies outside
  /// 1..cs_max or that fires at phase `cr` (which has no release phase).
  [[nodiscard]] static std::shared_ptr<const CompiledDesign> compile(
      Design design, std::vector<TransInstance> instances);
};

}  // namespace ctrtl::transfer
