#pragma once

#include <span>
#include <vector>

#include "transfer/tuple.h"

namespace ctrtl::transfer {

/// Read-only view of a TRANS instance stream grouped onto the phase wheel:
/// for every level `(step, phase)` of a cs_max-step run, the instances that
/// *fire* (drive source -> sink) at that level, in stream order. A fire's
/// level is syntactically known (`(step-1)*6 + phase`, paper §2.7), so this
/// is the only levelization the system needs: the lane plan
/// (`lower_lane_plan`), the reference semantics and the conflict oracle all
/// walk the exact execution structure every engine realizes through it.
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

}  // namespace ctrtl::transfer
