#pragma once

#include <cstdint>
#include <map>
#include <span>
#include <string>

#include "fault/inject.h"
#include "transfer/design.h"
#include "transfer/tuple.h"
#include "verify/oracle_check.h"

namespace ctrtl::gen {

/// The conflict oracle: predicts, from the TRANS instance stream alone —
/// without simulating — the exact (step, phase) and signal of every ILLEGAL
/// conflict record, every driven-sink DISC resolution, and the final
/// DISC/ILLEGAL/value classification of each register.
///
/// The paper's tuple <-> TRANS mapping (section 2.7) makes each fire's
/// level syntactically known, so the oracle runs the same six-phase
/// transition system as `verify::evaluate` (`transfer::walk_phases`) over
/// the three-point domain {DISC, value, ILLEGAL} plus known constant
/// payloads. The abstraction is *exact* for this model class because every
/// rule that separates the classes — the section 2.3 resolution function,
/// the module operand discipline, pipeline poisoning, register latching —
/// depends only on the class of its inputs, never on a payload. The single
/// exception is the operation-port arity lookup, which needs the op's
/// concrete code; op ports are fed by op constants (or fault-plan
/// constants), whose payloads the stream carries syntactically. A stream that drives an op
/// port from a payload the oracle cannot know statically (impossible via
/// `to_instances` and `fault::apply_plan`) throws std::domain_error.
///
/// `inputs` only matters as a presence set: a provided external input is a
/// value, an unprovided one reads DISC.
///
/// Throws std::invalid_argument when the design does not validate.
[[nodiscard]] verify::OutcomePrediction predict_outcomes(
    const transfer::Design& design,
    std::span<const transfer::TransInstance> instances,
    const std::map<std::string, std::int64_t>& inputs = {});

/// Prediction over the design's canonical instance stream.
[[nodiscard]] verify::OutcomePrediction predict_outcomes(
    const transfer::Design& design,
    const std::map<std::string, std::int64_t>& inputs = {});

/// Re-prediction under a fault plan: the oracle walks the *transformed*
/// stream, so stuck-disc reads vanish, forced contributions contend, and
/// dropped transfers leave DISC exactly where every engine observes them.
[[nodiscard]] verify::OutcomePrediction predict_outcomes(
    const fault::FaultedDesign& faulted,
    const std::map<std::string, std::int64_t>& inputs = {});

}  // namespace ctrtl::gen
