#pragma once

#include <memory>
#include <span>

#include "rtl/model.h"
#include "transfer/design.h"
#include "transfer/schedule.h"

namespace ctrtl::transfer {

/// Elaborates a `Design` into an executable `rtl::RtModel`:
/// resources become Register/Module/bus objects, each 9-tuple expands into
/// its TRANS instances (the paper's forward mapping), and op codes become
/// implicit constant sources feeding module operation ports.
///
/// Throws `std::invalid_argument` (with the full diagnostic text) when the
/// design does not validate. `mode` selects the transfer execution scheme:
/// paper-faithful TRANS processes, the indexed dispatcher ablation, or
/// `rtl::TransferMode::kCompiled`, which compiles the design
/// (`CompiledDesign::compile`) and runs one lane of its plan. Every mode
/// receives the same instances in the same stream order.
[[nodiscard]] std::unique_ptr<rtl::RtModel> build_model(
    const Design& design,
    rtl::TransferMode mode = rtl::TransferMode::kProcessPerTransfer);

/// Elaborates `design`'s resources but instantiates the explicit TRANS
/// `instances` stream instead of expanding the design's own tuples — the
/// fault-injection path (`fault::apply_plan` transforms the canonical
/// stream). The op-code constants still derive from the design's tuples, so
/// op-port instances resolve regardless of how the stream was transformed.
/// Stream order is the spawn order (and the order within a level in every
/// mode), preserving engine parity for any transformed stream.
[[nodiscard]] std::unique_ptr<rtl::RtModel> build_model(
    const Design& design, std::span<const TransInstance> instances,
    rtl::TransferMode mode = rtl::TransferMode::kProcessPerTransfer);

/// Elaborates from an already-compiled design: the stream stored in
/// `compiled.instances` (faulted or not) in every mode, without validating
/// again — `CompiledDesign::compile` did that once for a whole batch of
/// instances. In kCompiled mode the model runs `compiled.plan` as one lane
/// of `rtl::LaneEngine` and shares ownership of `compiled`.
[[nodiscard]] std::unique_ptr<rtl::RtModel> build_model(
    const CompiledDesign& compiled,
    rtl::TransferMode mode = rtl::TransferMode::kDispatch);

/// Resolves a symbolic endpoint to its signal in an elaborated model.
/// Throws `std::invalid_argument` when the endpoint names nothing.
[[nodiscard]] rtl::RtSignal& endpoint_signal(rtl::RtModel& model,
                                             const Endpoint& endpoint);

/// The per-module latency map of a design (used by `merge_partials` and the
/// clocked back end).
[[nodiscard]] std::map<std::string, unsigned> latency_map(const Design& design);

}  // namespace ctrtl::transfer
