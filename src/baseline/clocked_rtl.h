#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "clocked/translate.h"
#include "kernel/scheduler.h"
#include "rtl/value.h"
#include "verify/trace.h"

namespace ctrtl::baseline {

/// The executable clocked implementation of a translated design, simulated
/// as conventional RTL: a clock generator running in *physical time*, one
/// process per flip-flop group (registers, pipeline stages, step counter)
/// triggered by the clock, plus combinational mux processes that
/// re-evaluate whenever their inputs change. This is the "usual RT model"
/// the paper positions itself against — functionally equivalent but with
/// clock-edge and combinational event traffic on every cycle.
///
/// Both `clocked::ClockScheme`s run on the same processes. With one cycle
/// per step, units, registers and the step counter all act on every rising
/// edge. With two, units evaluate on the compute edge and keep one more
/// pipeline stage, and registers and the step counter act on the latch edge.
///
/// Used as the clocked baseline of experiment E6 (events/wall-time per
/// clock cycle vs the clock-free model) and as experiment E7's clocked side:
/// the per-step register write trace must equal the clock-free model's
/// under either scheme (`verify::compare_write_traces`).
class ClockedRtlSim {
 public:
  /// The clock period.
  static constexpr std::uint64_t kPeriodFs = 1'000'000;

  /// Throws std::invalid_argument when the scheme's clock cycle count does
  /// not fit a `Result::clock_cycles`.
  explicit ClockedRtlSim(
      const clocked::TranslationPlan& plan,
      clocked::ClockScheme scheme = clocked::ClockScheme::kOneCyclePerStep);
  ~ClockedRtlSim();

  ClockedRtlSim(const ClockedRtlSim&) = delete;
  ClockedRtlSim& operator=(const ClockedRtlSim&) = delete;

  struct Result {
    kernel::KernelStats stats;
    std::uint64_t kernel_cycles = 0;
    unsigned clock_cycles = 0;
    /// Physical time consumed (fs) — nonzero, unlike the clock-free model.
    std::uint64_t elapsed_fs = 0;
  };

  /// Runs the clock for the scheme's number of cycles.
  Result run();

  [[nodiscard]] rtl::RtValue register_value(const std::string& name) const;
  void set_input(const std::string& name, rtl::RtValue value);

  /// Register writes committed so far, tagged with the control step whose
  /// cycle performed them (directly comparable with the abstract model's
  /// verify::RegisterWriteTrace, preloads excluded).
  [[nodiscard]] const std::vector<verify::RegisterWrite>& writes() const {
    return writes_;
  }
  [[nodiscard]] kernel::Scheduler& scheduler() { return *scheduler_; }

  struct Impl;

 private:
  std::unique_ptr<kernel::Scheduler> scheduler_;
  std::unique_ptr<Impl> impl_;
  std::vector<verify::RegisterWrite> writes_;
  unsigned clock_cycles_ = 0;
};

}  // namespace ctrtl::baseline
