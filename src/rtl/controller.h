#pragma once

#include <array>
#include <span>
#include <string>

#include "kernel/scheduler.h"
#include "rtl/phase.h"

namespace ctrtl::rtl {

/// The paper's CONTROLLER entity (section 2.2): drives the control-step
/// counter `CS` and the phase signal `PH` with delta delay only.
///
/// Initial state is `CS = 0, PH = cr` (`Phase'High`), so the very first
/// delta cycle opens control step 1 at phase `ra`. When step `cs_max`
/// reaches `cr` no further assignment is made and the simulation becomes
/// quiescent — a complete run is exactly `cs_max * 6` delta cycles.
class Controller {
 public:
  using StepSignal = kernel::Signal<unsigned>;
  using PhaseSignal = kernel::Signal<Phase>;

  /// `spawn_process == false` creates the CS/PH signals without the driving
  /// process — used in kCompiled mode, where the model's lane advances the
  /// phase wheel itself (rtl::LaneEngine::model_run).
  Controller(kernel::Scheduler& scheduler, unsigned cs_max,
             std::string name = "CONTROL", bool spawn_process = true);

  Controller(const Controller&) = delete;
  Controller& operator=(const Controller&) = delete;

  [[nodiscard]] StepSignal& cs() { return cs_; }
  [[nodiscard]] const StepSignal& cs() const { return cs_; }
  [[nodiscard]] PhaseSignal& ph() { return ph_; }
  [[nodiscard]] const PhaseSignal& ph() const { return ph_; }
  [[nodiscard]] unsigned cs_max() const { return cs_max_; }

  /// Expected number of delta cycles for a full run of this controller.
  [[nodiscard]] std::uint64_t expected_delta_cycles() const {
    return static_cast<std::uint64_t>(cs_max_) * kPhasesPerStep;
  }

  /// Maps a delta-cycle ordinal (1-based, as counted by the kernel) back to
  /// the (control step, phase) it realizes. This is the "close relationship
  /// of control step phases to the VHDL simulation delta cycle" the paper
  /// relies on for locating design errors.
  [[nodiscard]] static std::pair<unsigned, Phase> locate(std::uint64_t delta_ordinal);

  /// Shared sensitivity lists for component processes: every register and
  /// module waits on {PH}, every TRANS on {CS, PH}. Borrowing these spans
  /// (kernel::wait_on span overload) means no per-process sensitivity
  /// storage and no allocation when a process re-suspends.
  [[nodiscard]] std::span<kernel::SignalBase* const> ph_sensitivity() const {
    return {ph_sensitivity_.data(), ph_sensitivity_.size()};
  }
  [[nodiscard]] std::span<kernel::SignalBase* const> cs_ph_sensitivity() const {
    return {cs_ph_sensitivity_.data(), cs_ph_sensitivity_.size()};
  }

 private:
  kernel::Process run();

  kernel::Scheduler& scheduler_;
  unsigned cs_max_;
  StepSignal& cs_;
  PhaseSignal& ph_;
  kernel::DriverId cs_driver_;
  kernel::DriverId ph_driver_;
  std::array<kernel::SignalBase*, 1> ph_sensitivity_;
  std::array<kernel::SignalBase*, 2> cs_ph_sensitivity_;
};

}  // namespace ctrtl::rtl
