#pragma once

#include <optional>
#include <string>

#include "kernel/scheduler.h"
#include "rtl/controller.h"
#include "rtl/value.h"

namespace ctrtl::rtl {

/// The paper's REG entity (section 2.5): latches its resolved input at
/// phase `cr` whenever the input is not DISC; otherwise the old value is
/// kept. The output port starts at DISC and "always drives ... as soon as
/// the first value is assigned".
///
/// Note that an ILLEGAL input *is* latched (it is /= DISC), so a conflict
/// that reaches a register poisons it — this is deliberate in the paper's
/// model: conflicts stay visible.
///
/// `initial` preloads the register (models an external load before control
/// step 1, e.g. the IKS joint-position inputs).
class Register {
 public:
  /// `spawn_process == false` creates the ports without the latch process —
  /// in kCompiled mode the model's lane latches registers from its plan.
  Register(kernel::Scheduler& scheduler, Controller& controller, std::string name,
           std::optional<RtValue> initial = std::nullopt, bool spawn_process = true);

  Register(const Register&) = delete;
  Register& operator=(const Register&) = delete;

  /// Resolved input port — the sink of `wb` transfers.
  [[nodiscard]] kernel::Signal<RtValue>& in() { return in_; }
  /// Unresolved output port — the source of `ra` transfers.
  [[nodiscard]] kernel::Signal<RtValue>& out() { return out_; }
  [[nodiscard]] const kernel::Signal<RtValue>& out() const { return out_; }

  /// Current stored value (the effective value of the output port).
  [[nodiscard]] RtValue value() const { return out_.read(); }

  [[nodiscard]] const std::string& name() const { return name_; }

 private:
  kernel::Process run();

  Controller& controller_;
  std::string name_;
  std::optional<RtValue> initial_;
  kernel::Signal<RtValue>& in_;
  kernel::Signal<RtValue>& out_;
  kernel::DriverId out_driver_;
};

}  // namespace ctrtl::rtl
