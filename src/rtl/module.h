#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "kernel/scheduler.h"
#include "rtl/controller.h"
#include "rtl/value.h"

namespace ctrtl::rtl {

/// Base class of the paper's arithmetical/logical modules (section 2.6).
///
/// A module has resolved input ports (sinks of `rb` transfers), an
/// unresolved output port (source of `wa` transfers), and an optional
/// resolved *operation port* implementing the section 3 extension ("a
/// register transfer also defines the operation to be performed by the
/// module") — the op code travels to the module exactly like an operand.
///
/// Timing: the module computes at phase `cm`. With `latency == 0` the
/// result is combinational within the control step (the IKS adders). With
/// `latency == L >= 1` the module is pipelined: operands fetched in step
/// `s` appear at the output in step `s + L` (the paper's ADD has L = 1, the
/// IKS multiplier L = 2). A pipelined module whose pipeline has been fed an
/// ILLEGAL value freezes in that state — the paper's `if M /= ILLEGAL`
/// guard — so conflicts stay visible for the rest of the run.
///
/// Operand discipline (paper's ADD generalized): considering the first
/// `arity_for(op)` inputs, all-DISC yields DISC, all-values yields
/// `compute(...)`, and any mix (or any ILLEGAL anywhere) yields ILLEGAL.
class Module {
 public:
  struct Config {
    unsigned num_inputs = 2;
    unsigned latency = 1;
    bool has_op_port = false;
  };

  Module(kernel::Scheduler& scheduler, Controller& controller, std::string name,
         Config config);
  virtual ~Module() = default;

  Module(const Module&) = delete;
  Module& operator=(const Module&) = delete;

  [[nodiscard]] kernel::Signal<RtValue>& input(std::size_t index);
  [[nodiscard]] kernel::Signal<RtValue>& op_port();
  [[nodiscard]] kernel::Signal<RtValue>& out() { return *out_; }
  [[nodiscard]] const kernel::Signal<RtValue>& out() const { return *out_; }

  [[nodiscard]] const std::string& name() const { return name_; }
  [[nodiscard]] const Config& config() const { return config_; }
  [[nodiscard]] bool poisoned() const { return poisoned_; }

  /// Call after construction wiring is complete; spawns the module process.
  /// `RtModel` does this automatically (except in kCompiled mode, where the
  /// model's lane steps its own copy of the module from the plan).
  void start(kernel::Scheduler& scheduler);

 protected:
  /// Combines operand payloads under `op` (0 when there is no op port).
  /// Only called when the operand discipline is satisfied.
  [[nodiscard]] virtual std::int64_t compute(std::span<const std::int64_t> operands,
                                             std::int64_t op) = 0;

  /// How many leading inputs the given op consumes. Defaults to all inputs.
  [[nodiscard]] virtual unsigned arity_for(std::int64_t op) const;

  /// Full evaluation hook (one call per `cm` phase while healthy). The
  /// default enforces the operand discipline above; stateful modules (MACC)
  /// override it.
  [[nodiscard]] virtual RtValue evaluate(std::span<const RtValue> operands,
                                         const RtValue& op);

 private:
  kernel::Process run();

  /// One `cm`-phase step of the module process: evaluates the operands
  /// (combinationally for latency 0, otherwise advancing the pipeline with
  /// the paper's poisoned-freeze guard) and returns the value the output
  /// port shows next.
  [[nodiscard]] RtValue advance(std::span<const RtValue> operands, const RtValue& op);

  Controller& controller_;
  std::string name_;
  Config config_;
  std::vector<kernel::Signal<RtValue>*> inputs_;
  kernel::Signal<RtValue>* op_ = nullptr;
  kernel::Signal<RtValue>* out_ = nullptr;
  kernel::DriverId out_driver_ = 0;
  /// A ring of min(latency, cs_max + 1) stages: a run has cs_max `cm`
  /// steps, so a deeper pipeline would never deliver a value either.
  std::vector<RtValue> pipeline_;
  std::size_t oldest_ = 0;  ///< the stage the next `advance` outputs
  std::vector<std::int64_t> scratch_payloads_;
  bool poisoned_ = false;
  bool started_ = false;
};

}  // namespace ctrtl::rtl
