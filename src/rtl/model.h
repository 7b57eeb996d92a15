#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "kernel/scheduler.h"
#include "rtl/controller.h"
#include "rtl/module.h"
#include "rtl/register.h"
#include "rtl/report.h"
#include "rtl/transfer_process.h"
#include "rtl/value.h"

namespace ctrtl::rtl {

/// A resource conflict observed during simulation: a resolved signal took
/// the ILLEGAL value. Per the paper (section 2.7), the delta cycle at which
/// this happens identifies "a specific phase of a specific control step" —
/// `step`/`phase` is where the ILLEGAL value became visible, and the
/// conflicting transfers fired in the preceding phase.
struct Conflict {
  std::string signal;
  unsigned step = 0;
  Phase phase = Phase::kRa;

  friend bool operator==(const Conflict&, const Conflict&) = default;
};

/// "conflict on B1 at step 5, phase rb (driven at ra)"
std::string to_string(const Conflict& conflict);

/// Bounds for a guarded run. `max_cycles` is the historical silent cap (the
/// run simply stops); `max_delta_cycles` arms the watchdog, which converts
/// non-convergence into a `RunReport` diagnostic with (step, phase)
/// provenance. When both bounds coincide the silent cap wins: the loop bound
/// is checked before the watchdog on every engine, which keeps their reports
/// byte-equal.
struct RunOptions {
  std::uint64_t max_cycles = kernel::Scheduler::kNoLimit;
  std::uint64_t max_delta_cycles = kernel::Scheduler::kNoLimit;
};

/// Outcome of simulating an `RtModel`.
struct RunResult {
  kernel::KernelStats stats;
  std::uint64_t cycles = 0;
  std::vector<Conflict> conflicts;
  /// Guarded-execution outcome; `report.ok()` unless the watchdog tripped.
  RunReport report;

  [[nodiscard]] bool conflict_free() const { return conflicts.empty(); }
};

/// How register transfers are executed.
enum class TransferMode : std::uint8_t {
  /// One TRANS process per tuple fragment, exactly the paper's VHDL: every
  /// suspended process re-evaluates its `wait until CS=S and PH=P`
  /// condition on each phase event (LRM semantics, O(transfers) work per
  /// delta cycle).
  kProcessPerTransfer,
  /// One dispatcher process with a delta-ordinal-indexed action table: the
  /// same drives on the same drivers at the same delta cycles (observable
  /// behaviour identical, conflicts included), but O(active transfers) work
  /// per delta. This is the indexing a production simulator would apply to
  /// the subset's stylized wait conditions; see bench_vs_handshake.
  kDispatch,
  /// No processes at all: `transfer::build_model` lowers the design to its
  /// `LanePlan` and `run` executes it as one lane of the `LaneEngine`
  /// (classic levelized compiled-code simulation). Delta-cycle-exact with
  /// the event-driven modes — same values, events, conflicts, and trace
  /// order.
  kCompiled,
};

/// A concrete register transfer model (paper section 2.7): one controller,
/// registers, modules, buses, constants, and transfer processes, all built
/// on one kernel scheduler.
///
/// Construction mirrors the paper's structural VHDL: `add_register`,
/// `add_module`, `add_bus` allocate resources; `add_transfer` instantiates
/// a TRANS process moving a value between a source port/bus and a sink
/// port/bus at a given (step, phase).
class RtModel {
 public:
  explicit RtModel(unsigned cs_max,
                   TransferMode mode = TransferMode::kProcessPerTransfer);
  ~RtModel();

  RtModel(const RtModel&) = delete;
  RtModel& operator=(const RtModel&) = delete;

  [[nodiscard]] kernel::Scheduler& scheduler() { return *scheduler_; }
  [[nodiscard]] Controller& controller() { return *controller_; }
  [[nodiscard]] unsigned cs_max() const { return controller_->cs_max(); }

  /// A bus: a resolved RtValue signal usable as transfer source and sink.
  RtSignal& add_bus(const std::string& name);

  Register& add_register(const std::string& name,
                         std::optional<RtValue> initial = std::nullopt);

  /// A read-only value source (models literal operands such as the `0` in
  /// the IKS micro-operation `X := 0 + Rshift(x2, i)`).
  RtSignal& add_constant(const std::string& name, std::int64_t value);

  /// An external input port; set with `set_input` before `run`. A
  /// kCompiled model takes its inputs once, at its first run: `set_input`
  /// after that throws `std::logic_error`.
  RtSignal& add_input(const std::string& name);
  void set_input(const std::string& name, RtValue value);

  /// Constructs a module of type `M` (constructor signature
  /// `M(scheduler, controller, name, extra args...)`) and starts its process.
  template <typename M, typename... Args>
  M& add_module(const std::string& name, Args&&... args) {
    auto module = std::make_unique<M>(*scheduler_, *controller_, name,
                                      std::forward<Args>(args)...);
    M& ref = *module;
    if (mode_ != TransferMode::kCompiled) {
      ref.start(*scheduler_);
    }
    register_module(std::move(module));
    return ref;
  }

  /// Schedules a transfer for (step, phase, source -> sink). In
  /// kProcessPerTransfer mode this instantiates a TRANS process (returned
  /// pointer non-null); in kDispatch mode it adds table entries, and in
  /// kCompiled mode it only counts the transfer (the installed
  /// `CompiledRun` executes the lowered plan); both return nullptr.
  TransferProcess* add_transfer(unsigned step, Phase phase, RtSignal& source,
                                RtSignal& sink, std::string name = "");

  [[nodiscard]] TransferMode transfer_mode() const { return mode_; }
  /// Number of scheduled transfers (either representation).
  [[nodiscard]] std::size_t transfer_count() const { return transfer_count_; }

  // --- lookup ---------------------------------------------------------------
  [[nodiscard]] RtSignal* find_bus(const std::string& name);
  [[nodiscard]] Register* find_register(const std::string& name);
  [[nodiscard]] Module* find_module(const std::string& name);
  [[nodiscard]] RtSignal* find_constant(const std::string& name);
  [[nodiscard]] RtSignal* find_input(const std::string& name);

  [[nodiscard]] const std::vector<std::unique_ptr<Register>>& registers() const {
    return registers_;
  }
  [[nodiscard]] const std::vector<std::unique_ptr<Module>>& modules() const {
    return modules_;
  }
  [[nodiscard]] const std::vector<std::unique_ptr<TransferProcess>>& transfers() const {
    return transfers_;
  }
  [[nodiscard]] const std::vector<RtSignal*>& buses() const { return buses_; }

  /// Runs to quiescence (or `max_cycles`), returning statistics and all
  /// observed conflicts.
  RunResult run(std::uint64_t max_cycles = kernel::Scheduler::kNoLimit);

  /// Guarded run: like `run(max_cycles)` but with the delta-cycle watchdog
  /// armed per `options.max_delta_cycles`. A trip does not throw — it ends
  /// the run with `result.report.status == RunStatus::kWatchdogTripped` and
  /// a diagnostic locating the next (control step, phase); registers and
  /// conflicts up to the trip point remain valid partial results.
  RunResult run(const RunOptions& options);

  /// The executor behind `run` in kCompiled mode, which spawns no
  /// processes: `transfer::build_model` installs one lane of the design's
  /// `LanePlan` here (`LaneEngine::model_run`). Without one, `run` throws
  /// `std::logic_error`.
  using CompiledRun = std::function<RunResult(const RunOptions&)>;
  void set_compiled_run(CompiledRun run) { compiled_run_ = std::move(run); }

 private:
  void register_module(std::unique_ptr<Module> module);
  void monitor(RtSignal& signal);
  kernel::Process dispatcher();

  struct DispatchAction {
    std::uint64_t ordinal = 0;   // the delta ordinal that drives it
    RtSignal* source = nullptr;  // nullptr = release (drive DISC)
    RtSignal* sink = nullptr;
    kernel::DriverId driver = 0;
  };

  TransferMode mode_;
  std::size_t transfer_count_ = 0;
  /// kDispatch: every fire and release, sorted by delta ordinal and, within
  /// one ordinal, in add order (the drive order, and with it the conflict
  /// order). Sized by the transfer count, not by cs_max; re-sorted (stably)
  /// at the first dispatch after an add.
  std::vector<DispatchAction> dispatch_actions_;
  bool dispatch_sorted_ = true;
  CompiledRun compiled_run_;
  bool compiled_ran_ = false;
  std::unique_ptr<kernel::Scheduler> scheduler_;
  std::unique_ptr<Controller> controller_;
  std::vector<std::unique_ptr<Register>> registers_;
  std::vector<std::unique_ptr<Module>> modules_;
  std::vector<std::unique_ptr<TransferProcess>> transfers_;
  std::vector<RtSignal*> buses_;
  std::map<std::string, RtSignal*> buses_by_name_;
  std::map<std::string, Register*> registers_by_name_;
  std::map<std::string, Module*> modules_by_name_;
  std::map<std::string, std::pair<RtSignal*, kernel::DriverId>> inputs_;
  std::map<std::string, RtSignal*> constants_by_name_;
  std::map<const kernel::SignalBase*, RtSignal*> monitored_;
};

}  // namespace ctrtl::rtl
