#pragma once

#include <cstdint>
#include <functional>
#include <limits>
#include <memory>
#include <queue>
#include <stdexcept>
#include <string>
#include <vector>

#include "kernel/process.h"
#include "kernel/signal.h"
#include "kernel/stats.h"
#include "kernel/time.h"

namespace ctrtl::kernel {

/// Thrown by `Scheduler::step` when the consecutive-delta-cycle watchdog
/// trips: the model scheduled yet another delta cycle after `limit()` of
/// them ran back-to-back at unchanged physical time. `next_delta()` is the
/// delta ordinal that would have executed next — callers with a phase map
/// (rtl::Controller) can pin it to a (control step, phase).
class WatchdogError : public std::runtime_error {
 public:
  WatchdogError(std::uint64_t limit, std::uint64_t next_delta)
      : std::runtime_error(
            "delta-cycle watchdog: limit of " + std::to_string(limit) +
            " delta cycles reached without quiescence"),
        limit_(limit),
        next_delta_(next_delta) {}

  [[nodiscard]] std::uint64_t limit() const { return limit_; }
  [[nodiscard]] std::uint64_t next_delta() const { return next_delta_; }

 private:
  std::uint64_t limit_;
  std::uint64_t next_delta_;
};

/// Discrete-event scheduler implementing the VHDL simulation cycle for the
/// feature set used by the paper's subset (plus physical time for the
/// clocked back end):
///
///   1. *Update phase*: apply scheduled driver transactions, resolve signal
///      values, record events.
///   2. *Process evaluation*: processes waiting on an evented signal are
///      triggered; `wait until` conditions are re-checked.
///   3. *Execution phase*: triggered processes resume and run until their
///      next `wait`, scheduling new transactions (with delta delay by
///      default).
///
/// A cycle at unchanged physical time is a **delta cycle**; the paper's
/// control-step phases advance exactly one per delta cycle.
class Scheduler {
 public:
  static constexpr std::uint64_t kNoLimit = std::numeric_limits<std::uint64_t>::max();

  Scheduler() = default;
  ~Scheduler();

  Scheduler(const Scheduler&) = delete;
  Scheduler& operator=(const Scheduler&) = delete;

  /// Creates a signal owned by the scheduler. Returned reference stays valid
  /// for the scheduler's lifetime.
  template <typename T>
  Signal<T>& make_signal(std::string name, T initial,
                         typename Signal<T>::Resolver resolver = {}) {
    auto signal = std::make_unique<Signal<T>>(*this, std::move(name),
                                              std::move(initial), std::move(resolver));
    Signal<T>& ref = *signal;
    register_signal(std::move(signal));
    return ref;
  }

  /// Registers a process coroutine. Ownership of the frame moves into the
  /// scheduler; it first executes during initialization (VHDL: every process
  /// runs once at time zero).
  ProcessState& spawn(std::string name, Process process);

  /// Runs the initialization phase if it has not happened yet, then
  /// simulation cycles until the model is quiescent or `max_cycles` cycles
  /// have run. Returns the number of cycles executed (excluding
  /// initialization). Rethrows the first process exception.
  std::uint64_t run(std::uint64_t max_cycles = kNoLimit);

  /// Executes the initialization phase (idempotent).
  void initialize();

  /// One simulation cycle; returns false when quiescent (nothing ran).
  bool step();

  /// Arms the delta-cycle watchdog: once `limit` consecutive delta cycles
  /// have run at one physical time and the model schedules yet another,
  /// `step` throws WatchdogError instead of executing it (non-convergence
  /// becomes a structured diagnostic, not a hang). Timed cycles reset the
  /// consecutive count (`now().delta` returns to zero). kNoLimit disarms.
  void set_max_delta_cycles(std::uint64_t limit) { max_delta_cycles_ = limit; }
  [[nodiscard]] std::uint64_t max_delta_cycles() const {
    return max_delta_cycles_;
  }

  [[nodiscard]] SimTime now() const { return now_; }
  [[nodiscard]] const KernelStats& stats() const { return stats_; }

  /// True when no transactions or timed wakeups are outstanding.
  [[nodiscard]] bool quiescent() const;

  [[nodiscard]] std::size_t signal_count() const { return signals_.size(); }
  [[nodiscard]] std::size_t process_count() const { return processes_.size(); }

  /// Observers invoked on every signal event (after the value changed).
  /// Multiple observers may be attached (conflict monitor + trace recorder).
  using EventObserver = std::function<void(const SignalBase&, SimTime)>;
  std::size_t add_event_observer(EventObserver observer);
  void remove_event_observer(std::size_t id);

  /// Destroys all process coroutine frames. Owners whose component objects
  /// are referenced from process frames must call this before destroying
  /// those components.
  void shutdown();

  // --- external-engine interface -------------------------------------------
  // A kCompiled model's lane (rtl::LaneEngine::model_run) executes signal
  // updates directly instead of through the event loop. These hooks keep the
  // scheduler's statistics and event observers coherent with what an
  // equivalent event-driven run would have reported, so downstream consumers
  // (BatchRunner stats comparison, trace/VCD observers) see one interface.

  /// Mutable statistics for an external engine to account its delta cycles,
  /// updates, events, and transactions against.
  [[nodiscard]] KernelStats& external_stats() { return stats_; }

  /// Invokes every attached observer for an externally produced event and
  /// counts the observer calls. The caller accounts the event itself.
  void dispatch_event_observers(const SignalBase& signal, SimTime time);

  // --- internal API for signals and awaitables -----------------------------
  void note_activation(SignalBase* signal);
  void note_transaction() { ++stats_.transactions; }
  void schedule_timed(std::uint64_t fs_delay, std::function<void()> apply);
  void schedule_timed_wakeup(std::uint64_t fs_delay, ProcessState* process);

 private:
  void register_signal(std::unique_ptr<SignalBase> signal);
  void resume(ProcessState* process);
  void rethrow_pending();

  struct TimedEntry {
    std::uint64_t fs = 0;
    std::uint64_t seq = 0;
    std::function<void()> apply;  // either a transaction thunk ...
    ProcessState* wake = nullptr;  // ... or a process wakeup
  };
  struct TimedLater {
    bool operator()(const TimedEntry& a, const TimedEntry& b) const {
      return a.fs != b.fs ? a.fs > b.fs : a.seq > b.seq;
    }
  };

  std::vector<std::unique_ptr<SignalBase>> signals_;
  std::vector<std::unique_ptr<ProcessState>> processes_;
  /// Intrusive singly-linked list of signals activated for the next update
  /// phase (chained through SignalBase::next_pending_): O(1) append on
  /// activation, O(1) detach of the whole list at cycle start, and no
  /// allocation in steady state.
  SignalBase* pending_head_ = nullptr;
  SignalBase* pending_tail_ = nullptr;
  std::priority_queue<TimedEntry, std::vector<TimedEntry>, TimedLater> timed_;
  std::uint64_t timed_seq_ = 0;

  /// Per-cycle work lists, reused across cycles so a steady-state delta
  /// cycle performs no allocations.
  std::vector<ProcessState*> triggered_scratch_;
  std::vector<ProcessState*> runnable_scratch_;

  SimTime now_;
  KernelStats stats_;
  std::uint64_t max_delta_cycles_ = kNoLimit;
  std::uint64_t epoch_ = 0;
  bool initialized_ = false;
  std::exception_ptr pending_exception_;
  std::vector<std::pair<std::size_t, EventObserver>> observers_;
  std::size_t next_observer_id_ = 0;
};

}  // namespace ctrtl::kernel
