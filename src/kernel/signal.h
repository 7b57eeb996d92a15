#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <span>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

namespace ctrtl::kernel {

class Scheduler;
struct ProcessState;

/// Identifies one driver (one driving process) of a signal.
using DriverId = std::size_t;

/// Base class of all signals managed by a `Scheduler`.
///
/// Mirrors the VHDL signal object: it has an effective value, zero or more
/// drivers, and a waiter list of suspended processes whose `wait` statements
/// mention the signal. Value storage and resolution live in the typed
/// subclass `Signal<T>`.
class SignalBase {
 public:
  SignalBase(Scheduler& scheduler, std::string name);
  virtual ~SignalBase();

  SignalBase(const SignalBase&) = delete;
  SignalBase& operator=(const SignalBase&) = delete;

  [[nodiscard]] const std::string& name() const { return name_; }
  [[nodiscard]] std::size_t id() const { return id_; }
  [[nodiscard]] virtual std::size_t driver_count() const = 0;

  /// Human-readable rendering of the current effective value (for traces).
  [[nodiscard]] virtual std::string debug_value() const = 0;

  /// True while a transaction waits for the next update phase, where the
  /// signal counts an update whether or not its value changes.
  [[nodiscard]] bool active() const { return pending_active_; }

  // Kernel-internal (used by the wait awaitables and the scheduler): waiter
  // list management for suspended processes.
  void add_waiter(ProcessState* process);
  void remove_waiter(ProcessState* process);

 protected:
  /// Registers this signal for the next update phase (a driver scheduled a
  /// transaction with delta delay).
  void notify_activation();

  /// Counts one scheduled transaction in the kernel statistics.
  void notify_transaction();

  /// Schedules `apply` to run at `fs_delay` femtoseconds after current time
  /// (transport delay); used by `Signal<T>::drive_after`.
  void schedule_timed_thunk(std::uint64_t fs_delay, std::function<void()> apply);

 private:
  friend class Scheduler;
  friend struct ProcessState;

  /// Applies pending driver transactions and recomputes the effective value.
  /// Returns true when the effective value changed (a VHDL *event*).
  virtual bool apply_update() = 0;

  Scheduler& scheduler_;
  std::string name_;
  std::size_t id_ = 0;
  bool pending_active_ = false;
  /// Intrusive link in the scheduler's pending-update list: activating a
  /// signal for the next delta cycle is a pointer append, with no
  /// allocation no matter how many signals fire per cycle.
  SignalBase* next_pending_ = nullptr;
  std::vector<ProcessState*> waiters_;
};

namespace detail {

template <typename T>
std::string value_to_string(const T& value) {
  if constexpr (requires(std::ostream& os, const T& v) { os << v; }) {
    std::ostringstream out;
    out << value;
    return out.str();
  } else {
    return "<opaque>";
  }
}

}  // namespace detail

/// A typed signal with VHDL driver/resolution semantics.
///
/// - Each driving process owns a `DriverId` obtained from `add_driver`.
/// - `drive` schedules the driver's new value for the *next* delta cycle
///   (the VHDL `<=` with delta delay); `drive_after` adds a transport
///   physical-time delay.
/// - A signal with more than one driver must be constructed with a
///   resolution function, exactly as VHDL requires a resolved subtype.
template <typename T>
class Signal final : public SignalBase {
 public:
  using Resolver = std::function<T(std::span<const T>)>;
  using ResolverFn = T (*)(std::span<const T>);

  Signal(Scheduler& scheduler, std::string name, T initial, Resolver resolver = {})
      : SignalBase(scheduler, std::move(name)),
        initial_(initial),
        effective_(std::move(initial)),
        resolver_(std::move(resolver)) {
    // Raw-dispatch fast path: when the resolver is a plain function (every
    // RtValue bus/port resolves with `resolve_rt`), call it directly in the
    // update phase instead of through std::function.
    if (resolver_) {
      if (const ResolverFn* fn = resolver_.template target<ResolverFn>()) {
        raw_resolver_ = *fn;
      }
    }
  }

  /// Current effective (resolved) value.
  [[nodiscard]] const T& read() const { return effective_; }

  [[nodiscard]] bool resolved() const { return static_cast<bool>(resolver_); }
  [[nodiscard]] std::size_t driver_count() const override { return drivers_.size(); }

  /// Creates a new driver whose initial contribution is `initial`.
  ///
  /// Throws `std::logic_error` when attaching a second driver to an
  /// unresolved signal — the same situation is an elaboration error in VHDL.
  DriverId add_driver(T initial) {
    if (!resolver_ && !drivers_.empty()) {
      throw std::logic_error("signal '" + name() +
                             "': multiple drivers on an unresolved signal");
    }
    drivers_.push_back(DriverSlot{std::move(initial), T{}, false});
    return drivers_.size() - 1;
  }

  /// Creates a new driver initialized to the signal's declared initial value.
  DriverId add_driver() { return add_driver(initial_); }

  /// Schedules `value` on driver `driver` for the next delta cycle. When a
  /// driver is re-driven within the same execution phase the last value wins
  /// (VHDL projected-waveform replacement).
  void drive(DriverId driver, T value) {
    DriverSlot& slot = slot_at(driver);
    slot.pending = std::move(value);
    slot.has_pending = true;
    notify_transaction();
    notify_activation();
  }

  /// Schedules `value` on driver `driver` after a transport delay of
  /// `fs_delay` femtoseconds.
  void drive_after(DriverId driver, T value, std::uint64_t fs_delay) {
    slot_at(driver);  // validate now, apply later
    notify_transaction();
    schedule_timed_thunk(fs_delay, [this, driver, value = std::move(value)]() {
      DriverSlot& slot = drivers_[driver];
      slot.pending = value;
      slot.has_pending = true;
      notify_activation();
    });
  }

  /// The contribution currently held by one driver (diagnostics/tests).
  [[nodiscard]] const T& driver_value(DriverId driver) const {
    return const_cast<Signal*>(this)->slot_at(driver).current;
  }

  /// External-engine interface: replaces the effective value directly,
  /// bypassing drivers and the update phase. A kCompiled model's lane
  /// (rtl::LaneEngine::model_run) resolves on its own and publishes the
  /// result here; the event-driven path never calls this.
  /// Returns true when the value changed — i.e. when the write is a VHDL
  /// *event* the caller must account for (stats, observers).
  bool set_effective(T value) {
    if (value == effective_) {
      return false;
    }
    effective_ = std::move(value);
    return true;
  }

  [[nodiscard]] std::string debug_value() const override {
    return detail::value_to_string(effective_);
  }

 private:
  struct DriverSlot {
    T current;
    T pending;
    bool has_pending = false;
  };

  DriverSlot& slot_at(DriverId driver) {
    if (driver >= drivers_.size()) {
      throw std::out_of_range("signal '" + name() + "': bad driver id");
    }
    return drivers_[driver];
  }

  bool apply_update() override {
    for (DriverSlot& slot : drivers_) {
      if (slot.has_pending) {
        slot.current = slot.pending;
        slot.has_pending = false;
      }
    }
    T next = effective_;
    if (resolver_) {
      // Plain array scratch buffer: std::vector<T> would break for T=bool
      // (not contiguous), and resolvers take a span. Reused across updates.
      if (scratch_capacity_ < drivers_.size()) {
        scratch_ = std::make_unique<T[]>(drivers_.size());
        scratch_capacity_ = drivers_.size();
      }
      for (std::size_t i = 0; i < drivers_.size(); ++i) {
        scratch_[i] = drivers_[i].current;
      }
      const std::span<const T> contributions(scratch_.get(), drivers_.size());
      next = raw_resolver_ ? raw_resolver_(contributions)
                           : resolver_(contributions);
    } else if (!drivers_.empty()) {
      next = drivers_.front().current;
    }
    if (next == effective_) {
      return false;
    }
    effective_ = std::move(next);
    return true;
  }

  T initial_;
  T effective_;
  std::vector<DriverSlot> drivers_;
  std::unique_ptr<T[]> scratch_;
  std::size_t scratch_capacity_ = 0;
  Resolver resolver_;
  ResolverFn raw_resolver_ = nullptr;  // set iff resolver_ wraps a plain fn
};

}  // namespace ctrtl::kernel
