#include "rtl/model.h"

#include <algorithm>
#include <sstream>
#include <stdexcept>

namespace ctrtl::rtl {

namespace {

RtValue resolve_adapter(std::span<const RtValue> contributions) {
  return resolve_rt(contributions);
}

}  // namespace

std::string to_string(const Conflict& conflict) {
  std::ostringstream out;
  out << "conflict on " << conflict.signal << " at step " << conflict.step
      << ", phase " << phase_name(conflict.phase);
  if (conflict.phase != kPhaseLow) {
    out << " (driven at " << phase_name(pred(conflict.phase)) << ")";
  }
  return out.str();
}

RtModel::RtModel(unsigned cs_max, TransferMode mode)
    : mode_(mode),
      scheduler_(std::make_unique<kernel::Scheduler>()),
      controller_(std::make_unique<Controller>(
          *scheduler_, cs_max, "CONTROL",
          /*spawn_process=*/mode != TransferMode::kCompiled)) {
  if (mode_ == TransferMode::kDispatch) {
    scheduler_->spawn("DISPATCH", dispatcher());
  }
}

RtModel::~RtModel() {
  // Process frames reference the component objects; destroy them first.
  scheduler_->shutdown();
}

RtSignal& RtModel::add_bus(const std::string& name) {
  if (buses_by_name_.contains(name)) {
    throw std::invalid_argument("duplicate bus name '" + name + "'");
  }
  RtSignal& bus =
      scheduler_->make_signal<RtValue>(name, RtValue::disc(), resolve_adapter);
  buses_.push_back(&bus);
  buses_by_name_[name] = &bus;
  monitor(bus);
  return bus;
}

Register& RtModel::add_register(const std::string& name,
                                std::optional<RtValue> initial) {
  if (registers_by_name_.contains(name)) {
    throw std::invalid_argument("duplicate register name '" + name + "'");
  }
  auto reg = std::make_unique<Register>(
      *scheduler_, *controller_, name, initial,
      /*spawn_process=*/mode_ != TransferMode::kCompiled);
  Register& ref = *reg;
  registers_.push_back(std::move(reg));
  registers_by_name_[name] = &ref;
  monitor(ref.in());
  return ref;
}

RtSignal& RtModel::add_constant(const std::string& name, std::int64_t value) {
  if (constants_by_name_.contains(name)) {
    throw std::invalid_argument("duplicate constant name '" + name + "'");
  }
  RtSignal& sig = scheduler_->make_signal<RtValue>(name, RtValue::of(value));
  constants_by_name_[name] = &sig;
  return sig;
}

RtSignal& RtModel::add_input(const std::string& name) {
  if (inputs_.contains(name)) {
    throw std::invalid_argument("duplicate input name '" + name + "'");
  }
  RtSignal& sig = scheduler_->make_signal<RtValue>(name, RtValue::disc());
  const kernel::DriverId driver = sig.add_driver(RtValue::disc());
  inputs_[name] = {&sig, driver};
  return sig;
}

void RtModel::set_input(const std::string& name, RtValue value) {
  const auto it = inputs_.find(name);
  if (it == inputs_.end()) {
    throw std::invalid_argument("no input named '" + name + "'");
  }
  if (compiled_ran_) {
    throw std::logic_error("compiled mode: set_input after the first run");
  }
  it->second.first->drive(it->second.second, value);
}

void RtModel::register_module(std::unique_ptr<Module> module) {
  const std::string& name = module->name();
  if (modules_by_name_.contains(name)) {
    throw std::invalid_argument("duplicate module name '" + name + "'");
  }
  modules_by_name_[name] = module.get();
  for (unsigned i = 0; i < module->config().num_inputs; ++i) {
    monitor(module->input(i));
  }
  if (module->config().has_op_port) {
    monitor(module->op_port());
  }
  modules_.push_back(std::move(module));
}

TransferProcess* RtModel::add_transfer(unsigned step, Phase phase, RtSignal& source,
                                       RtSignal& sink, std::string name) {
  if (step == 0 || step > controller_->cs_max()) {
    throw std::out_of_range("transfer step " + std::to_string(step) +
                            " outside 1.." + std::to_string(controller_->cs_max()));
  }
  if (mode_ != TransferMode::kProcessPerTransfer && phase == kPhaseHigh) {
    throw std::invalid_argument("transfer at phase cr has no release phase");
  }
  if (compiled_run_) {
    throw std::logic_error("compiled mode: add_transfer after the plan was lowered");
  }
  ++transfer_count_;
  if (mode_ == TransferMode::kCompiled) {
    return nullptr;
  }
  if (mode_ == TransferMode::kDispatch) {
    const kernel::DriverId driver = sink.add_driver(RtValue::disc());
    const std::uint64_t fire_ordinal =
        (std::uint64_t{step} - 1) * kPhasesPerStep +
        static_cast<std::uint64_t>(phase_index(phase)) + 1;
    dispatch_actions_.push_back(DispatchAction{fire_ordinal, &source, &sink, driver});
    dispatch_actions_.push_back(
        DispatchAction{fire_ordinal + 1, nullptr, &sink, driver});
    dispatch_sorted_ = false;
    return nullptr;
  }
  if (name.empty()) {
    std::ostringstream auto_name;
    auto_name << source.name() << "_" << sink.name() << "_" << step << "_"
              << phase_name(phase);
    name = auto_name.str();
  }
  auto transfer = std::make_unique<TransferProcess>(*scheduler_, *controller_, step,
                                                    phase, source, sink,
                                                    std::move(name));
  TransferProcess& ref = *transfer;
  transfers_.push_back(std::move(transfer));
  return &ref;
}

kernel::Process RtModel::dispatcher() {
  // Executes the actions of the current delta ordinal: the phase-wheel
  // invariant guarantees ordinal <-> (step, phase), so no wait-until
  // predicates need evaluating at all.
  auto& ph = controller_->ph();
  const std::vector<kernel::SignalBase*> sensitivity = {&ph};
  for (;;) {
    co_await kernel::wait_on(sensitivity);
    if (!dispatch_sorted_) {
      std::ranges::stable_sort(dispatch_actions_, {}, &DispatchAction::ordinal);
      dispatch_sorted_ = true;
    }
    const std::uint64_t ordinal = scheduler_->now().delta;
    for (auto it = std::ranges::lower_bound(dispatch_actions_, ordinal, {},
                                            &DispatchAction::ordinal);
         it != dispatch_actions_.end() && it->ordinal == ordinal; ++it) {
      it->sink->drive(it->driver, it->source != nullptr ? it->source->read()
                                                        : RtValue::disc());
    }
  }
}

RtSignal* RtModel::find_bus(const std::string& name) {
  const auto it = buses_by_name_.find(name);
  return it == buses_by_name_.end() ? nullptr : it->second;
}

Register* RtModel::find_register(const std::string& name) {
  const auto it = registers_by_name_.find(name);
  return it == registers_by_name_.end() ? nullptr : it->second;
}

Module* RtModel::find_module(const std::string& name) {
  const auto it = modules_by_name_.find(name);
  return it == modules_by_name_.end() ? nullptr : it->second;
}

RtSignal* RtModel::find_constant(const std::string& name) {
  const auto it = constants_by_name_.find(name);
  return it == constants_by_name_.end() ? nullptr : it->second;
}

RtSignal* RtModel::find_input(const std::string& name) {
  const auto it = inputs_.find(name);
  return it == inputs_.end() ? nullptr : it->second.first;
}

void RtModel::monitor(RtSignal& signal) {
  monitored_[&signal] = &signal;
}

RunResult RtModel::run(std::uint64_t max_cycles) {
  return run(RunOptions{.max_cycles = max_cycles});
}

RunResult RtModel::run(const RunOptions& options) {
  if (mode_ == TransferMode::kCompiled) {
    if (!compiled_run_) {
      throw std::logic_error(
          "compiled mode: no lowered plan to run (elaborate the model with "
          "transfer::build_model)");
    }
    // The lane records conflicts itself, so the event-observer-based
    // recorder below is not attached; trace/VCD observers still fire
    // through the scheduler.
    compiled_ran_ = true;
    return compiled_run_(options);
  }
  RunResult result;
  const std::size_t observer = scheduler_->add_event_observer(
      [this, &result](const kernel::SignalBase& signal, kernel::SimTime time) {
        const auto it = monitored_.find(&signal);
        if (it == monitored_.end() || !it->second->read().is_illegal()) {
          return;
        }
        // The model's invariant ties delta ordinals to (step, phase); see
        // Controller::locate. time.delta is the current delta ordinal.
        const auto [step, phase] = Controller::locate(time.delta);
        result.conflicts.push_back(Conflict{signal.name(), step, phase});
      });
  const kernel::KernelStats before = scheduler_->stats();
  const std::uint64_t saved_limit = scheduler_->max_delta_cycles();
  scheduler_->set_max_delta_cycles(options.max_delta_cycles);
  try {
    result.cycles = scheduler_->run(options.max_cycles);
  } catch (const kernel::WatchdogError& error) {
    // Non-convergence becomes a structured report, not an escape: the model
    // stays usable and everything up to the trip point is a valid partial
    // result. The scheduler's run loop counted one step() per cycle; rebuild
    // the count from the stats window (each cycle is delta or timed).
    result.report.status = RunStatus::kWatchdogTripped;
    result.report.diagnostics.push_back(
        watchdog_diagnostic(error.limit(), error.next_delta()));
    const kernel::KernelStats so_far = scheduler_->stats() - before;
    result.cycles = so_far.delta_cycles + so_far.timed_cycles;
  }
  scheduler_->set_max_delta_cycles(saved_limit);
  result.stats = scheduler_->stats() - before;
  scheduler_->remove_event_observer(observer);
  return result;
}

}  // namespace ctrtl::rtl
