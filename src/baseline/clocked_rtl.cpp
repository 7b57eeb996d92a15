#include "baseline/clocked_rtl.h"

#include <algorithm>
#include <array>
#include <limits>
#include <set>
#include <stdexcept>

#include "transfer/module_sim.h"

namespace ctrtl::baseline {

using rtl::RtValue;
using RtSig = kernel::Signal<RtValue>;

struct ClockedRtlSim::Impl {
  clocked::TranslationPlan plan;  // owned copy: units point into its design
  bool two_cycle = false;

  kernel::Signal<bool>* clk = nullptr;
  kernel::DriverId clk_driver = 0;
  std::array<kernel::SignalBase*, 1> clk_sensitivity{};
  kernel::Signal<unsigned>* step = nullptr;
  kernel::DriverId step_driver = 0;

  struct Reg {
    std::string name;
    RtSig* q = nullptr;
    kernel::DriverId q_driver = 0;
    const std::vector<clocked::WriteSelect>* writes = nullptr;
  };
  std::vector<std::unique_ptr<Reg>> regs;
  std::map<std::string, Reg*> regs_by_name;

  struct Unit {
    std::string name;
    transfer::ModuleSim sim;  // evaluates only: `stages` is the pipeline
    const std::map<unsigned, clocked::ModuleActivation>* schedule = nullptr;
    RtSig* out = nullptr;  // flop output (latency >= 1) or comb output (0)
    kernel::DriverId out_driver = 0;
    std::vector<RtValue> stages;  // internal pipeline stages
    explicit Unit(const transfer::ModuleDecl& decl) : sim(decl, 1) {}
  };
  std::vector<std::unique_ptr<Unit>> units;
  std::map<std::string, Unit*> units_by_name;

  std::map<std::string, RtValue> constants;
  std::map<std::string, std::pair<RtSig*, kernel::DriverId>> inputs;

  [[nodiscard]] RtValue source_value(const transfer::Endpoint& source) const {
    using transfer::Endpoint;
    switch (source.kind) {
      case Endpoint::Kind::kRegisterOut:
        return regs_by_name.at(source.resource)->q->read();
      case Endpoint::Kind::kConstant:
        return constants.at(source.resource);
      case Endpoint::Kind::kInput:
        return inputs.at(source.resource).first->read();
      default:
        throw std::logic_error("clocked RTL baseline: unsupported source");
    }
  }

  /// Collects the signals a unit's operand muxes can read (its
  /// combinational sensitivity set, plus the step counter).
  [[nodiscard]] std::vector<kernel::SignalBase*> comb_sensitivity(
      const Unit& unit) const {
    std::vector<kernel::SignalBase*> sens = {step};
    std::set<kernel::SignalBase*> seen;
    if (unit.schedule != nullptr) {
      for (const auto& [s, activation] : *unit.schedule) {
        for (const clocked::OperandSelect& operand : activation.operands) {
          using transfer::Endpoint;
          kernel::SignalBase* signal = nullptr;
          if (operand.source.kind == Endpoint::Kind::kRegisterOut) {
            signal = regs_by_name.at(operand.source.resource)->q;
          } else if (operand.source.kind == Endpoint::Kind::kInput) {
            signal = inputs.at(operand.source.resource).first;
          }
          if (signal != nullptr && seen.insert(signal).second) {
            sens.push_back(signal);
          }
        }
      }
    }
    return sens;
  }

  void gather_operands(const Unit& unit, unsigned step_value,
                       std::vector<RtValue>& operands, RtValue& op) const {
    operands.assign(unit.sim.decl().num_inputs(), RtValue::disc());
    op = RtValue::disc();
    if (unit.schedule == nullptr) {
      return;
    }
    const auto it = unit.schedule->find(step_value);
    if (it == unit.schedule->end()) {
      return;
    }
    for (const clocked::OperandSelect& operand : it->second.operands) {
      operands[operand.port] = source_value(operand.source);
    }
    if (it->second.op.has_value()) {
      op = RtValue::of(*it->second.op);
    }
  }
};

namespace {

using Impl = ClockedRtlSim::Impl;

constexpr std::uint64_t kPeriodFs = ClockedRtlSim::kPeriodFs;

kernel::Process clock_process(kernel::Signal<bool>& clk, kernel::DriverId driver,
                              unsigned cycles) {
  for (unsigned i = 0; i < cycles; ++i) {
    clk.drive(driver, true);
    co_await kernel::wait_for_fs(kPeriodFs / 2);
    clk.drive(driver, false);
    co_await kernel::wait_for_fs(kPeriodFs - kPeriodFs / 2);
  }
}

kernel::WaitUntil rising_edge(const Impl& impl) {
  return kernel::wait_until(impl.clk_sensitivity,
                            [&clk = *impl.clk] { return clk.read(); });
}

/// The step counter advances on the edge that ends a step: every edge, or
/// the latch edge of the two-cycle scheme.
kernel::Process step_counter(Impl& impl) {
  for (;;) {
    co_await rising_edge(impl);
    if (impl.two_cycle) {
      co_await rising_edge(impl);
    }
    impl.step->drive(impl.step_driver, impl.step->read() + 1);
  }
}

/// Synchronous process of a pipelined unit: one evaluation and one pipeline
/// shift per step, on its first rising edge; the `out` signal models the
/// final stage flop.
kernel::Process unit_sync(Impl& impl, Impl::Unit& unit) {
  std::vector<RtValue> operands;
  bool poisoned = false;
  for (;;) {
    co_await rising_edge(impl);
    RtValue op = RtValue::disc();
    impl.gather_operands(unit, impl.step->read(), operands, op);
    const RtValue value =
        poisoned ? RtValue::illegal() : unit.sim.evaluate(operands, op);
    if (value.is_illegal()) {
      poisoned = true;
    }
    // Shift through the internal stages; the last stage drives `out`.
    RtValue emit = value;
    if (!unit.stages.empty()) {
      emit = unit.stages.back();
      for (std::size_t i = unit.stages.size(); i-- > 1;) {
        unit.stages[i] = unit.stages[i - 1];
      }
      unit.stages[0] = value;
    }
    unit.out->drive(unit.out_driver, emit);
    if (impl.two_cycle) {
      co_await rising_edge(impl);
    }
  }
}

/// Combinational process of a zero-latency unit: re-evaluates whenever the
/// step counter or any operand source changes.
kernel::Process unit_comb(Impl& impl, Impl::Unit& unit) {
  const std::vector<kernel::SignalBase*> sens = impl.comb_sensitivity(unit);
  std::vector<RtValue> operands;
  for (;;) {
    RtValue op = RtValue::disc();
    impl.gather_operands(unit, impl.step->read(), operands, op);
    unit.out->drive(unit.out_driver, unit.sim.evaluate(operands, op));
    co_await kernel::wait_on(sens);
  }
}

/// Synchronous register: latches the selected unit output on the edge that
/// ends a step when a write is scheduled for the current step and the value
/// is not DISC.
kernel::Process register_sync(Impl& impl, Impl::Reg& reg,
                              std::vector<verify::RegisterWrite>& writes) {
  for (;;) {
    co_await rising_edge(impl);
    if (impl.two_cycle) {
      co_await rising_edge(impl);
    }
    if (reg.writes == nullptr) {
      continue;
    }
    const unsigned step = impl.step->read();
    for (const clocked::WriteSelect& write : *reg.writes) {
      if (write.step != step) {
        continue;
      }
      const RtValue value = impl.units_by_name.at(write.module)->out->read();
      if (value.is_disc()) {
        continue;
      }
      if (value != reg.q->read()) {
        writes.push_back(verify::RegisterWrite{step, reg.name, value});
      }
      reg.q->drive(reg.q_driver, value);
    }
  }
}

unsigned scheme_cycles(const clocked::TranslationPlan& plan,
                       clocked::ClockScheme scheme) {
  if (scheme == clocked::ClockScheme::kOneCyclePerStep) {
    return plan.clock_cycles;
  }
  if (plan.clock_cycles > std::numeric_limits<unsigned>::max() / 2) {
    throw std::invalid_argument(
        "ClockedRtlSim: cs_max " + std::to_string(plan.design.cs_max) +
        " needs more clock cycles at two per step than a count holds");
  }
  return 2 * plan.clock_cycles;
}

}  // namespace

ClockedRtlSim::ClockedRtlSim(const clocked::TranslationPlan& plan,
                             clocked::ClockScheme scheme)
    : scheduler_(std::make_unique<kernel::Scheduler>()),
      impl_(std::make_unique<Impl>()),
      clock_cycles_(scheme_cycles(plan, scheme)) {
  impl_->plan = plan;
  impl_->two_cycle = scheme == clocked::ClockScheme::kTwoCyclesPerStep;
  const transfer::Design& design = impl_->plan.design;
  auto& sched = *scheduler_;

  impl_->clk = &sched.make_signal<bool>("clk", false);
  impl_->clk_driver = impl_->clk->add_driver(false);
  impl_->clk_sensitivity = {impl_->clk};
  impl_->step = &sched.make_signal<unsigned>("step", 0u);
  impl_->step_driver = impl_->step->add_driver(0u);

  for (const transfer::ConstantDecl& constant : design.constants) {
    impl_->constants.emplace(constant.name, RtValue::of(constant.value));
  }
  for (const transfer::InputDecl& input : design.inputs) {
    RtSig& sig = sched.make_signal<RtValue>("in." + input.name, RtValue::disc());
    impl_->inputs.emplace(input.name,
                          std::pair{&sig, sig.add_driver(RtValue::disc())});
  }
  for (const transfer::RegisterDecl& decl : design.registers) {
    auto reg = std::make_unique<Impl::Reg>();
    reg->name = decl.name;
    reg->q = &sched.make_signal<RtValue>(
        decl.name + ".q", decl.initial.has_value() ? RtValue::of(*decl.initial)
                                                   : RtValue::disc());
    reg->q_driver = reg->q->add_driver(reg->q->read());
    const auto it = impl_->plan.register_schedule.find(decl.name);
    reg->writes =
        it == impl_->plan.register_schedule.end() ? nullptr : &it->second;
    impl_->regs_by_name[decl.name] = reg.get();
    impl_->regs.push_back(std::move(reg));
  }
  for (const transfer::ModuleDecl& decl : design.modules) {
    auto unit = std::make_unique<Impl::Unit>(decl);
    unit->name = decl.name;
    unit->out = &sched.make_signal<RtValue>(decl.name + ".out", RtValue::disc());
    unit->out_driver = unit->out->add_driver(RtValue::disc());
    // Registers sample a unit's `out` flop on the edge after the unit
    // drove it, so a latency-L unit keeps L - 1 stages behind it with one
    // cycle per step. With two, they sample on the latch edge of the same
    // step, and it keeps L. Zero-latency units are combinational. A value
    // never travels deeper than the run has steps, so longer pipelines are
    // cut to that.
    if (decl.latency >= 1) {
      const std::uint64_t depth =
          std::uint64_t{decl.latency} - (impl_->two_cycle ? 0 : 1);
      unit->stages.assign(
          std::min<std::uint64_t>(depth, impl_->plan.clock_cycles),
          RtValue::disc());
    }
    const auto it = impl_->plan.module_schedule.find(decl.name);
    unit->schedule =
        it == impl_->plan.module_schedule.end() ? nullptr : &it->second;
    impl_->units_by_name[decl.name] = unit.get();
    impl_->units.push_back(std::move(unit));
  }

  // Processes: conventional RTL style, one per component.
  sched.spawn("step_counter", step_counter(*impl_));
  for (auto& unit : impl_->units) {
    if (unit->sim.decl().latency == 0) {
      sched.spawn("comb." + unit->name, unit_comb(*impl_, *unit));
    } else {
      sched.spawn("sync." + unit->name, unit_sync(*impl_, *unit));
    }
  }
  for (auto& reg : impl_->regs) {
    sched.spawn("reg." + reg->name, register_sync(*impl_, *reg, writes_));
  }
  sched.spawn("clock",
              clock_process(*impl_->clk, impl_->clk_driver, clock_cycles_));
}

ClockedRtlSim::~ClockedRtlSim() {
  scheduler_->shutdown();
}

ClockedRtlSim::Result ClockedRtlSim::run() {
  const kernel::KernelStats before = scheduler_->stats();
  const std::uint64_t start_fs = scheduler_->now().fs;
  Result result;
  result.kernel_cycles = scheduler_->run();
  result.stats = scheduler_->stats() - before;
  result.clock_cycles = clock_cycles_;
  result.elapsed_fs = scheduler_->now().fs - start_fs;
  return result;
}

rtl::RtValue ClockedRtlSim::register_value(const std::string& name) const {
  const auto it = impl_->regs_by_name.find(name);
  if (it == impl_->regs_by_name.end()) {
    throw std::invalid_argument("ClockedRtlSim: no register '" + name + "'");
  }
  return it->second->q->read();
}

void ClockedRtlSim::set_input(const std::string& name, rtl::RtValue value) {
  const auto it = impl_->inputs.find(name);
  if (it == impl_->inputs.end()) {
    throw std::invalid_argument("ClockedRtlSim: no input '" + name + "'");
  }
  it->second.first->drive(it->second.second, value);
}

}  // namespace ctrtl::baseline
