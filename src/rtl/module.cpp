#include "rtl/module.h"

#include <algorithm>
#include <stdexcept>
#include <utility>

namespace ctrtl::rtl {

namespace {

RtValue resolve_adapter(std::span<const RtValue> contributions) {
  return resolve_rt(contributions);
}

}  // namespace

Module::Module(kernel::Scheduler& scheduler, Controller& controller,
               std::string name, Config config)
    : controller_(controller), name_(std::move(name)), config_(config) {
  inputs_.reserve(config_.num_inputs);
  for (unsigned i = 0; i < config_.num_inputs; ++i) {
    inputs_.push_back(&scheduler.make_signal<RtValue>(
        name_ + ".in" + std::to_string(i + 1), RtValue::disc(), resolve_adapter));
  }
  if (config_.has_op_port) {
    op_ = &scheduler.make_signal<RtValue>(name_ + ".op", RtValue::disc(),
                                          resolve_adapter);
  }
  out_ = &scheduler.make_signal<RtValue>(name_ + ".out", RtValue::disc());
  out_driver_ = out_->add_driver(RtValue::disc());
  pipeline_.assign(std::min<std::uint64_t>(config_.latency,
                                           std::uint64_t{controller.cs_max()} + 1),
                   RtValue::disc());
}

kernel::Signal<RtValue>& Module::input(std::size_t index) {
  if (index >= inputs_.size()) {
    throw std::out_of_range("module '" + name_ + "': no input port " +
                            std::to_string(index));
  }
  return *inputs_[index];
}

kernel::Signal<RtValue>& Module::op_port() {
  if (op_ == nullptr) {
    throw std::logic_error("module '" + name_ + "' has no operation port");
  }
  return *op_;
}

void Module::start(kernel::Scheduler& scheduler) {
  if (started_) {
    return;
  }
  started_ = true;
  scheduler.spawn(name_, run());
}

unsigned Module::arity_for(std::int64_t /*op*/) const {
  return config_.num_inputs;
}

RtValue Module::evaluate(std::span<const RtValue> operands, const RtValue& op) {
  for (const RtValue& operand : operands) {
    if (operand.is_illegal()) {
      return RtValue::illegal();
    }
  }
  std::int64_t op_payload = 0;
  unsigned arity = config_.num_inputs;
  if (config_.has_op_port) {
    if (op.is_illegal()) {
      return RtValue::illegal();
    }
    if (op.is_disc()) {
      // No operation scheduled this step: idle only if no operand arrived.
      for (const RtValue& operand : operands) {
        if (!operand.is_disc()) {
          return RtValue::illegal();
        }
      }
      return RtValue::disc();
    }
    op_payload = op.payload();
    arity = arity_for(op_payload);
  }

  unsigned present = 0;
  for (unsigned i = 0; i < arity && i < operands.size(); ++i) {
    if (operands[i].has_value()) {
      ++present;
    }
  }
  if (present == 0 && !config_.has_op_port) {
    return RtValue::disc();  // paper's ADD: both operands DISC -> DISC
  }
  if (present != arity) {
    return RtValue::illegal();  // mixed DISC/value operands
  }

  scratch_payloads_.clear();
  for (unsigned i = 0; i < arity && i < operands.size(); ++i) {
    scratch_payloads_.push_back(operands[i].payload());
  }
  return RtValue::of(compute(std::span<const std::int64_t>(scratch_payloads_),
                             op_payload));
}

kernel::Process Module::run() {
  // Paper source (pipelined ADD, latency 1):
  //   process
  //     variable M: Integer := DISC;
  //   begin
  //     wait until PH=cM;
  //     M_out <= M;
  //     if M /= ILLEGAL then
  //       if    M_in1=DISC and M_in2=DISC   then M := DISC;
  //       elsif M_in1 /= DISC and M_in2 /= DISC then M := M_in1 + M_in2;
  //       else  M := ILLEGAL;
  //       end if;
  //     end if;
  //   end process;
  auto& ph = controller_.ph();
  std::vector<RtValue> operands(inputs_.size());
  const std::span<kernel::SignalBase* const> sensitivity =
      controller_.ph_sensitivity();
  for (;;) {
    co_await kernel::wait_until(sensitivity,
                                [&] { return ph.read() == Phase::kCm; });
    for (std::size_t i = 0; i < inputs_.size(); ++i) {
      operands[i] = inputs_[i]->read();
    }
    const RtValue op = op_ != nullptr ? op_->read() : RtValue::disc();
    out_->drive(out_driver_, advance(operands, op));
  }
}

RtValue Module::advance(std::span<const RtValue> operands, const RtValue& op) {
  if (config_.latency == 0) {
    return evaluate(operands, op);
  }
  // The paper's `if M /= ILLEGAL` guard: once poisoned, the evaluation
  // stage only ever produces ILLEGAL again. In-flight pipeline stages
  // still drain so a multi-stage unit emits its pending valid results
  // before the ILLEGAL reaches the output (for latency 1 this reduces to
  // the paper's behaviour exactly).
  const RtValue next = poisoned_ ? RtValue::illegal() : evaluate(operands, op);
  const RtValue out = std::exchange(pipeline_[oldest_], next);
  oldest_ = oldest_ + 1 == pipeline_.size() ? 0 : oldest_ + 1;
  if (next.is_illegal()) {
    poisoned_ = true;
  }
  return out;
}

}  // namespace ctrtl::rtl
