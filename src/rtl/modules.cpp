#include "rtl/modules.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace ctrtl::rtl {

std::int64_t fixed_mul(std::int64_t a, std::int64_t b, unsigned frac_bits) {
  // Round to nearest (half up): floor((p + half) / 2^frac); the arithmetic
  // shift floors for both signs.
  const __int128 product = static_cast<__int128>(a) * b;
  const __int128 half = frac_bits == 0 ? 0 : (__int128{1} << (frac_bits - 1));
  return static_cast<std::int64_t>((product + half) >> frac_bits);
}

// --- FixedFunctionModule -----------------------------------------------------

FixedFunctionModule::FixedFunctionModule(kernel::Scheduler& scheduler,
                                         Controller& controller, std::string name,
                                         unsigned num_inputs, unsigned latency,
                                         Function function)
    : Module(scheduler, controller, std::move(name),
             Config{num_inputs, latency, /*has_op_port=*/false}),
      function_(std::move(function)) {
  if (!function_) {
    throw std::invalid_argument("FixedFunctionModule: null function");
  }
}

std::int64_t FixedFunctionModule::compute(std::span<const std::int64_t> operands,
                                          std::int64_t /*op*/) {
  return function_(operands);
}

// --- AluModule ---------------------------------------------------------------

AluModule::AluModule(kernel::Scheduler& scheduler, Controller& controller,
                     std::string name, unsigned num_inputs, unsigned latency,
                     OpTable ops)
    : Module(scheduler, controller, std::move(name),
             Config{num_inputs, latency, /*has_op_port=*/true}),
      ops_(std::move(ops)) {
  for (const auto& [code, operation] : ops_) {
    if (operation.arity > config().num_inputs) {
      throw std::invalid_argument("AluModule '" + this->name() + "': op '" +
                                  operation.mnemonic + "' needs more inputs than ports");
    }
  }
}

const AluOperation& AluModule::lookup(std::int64_t op) const {
  const auto it = ops_.find(op);
  if (it == ops_.end()) {
    throw std::domain_error("AluModule '" + name() + "': unknown op code " +
                            std::to_string(op));
  }
  return it->second;
}

unsigned AluModule::arity_for(std::int64_t op) const {
  return lookup(op).arity;
}

std::int64_t AluModule::compute(std::span<const std::int64_t> operands,
                                std::int64_t op) {
  return lookup(op).function(operands);
}

AluModule::OpTable make_standard_alu_ops() {
  using Span = std::span<const std::int64_t>;
  AluModule::OpTable ops;
  ops[alu_ops::kAdd] = {"add", 2, [](Span v) { return v[0] + v[1]; }};
  ops[alu_ops::kSub] = {"sub", 2, [](Span v) { return v[0] - v[1]; }};
  ops[alu_ops::kPassA] = {"passa", 1, [](Span v) { return v[0]; }};
  ops[alu_ops::kPassB] = {"passb", 2, [](Span v) { return v[1]; }};
  ops[alu_ops::kNegA] = {"nega", 1, [](Span v) { return -v[0]; }};
  ops[alu_ops::kMin] = {"min", 2, [](Span v) { return std::min(v[0], v[1]); }};
  ops[alu_ops::kMax] = {"max", 2, [](Span v) { return std::max(v[0], v[1]); }};
  for (std::int64_t k = 0; alu_ops::kRshiftBase + k <= alu_ops::kRshiftMax; ++k) {
    const int amount = static_cast<int>(k);
    ops[alu_ops::kRshiftBase + k] = {
        "rshift" + std::to_string(amount), 1,
        [amount](Span v) { return v[0] >> amount; }};
  }
  return ops;
}

// --- CopyModule --------------------------------------------------------------

CopyModule::CopyModule(kernel::Scheduler& scheduler, Controller& controller,
                       std::string name, unsigned latency)
    : Module(scheduler, controller, std::move(name),
             Config{/*num_inputs=*/1, latency, /*has_op_port=*/false}) {}

std::int64_t CopyModule::compute(std::span<const std::int64_t> operands,
                                 std::int64_t /*op*/) {
  return operands[0];
}

// --- MaccModule --------------------------------------------------------------

MaccModule::MaccModule(kernel::Scheduler& scheduler, Controller& controller,
                       std::string name, unsigned frac_bits, unsigned latency)
    : Module(scheduler, controller, std::move(name),
             Config{/*num_inputs=*/2, latency, /*has_op_port=*/true}),
      frac_bits_(frac_bits) {}

unsigned MaccModule::arity_for(std::int64_t op) const {
  switch (op) {
    case kOpClear:
    case kOpHold:
      return 0;
    case kOpLoad:
      return 1;
    case kOpMac:
      return 2;
    default:
      throw std::domain_error("MaccModule '" + name() + "': unknown op code " +
                              std::to_string(op));
  }
}

RtValue MaccModule::evaluate(std::span<const RtValue> operands, const RtValue& op) {
  if (op.is_illegal()) {
    return RtValue::illegal();
  }
  for (const RtValue& operand : operands) {
    if (operand.is_illegal()) {
      return RtValue::illegal();
    }
  }
  if (op.is_disc()) {
    // No operation scheduled: hold the accumulator, but stray operands on an
    // idle unit indicate a scheduling error.
    for (const RtValue& operand : operands) {
      if (!operand.is_disc()) {
        return RtValue::illegal();
      }
    }
    return RtValue::of(acc_);
  }
  const unsigned arity = arity_for(op.payload());
  for (unsigned i = 0; i < arity; ++i) {
    if (!operands[i].has_value()) {
      return RtValue::illegal();
    }
  }
  switch (op.payload()) {
    case kOpClear:
      acc_ = 0;
      break;
    case kOpHold:
      break;
    case kOpLoad:
      acc_ = operands[0].payload();
      break;
    case kOpMac:
      acc_ += fixed_mul(operands[0].payload(), operands[1].payload(), frac_bits_);
      break;
    default:
      throw std::domain_error("MaccModule: unreachable op");
  }
  return RtValue::of(acc_);
}

std::int64_t MaccModule::compute(std::span<const std::int64_t> /*operands*/,
                                 std::int64_t /*op*/) {
  throw std::logic_error("MaccModule::compute: evaluate() is overridden");
}

// --- CordicModule ------------------------------------------------------------

CordicModule::CordicModule(kernel::Scheduler& scheduler, Controller& controller,
                           std::string name, unsigned frac_bits, unsigned iterations,
                           unsigned latency)
    : Module(scheduler, controller, std::move(name),
             Config{/*num_inputs=*/1, latency, /*has_op_port=*/true}),
      frac_bits_(frac_bits),
      iterations_(iterations) {}

unsigned CordicModule::arity_for(std::int64_t op) const {
  if (op != kOpSin && op != kOpCos) {
    throw std::domain_error("CordicModule '" + name() + "': unknown op code " +
                            std::to_string(op));
  }
  return 1;
}

CordicModule::SinCos CordicModule::rotate(std::int64_t angle_raw, unsigned frac_bits,
                                          unsigned iterations) {
  const double one = static_cast<double>(std::int64_t{1} << frac_bits);
  const std::int64_t pi_raw = static_cast<std::int64_t>(std::llround(M_PI * one));
  const std::int64_t half_pi_raw = pi_raw / 2;
  const std::int64_t two_pi_raw = 2 * pi_raw;

  // Argument reduction into [-pi, pi], then into [-pi/2, pi/2] using
  // sin(z +- pi) = -sin(z), cos(z +- pi) = -cos(z).
  std::int64_t z = angle_raw;
  while (z > pi_raw) {
    z -= two_pi_raw;
  }
  while (z < -pi_raw) {
    z += two_pi_raw;
  }
  bool flip = false;
  if (z > half_pi_raw) {
    z -= pi_raw;
    flip = true;
  } else if (z < -half_pi_raw) {
    z += pi_raw;
    flip = true;
  }

  // K = prod_i 1/sqrt(1 + 2^-2i): start the rotation at (K, 0) so the
  // shift-add iterations land on (cos, sin) directly.
  double gain = 1.0;
  for (unsigned i = 0; i < iterations; ++i) {
    gain *= std::sqrt(1.0 + std::ldexp(1.0, -2 * static_cast<int>(i)));
  }
  std::int64_t x = static_cast<std::int64_t>(std::llround(one / gain));
  std::int64_t y = 0;

  for (unsigned i = 0; i < iterations; ++i) {
    const std::int64_t atan_raw =
        static_cast<std::int64_t>(std::llround(std::atan(std::ldexp(1.0, -static_cast<int>(i))) * one));
    const std::int64_t x_shift = x >> i;
    const std::int64_t y_shift = y >> i;
    if (z >= 0) {
      x -= y_shift;
      y += x_shift;
      z -= atan_raw;
    } else {
      x += y_shift;
      y -= x_shift;
      z += atan_raw;
    }
  }
  if (flip) {
    x = -x;
    y = -y;
  }
  return SinCos{y, x};
}

std::int64_t CordicModule::compute(std::span<const std::int64_t> operands,
                                   std::int64_t op) {
  const SinCos result = rotate(operands[0], frac_bits_, iterations_);
  return op == kOpSin ? result.sin : result.cos;
}

}  // namespace ctrtl::rtl
