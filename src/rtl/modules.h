#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <span>
#include <string>
#include <vector>

#include "rtl/module.h"

namespace ctrtl::rtl {

/// Generic fixed-function module: any pure function of its operand
/// payloads, with a configurable pipeline latency. The paper's ADD is
/// `FixedFunctionModule` with `a + b` and latency 1.
class FixedFunctionModule final : public Module {
 public:
  using Function = std::function<std::int64_t(std::span<const std::int64_t>)>;

  FixedFunctionModule(kernel::Scheduler& scheduler, Controller& controller,
                      std::string name, unsigned num_inputs, unsigned latency,
                      Function function);

 protected:
  std::int64_t compute(std::span<const std::int64_t> operands,
                       std::int64_t op) override;

 private:
  Function function_;
};

/// One selectable ALU operation: consumes the first `arity` inputs.
struct AluOperation {
  std::string mnemonic;
  unsigned arity = 2;
  std::function<std::int64_t(std::span<const std::int64_t>)> function;
};

/// Module with an operation port (section 3 extension): the op code driven
/// onto the port at phase `rb` selects which operation the module performs
/// at `cm`. Unknown op codes raise `std::domain_error` (a modeling bug, not
/// a resource conflict).
class AluModule final : public Module {
 public:
  using OpTable = std::map<std::int64_t, AluOperation>;

  AluModule(kernel::Scheduler& scheduler, Controller& controller, std::string name,
            unsigned num_inputs, unsigned latency, OpTable ops);

  [[nodiscard]] const OpTable& ops() const { return ops_; }

 protected:
  unsigned arity_for(std::int64_t op) const override;
  std::int64_t compute(std::span<const std::int64_t> operands,
                       std::int64_t op) override;

 private:
  const AluOperation& lookup(std::int64_t op) const;

  OpTable ops_;
};

/// Standard op-code assignments used across the library and the microcode
/// translator.
namespace alu_ops {
inline constexpr std::int64_t kAdd = 0;
inline constexpr std::int64_t kSub = 1;
inline constexpr std::int64_t kPassA = 2;
inline constexpr std::int64_t kPassB = 3;
inline constexpr std::int64_t kNegA = 4;
inline constexpr std::int64_t kMin = 5;
inline constexpr std::int64_t kMax = 6;
/// `kRshiftBase + k` computes `operand_a >> k` (arithmetic); this realizes
/// the IKS micro-operation `Rshift(x2, i)`.
inline constexpr std::int64_t kRshiftBase = 16;
inline constexpr std::int64_t kRshiftMax = 63;
}  // namespace alu_ops

/// Op table with add/sub/pass/neg/min/max plus the arithmetic right-shift
/// family — the operation repertoire of the IKS adders.
[[nodiscard]] AluModule::OpTable make_standard_alu_ops();

/// Unary pass-through, zero latency unless declared otherwise. The paper's
/// recipe for direct register-to-register and register-to-module links: "two
/// extra buses and one extra module, which just copies the input to the
/// output".
class CopyModule final : public Module {
 public:
  CopyModule(kernel::Scheduler& scheduler, Controller& controller, std::string name,
             unsigned latency = 0);

 protected:
  std::int64_t compute(std::span<const std::int64_t> operands,
                       std::int64_t op) override;
};

/// Multiplier/accumulator (the IKS "MACC" resource): a stateful module with
/// an internal accumulator operating on fixed-point payloads.
///
/// Ops: clear (acc := 0), mac (acc := acc + a*b), load (acc := a),
/// hold (keep). By default the accumulator value of the *previous* control
/// step is visible at the output (latency-1 pipelined behaviour, like the
/// paper's ADD). A DISC op with idle operands holds the accumulator.
class MaccModule final : public Module {
 public:
  static constexpr std::int64_t kOpClear = 0;
  static constexpr std::int64_t kOpMac = 1;
  static constexpr std::int64_t kOpLoad = 2;
  static constexpr std::int64_t kOpHold = 3;

  MaccModule(kernel::Scheduler& scheduler, Controller& controller, std::string name,
             unsigned frac_bits, unsigned latency = 1);

 protected:
  RtValue evaluate(std::span<const RtValue> operands, const RtValue& op) override;
  std::int64_t compute(std::span<const std::int64_t> operands,
                       std::int64_t op) override;
  unsigned arity_for(std::int64_t op) const override;

 private:
  unsigned frac_bits_;
  std::int64_t acc_ = 0;
};

/// CORDIC rotator (the IKS "cordic core"): computes sin or cos of a
/// fixed-point angle (radians) by the classic shift-add iteration. The
/// whole iteration is combinational inside one `cm` phase (the paper:
/// "every combinational aspect must be covered in the variable-assignment
/// based sections of a module description"); the module is pipelined with
/// configurable latency like any other unit.
class CordicModule final : public Module {
 public:
  static constexpr std::int64_t kOpSin = 0;
  static constexpr std::int64_t kOpCos = 1;

  CordicModule(kernel::Scheduler& scheduler, Controller& controller, std::string name,
               unsigned frac_bits, unsigned iterations, unsigned latency = 1);

  /// Direct access to the rotation algorithm (also used by the golden
  /// model so RT-level and algorithmic level share the bit-exact kernel).
  struct SinCos {
    std::int64_t sin;
    std::int64_t cos;
  };
  [[nodiscard]] static SinCos rotate(std::int64_t angle_raw, unsigned frac_bits,
                                     unsigned iterations);

 protected:
  unsigned arity_for(std::int64_t op) const override;
  std::int64_t compute(std::span<const std::int64_t> operands,
                       std::int64_t op) override;

 private:
  unsigned frac_bits_;
  unsigned iterations_;
};

/// Signed fixed-point multiply of two raw payloads with `frac_bits`
/// fractional bits (rounding toward nearest); shared by MACC, the IKS
/// multiplier, and the golden model.
[[nodiscard]] std::int64_t fixed_mul(std::int64_t a, std::int64_t b,
                                     unsigned frac_bits);

}  // namespace ctrtl::rtl
