#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "common/diagnostics.h"
#include "transfer/tuple.h"

namespace ctrtl::transfer {

/// The functional-unit repertoire a `Design` may instantiate. Each kind maps
/// onto one concrete `rtl::Module` subclass when the design is elaborated.
enum class ModuleKind : std::uint8_t {
  kAdd,     // fixed-function a+b
  kSub,     // fixed-function a-b
  kMul,     // fixed-function fixed-point multiply (frac_bits)
  kAlu,     // op-port module with the standard ALU op table
  kCopy,    // unary pass-through (direct-link helper)
  kMacc,    // multiplier/accumulator (op port, stateful)
  kCordic,  // CORDIC sin/cos core (op port)
};

[[nodiscard]] std::string to_string(ModuleKind kind);

struct ModuleDecl {
  std::string name;
  ModuleKind kind = ModuleKind::kAdd;
  /// Pipeline depth in control steps (see rtl::Module). Fixed at 1 for MACC.
  unsigned latency = 1;
  /// Fractional bits for fixed-point kinds (kMul, kMacc, kCordic).
  unsigned frac_bits = 0;
  /// CORDIC iteration count (kCordic only).
  unsigned iterations = 24;

  [[nodiscard]] unsigned num_inputs() const;
  [[nodiscard]] bool has_op_port() const;
};

/// The operands a unit of `decl` consumes when its op port carries `op`:
/// the ports the operand discipline (paper section 2.6) counts. A unit
/// without an op port consumes all its inputs, whatever `op` is.
/// std::nullopt when `op` is not an operation of `decl`'s kind.
[[nodiscard]] std::optional<unsigned> operand_arity(const ModuleDecl& decl,
                                                    std::int64_t op);

struct RegisterDecl {
  std::string name;
  std::optional<std::int64_t> initial;
};

struct BusDecl {
  std::string name;
};

struct ConstantDecl {
  std::string name;
  std::int64_t value = 0;
};

struct InputDecl {
  std::string name;
};

/// A complete abstract register-transfer design: the allocated resources
/// plus the scheduled register transfers. This is the data structure the
/// paper's flows exchange — HLS emits it, the microcode translator emits
/// it, `build_model` elaborates it into an executable `rtl::RtModel`, the
/// VHDL emitter prints it as subset source, and the clocked back end
/// translates it to a clocked implementation.
struct Design {
  std::string name = "design";
  unsigned cs_max = 1;
  std::vector<RegisterDecl> registers;
  std::vector<BusDecl> buses;
  std::vector<ModuleDecl> modules;
  std::vector<ConstantDecl> constants;
  std::vector<InputDecl> inputs;
  std::vector<RegisterTransfer> transfers;

  [[nodiscard]] const ModuleDecl* find_module(const std::string& name) const;
  [[nodiscard]] const RegisterDecl* find_register(const std::string& name) const;
  [[nodiscard]] bool has_bus(const std::string& name) const;
  [[nodiscard]] const ConstantDecl* find_constant(const std::string& name) const;
  [[nodiscard]] bool has_input(const std::string& name) const;
};

/// Structural well-formedness: every name a transfer references must be
/// declared, steps must lie in 1..cs_max, module ports must exist, op codes
/// only on op-port modules and only ones their kind defines, write step
/// consistent with module latency.
/// Reports all problems into `diags`; returns !has_errors.
bool validate(const Design& design, common::DiagnosticBag& diags);

}  // namespace ctrtl::transfer
