#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "hls/dfg.h"
#include "transfer/design.h"

namespace ctrtl::verify {

/// A symbolic value: the dataflow expression a register holds after a
/// schedule executes. This realizes the paper's §2.7/§4 program — "an
/// automatic proving procedure has been implemented, that performs the
/// verification task" of comparing RT-level descriptions with more
/// abstract descriptions — as symbolic execution of the transfer schedule.
struct DfExpr;
using DfExprPtr = std::shared_ptr<const DfExpr>;

struct DfExpr {
  enum class Kind : std::uint8_t {
    kDisc,      // never driven
    kIllegal,   // symbolic conflict / discipline violation
    kInput,     // external input (name)
    kConstant,  // literal (constant)
    kInitial,   // a register's preload treated opaquely (name)
    kOp,        // operation (op, args)
  };

  Kind kind = Kind::kDisc;
  std::string name;           // kInput / kInitial
  std::int64_t constant = 0;  // kConstant
  std::string op;             // kOp: "add", "sub", "mul16", "asr4", "sin", ...
  std::vector<DfExprPtr> args;

  [[nodiscard]] static DfExprPtr disc();
  [[nodiscard]] static DfExprPtr illegal();
  [[nodiscard]] static DfExprPtr input(std::string name);
  [[nodiscard]] static DfExprPtr literal(std::int64_t value);
  [[nodiscard]] static DfExprPtr initial(std::string reg);
  [[nodiscard]] static DfExprPtr make(std::string op, std::vector<DfExprPtr> args);
};

/// Canonical text form: commutative operations (add, mul*, min, max) sort
/// their arguments, so structurally equal dataflows print identically.
[[nodiscard]] std::string canonical(const DfExprPtr& expr);

/// Structural equivalence modulo commutativity.
[[nodiscard]] bool equivalent(const DfExprPtr& a, const DfExprPtr& b);

/// Result of symbolically executing a design's schedule.
struct DataflowResult {
  /// Expression held by each register after the final control step.
  std::map<std::string, DfExprPtr> registers;
  /// True when any symbolic conflict/discipline violation occurred.
  bool saw_illegal = false;
};

/// Symbolic execution of the schedule: the reference semantics' transition
/// system (`transfer::walk_phases`) over dataflow expressions, where MACC
/// accumulations normalize to add/mul nodes,
/// copies vanish, ALU ops name themselves — so dataflows are comparable
/// across different schedules, bindings, and module choices.
/// Throws std::invalid_argument when the design does not validate.
[[nodiscard]] DataflowResult extract_dataflow(const transfer::Design& design);

/// The abstract side: the expression a DFG output computes, in the same
/// node vocabulary ("mul0" for the integer multiply).
[[nodiscard]] DfExprPtr dfg_expr(const hls::Dfg& dfg, const hls::ValueRef& ref);

/// The paper's HLS verification flow, fully automatic: every DFG output
/// must be dataflow-equivalent to the register the emitted design leaves it
/// in. Returns a list of mismatching outputs (empty = verified).
[[nodiscard]] std::vector<std::string> check_hls_equivalence(
    const hls::Dfg& dfg, const transfer::Design& design,
    const std::map<std::string, std::string>& output_registers);

}  // namespace ctrtl::verify
