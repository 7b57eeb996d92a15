#include "transfer/conflict.h"

#include <map>
#include <optional>
#include <set>
#include <sstream>

#include "transfer/mapping.h"

namespace ctrtl::transfer {

std::string to_string(const DriveConflict& conflict) {
  std::ostringstream out;
  out << conflict.driver_count << " transfers drive " << conflict.sink
      << " at step " << conflict.step << ", phase "
      << rtl::phase_name(conflict.drive_phase) << " (ILLEGAL visible at "
      << rtl::phase_name(conflict.visible_phase) << ")";
  return out.str();
}

std::string to_string(const DisciplineViolation& violation) {
  std::ostringstream out;
  out << "module " << violation.module << " at step " << violation.step
      << " receives " << violation.ports_driven << " of "
      << violation.ports_required << " required operands";
  return out.str();
}

AnalysisReport analyze(const Design& design) {
  AnalysisReport report;

  // --- multi-drive conflicts -------------------------------------------------
  struct DriveKey {
    std::string sink;
    unsigned step;
    rtl::Phase phase;
    auto operator<=>(const DriveKey&) const = default;
  };
  std::map<DriveKey, unsigned> drive_counts;
  for (const TransInstance& instance : to_instances(design.transfers)) {
    ++drive_counts[DriveKey{to_string(instance.sink), instance.step, instance.phase}];
  }
  for (const auto& [key, count] : drive_counts) {
    if (count >= 2) {
      report.drive_conflicts.push_back(DriveConflict{
          key.sink, key.step, key.phase, rtl::succ(key.phase), count});
    }
  }

  // --- operand discipline ----------------------------------------------------
  struct ModuleStep {
    std::string module;
    unsigned step;
    auto operator<=>(const ModuleStep&) const = default;
  };
  struct Usage {
    std::set<unsigned> ports;
    std::optional<std::int64_t> op;
  };
  std::map<ModuleStep, Usage> usage;
  for (const RegisterTransfer& transfer : design.transfers) {
    if (!transfer.read_step.has_value()) {
      continue;
    }
    Usage& u = usage[ModuleStep{transfer.module, *transfer.read_step}];
    if (transfer.operand_a) {
      u.ports.insert(0);
    }
    if (transfer.operand_b) {
      u.ports.insert(1);
    }
    if (transfer.op) {
      u.op = transfer.op;
    }
  }
  for (const auto& [key, u] : usage) {
    const ModuleDecl* module = design.find_module(key.module);
    if (module == nullptr) {
      continue;  // validate() reports this
    }
    // An op-port module with no op scheduled must see no operand either.
    const std::optional<unsigned> required =
        module->has_op_port() && !u.op.has_value()
            ? 0u
            : operand_arity(*module, u.op.value_or(0));
    if (!required.has_value()) {
      continue;  // unknown op: rejected by validate, not here
    }
    const unsigned driven = static_cast<unsigned>(u.ports.size());
    const bool idle_ok = driven == 0 && !u.op.has_value();
    if (!idle_ok && driven != *required) {
      report.discipline_violations.push_back(
          DisciplineViolation{key.module, key.step, driven, *required});
    }
  }
  return report;
}

}  // namespace ctrtl::transfer
