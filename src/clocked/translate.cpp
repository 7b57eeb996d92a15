#include "clocked/translate.h"

#include <algorithm>
#include <limits>
#include <sstream>
#include <stdexcept>

#include "transfer/conflict.h"

namespace ctrtl::clocked {

std::string TranslationPlan::to_text() const {
  std::ostringstream out;
  out << "clock cycles: " << clock_cycles << '\n';
  for (const auto& [module, schedule] : module_schedule) {
    for (const auto& [step, activation] : schedule) {
      out << "cycle " << step << ": " << module << " reads";
      for (const OperandSelect& operand : activation.operands) {
        out << " in" << operand.port + 1 << "<-"
            << transfer::to_string(operand.source);
      }
      if (activation.op.has_value()) {
        out << " op=" << *activation.op;
      }
      out << '\n';
    }
  }
  for (const auto& [reg, writes] : register_schedule) {
    for (const WriteSelect& write : writes) {
      out << "cycle " << write.step << ": " << reg << " <= " << write.module
          << ".out\n";
    }
  }
  return out.str();
}

TranslationPlan plan_translation(const transfer::Design& design) {
  common::DiagnosticBag diags;
  if (!validate(design, diags)) {
    throw std::invalid_argument("plan_translation: design does not validate:\n" +
                                diags.to_text());
  }
  const transfer::AnalysisReport analysis = transfer::analyze(design);
  if (!analysis.clean()) {
    std::ostringstream out;
    out << "plan_translation: the abstract schedule has resource conflicts; "
           "fix them before synthesis:\n";
    for (const transfer::DriveConflict& conflict : analysis.drive_conflicts) {
      out << "  " << to_string(conflict) << '\n';
    }
    for (const transfer::DisciplineViolation& violation :
         analysis.discipline_violations) {
      out << "  " << to_string(violation) << '\n';
    }
    throw std::invalid_argument(out.str());
  }

  if (design.cs_max == std::numeric_limits<unsigned>::max()) {
    throw std::invalid_argument("plan_translation: cs_max " +
                                std::to_string(design.cs_max) +
                                " needs more clock cycles than a count holds");
  }

  TranslationPlan plan;
  plan.design = design;
  plan.clock_cycles = design.cs_max + 1;

  for (const transfer::RegisterTransfer& transfer : design.transfers) {
    if (transfer.read_step.has_value()) {
      ModuleActivation& activation =
          plan.module_schedule[transfer.module][*transfer.read_step];
      if (transfer.operand_a) {
        activation.operands.push_back(OperandSelect{0, transfer.operand_a->source});
      }
      if (transfer.operand_b) {
        activation.operands.push_back(OperandSelect{1, transfer.operand_b->source});
      }
      if (transfer.op.has_value()) {
        activation.op = transfer.op;
      }
    }
    if (transfer.write_step.has_value() && transfer.destination.has_value()) {
      plan.register_schedule[*transfer.destination].push_back(
          WriteSelect{*transfer.write_step, transfer.module});
    }
  }
  for (auto& [reg, writes] : plan.register_schedule) {
    std::sort(writes.begin(), writes.end(),
              [](const WriteSelect& a, const WriteSelect& b) {
                return a.step < b.step;
              });
  }
  return plan;
}

}  // namespace ctrtl::clocked
