#include "transfer/design.h"

#include <algorithm>
#include <set>

#include "rtl/modules.h"

namespace ctrtl::transfer {

std::string to_string(ModuleKind kind) {
  switch (kind) {
    case ModuleKind::kAdd:
      return "add";
    case ModuleKind::kSub:
      return "sub";
    case ModuleKind::kMul:
      return "mul";
    case ModuleKind::kAlu:
      return "alu";
    case ModuleKind::kCopy:
      return "copy";
    case ModuleKind::kMacc:
      return "macc";
    case ModuleKind::kCordic:
      return "cordic";
  }
  return "<corrupt>";
}

unsigned ModuleDecl::num_inputs() const {
  switch (kind) {
    case ModuleKind::kCopy:
    case ModuleKind::kCordic:
      return 1;
    default:
      return 2;
  }
}

bool ModuleDecl::has_op_port() const {
  switch (kind) {
    case ModuleKind::kAlu:
    case ModuleKind::kMacc:
    case ModuleKind::kCordic:
      return true;
    default:
      return false;
  }
}

std::optional<unsigned> operand_arity(const ModuleDecl& decl, std::int64_t op) {
  switch (decl.kind) {
    case ModuleKind::kAlu: {
      static const rtl::AluModule::OpTable kOps = rtl::make_standard_alu_ops();
      const auto it = kOps.find(op);
      if (it == kOps.end()) {
        return std::nullopt;
      }
      return it->second.arity;
    }
    case ModuleKind::kMacc:
      switch (op) {
        case rtl::MaccModule::kOpClear:
        case rtl::MaccModule::kOpHold:
          return 0;
        case rtl::MaccModule::kOpLoad:
          return 1;
        case rtl::MaccModule::kOpMac:
          return 2;
        default:
          return std::nullopt;
      }
    case ModuleKind::kCordic:
      if (op != rtl::CordicModule::kOpSin && op != rtl::CordicModule::kOpCos) {
        return std::nullopt;
      }
      return 1;
    default:
      return decl.num_inputs();
  }
}

namespace {

template <typename Decl>
const Decl* find_by_name(const std::vector<Decl>& decls, const std::string& name) {
  const auto it = std::find_if(decls.begin(), decls.end(),
                               [&](const Decl& d) { return d.name == name; });
  return it == decls.end() ? nullptr : &*it;
}

}  // namespace

const ModuleDecl* Design::find_module(const std::string& name) const {
  return find_by_name(modules, name);
}

const RegisterDecl* Design::find_register(const std::string& name) const {
  return find_by_name(registers, name);
}

bool Design::has_bus(const std::string& name) const {
  return find_by_name(buses, name) != nullptr;
}

const ConstantDecl* Design::find_constant(const std::string& name) const {
  return find_by_name(constants, name);
}

bool Design::has_input(const std::string& name) const {
  return find_by_name(inputs, name) != nullptr;
}

namespace {

void check_operand_source(const Design& design, const Endpoint& source,
                          const std::string& context, common::DiagnosticBag& diags) {
  switch (source.kind) {
    case Endpoint::Kind::kRegisterOut:
      if (design.find_register(source.resource) == nullptr) {
        diags.error(context + ": undeclared register '" + source.resource + "'");
      }
      break;
    case Endpoint::Kind::kConstant:
      if (design.find_constant(source.resource) == nullptr) {
        diags.error(context + ": undeclared constant '" + source.resource + "'");
      }
      break;
    case Endpoint::Kind::kInput:
      if (!design.has_input(source.resource)) {
        diags.error(context + ": undeclared input '" + source.resource + "'");
      }
      break;
    default:
      diags.error(context + ": operand source must be a register, constant, or input");
      break;
  }
}

template <typename Decl>
void check_unique_names(const std::vector<Decl>& decls, const char* what,
                        std::set<std::string>& all_names,
                        common::DiagnosticBag& diags) {
  for (const Decl& decl : decls) {
    if (decl.name.empty()) {
      diags.error(std::string(what) + " with empty name");
      continue;
    }
    if (!all_names.insert(decl.name).second) {
      diags.error("duplicate resource name '" + decl.name + "'");
    }
  }
}

}  // namespace

bool validate(const Design& design, common::DiagnosticBag& diags) {
  if (design.cs_max == 0) {
    diags.error("cs_max must be at least 1");
  }

  std::set<std::string> names;
  check_unique_names(design.registers, "register", names, diags);
  check_unique_names(design.buses, "bus", names, diags);
  check_unique_names(design.modules, "module", names, diags);
  check_unique_names(design.constants, "constant", names, diags);
  check_unique_names(design.inputs, "input", names, diags);

  for (std::size_t i = 0; i < design.transfers.size(); ++i) {
    const RegisterTransfer& t = design.transfers[i];
    const std::string context = "transfer " + std::to_string(i) + " " + to_string(t);

    const ModuleDecl* module = nullptr;
    if (t.module.empty()) {
      diags.error(context + ": missing module");
    } else {
      module = design.find_module(t.module);
      if (module == nullptr) {
        diags.error(context + ": undeclared module '" + t.module + "'");
      }
    }

    const bool has_read = t.operand_a.has_value() || t.operand_b.has_value();
    if (has_read && !t.read_step.has_value()) {
      diags.error(context + ": operands given but no read step");
    }
    if (t.read_step && (*t.read_step == 0 || *t.read_step > design.cs_max)) {
      diags.error(context + ": read step outside 1..cs_max");
    }
    if (t.write_step && (*t.write_step == 0 || *t.write_step > design.cs_max)) {
      diags.error(context + ": write step outside 1..cs_max");
    }

    for (const auto* operand : {&t.operand_a, &t.operand_b}) {
      if (!operand->has_value()) {
        continue;
      }
      check_operand_source(design, (*operand)->source, context, diags);
      if (!design.has_bus((*operand)->bus)) {
        diags.error(context + ": undeclared bus '" + (*operand)->bus + "'");
      }
    }
    if (t.operand_b.has_value() && module != nullptr && module->num_inputs() < 2) {
      diags.error(context + ": module '" + t.module + "' has no second input port");
    }

    const bool has_write =
        t.write_step.has_value() || t.write_bus.has_value() || t.destination.has_value();
    if (has_write) {
      if (!t.write_step || !t.write_bus || !t.destination) {
        diags.error(context + ": write side must give step, bus, and destination");
      } else {
        if (!design.has_bus(*t.write_bus)) {
          diags.error(context + ": undeclared bus '" + *t.write_bus + "'");
        }
        if (design.find_register(*t.destination) == nullptr) {
          diags.error(context + ": undeclared destination register '" +
                      *t.destination + "'");
        }
      }
    }

    if (module != nullptr) {
      if (t.op.has_value() && !module->has_op_port()) {
        diags.error(context + ": op code on module '" + t.module +
                    "' which has no operation port");
      } else if (t.op.has_value() && !operand_arity(*module, *t.op)) {
        diags.error(context + ": op code " + std::to_string(*t.op) +
                    " is not an operation of " + to_string(module->kind) +
                    " module '" + t.module + "'");
      }
      if (!t.op.has_value() && module->has_op_port() && has_read) {
        diags.error(context + ": module '" + t.module +
                    "' requires an op code for operand transfers");
      }
      if (t.read_step && t.write_step &&
          *t.write_step != *t.read_step + module->latency) {
        diags.error(context + ": write step " + std::to_string(*t.write_step) +
                    " does not match read step + latency (" +
                    std::to_string(*t.read_step + module->latency) + ")");
      }
    }

    // An op code alone is a valid transfer (it moves the op constant to the
    // module's operation port, e.g. a MACC clear).
    if (!has_read && !has_write && !t.op.has_value()) {
      diags.error(context + ": transfer moves nothing");
    }
  }
  return !diags.has_errors();
}

}  // namespace ctrtl::transfer
