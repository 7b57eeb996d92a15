#include "transfer/build.h"

#include <optional>
#include <set>
#include <stdexcept>

#include "rtl/lane_engine.h"
#include "rtl/modules.h"
#include "transfer/mapping.h"
#include "transfer/schedule.h"

namespace ctrtl::transfer {

namespace {

void add_module_for(rtl::RtModel& model, const ModuleDecl& decl) {
  using Span = std::span<const std::int64_t>;
  switch (decl.kind) {
    case ModuleKind::kAdd:
      model.add_module<rtl::FixedFunctionModule>(
          decl.name, 2u, decl.latency, [](Span v) { return v[0] + v[1]; });
      return;
    case ModuleKind::kSub:
      model.add_module<rtl::FixedFunctionModule>(
          decl.name, 2u, decl.latency, [](Span v) { return v[0] - v[1]; });
      return;
    case ModuleKind::kMul: {
      const unsigned frac = decl.frac_bits;
      model.add_module<rtl::FixedFunctionModule>(
          decl.name, 2u, decl.latency,
          [frac](Span v) { return rtl::fixed_mul(v[0], v[1], frac); });
      return;
    }
    case ModuleKind::kAlu:
      model.add_module<rtl::AluModule>(decl.name, 2u, decl.latency,
                                       rtl::make_standard_alu_ops());
      return;
    case ModuleKind::kCopy:
      model.add_module<rtl::CopyModule>(decl.name, decl.latency);
      return;
    case ModuleKind::kMacc:
      model.add_module<rtl::MaccModule>(decl.name, decl.frac_bits, decl.latency);
      return;
    case ModuleKind::kCordic:
      model.add_module<rtl::CordicModule>(decl.name, decl.frac_bits,
                                          decl.iterations, decl.latency);
      return;
  }
  throw std::logic_error("add_module_for: corrupt module kind");
}

}  // namespace

rtl::RtSignal& endpoint_signal(rtl::RtModel& model, const Endpoint& endpoint) {
  const auto fail = [&]() -> rtl::RtSignal& {
    throw std::invalid_argument("endpoint '" + to_string(endpoint) +
                                "' names no resource in the model");
  };
  switch (endpoint.kind) {
    case Endpoint::Kind::kRegisterOut: {
      rtl::Register* reg = model.find_register(endpoint.resource);
      return reg != nullptr ? reg->out() : fail();
    }
    case Endpoint::Kind::kRegisterIn: {
      rtl::Register* reg = model.find_register(endpoint.resource);
      return reg != nullptr ? reg->in() : fail();
    }
    case Endpoint::Kind::kModuleOut: {
      rtl::Module* module = model.find_module(endpoint.resource);
      return module != nullptr ? module->out() : fail();
    }
    case Endpoint::Kind::kModuleIn: {
      rtl::Module* module = model.find_module(endpoint.resource);
      return module != nullptr ? module->input(endpoint.port) : fail();
    }
    case Endpoint::Kind::kModuleOp: {
      rtl::Module* module = model.find_module(endpoint.resource);
      return module != nullptr ? module->op_port() : fail();
    }
    case Endpoint::Kind::kBus: {
      rtl::RtSignal* bus = model.find_bus(endpoint.resource);
      return bus != nullptr ? *bus : fail();
    }
    case Endpoint::Kind::kConstant: {
      rtl::RtSignal* constant = model.find_constant(endpoint.resource);
      return constant != nullptr ? *constant : fail();
    }
    case Endpoint::Kind::kInput: {
      rtl::RtSignal* input = model.find_input(endpoint.resource);
      return input != nullptr ? *input : fail();
    }
  }
  throw std::logic_error("endpoint_signal: corrupt endpoint kind");
}

std::map<std::string, unsigned> latency_map(const Design& design) {
  std::map<std::string, unsigned> latencies;
  for (const ModuleDecl& module : design.modules) {
    latencies[module.name] = module.latency;
  }
  return latencies;
}

namespace {

/// The one elaboration body behind every `build_model`: registers, buses,
/// constants (including the implicit op-code constants derived from the
/// design's tuples), inputs and modules, then the TRANS `instances` in
/// stream order — the spawn order, which every mode keeps within a level.
std::unique_ptr<rtl::RtModel> elaborate(const Design& design,
                                        std::span<const TransInstance> instances,
                                        rtl::TransferMode mode) {
  auto model = std::make_unique<rtl::RtModel>(design.cs_max, mode);
  for (const RegisterDecl& reg : design.registers) {
    model->add_register(reg.name, reg.initial.has_value()
                                      ? std::optional(rtl::RtValue::of(*reg.initial))
                                      : std::nullopt);
  }
  for (const BusDecl& bus : design.buses) {
    model->add_bus(bus.name);
  }
  for (const ConstantDecl& constant : design.constants) {
    model->add_constant(constant.name, constant.value);
  }
  for (const InputDecl& input : design.inputs) {
    model->add_input(input.name);
  }
  for (const ModuleDecl& module : design.modules) {
    add_module_for(*model, module);
  }

  // Implicit constant sources for op codes (shared across modules).
  std::set<std::int64_t> op_codes;
  for (const RegisterTransfer& transfer : design.transfers) {
    if (transfer.op) {
      op_codes.insert(*transfer.op);
    }
  }
  for (const std::int64_t code : op_codes) {
    const std::string name = op_constant_name(code);
    if (model->find_constant(name) == nullptr) {
      model->add_constant(name, code);
    }
  }
  for (const TransInstance& instance : instances) {
    model->add_transfer(instance.step, instance.phase,
                        endpoint_signal(*model, instance.source),
                        endpoint_signal(*model, instance.sink), instance.name());
  }
  return model;
}

}  // namespace

std::unique_ptr<rtl::RtModel> build_model(const Design& design,
                                          rtl::TransferMode mode) {
  return build_model(design, to_instances(design.transfers), mode);
}

std::unique_ptr<rtl::RtModel> build_model(const Design& design,
                                          std::span<const TransInstance> instances,
                                          rtl::TransferMode mode) {
  if (mode == rtl::TransferMode::kCompiled) {
    return build_model(
        *CompiledDesign::compile(
            design, std::vector<TransInstance>(instances.begin(), instances.end())),
        mode);
  }
  common::DiagnosticBag diags;
  if (!validate(design, diags)) {
    throw std::invalid_argument("design '" + design.name +
                                "' does not validate:\n" + diags.to_text());
  }
  return elaborate(design, instances, mode);
}

std::unique_ptr<rtl::RtModel> build_model(const CompiledDesign& compiled,
                                          rtl::TransferMode mode) {
  // `CompiledDesign::compile` validated the design and checked the stream.
  std::unique_ptr<rtl::RtModel> model =
      elaborate(compiled.design, compiled.instances, mode);
  if (mode == rtl::TransferMode::kCompiled) {
    model->set_compiled_run(
        rtl::LaneEngine::model_run(compiled.shared_from_this(), *model));
  }
  return model;
}

}  // namespace ctrtl::transfer
