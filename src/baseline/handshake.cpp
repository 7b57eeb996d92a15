#include "baseline/handshake.h"

#include <algorithm>
#include <numeric>
#include <stdexcept>

#include "kernel/task.h"
#include "transfer/module_sim.h"

namespace ctrtl::baseline {

using rtl::RtValue;
using RtSig = kernel::Signal<RtValue>;
using IdSig = kernel::Signal<std::int64_t>;

namespace {

/// Request lines are idle-0, driven by at most one client at a time; the
/// sum resolver keeps the active id visible without arbitration logic.
std::int64_t sum_resolver(std::span<const std::int64_t> values) {
  return std::accumulate(values.begin(), values.end(), std::int64_t{0});
}

RtValue rt_resolver(std::span<const RtValue> values) {
  return rtl::resolve_rt(values);
}

}  // namespace

struct HandshakeModel::Impl {
  transfer::Design design;  // owned copy: clients point into its transfers

  struct RegisterServer {
    RtValue value = RtValue::disc();
    IdSig* r_req = nullptr;
    RtSig* r_data = nullptr;
    kernel::DriverId r_data_driver = 0;
    IdSig* r_ack = nullptr;
    kernel::DriverId r_ack_driver = 0;
    IdSig* w_req = nullptr;
    RtSig* w_data = nullptr;
    IdSig* w_ack = nullptr;
    kernel::DriverId w_ack_driver = 0;
  };
  std::map<std::string, RegisterServer> registers;

  struct ModuleServer {
    transfer::ModuleSim sim;
    IdSig* req = nullptr;
    RtSig* a = nullptr;
    RtSig* b = nullptr;
    RtSig* op = nullptr;
    RtSig* res = nullptr;
    kernel::DriverId res_driver = 0;
    IdSig* ack = nullptr;
    kernel::DriverId ack_driver = 0;
    // Results are produced within the handshake (`evaluate` only), so the
    // unit needs no pipeline beyond the one stage a ModuleSim keeps.
    explicit ModuleServer(const transfer::ModuleDecl& decl) : sim(decl, 1) {}
  };
  std::map<std::string, ModuleServer> modules;

  std::map<std::string, RtValue> constants;
  std::map<std::string, std::pair<RtSig*, kernel::DriverId>> inputs;

  IdSig* start = nullptr;
  kernel::DriverId start_driver = 0;
  IdSig* done = nullptr;

  struct Client {
    const transfer::RegisterTransfer* tuple = nullptr;
    std::int64_t id = 0;
    // Drivers owned by this client on the shared channels.
    std::map<IdSig*, kernel::DriverId> id_drivers;
    std::map<RtSig*, kernel::DriverId> data_drivers;
    kernel::DriverId done_driver = 0;
  };
  std::vector<std::unique_ptr<Client>> clients;
};

namespace {

using Impl = HandshakeModel::Impl;

kernel::Process register_server(Impl::RegisterServer& reg) {
  auto& r_req = *reg.r_req;
  auto& w_req = *reg.w_req;
  const std::vector<kernel::SignalBase*> sens = {&r_req, &w_req};
  for (;;) {
    co_await kernel::wait_until(
        sens, [&] { return r_req.read() != 0 || w_req.read() != 0; });
    if (r_req.read() != 0) {
      const std::int64_t id = r_req.read();
      reg.r_data->drive(reg.r_data_driver, reg.value);
      reg.r_ack->drive(reg.r_ack_driver, id);
      const std::vector<kernel::SignalBase*> rsens = {&r_req};
      co_await kernel::wait_until(rsens, [&] { return r_req.read() == 0; });
      reg.r_ack->drive(reg.r_ack_driver, 0);
    } else {
      const std::int64_t id = w_req.read();
      reg.value = reg.w_data->read();
      reg.w_ack->drive(reg.w_ack_driver, id);
      const std::vector<kernel::SignalBase*> wsens = {&w_req};
      co_await kernel::wait_until(wsens, [&] { return w_req.read() == 0; });
      reg.w_ack->drive(reg.w_ack_driver, 0);
    }
  }
}

kernel::Process module_server(Impl::ModuleServer& module) {
  auto& req = *module.req;
  const std::vector<kernel::SignalBase*> sens = {&req};
  for (;;) {
    co_await kernel::wait_until(sens, [&] { return req.read() != 0; });
    const std::int64_t id = req.read();
    std::vector<RtValue> operands = {module.a->read()};
    if (module.b != nullptr) {
      operands.push_back(module.b->read());
    }
    const RtValue op =
        module.op != nullptr ? module.op->read() : RtValue::disc();
    module.res->drive(module.res_driver, module.sim.evaluate(operands, op));
    module.ack->drive(module.ack_driver, id);
    co_await kernel::wait_until(sens, [&] { return req.read() == 0; });
    module.ack->drive(module.ack_driver, 0);
  }
}

/// One four-phase exchange as seen from the client: raise the request,
/// wait for the matching ack, release, wait for the ack release.
kernel::Task four_phase(Impl::Client& client, IdSig& req, IdSig& ack) {
  const std::vector<kernel::SignalBase*> sens = {&ack};
  req.drive(client.id_drivers.at(&req), client.id);
  const std::int64_t id = client.id;
  co_await kernel::wait_until(sens, [&ack, id] { return ack.read() == id; });
  req.drive(client.id_drivers.at(&req), 0);
  co_await kernel::wait_until(sens, [&ack] { return ack.read() == 0; });
}

kernel::Task read_source(Impl& impl, Impl::Client& client,
                         const transfer::Endpoint& source, RtValue& out) {
  using transfer::Endpoint;
  switch (source.kind) {
    case Endpoint::Kind::kRegisterOut: {
      Impl::RegisterServer& reg = impl.registers.at(source.resource);
      // The data line is valid while the ack is held; sample between the
      // two halves of the handshake.
      auto& req = *reg.r_req;
      auto& ack = *reg.r_ack;
      const std::vector<kernel::SignalBase*> sens = {&ack};
      req.drive(client.id_drivers.at(&req), client.id);
      const std::int64_t id = client.id;
      co_await kernel::wait_until(sens, [&ack, id] { return ack.read() == id; });
      out = reg.r_data->read();
      req.drive(client.id_drivers.at(&req), 0);
      co_await kernel::wait_until(sens, [&ack] { return ack.read() == 0; });
      break;
    }
    case Endpoint::Kind::kConstant:
      out = impl.constants.at(source.resource);
      break;
    case Endpoint::Kind::kInput:
      out = impl.inputs.at(source.resource).first->read();
      break;
    default:
      throw std::logic_error("handshake model: unsupported operand source");
  }
}

kernel::Process client_process(Impl& impl, Impl::Client& client) {
  const transfer::RegisterTransfer& tuple = *client.tuple;
  auto& start = *impl.start;
  const std::vector<kernel::SignalBase*> start_sens = {&start};
  const std::int64_t id = client.id;
  co_await kernel::wait_until(start_sens,
                              [&start, id] { return start.read() == id; });

  RtValue a = RtValue::disc();
  RtValue b = RtValue::disc();
  if (tuple.operand_a) {
    co_await read_source(impl, client, tuple.operand_a->source, a);
  }
  if (tuple.operand_b) {
    co_await read_source(impl, client, tuple.operand_b->source, b);
  }

  Impl::ModuleServer& module = impl.modules.at(tuple.module);
  module.a->drive(client.data_drivers.at(module.a), a);
  if (module.b != nullptr) {
    module.b->drive(client.data_drivers.at(module.b), b);
  }
  if (module.op != nullptr && tuple.op.has_value()) {
    module.op->drive(client.data_drivers.at(module.op), RtValue::of(*tuple.op));
  }
  co_await four_phase(client, *module.req, *module.ack);
  const RtValue result = module.res->read();
  module.a->drive(client.data_drivers.at(module.a), RtValue::disc());
  if (module.b != nullptr) {
    module.b->drive(client.data_drivers.at(module.b), RtValue::disc());
  }
  if (module.op != nullptr && tuple.op.has_value()) {
    module.op->drive(client.data_drivers.at(module.op), RtValue::disc());
  }

  if (tuple.destination.has_value() && !result.is_disc()) {
    Impl::RegisterServer& dest = impl.registers.at(*tuple.destination);
    dest.w_data->drive(client.data_drivers.at(dest.w_data), result);
    co_await four_phase(client, *dest.w_req, *dest.w_ack);
    dest.w_data->drive(client.data_drivers.at(dest.w_data), RtValue::disc());
  }

  impl.done->drive(client.done_driver, id);
  co_await kernel::wait_until(start_sens, [&start] { return start.read() == 0; });
  impl.done->drive(client.done_driver, 0);
}

kernel::Process sequencer(Impl& impl) {
  auto& done = *impl.done;
  const std::vector<kernel::SignalBase*> sens = {&done};
  for (std::size_t i = 0; i < impl.clients.size(); ++i) {
    const std::int64_t id = impl.clients[i]->id;
    impl.start->drive(impl.start_driver, id);
    co_await kernel::wait_until(sens, [&done, id] { return done.read() == id; });
    impl.start->drive(impl.start_driver, 0);
    co_await kernel::wait_until(sens, [&done] { return done.read() == 0; });
  }
}

}  // namespace

HandshakeModel::HandshakeModel(const transfer::Design& design)
    : scheduler_(std::make_unique<kernel::Scheduler>()),
      impl_(std::make_unique<Impl>()) {
  common::DiagnosticBag diags;
  if (!validate(design, diags)) {
    throw std::invalid_argument("HandshakeModel: design does not validate:\n" +
                                diags.to_text());
  }
  for (const transfer::RegisterTransfer& tuple : design.transfers) {
    const bool has_read = tuple.operand_a || tuple.operand_b || tuple.op;
    if (tuple.destination.has_value() && !has_read) {
      throw std::invalid_argument(
          "HandshakeModel: write-only partial tuples are not representable "
          "in the handshake abstraction");
    }
  }
  impl_->design = design;
  auto& sched = *scheduler_;

  for (const transfer::RegisterDecl& reg : design.registers) {
    Impl::RegisterServer server;
    server.value = reg.initial.has_value() ? RtValue::of(*reg.initial)
                                           : RtValue::disc();
    server.r_req = &sched.make_signal<std::int64_t>(reg.name + ".rreq", 0,
                                                    sum_resolver);
    server.r_data = &sched.make_signal<RtValue>(reg.name + ".rdata", RtValue::disc());
    server.r_data_driver = server.r_data->add_driver(RtValue::disc());
    server.r_ack = &sched.make_signal<std::int64_t>(reg.name + ".rack", 0);
    server.r_ack_driver = server.r_ack->add_driver(0);
    server.w_req = &sched.make_signal<std::int64_t>(reg.name + ".wreq", 0,
                                                    sum_resolver);
    server.w_data =
        &sched.make_signal<RtValue>(reg.name + ".wdata", RtValue::disc(), rt_resolver);
    server.w_ack = &sched.make_signal<std::int64_t>(reg.name + ".wack", 0);
    server.w_ack_driver = server.w_ack->add_driver(0);
    impl_->registers.emplace(reg.name, server);
  }
  // ModuleSim keeps a pointer to its declaration: it must point into the
  // owned copy, never into the caller's (possibly temporary) design.
  for (const transfer::ModuleDecl& module : impl_->design.modules) {
    auto [it, inserted] =
        impl_->modules.emplace(module.name, Impl::ModuleServer(module));
    Impl::ModuleServer& server = it->second;
    server.req = &sched.make_signal<std::int64_t>(module.name + ".req", 0,
                                                  sum_resolver);
    server.a = &sched.make_signal<RtValue>(module.name + ".a", RtValue::disc(),
                                           rt_resolver);
    if (module.num_inputs() > 1) {
      server.b = &sched.make_signal<RtValue>(module.name + ".b", RtValue::disc(),
                                             rt_resolver);
    }
    if (module.has_op_port()) {
      server.op = &sched.make_signal<RtValue>(module.name + ".opv",
                                              RtValue::disc(), rt_resolver);
    }
    server.res = &sched.make_signal<RtValue>(module.name + ".res", RtValue::disc());
    server.res_driver = server.res->add_driver(RtValue::disc());
    server.ack = &sched.make_signal<std::int64_t>(module.name + ".ack", 0);
    server.ack_driver = server.ack->add_driver(0);
  }
  for (const transfer::ConstantDecl& constant : design.constants) {
    impl_->constants.emplace(constant.name, RtValue::of(constant.value));
  }
  for (const transfer::InputDecl& input : design.inputs) {
    RtSig& sig = sched.make_signal<RtValue>("in." + input.name, RtValue::disc());
    impl_->inputs.emplace(input.name,
                          std::pair{&sig, sig.add_driver(RtValue::disc())});
  }

  impl_->start = &sched.make_signal<std::int64_t>("seq.start", 0);
  impl_->start_driver = impl_->start->add_driver(0);
  impl_->done = &sched.make_signal<std::int64_t>("seq.done", 0, sum_resolver);

  // Clients, in schedule order (read step, then declaration order). Tuple
  // pointers go into the owned copy, not the caller's design.
  std::vector<const transfer::RegisterTransfer*> ordered;
  for (const transfer::RegisterTransfer& tuple : impl_->design.transfers) {
    ordered.push_back(&tuple);
  }
  std::stable_sort(ordered.begin(), ordered.end(),
                   [](const auto* a, const auto* b) {
                     const unsigned sa = a->read_step.value_or(*a->write_step);
                     const unsigned sb = b->read_step.value_or(*b->write_step);
                     return sa < sb;
                   });
  std::int64_t next_id = 1;
  for (const transfer::RegisterTransfer* tuple : ordered) {
    auto client = std::make_unique<Impl::Client>();
    client->tuple = tuple;
    client->id = next_id++;
    client->done_driver = impl_->done->add_driver(0);
    // Allocate the channel drivers this client will use.
    const auto id_driver = [&](IdSig* signal) {
      if (!client->id_drivers.contains(signal)) {
        client->id_drivers[signal] = signal->add_driver(0);
      }
    };
    const auto data_driver = [&](RtSig* signal) {
      if (!client->data_drivers.contains(signal)) {
        client->data_drivers[signal] = signal->add_driver(RtValue::disc());
      }
    };
    for (const auto* operand : {&tuple->operand_a, &tuple->operand_b}) {
      if (operand->has_value() &&
          (*operand)->source.kind == transfer::Endpoint::Kind::kRegisterOut) {
        id_driver(impl_->registers.at((*operand)->source.resource).r_req);
      }
    }
    Impl::ModuleServer& module = impl_->modules.at(tuple->module);
    id_driver(module.req);
    data_driver(module.a);
    if (module.b != nullptr) {
      data_driver(module.b);
    }
    if (module.op != nullptr) {
      data_driver(module.op);
    }
    if (tuple->destination.has_value()) {
      Impl::RegisterServer& dest = impl_->registers.at(*tuple->destination);
      id_driver(dest.w_req);
      data_driver(dest.w_data);
    }
    impl_->clients.push_back(std::move(client));
  }

  // Spawn servers, clients, sequencer.
  for (auto& [name, server] : impl_->registers) {
    sched.spawn("regserver." + name, register_server(server));
  }
  for (auto& [name, server] : impl_->modules) {
    sched.spawn("modserver." + name, module_server(server));
  }
  for (auto& client : impl_->clients) {
    sched.spawn("client." + std::to_string(client->id),
                client_process(*impl_, *client));
  }
  sched.spawn("sequencer", sequencer(*impl_));
}

HandshakeModel::~HandshakeModel() {
  scheduler_->shutdown();
}

HandshakeModel::Result HandshakeModel::run() {
  const kernel::KernelStats before = scheduler_->stats();
  Result result;
  result.kernel_cycles = scheduler_->run();
  result.stats = scheduler_->stats() - before;
  return result;
}

rtl::RtValue HandshakeModel::register_value(const std::string& name) const {
  const auto it = impl_->registers.find(name);
  if (it == impl_->registers.end()) {
    throw std::invalid_argument("HandshakeModel: no register '" + name + "'");
  }
  return it->second.value;
}

void HandshakeModel::set_input(const std::string& name, rtl::RtValue value) {
  const auto it = impl_->inputs.find(name);
  if (it == impl_->inputs.end()) {
    throw std::invalid_argument("HandshakeModel: no input '" + name + "'");
  }
  it->second.first->drive(it->second.second, value);
}

}  // namespace ctrtl::baseline
