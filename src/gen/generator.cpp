#include "gen/generator.h"

#include <algorithm>
#include <iomanip>
#include <random>
#include <set>
#include <sstream>
#include <stdexcept>
#include <utility>

#include "common/diagnostics.h"
#include "gen/oracle.h"
#include "rtl/modules.h"

namespace ctrtl::gen {

std::string to_string(Profile profile) {
  switch (profile) {
    case Profile::kFabric:
      return "fabric";
    case Profile::kRegfile:
      return "regfile";
    case Profile::kPipeline:
      return "pipeline";
    case Profile::kConflict:
      return "conflict";
    case Profile::kMixed:
      return "mixed";
  }
  return "<corrupt>";
}

bool parse_profile(const std::string& text, Profile& profile) {
  for (const Profile candidate :
       {Profile::kFabric, Profile::kRegfile, Profile::kPipeline,
        Profile::kConflict, Profile::kMixed}) {
    if (text == to_string(candidate)) {
      profile = candidate;
      return true;
    }
  }
  return false;
}

namespace {

using iks::ModuleAction;
using iks::RegSel;
using iks::Route;
using transfer::ModuleDecl;
using transfer::ModuleKind;

using Rng = std::mt19937_64;

/// Uniform draw from [lo, hi] via modulo — deterministic across standard
/// libraries, unlike std::uniform_int_distribution.
unsigned pick(Rng& rng, unsigned lo, unsigned hi) {
  if (hi <= lo) {
    return lo;
  }
  return lo + static_cast<unsigned>(rng() % (hi - lo + 1));
}

bool chance(Rng& rng, unsigned percent) {
  return rng() % 100 < percent;
}

template <typename T>
const T& pick_of(Rng& rng, const std::vector<T>& pool) {
  return pool[pick(rng, 0, static_cast<unsigned>(pool.size()) - 1)];
}

/// One microprogram row under construction: the routes/actions that will
/// become this step's opc1/opc2 codes, plus the instruction fields the
/// file selectors resolve through.
struct StepPlan {
  std::vector<Route> routes;
  std::vector<ModuleAction> actions;
  unsigned j = 0;
  unsigned r = 0;
  unsigned m = 0;
};

/// Generation state: the declared resources, the per-step plans, and the
/// (step, resource) occupancy sets that keep clean placements conflict-free.
/// Read-side and write-side bus occupancy are tracked separately because an
/// `ra` drive and a `wa` drive of the same bus in the same step resolve in
/// different phases and never contend.
struct Build {
  const GeneratorConfig& cfg;
  Rng& rng;
  transfer::Design design;
  std::map<unsigned, StepPlan> plans;
  unsigned transfer_count = 0;

  std::vector<std::string> seed_regs;  // small-init, never written (MUL-safe)
  std::vector<std::string> sink_regs;  // write destinations
  std::vector<std::string> const_names;

  std::set<std::pair<unsigned, std::string>> read_bus;     // (step, bus)
  std::set<std::pair<unsigned, std::string>> write_bus;    // (write step, bus)
  std::set<std::pair<unsigned, std::string>> write_reg;    // (write step, reg)
  std::set<std::pair<unsigned, std::string>> module_busy;  // (step, module)

  Build(const GeneratorConfig& config, Rng& generator)
      : cfg(config), rng(generator) {
    // Profiles hold references to declared modules across declarations.
    design.modules.reserve(16);
  }

  [[nodiscard]] bool budget_left() const {
    return transfer_count < cfg.max_transfers;
  }
};

void declare_registers(Build& b, unsigned seeds, unsigned sinks) {
  for (unsigned i = 0; i < seeds + sinks; ++i) {
    const std::string name = "R" + std::to_string(i);
    b.design.registers.push_back(
        {name, static_cast<std::int64_t>(pick(b.rng, 1, 9))});
    (i < seeds ? b.seed_regs : b.sink_regs).push_back(name);
  }
}

void declare_buses(Build& b, unsigned count) {
  for (unsigned i = 0; i < count; ++i) {
    b.design.buses.push_back({"B" + std::to_string(i)});
  }
}

void declare_constants(Build& b, unsigned count) {
  for (unsigned i = 0; i < count; ++i) {
    const std::string name = "K" + std::to_string(i);
    b.design.constants.push_back(
        {name, static_cast<std::int64_t>(pick(b.rng, 1, 9))});
    b.const_names.push_back(name);
  }
}

const ModuleDecl& declare_module(Build& b, std::string name, ModuleKind kind,
                                 unsigned latency) {
  b.design.modules.push_back({std::move(name), kind, latency});
  return b.design.modules.back();
}

std::vector<std::string> free_read_buses(const Build& b, unsigned step) {
  std::vector<std::string> free;
  for (const transfer::BusDecl& bus : b.design.buses) {
    if (!b.read_bus.contains({step, bus.name})) {
      free.push_back(bus.name);
    }
  }
  return free;
}

/// Operand source for a clean route. Multiplying units only ever read the
/// never-written seed registers, which bounds every product chain well below
/// the int64 range (overflow containment).
RegSel pick_source(Build& b, ModuleKind kind) {
  const bool multiplies = kind == ModuleKind::kMul || kind == ModuleKind::kMacc;
  if (!multiplies && !b.const_names.empty() && chance(b.rng, 20)) {
    return RegSel::constant(pick_of(b.rng, b.const_names));
  }
  const std::vector<std::string>& pool =
      ((multiplies || b.sink_regs.empty() || chance(b.rng, 60)) &&
       !b.seed_regs.empty())
          ? b.seed_regs
          : b.sink_regs;
  return RegSel::fixed(pick_of(b.rng, pool));
}

/// ALU repertoire used by clean activities: (op code, arity).
std::pair<std::int64_t, unsigned> pick_alu_op(Rng& rng) {
  namespace ops = rtl::alu_ops;
  static const std::pair<std::int64_t, unsigned> kChoices[] = {
      {ops::kAdd, 2},  {ops::kSub, 2},          {ops::kPassA, 1},
      {ops::kNegA, 1}, {ops::kMin, 2},          {ops::kMax, 2},
      {ops::kRshiftBase + 2, 1},
  };
  return kChoices[pick(rng, 0, 6)];
}

/// Schedules one conflict-free activity of `module` at `step`: routes for
/// the op's full arity over distinct unoccupied buses, the action with op
/// code, and (usually) a write-back to an unoccupied (bus, register) slot at
/// step + latency. Returns false when the step has no room.
bool clean_activity(Build& b, unsigned step, const ModuleDecl& module) {
  if (!b.budget_left() || b.module_busy.contains({step, module.name})) {
    return false;
  }
  std::optional<std::int64_t> op;
  unsigned arity = module.num_inputs();
  if (module.kind == ModuleKind::kAlu) {
    const auto [code, op_arity] = pick_alu_op(b.rng);
    op = code;
    arity = op_arity;
  } else if (module.kind == ModuleKind::kMacc) {
    op = rtl::MaccModule::kOpMac;
    arity = 2;
  }
  std::vector<std::string> buses = free_read_buses(b, step);
  if (buses.size() < arity) {
    return false;
  }
  // Deterministic draw of `arity` distinct buses.
  std::vector<std::string> chosen;
  for (unsigned i = 0; i < arity; ++i) {
    const unsigned index = pick(b.rng, 0, static_cast<unsigned>(buses.size()) - 1);
    chosen.push_back(buses[index]);
    buses.erase(buses.begin() + index);
  }

  const unsigned write_step = step + module.latency;
  std::optional<ModuleAction::Write> write;
  if (write_step <= b.design.cs_max && chance(b.rng, 80)) {
    std::vector<std::string> wbuses;
    for (const transfer::BusDecl& bus : b.design.buses) {
      if (!b.write_bus.contains({write_step, bus.name})) {
        wbuses.push_back(bus.name);
      }
    }
    std::vector<std::string> wregs;
    for (const std::string& reg : b.sink_regs) {
      if (!b.write_reg.contains({write_step, reg})) {
        wregs.push_back(reg);
      }
    }
    if (!wbuses.empty() && !wregs.empty()) {
      const std::string wbus = pick_of(b.rng, wbuses);
      const std::string wreg = pick_of(b.rng, wregs);
      write = ModuleAction::Write{RegSel::fixed(wreg), wbus};
      b.write_bus.insert({write_step, wbus});
      b.write_reg.insert({write_step, wreg});
    }
  }

  StepPlan& plan = b.plans[step];
  for (unsigned port = 0; port < arity; ++port) {
    plan.routes.push_back(
        {pick_source(b, module.kind), chosen[port], module.name, port});
    b.read_bus.insert({step, chosen[port]});
  }
  plan.actions.push_back({module.name, op, write});
  b.module_busy.insert({step, module.name});
  ++b.transfer_count;
  return true;
}

// --- profiles ----------------------------------------------------------------

void build_fabric(Build& b) {
  declare_buses(b, pick(b.rng, std::min(3u, b.cfg.max_buses), b.cfg.max_buses));
  const unsigned regs =
      pick(b.rng, std::min(4u, b.cfg.max_registers), b.cfg.max_registers);
  declare_registers(b, regs / 2, regs - regs / 2);
  declare_constants(b, 2);
  b.design.cs_max = pick(b.rng, std::min(6u, b.cfg.max_steps), b.cfg.max_steps);
  std::vector<const ModuleDecl*> palette;
  palette.push_back(&declare_module(b, "ADD0", ModuleKind::kAdd, 1));
  palette.push_back(&declare_module(b, "SUB0", ModuleKind::kSub, 1));
  palette.push_back(&declare_module(b, "ALU0", ModuleKind::kAlu, 1));
  palette.push_back(&declare_module(b, "CP0", ModuleKind::kCopy, 0));
  for (unsigned step = 1; step <= b.design.cs_max && b.budget_left(); ++step) {
    const unsigned activities = pick(b.rng, 0, 2);
    for (unsigned i = 0; i < activities; ++i) {
      clean_activity(b, step, *pick_of(b.rng, palette));
    }
  }
}

void build_regfile(Build& b) {
  declare_buses(b, std::min(3u, std::max(3u, b.cfg.max_buses)));
  declare_registers(b, 0, std::min(4u, std::max(2u, b.cfg.max_registers)));
  for (unsigned i = 0; i < 4; ++i) {
    const std::string name = "J" + std::to_string(i);
    b.design.registers.push_back(
        {name, static_cast<std::int64_t>(pick(b.rng, 1, 9))});
    b.seed_regs.push_back(name);
  }
  declare_constants(b, 1);
  b.design.cs_max = pick(b.rng, std::min(6u, b.cfg.max_steps), b.cfg.max_steps);
  const ModuleDecl& add = declare_module(b, "ADD0", ModuleKind::kAdd, 1);
  const ModuleDecl& macc = declare_module(b, "MAC0", ModuleKind::kMacc, 1);

  const unsigned r_count = static_cast<unsigned>(b.sink_regs.size());
  for (unsigned step = 1; step <= b.design.cs_max && b.budget_left(); ++step) {
    if (chance(b.rng, 40) && step + 2 <= b.design.cs_max &&
        !b.module_busy.contains({step, macc.name})) {
      // MACC segment: clear, then a run of multiply-accumulates indexed
      // through the j/r instruction fields, the last one writing the
      // accumulator to R[m].
      b.plans[step].actions.push_back(
          {macc.name, rtl::MaccModule::kOpClear, std::nullopt});
      b.module_busy.insert({step, macc.name});
      ++b.transfer_count;
      const unsigned run =
          pick(b.rng, 1, std::min(3u, b.design.cs_max - step - 1));
      for (unsigned i = 1; i <= run && b.budget_left(); ++i) {
        const unsigned at = step + i;
        StepPlan& plan = b.plans[at];
        plan.j = pick(b.rng, 0, 3);
        plan.r = pick(b.rng, 0, r_count - 1);
        plan.routes.push_back({RegSel::j_file('j'), "B0", macc.name, 0});
        plan.routes.push_back({RegSel::r_file('r'), "B1", macc.name, 1});
        b.read_bus.insert({at, "B0"});
        b.read_bus.insert({at, "B1"});
        ModuleAction action{macc.name, rtl::MaccModule::kOpMac, std::nullopt};
        const unsigned write_step = at + macc.latency;
        if (i == run && write_step <= b.design.cs_max &&
            !b.write_bus.contains({write_step, "B2"})) {
          std::vector<unsigned> free_m;
          for (unsigned index = 0; index < r_count; ++index) {
            if (!b.write_reg.contains({write_step, "R" + std::to_string(index)})) {
              free_m.push_back(index);
            }
          }
          if (!free_m.empty()) {
            plan.m = pick_of(b.rng, free_m);
            action.write = ModuleAction::Write{RegSel::r_file('m'), "B2"};
            b.write_bus.insert({write_step, "B2"});
            b.write_reg.insert({write_step, "R" + std::to_string(plan.m)});
          }
        }
        plan.actions.push_back(std::move(action));
        b.module_busy.insert({at, macc.name});
        ++b.transfer_count;
      }
      step += run;
    } else if (chance(b.rng, 55)) {
      clean_activity(b, step, add);
    }
  }
}

void build_pipeline(Build& b) {
  declare_buses(b, pick(b.rng, std::min(3u, b.cfg.max_buses), b.cfg.max_buses));
  const unsigned regs =
      pick(b.rng, std::min(4u, b.cfg.max_registers), b.cfg.max_registers);
  declare_registers(b, regs / 2, regs - regs / 2);
  declare_constants(b, 1);
  b.design.cs_max = pick(b.rng, std::min(8u, b.cfg.max_steps),
                         std::max(8u, b.cfg.max_steps));
  std::vector<const ModuleDecl*> palette;
  palette.push_back(
      &declare_module(b, "ADD0", ModuleKind::kAdd, pick(b.rng, 2, 4)));
  palette.push_back(
      &declare_module(b, "SUB0", ModuleKind::kSub, pick(b.rng, 2, 3)));
  palette.push_back(&declare_module(b, "MUL0", ModuleKind::kMul, 2));
  // Issue on consecutive steps so several results are in flight at once.
  for (unsigned step = 1; step <= b.design.cs_max && b.budget_left(); ++step) {
    if (chance(b.rng, 65)) {
      const ModuleDecl& module = *pick_of(b.rng, palette);
      if (step + module.latency <= b.design.cs_max) {
        clean_activity(b, step, module);
      }
    }
  }
}

// --- conflict injections -----------------------------------------------------

/// Any-bus fallback: conflict-profile routes prefer free buses but will
/// double-book deliberately scheduled ones rather than give up.
std::string any_bus(Build& b, unsigned step) {
  std::vector<std::string> free = free_read_buses(b, step);
  if (!free.empty()) {
    return pick_of(b.rng, free);
  }
  return b.design.buses[pick(b.rng, 0, static_cast<unsigned>(
                                          b.design.buses.size()) -
                                          1)]
      .name;
}

std::optional<ModuleAction::Write> any_write(Build& b, unsigned write_step) {
  if (write_step > b.design.cs_max || b.sink_regs.empty()) {
    return std::nullopt;
  }
  std::vector<std::string> wbuses;
  for (const transfer::BusDecl& bus : b.design.buses) {
    if (!b.write_bus.contains({write_step, bus.name})) {
      wbuses.push_back(bus.name);
    }
  }
  const std::string wbus =
      wbuses.empty() ? b.design.buses.front().name : pick_of(b.rng, wbuses);
  const std::string wreg = pick_of(b.rng, b.sink_regs);
  b.write_bus.insert({write_step, wbus});
  b.write_reg.insert({write_step, wreg});
  return ModuleAction::Write{RegSel::fixed(wreg), wbus};
}

const ModuleDecl* find_free_module(Build& b, unsigned step,
                                   const ModuleDecl* other_than = nullptr) {
  std::vector<const ModuleDecl*> free;
  for (const ModuleDecl& module : b.design.modules) {
    if (&module != other_than && module.num_inputs() >= 1 &&
        !b.module_busy.contains({step, module.name})) {
      free.push_back(&module);
    }
  }
  return free.empty() ? nullptr : pick_of(b.rng, free);
}

/// Routes `module`'s full operand arity at `step`, with port 0 taken from
/// `port0_bus` when given (the deliberately shared bus) and the rest from
/// any_bus. Appends the action; bumps the transfer budget.
void route_full(Build& b, unsigned step, const ModuleDecl& module,
                const std::optional<std::string>& port0_bus, bool with_write,
                const RegSel* port0_src = nullptr) {
  std::optional<std::int64_t> op;
  unsigned arity = module.num_inputs();
  if (module.kind == ModuleKind::kAlu) {
    op = rtl::alu_ops::kAdd;
  } else if (module.kind == ModuleKind::kMacc) {
    op = rtl::MaccModule::kOpMac;
  }
  StepPlan& plan = b.plans[step];
  for (unsigned port = 0; port < arity; ++port) {
    const std::string bus = (port == 0 && port0_bus) ? *port0_bus : any_bus(b, step);
    const RegSel src = (port == 0 && port0_src) ? *port0_src
                                                : pick_source(b, module.kind);
    plan.routes.push_back({src, bus, module.name, port});
    b.read_bus.insert({step, bus});
  }
  plan.actions.push_back(
      {module.name, op,
       with_write ? any_write(b, step + module.latency) : std::nullopt});
  b.module_busy.insert({step, module.name});
  ++b.transfer_count;
}

/// Two activities whose port-0 operands share one bus: both `ra` drives
/// contend, the bus goes ILLEGAL at (step, rb), and the poison cascades
/// through both modules into their write-backs.
bool inject_read_doublebook(Build& b) {
  for (unsigned attempt = 0; attempt < 8; ++attempt) {
    const unsigned step = pick(b.rng, 1, b.design.cs_max);
    const ModuleDecl* first = find_free_module(b, step);
    if (first == nullptr) {
      continue;
    }
    b.module_busy.insert({step, first->name});  // reserve before second draw
    const ModuleDecl* second = find_free_module(b, step, first);
    b.module_busy.erase({step, first->name});
    if (second == nullptr) {
      continue;
    }
    const std::string shared = any_bus(b, step);
    route_full(b, step, *first, shared, true);
    route_full(b, step, *second, shared, true);
    return true;
  }
  return false;
}

/// Two same-latency modules write through one bus in the same step: both
/// `wa` drives contend at (write step, wb).
bool inject_write_doublebook(Build& b) {
  for (unsigned attempt = 0; attempt < 8; ++attempt) {
    const unsigned step = pick(b.rng, 1, b.design.cs_max);
    std::vector<const ModuleDecl*> free;
    for (const ModuleDecl& module : b.design.modules) {
      if (!b.module_busy.contains({step, module.name}) &&
          step + module.latency <= b.design.cs_max) {
        free.push_back(&module);
      }
    }
    const ModuleDecl* first = nullptr;
    const ModuleDecl* second = nullptr;
    for (const ModuleDecl* a : free) {
      for (const ModuleDecl* candidate : free) {
        if (candidate != a && candidate->latency == a->latency) {
          first = a;
          second = candidate;
          break;
        }
      }
      if (first != nullptr) {
        break;
      }
    }
    if (first == nullptr || b.sink_regs.size() < 2) {
      continue;
    }
    const unsigned write_step = step + first->latency;
    const std::string wbus = b.design.buses.front().name;
    StepPlan& plan = b.plans[step];
    unsigned dest = 0;
    for (const ModuleDecl* module : {first, second}) {
      unsigned arity = module->num_inputs();
      std::optional<std::int64_t> op;
      if (module->kind == ModuleKind::kAlu) {
        op = rtl::alu_ops::kAdd;
      } else if (module->kind == ModuleKind::kMacc) {
        op = rtl::MaccModule::kOpMac;
      }
      for (unsigned port = 0; port < arity; ++port) {
        const std::string bus = any_bus(b, step);
        plan.routes.push_back(
            {pick_source(b, module->kind), bus, module->name, port});
        b.read_bus.insert({step, bus});
      }
      plan.actions.push_back(
          {module->name, op,
           ModuleAction::Write{RegSel::fixed(b.sink_regs[dest]), wbus}});
      b.module_busy.insert({step, module->name});
      b.write_reg.insert({write_step, b.sink_regs[dest]});
      ++b.transfer_count;
      ++dest;
    }
    b.write_bus.insert({write_step, wbus});
    return true;
  }
  return false;
}

/// Operand-discipline violation on a dedicated module: a two-input unit
/// receives only its port-0 operand, evaluates ILLEGAL at (step, cm), and
/// the write-back makes the poison observable.
bool inject_discipline(Build& b, const ModuleDecl& victim) {
  for (unsigned attempt = 0; attempt < 8; ++attempt) {
    const unsigned step = pick(b.rng, 1, b.design.cs_max);
    if (b.module_busy.contains({step, victim.name}) ||
        step + victim.latency > b.design.cs_max) {
      continue;
    }
    StepPlan& plan = b.plans[step];
    const std::string bus = any_bus(b, step);
    plan.routes.push_back(
        {pick_source(b, victim.kind), bus, victim.name, 0});
    b.read_bus.insert({step, bus});
    plan.actions.push_back(
        {victim.name, std::nullopt, any_write(b, step + victim.latency)});
    b.module_busy.insert({step, victim.name});
    ++b.transfer_count;
    return true;
  }
  return false;
}

/// Reads of a never-written, never-initialized register: both operands DISC
/// gives a DISC result (vanishing write), one DISC operand against a value
/// is a discipline ILLEGAL.
bool inject_uninit_read(Build& b, const std::string& uninit) {
  for (unsigned attempt = 0; attempt < 8; ++attempt) {
    const unsigned step = pick(b.rng, 1, b.design.cs_max);
    const ModuleDecl* module = find_free_module(b, step);
    if (module == nullptr || module->num_inputs() < 2 ||
        step + module->latency > b.design.cs_max) {
      continue;
    }
    const bool both_disc = chance(b.rng, 50);
    const RegSel src0 = RegSel::fixed(uninit);
    StepPlan& plan = b.plans[step];
    const std::string bus0 = any_bus(b, step);
    plan.routes.push_back({src0, bus0, module->name, 0});
    b.read_bus.insert({step, bus0});
    const std::string bus1 = any_bus(b, step);
    plan.routes.push_back({both_disc ? RegSel::fixed(uninit)
                                     : pick_source(b, module->kind),
                           bus1, module->name, 1});
    b.read_bus.insert({step, bus1});
    std::optional<std::int64_t> op;
    if (module->kind == ModuleKind::kAlu) {
      op = rtl::alu_ops::kAdd;
    } else if (module->kind == ModuleKind::kMacc) {
      op = rtl::MaccModule::kOpMac;
    }
    plan.actions.push_back(
        {module->name, op, any_write(b, step + module->latency)});
    b.module_busy.insert({step, module->name});
    ++b.transfer_count;
    return true;
  }
  return false;
}

/// An op code without its operands: the op port selects an arity the empty
/// input set cannot satisfy.
bool inject_op_without_operands(Build& b) {
  const ModuleDecl* alu = nullptr;
  for (const ModuleDecl& module : b.design.modules) {
    if (module.has_op_port()) {
      alu = &module;
      break;
    }
  }
  if (alu == nullptr) {
    return false;
  }
  for (unsigned attempt = 0; attempt < 8; ++attempt) {
    const unsigned step = pick(b.rng, 1, b.design.cs_max);
    if (b.module_busy.contains({step, alu->name}) ||
        step + alu->latency > b.design.cs_max) {
      continue;
    }
    const std::int64_t op = alu->kind == ModuleKind::kMacc
                                ? rtl::MaccModule::kOpMac
                                : rtl::alu_ops::kAdd;
    b.plans[step].actions.push_back(
        {alu->name, op, any_write(b, step + alu->latency)});
    b.module_busy.insert({step, alu->name});
    ++b.transfer_count;
    return true;
  }
  return false;
}

unsigned inject_violations(Build& b, unsigned count,
                           const std::string& uninit_reg) {
  unsigned injected = 0;
  for (unsigned i = 0; i < count; ++i) {
    bool done = false;
    switch (pick(b.rng, 0, 3)) {
      case 0:
        done = inject_read_doublebook(b);
        break;
      case 1:
        done = inject_write_doublebook(b);
        break;
      case 2:
        done = inject_uninit_read(b, uninit_reg);
        break;
      default:
        done = inject_op_without_operands(b);
        break;
    }
    injected += done ? 1 : 0;
  }
  return injected;
}

std::string declare_uninit_register(Build& b) {
  const std::string name = "U0";
  if (b.design.find_register(name) == nullptr) {
    b.design.registers.push_back({name, std::nullopt});
  }
  return name;
}

void build_conflict(Build& b) {
  declare_buses(b, pick(b.rng, std::min(3u, b.cfg.max_buses), b.cfg.max_buses));
  const unsigned regs =
      pick(b.rng, std::min(4u, b.cfg.max_registers), b.cfg.max_registers);
  declare_registers(b, regs / 2, regs - regs / 2);
  declare_constants(b, 1);
  b.design.cs_max = pick(b.rng, std::min(6u, b.cfg.max_steps), b.cfg.max_steps);
  std::vector<const ModuleDecl*> palette;
  palette.push_back(&declare_module(b, "ADD0", ModuleKind::kAdd, 1));
  palette.push_back(&declare_module(b, "SUB0", ModuleKind::kSub, 1));
  palette.push_back(&declare_module(b, "ALU0", ModuleKind::kAlu, 1));
  // Reserved for the guaranteed violation; clean activities never touch it.
  const ModuleDecl& victim = declare_module(b, "XV0", ModuleKind::kAdd, 1);
  const std::string uninit = declare_uninit_register(b);

  const unsigned clean = pick(b.rng, 1, 3);
  for (unsigned i = 0; i < clean; ++i) {
    clean_activity(b, pick(b.rng, 1, b.design.cs_max - 1),
                   *pick_of(b.rng, palette));
  }
  // The discipline violation on the reserved module always lands, so a
  // conflict-profile case predicts at least one conflict by construction.
  if (!inject_discipline(b, victim)) {
    StepPlan& plan = b.plans[1];
    const std::string bus = b.design.buses.front().name;
    plan.routes.push_back({RegSel::fixed(b.seed_regs.front()), bus,
                           victim.name, 0});
    plan.actions.push_back(
        {victim.name, std::nullopt,
         ModuleAction::Write{RegSel::fixed(b.sink_regs.front()),
                             b.design.buses.back().name}});
    b.module_busy.insert({1, victim.name});
    ++b.transfer_count;
  }
  inject_violations(b, pick(b.rng, 0, 2), uninit);
}

// --- assembly ----------------------------------------------------------------

std::string sel_text(const RegSel& sel) {
  switch (sel.kind) {
    case RegSel::Kind::kFixed:
      return sel.name;
    case RegSel::Kind::kJFile:
      return std::string("J[") + sel.field + "]";
    case RegSel::Kind::kRFile:
      return std::string("R[") + sel.field + "]";
    case RegSel::Kind::kConstant:
      return "#" + sel.name;
  }
  return "<corrupt>";
}

}  // namespace

std::string Microcode::to_text() const {
  std::ostringstream out;
  out << "addr opc1 opc2    m    j    r\n";
  for (const iks::MicroInstruction& instr : program) {
    out << std::setw(4) << instr.addr << ' ' << std::setw(4) << instr.opc1
        << ' ' << std::setw(4) << instr.opc2 << ' ' << std::setw(4) << instr.m
        << ' ' << std::setw(4) << instr.j << ' ' << std::setw(4) << instr.r
        << '\n';
  }
  for (const auto& [code, routes] : maps.opc1) {
    if (routes.empty()) {
      continue;
    }
    out << "opc1 " << code << ":";
    for (const Route& route : routes) {
      out << " (" << sel_text(route.src) << " -> " << route.bus << " -> "
          << route.module << ".in" << route.port + 1 << ")";
    }
    out << '\n';
  }
  for (const auto& [code, actions] : maps.opc2) {
    if (actions.empty()) {
      continue;
    }
    out << "opc2 " << code << ":";
    for (const ModuleAction& action : actions) {
      out << " (" << action.module;
      if (action.op.has_value()) {
        out << " op=" << *action.op;
      }
      if (action.write.has_value()) {
        out << " -> " << action.write->bus << " -> "
            << sel_text(action.write->dst);
      }
      out << ")";
    }
    out << '\n';
  }
  return out.str();
}

GeneratedCase generate(const GeneratorConfig& config) {
  Rng rng(config.seed);
  Profile resolved = config.profile;
  bool layered = false;
  if (resolved == Profile::kMixed) {
    resolved = static_cast<Profile>(pick(rng, 0, 3));
  }

  Build b(config, rng);
  b.design.name = "gen_" + to_string(resolved) + "_" +
                  std::to_string(config.seed);
  switch (resolved) {
    case Profile::kFabric:
      build_fabric(b);
      break;
    case Profile::kRegfile:
      build_regfile(b);
      break;
    case Profile::kPipeline:
      build_pipeline(b);
      break;
    case Profile::kConflict:
    default:
      build_conflict(b);
      break;
  }
  // A mixed draw occasionally layers violations over the clean base.
  if (config.profile == Profile::kMixed && resolved != Profile::kConflict &&
      chance(rng, 35)) {
    layered =
        inject_violations(b, pick(rng, 1, 2), declare_uninit_register(b)) > 0;
  }

  GeneratedCase result;
  result.seed = config.seed;
  result.profile =
      layered ? Profile::kMixed : resolved;

  result.microcode.maps.opc1[0] = {};
  result.microcode.maps.opc2[0] = {};
  for (auto& [step, plan] : b.plans) {
    const unsigned code1 = plan.routes.empty() ? 0 : step;
    const unsigned code2 = plan.actions.empty() ? 0 : step;
    if (code1 != 0) {
      result.microcode.maps.opc1[step] = plan.routes;
    }
    if (code2 != 0) {
      result.microcode.maps.opc2[step] = plan.actions;
    }
    if (code1 != 0 || code2 != 0) {
      result.microcode.program.push_back(
          {step, code1, code2, plan.m, plan.j, plan.r});
    }
  }

  b.design.transfers = iks::translate_microcode(
      result.microcode.program, result.microcode.maps, b.design);
  common::DiagnosticBag diags;
  if (!transfer::validate(b.design, diags)) {
    throw std::logic_error("generate: seed " + std::to_string(config.seed) +
                           " produced an invalid design:\n" + diags.to_text());
  }
  result.design = std::move(b.design);
  result.oracle = predict_outcomes(result.design);
  return result;
}

transfer::Design shrink(
    const transfer::Design& design,
    const std::function<bool(const transfer::Design&)>& still_fails) {
  transfer::Design current = design;
  bool progress = true;
  while (progress && !current.transfers.empty()) {
    progress = false;
    for (std::size_t i = 0; i < current.transfers.size(); ++i) {
      transfer::Design candidate = current;
      candidate.transfers.erase(candidate.transfers.begin() +
                                static_cast<std::ptrdiff_t>(i));
      common::DiagnosticBag diags;
      if (!transfer::validate(candidate, diags)) {
        continue;
      }
      if (still_fails(candidate)) {
        current = std::move(candidate);
        progress = true;
        break;
      }
    }
  }
  return current;
}

}  // namespace ctrtl::gen
