#include "rtl/lane_engine.h"

#include <algorithm>
#include <chrono>
#include <optional>
#include <span>
#include <stdexcept>
#include <string>
#include <utility>

#include "rtl/modules.h"
#include "transfer/module_sim.h"

namespace ctrtl::rtl {

namespace {

using Tag = RtValue::Kind;
constexpr Tag kDisc = Tag::kDisc;
constexpr Tag kIllegal = Tag::kIllegal;
constexpr Tag kValue = Tag::kValue;

/// Rows of values, one cell per lane, split into a one-byte tag plane and an
/// `int64` payload plane that holds 0 for DISC and ILLEGAL. Both planes are
/// indexed `row * lanes + lane`, so comparing a cell's tag and payload is
/// exactly `RtValue` equality.
struct Planes {
  std::size_t lanes = 0;
  std::vector<Tag> tags;
  std::vector<std::int64_t> payloads;

  /// `rows` rows, every cell DISC.
  void assign(std::size_t rows, std::size_t lane_count) {
    lanes = lane_count;
    tags.assign(rows * lanes, kDisc);
    payloads.assign(rows * lanes, 0);
  }

  [[nodiscard]] Tag* tag_row(std::size_t row) { return tags.data() + row * lanes; }
  [[nodiscard]] std::int64_t* payload_row(std::size_t row) {
    return payloads.data() + row * lanes;
  }

  void set(std::size_t row, std::size_t lane, const RtValue& value) {
    tags[row * lanes + lane] = value.kind();
    payloads[row * lanes + lane] = value.has_value() ? value.payload() : 0;
  }

  [[nodiscard]] RtValue get(std::size_t row, std::size_t lane) const {
    switch (tags[row * lanes + lane]) {
      case kValue:
        return RtValue::of(payloads[row * lanes + lane]);
      case kIllegal:
        return RtValue::illegal();
      case kDisc:
        break;
    }
    return RtValue::disc();
  }
};

/// `run_block`'s publisher: lane values stay in the planes.
struct NoPublish {
  void value(std::uint32_t /*signal*/, std::uint64_t /*ordinal*/) {}
  void control(std::uint64_t /*ordinal*/) {}
};

/// Whether a module kind runs as a per-block kernel; the op-port kinds (ALU,
/// MACC, CORDIC) keep one `transfer::ModuleSim` per lane.
bool has_kernel(transfer::ModuleKind kind) {
  switch (kind) {
    case transfer::ModuleKind::kAdd:
    case transfer::ModuleKind::kSub:
    case transfer::ModuleKind::kMul:
    case transfer::ModuleKind::kCopy:
      return true;
    case transfer::ModuleKind::kAlu:
    case transfer::ModuleKind::kMacc:
    case transfer::ModuleKind::kCordic:
      break;
  }
  return false;
}

}  // namespace

/// All mutable state of one block of lanes, structure-of-arrays: every plane
/// is indexed `row * lanes + lane`, so the per-lane inner loops in
/// `execute_cycle` walk contiguous memory. Stack-local to `run_block` — the
/// engine itself stays immutable and shareable across threads.
struct LaneEngine::LaneBlock {
  /// Where one module's per-lane state lives.
  struct ModuleLanes {
    std::size_t ring = 0;  ///< kernel kinds: first row of its `ring` rows
    std::size_t rows = 0;  ///< kernel kinds: ring rows (pipeline depth)
    std::size_t head = 0;  ///< kernel kinds: ring offset of the oldest row
    std::size_t sims = 0;  ///< ModuleSim kinds: first of its `sims`
  };

  std::size_t lanes = 0;

  Planes values;                             ///< signals × lanes
  Planes contributions;                      ///< total drivers × lanes
  std::vector<ModuleLanes> module_lanes;     ///< one per module
  Planes ring;                               ///< kernel-module pipeline rows × lanes
  std::vector<std::uint8_t> poisoned;        ///< modules × lanes
  std::vector<transfer::ModuleSim> sims;     ///< ModuleSim-kind modules × lanes
  std::vector<RtValue> scratch;              ///< one ModuleSim's operands
  Planes module_pending;                     ///< modules × lanes
  Planes reg_pending;                        ///< registers × lanes
  std::vector<std::uint8_t> reg_dirty;       ///< registers × lanes
  std::vector<std::uint8_t> turned_illegal;  ///< lanes: one sink kernel's mask

  // Lane-varying counter parts; the lane-uniform parts accumulate as
  // scalars and are added at collection time (`lane_stats`).
  std::vector<std::uint64_t> lane_updates;
  std::vector<std::uint64_t> lane_events;
  std::vector<std::uint64_t> lane_transactions;
  std::vector<std::uint64_t> touched_inputs;  ///< updates once cycle 1 ran
  std::vector<std::vector<Conflict>> conflicts;

  // Run position, shared by every lane: `advance` resumes here.
  std::uint64_t cursor = 1;  ///< next ordinal; wheel + 2 once finished
  std::uint64_t uniform_updates = 0;
  std::uint64_t uniform_events = 0;
  std::uint64_t uniform_transactions = 0;
  std::vector<std::uint8_t> trailed;  ///< lanes that ran the trailing cycle
  std::vector<std::uint8_t> tripped;  ///< lanes the last `advance` tripped
  std::uint64_t trip_ordinal = 0;

  /// Drives contribution row `row` with the values of signal `source`.
  void fire(std::size_t row, std::uint32_t source) {
    std::copy_n(values.tag_row(source), lanes, contributions.tag_row(row));
    std::copy_n(values.payload_row(source), lanes,
                contributions.payload_row(row));
  }

  /// Re-resolves a sink from the drivers `first .. first + count - 1` of
  /// its slot, the ones that fired in the previous cycle and so the only
  /// active ones: DISC for none, a copy of the contribution for one, and
  /// `resolve_rt`'s fold for more (ILLEGAL when any contribution is ILLEGAL
  /// or more than one is not DISC). Counts an event in every lane whose
  /// value changed and marks the lanes whose signal turned ILLEGAL. Returns
  /// whether any did.
  bool resolve(const SinkSlot& slot, std::uint32_t first, std::uint32_t count) {
    Tag* tag = values.tag_row(slot.signal);
    std::int64_t* payload = values.payload_row(slot.signal);
    const std::size_t row = slot.contrib_base + first;
    if (count == 0) {
      return assign_sink(tag, payload, [](std::size_t) {
        return std::pair{kDisc, std::int64_t{0}};
      });
    }
    if (count == 1) {
      const Tag* next_tag = contributions.tag_row(row);
      const std::int64_t* next_payload = contributions.payload_row(row);
      return assign_sink(tag, payload, [next_tag, next_payload](std::size_t lane) {
        return std::pair{next_tag[lane], next_payload[lane]};
      });
    }
    return assign_sink(tag, payload, [this, row, count](std::size_t lane) {
      unsigned present = 0;
      bool bad = false;
      std::int64_t value = 0;
      for (std::size_t cell = row * lanes + lane, end = cell + count * lanes;
           cell < end; cell += lanes) {
        const Tag contribution = contributions.tags[cell];
        present += contribution != kDisc ? 1 : 0;
        bad = bad || contribution == kIllegal;
        if (contribution == kValue) {
          value = contributions.payloads[cell];
        }
      }
      if (present == 0) {
        return std::pair{kDisc, std::int64_t{0}};
      }
      if (bad || present > 1) {
        return std::pair{kIllegal, std::int64_t{0}};
      }
      return std::pair{kValue, value};
    });
  }

  /// Writes `next(lane)` (a tag and payload) into a sink's value row, with
  /// the event count and turned-ILLEGAL mask `resolve` promises.
  template <typename Next>
  bool assign_sink(Tag* tag, std::int64_t* payload, Next next) {
    std::uint64_t* events = lane_events.data();
    std::uint8_t* turned_at = turned_illegal.data();
    bool any_illegal = false;
    for (std::size_t lane = 0, n = lanes; lane < n; ++lane) {
      const auto [next_tag, next_payload] = next(lane);
      bool turned = false;
      if (next_tag != tag[lane] || next_payload != payload[lane]) {
        tag[lane] = next_tag;
        payload[lane] = next_payload;
        ++events[lane];
        turned = next_tag == kIllegal;
      }
      turned_at[lane] = turned ? 1 : 0;
      any_illegal = any_illegal || turned;
    }
    return any_illegal;
  }

  /// One `cm` step of a fixed-function module (ADD, SUB, MUL, COPY) over the
  /// block: `ModuleSim::step` with `apply` as the function. The operand
  /// discipline is `ModuleSim::evaluate`'s: any ILLEGAL operand, or some but
  /// not all operands present, gives ILLEGAL; none present gives DISC. A
  /// pipelined module is a ring of `rows` rows whose head (the oldest
  /// row) is the same for every lane; an ILLEGAL entering it poisons the
  /// lane's pipeline for good. The head only advances at the steps the plan
  /// lists; between them every row of a lane holds the same idle value, so
  /// where the head stands does not matter. A unary kind reads its input as
  /// both operands, which leaves the discipline unchanged.
  template <unsigned kArity, typename Apply>
  void step_kernel(std::size_t m, const transfer::LanePlan::Module& module,
                   Apply apply) {
    const Tag* a_tag = values.tag_row(module.inputs[0]);
    const std::int64_t* a = values.payload_row(module.inputs[0]);
    const Tag* b_tag = values.tag_row(module.inputs[kArity - 1]);
    const std::int64_t* b = values.payload_row(module.inputs[kArity - 1]);
    Tag* out_tag = module_pending.tag_row(m);
    std::int64_t* out = module_pending.payload_row(m);
    ModuleLanes& state = module_lanes[m];
    const std::size_t rows = state.rows;
    Tag* stage_tag = rows > 0 ? ring.tag_row(state.ring + state.head) : nullptr;
    std::int64_t* stage =
        rows > 0 ? ring.payload_row(state.ring + state.head) : nullptr;
    std::uint8_t* lane_poisoned = poisoned.data() + m * lanes;
    for (std::size_t lane = 0, n = lanes; lane < n; ++lane) {
      Tag next = kIllegal;
      std::int64_t next_payload = 0;
      if (rows == 0 || lane_poisoned[lane] == 0) {
        if (a_tag[lane] == kValue && b_tag[lane] == kValue) {
          next = kValue;
          next_payload = apply(a[lane], b[lane]);
        } else if (a_tag[lane] == kDisc && b_tag[lane] == kDisc) {
          next = kDisc;
        }
      }
      if (rows == 0) {
        out_tag[lane] = next;
        out[lane] = next_payload;
        continue;
      }
      out_tag[lane] = stage_tag[lane];
      out[lane] = stage[lane];
      stage_tag[lane] = next;
      stage[lane] = next_payload;
      if (next == kIllegal) {
        lane_poisoned[lane] = 1;
      }
    }
    if (rows > 0) {
      state.head = state.head + 1 == rows ? 0 : state.head + 1;
    }
  }

  /// One `cm` step of an op-port module (ALU, MACC, CORDIC): its per-lane
  /// `ModuleSim`s, fed from and written back to the planes.
  void step_sims(std::size_t m, const transfer::LanePlan::Module& module) {
    const std::size_t arity = module.inputs.size();
    transfer::ModuleSim* sim = sims.data() + module_lanes[m].sims;
    for (std::size_t lane = 0; lane < lanes; ++lane) {
      for (std::size_t i = 0; i < arity; ++i) {
        scratch[i] = values.get(module.inputs[i], lane);
      }
      const RtValue op = module.op != transfer::LanePlan::kNoSignal
                             ? values.get(module.op, lane)
                             : RtValue::disc();
      module_pending.set(
          m, lane,
          sim[lane].step(std::span<const RtValue>(scratch.data(), arity), op));
    }
  }
};

LaneEngine::LaneEngine(std::shared_ptr<const transfer::CompiledDesign> compiled)
    : compiled_(std::move(compiled)) {
  if (!compiled_) {
    throw std::invalid_argument("LaneEngine requires a compiled design");
  }
}

template <typename Publish>
void LaneEngine::execute_cycle(std::uint64_t ordinal, LaneBlock& block,
                               Publish& publish) const {
  using Update = transfer::LanePlan::Update;
  const transfer::LanePlan& tables = compiled_->plan;
  const transfer::LanePlan::Cycle& plan = tables.cycles[ordinal];
  const std::size_t lanes = block.lanes;

  // Copies the `pending` row into the signal's value row, counting an event
  // in every lane whose value changed. `gate`, when given, skips the lanes
  // whose entry is 0 (and clears it in the others) and counts an update in
  // each lane it lets through.
  const auto apply_pending = [&block, lanes](std::uint32_t signal,
                                             Planes& pending,
                                             std::size_t pending_row,
                                             std::uint8_t* gate) {
    Tag* tag = block.values.tag_row(signal);
    std::int64_t* payload = block.values.payload_row(signal);
    const Tag* next_tag = pending.tag_row(pending_row);
    const std::int64_t* next_payload = pending.payload_row(pending_row);
    std::uint64_t* updates = block.lane_updates.data();
    std::uint64_t* events = block.lane_events.data();
    for (std::size_t lane = 0; lane < lanes; ++lane) {
      if (gate != nullptr) {
        if (gate[lane] == 0) {
          continue;  // no latch this step: the signal was never pending
        }
        gate[lane] = 0;
        ++updates[lane];
      }
      if (next_tag[lane] != tag[lane] || next_payload[lane] != payload[lane]) {
        tag[lane] = next_tag[lane];
        payload[lane] = next_payload[lane];
        ++events[lane];
      }
    }
  };

  // --- update phase: the plan's entries, then CS/PH (before the preloads
  // in cycle 1, when the controller's initial drives apply) ---------------
  const bool in_wheel = ordinal <= tables.wheel_cycles;
  if (ordinal == 1 && in_wheel) {
    publish.control(ordinal);
  }
  for (const Update& entry : tables.updates_at(ordinal)) {
    switch (entry.kind) {
      case Update::Kind::kSink: {
        const SinkSlot& slot = tables.slots[entry.index];
        if (block.resolve(slot, entry.first_driver, entry.drivers)) {
          for (std::size_t lane = 0; lane < lanes; ++lane) {
            if (block.turned_illegal[lane] != 0) {
              block.conflicts[lane].push_back(
                  Conflict{tables.signal_names[slot.signal], plan.step,
                           plan.phase});
            }
          }
        }
        publish.value(slot.signal, ordinal);
        break;
      }
      case Update::Kind::kModuleOut:
        apply_pending(tables.modules[entry.index].out, block.module_pending,
                      entry.index, nullptr);
        publish.value(tables.modules[entry.index].out, ordinal);
        break;
      case Update::Kind::kRegisterOut:
        apply_pending(tables.registers[entry.index].out, block.reg_pending,
                      entry.index,
                      block.reg_dirty.data() +
                          static_cast<std::size_t>(entry.index) * lanes);
        publish.value(tables.registers[entry.index].out, ordinal);
        break;
    }
  }

  if (!in_wheel) {
    return;  // the trailing cycle only applies updates
  }
  if (ordinal > 1) {
    publish.control(ordinal);
  }

  // --- execution phase -----------------------------------------------------
  for (const transfer::LanePlan::Fire& fire : tables.fires_at(ordinal)) {
    block.fire(tables.slots[fire.slot].contrib_base + fire.driver, fire.source);
  }
  const transfer::Design& design = compiled_->design;
  for (const std::uint32_t m : tables.module_steps_at(ordinal)) {
    const transfer::ModuleDecl& decl = design.modules[m];
    const transfer::LanePlan::Module& module = tables.modules[m];
    switch (decl.kind) {
      case transfer::ModuleKind::kAdd:
        block.step_kernel<2>(m, module,
                             [](std::int64_t a, std::int64_t b) { return a + b; });
        break;
      case transfer::ModuleKind::kSub:
        block.step_kernel<2>(m, module,
                             [](std::int64_t a, std::int64_t b) { return a - b; });
        break;
      case transfer::ModuleKind::kMul: {
        const unsigned frac_bits = decl.frac_bits;
        block.step_kernel<2>(m, module,
                             [frac_bits](std::int64_t a, std::int64_t b) {
                               return fixed_mul(a, b, frac_bits);
                             });
        break;
      }
      case transfer::ModuleKind::kCopy:
        block.step_kernel<1>(m, module,
                             [](std::int64_t a, std::int64_t) { return a; });
        break;
      case transfer::ModuleKind::kAlu:
      case transfer::ModuleKind::kMacc:
      case transfer::ModuleKind::kCordic:
        block.step_sims(m, module);
        break;
    }
  }
  for (const std::uint32_t r : tables.latches_at(ordinal)) {
    const std::uint32_t in = tables.registers[r].in;
    const Tag* tag = block.values.tag_row(in);
    const std::int64_t* payload = block.values.payload_row(in);
    Tag* pending_tag = block.reg_pending.tag_row(r);
    std::int64_t* pending = block.reg_pending.payload_row(r);
    std::uint8_t* dirty = block.reg_dirty.data() + std::size_t{r} * lanes;
    std::uint64_t* transactions = block.lane_transactions.data();
    for (std::size_t lane = 0; lane < lanes; ++lane) {
      if (tag[lane] != kDisc) {
        pending_tag[lane] = tag[lane];
        pending[lane] = payload[lane];
        dirty[lane] = 1;
        ++transactions[lane];
      }
    }
  }
}

LaneEngine::LaneBlock LaneEngine::start_block(
    std::size_t first_instance, std::size_t lanes, const InputProvider& inputs,
    std::vector<std::pair<std::size_t, std::string>>& input_failures) const {
  const transfer::LanePlan& tables = compiled_->plan;
  const transfer::Design& design = compiled_->design;
  LaneBlock block;
  block.lanes = lanes;
  const std::size_t signals = tables.signal_names.size();
  block.values.assign(signals, lanes);
  for (std::size_t s = 0; s < signals; ++s) {
    if (!tables.signal_initial[s].is_disc()) {
      for (std::size_t lane = 0; lane < lanes; ++lane) {
        block.values.set(s, lane, tables.signal_initial[s]);
      }
    }
  }
  block.contributions.assign(tables.total_drivers, lanes);
  block.module_pending.assign(tables.modules.size(), lanes);
  block.reg_pending.assign(tables.registers.size(), lanes);
  block.reg_dirty.assign(tables.registers.size() * lanes, 0);
  block.turned_illegal.assign(lanes, 0);

  // Module state by kind: kernel kinds get a ring of pipeline rows, the
  // others one ModuleSim per lane. A module steps at most once per control
  // step, so a value entering a pipeline deeper than cs_max + 1 never leaves
  // it within the run: no pipeline keeps more stages than that.
  block.module_lanes.resize(tables.modules.size());
  std::size_t ring_rows = 0;
  std::size_t max_arity = 0;
  for (std::size_t m = 0; m < tables.modules.size(); ++m) {
    const transfer::ModuleDecl& decl = design.modules[m];
    const auto depth = static_cast<unsigned>(
        std::min<std::uint64_t>(decl.latency, std::uint64_t{design.cs_max} + 1));
    if (has_kernel(decl.kind)) {
      block.module_lanes[m].ring = ring_rows;
      block.module_lanes[m].rows = depth;
      ring_rows += depth;
      continue;
    }
    block.module_lanes[m].sims = block.sims.size();
    for (std::size_t lane = 0; lane < lanes; ++lane) {
      block.sims.emplace_back(decl, depth);
    }
    max_arity = std::max(max_arity, tables.modules[m].inputs.size());
  }
  block.ring.assign(ring_rows, lanes);
  block.poisoned.assign(tables.modules.size() * lanes, 0);
  block.scratch.resize(max_arity);
  block.lane_updates.assign(lanes, 0);
  block.lane_events.assign(lanes, 0);
  block.lane_transactions.assign(lanes, 0);
  block.touched_inputs.assign(lanes, 0);
  block.conflicts.resize(lanes);
  block.trailed.assign(lanes, 0);
  block.tripped.assign(lanes, 0);

  // --- per-lane inputs: publish now, count the first touches at cycle 1 ----
  // A provider that throws, or names an input the design lacks, fails its
  // lane alone: the lane still runs with the block (lanes never interact)
  // but reports only the error.
  if (inputs) {
    std::vector<std::uint32_t> touched;
    for (std::size_t lane = 0; lane < lanes; ++lane) {
      touched.clear();
      try {
        for (const auto& [name, value] : inputs(first_instance + lane)) {
          const auto it = tables.input_index.find(name);
          if (it == tables.input_index.end()) {
            throw std::invalid_argument("no input named '" + name + "'");
          }
          block.values.set(it->second, lane, value);
          if (std::find(touched.begin(), touched.end(), it->second) ==
              touched.end()) {
            touched.push_back(it->second);
          }
        }
      } catch (const std::exception& error) {
        input_failures.emplace_back(lane, error.what());
      }
      block.touched_inputs[lane] = touched.size();
    }
  }

  // --- initialization: controller CS/PH drives and register preloads are
  // transactions scheduled before the first delta cycle -----------------
  for (std::size_t i = 0; i < tables.preloaded_registers.size(); ++i) {
    const std::uint32_t reg = tables.preloaded_registers[i];
    for (std::size_t lane = 0; lane < lanes; ++lane) {
      block.reg_pending.set(reg, lane, tables.preload_values[i]);
    }
    std::fill_n(block.reg_dirty.data() + static_cast<std::size_t>(reg) * lanes,
                lanes, std::uint8_t{1});
  }
  block.uniform_transactions = tables.init_transactions;
  return block;
}

template <typename Publish>
void LaneEngine::advance(LaneBlock& block, std::uint64_t max_cycles,
                         std::uint64_t max_delta_cycles, Publish& publish) const {
  const transfer::LanePlan& tables = compiled_->plan;
  const std::uint64_t wheel_cycles = tables.wheel_cycles;
  const std::size_t lanes = block.lanes;
  std::fill(block.tripped.begin(), block.tripped.end(), std::uint8_t{0});

  // Watchdog bookkeeping: `cursor - 1` cycles have run in total, matching
  // the event scheduler's now().delta, so the trip point — executing the
  // next cycle would exceed the bound while work remains — lands on the
  // same ordinal as on the event kernel. The max_cycles bound is checked
  // first (silent cap wins when the two coincide), and a mid-wheel trip
  // hits every lane: controller work is pending for all of them.
  std::uint64_t executed = 0;
  while (executed < max_cycles && block.cursor <= wheel_cycles) {
    if (block.cursor - 1 >= max_delta_cycles) {
      std::fill(block.tripped.begin(), block.tripped.end(), std::uint8_t{1});
      block.trip_ordinal = block.cursor;
      return;
    }
    execute_cycle(block.cursor, block, publish);
    const transfer::LanePlan::Cycle& cycle = tables.cycles[block.cursor];
    block.uniform_updates += cycle.uniform_updates;
    block.uniform_events += cycle.uniform_events;
    block.uniform_transactions += cycle.uniform_transactions;
    ++block.cursor;
    ++executed;
  }
  if (executed >= max_cycles || block.cursor != wheel_cycles + 1) {
    return;
  }

  // --- trailing cycle: per-lane quiescence ---------------------------------
  // With static updates pending (releases from final-step wb fires) every
  // lane executes it; otherwise only lanes whose final cr latched something.
  std::vector<std::uint8_t> trailing(lanes, 0);
  bool any = false;
  for (std::size_t lane = 0; lane < lanes; ++lane) {
    bool needed = tables.trailing_has_static_updates;
    for (std::size_t r = 0; !needed && r < tables.registers.size(); ++r) {
      needed = block.reg_dirty[r * lanes + lane] != 0;
    }
    trailing[lane] = needed ? 1 : 0;
    any = any || needed;
  }
  if (any && block.cursor - 1 >= max_delta_cycles) {
    // The trailing cycle would exceed the bound: the lanes that still had
    // work trip (the event scheduler throws at exactly this point), the
    // already-quiescent lanes finish clean. The cursor is lane-uniform, so
    // this split is deterministic.
    block.trip_ordinal = wheel_cycles + 1;
    block.tripped = std::move(trailing);
    return;
  }
  if (any) {
    // Safe over non-participating lanes: their register latches are clean
    // and sink updates only exist when every lane participates.
    execute_cycle(wheel_cycles + 1, block, publish);
    const transfer::LanePlan::Cycle& last = tables.cycles[wheel_cycles + 1];
    for (std::size_t lane = 0; lane < lanes; ++lane) {
      if (trailing[lane] != 0) {
        block.lane_updates[lane] += last.uniform_updates;
        block.lane_events[lane] += last.uniform_events;
      }
    }
    block.trailed = std::move(trailing);
  }
  block.cursor = wheel_cycles + 2;
}

kernel::KernelStats LaneEngine::lane_stats(const LaneBlock& block,
                                           std::size_t lane) const {
  const std::uint64_t wheel_run =
      std::min(block.cursor - 1, compiled_->plan.wheel_cycles);
  kernel::KernelStats stats;
  stats.delta_cycles = wheel_run + block.trailed[lane];
  stats.updates = block.uniform_updates + block.lane_updates[lane] +
                  (wheel_run > 0 ? block.touched_inputs[lane] : 0);
  stats.events = block.uniform_events + block.lane_events[lane];
  stats.transactions = block.uniform_transactions + block.lane_transactions[lane];
  return stats;
}

std::vector<InstanceResult> LaneEngine::run_block(
    std::size_t first_instance, std::size_t lanes, const InputProvider& inputs,
    std::uint64_t max_cycles, std::uint64_t max_delta_cycles) const {
  const auto start = std::chrono::steady_clock::now();
  std::vector<InstanceResult> results(lanes);
  if (lanes == 0) {
    return results;
  }
  std::vector<std::pair<std::size_t, std::string>> input_failures;
  LaneBlock block = start_block(first_instance, lanes, inputs, input_failures);
  NoPublish publish;
  advance(block, max_cycles, max_delta_cycles, publish);

  // --- collection ----------------------------------------------------------
  const transfer::LanePlan& tables = compiled_->plan;
  const transfer::Design& design = compiled_->design;
  const std::uint64_t elapsed_ns = static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now() - start)
          .count());
  for (std::size_t lane = 0; lane < lanes; ++lane) {
    InstanceResult& result = results[lane];
    result.stats = lane_stats(block, lane);
    result.cycles = result.stats.delta_cycles;
    result.stats.wall_time_ns = elapsed_ns / lanes;  // amortized block time
    result.conflicts = std::move(block.conflicts[lane]);
    if (block.tripped[lane] != 0) {
      result.report.status = RunStatus::kWatchdogTripped;
      result.report.diagnostics.push_back(
          watchdog_diagnostic(max_delta_cycles, block.trip_ordinal));
    }
    result.registers.reserve(tables.registers.size());
    for (std::size_t r = 0; r < tables.registers.size(); ++r) {
      result.registers.emplace_back(
          design.registers[r].name,
          block.values.get(tables.registers[r].out, lane));
    }
  }
  for (auto& [lane, message] : input_failures) {
    InstanceResult failed;
    failed.report.status = RunStatus::kError;
    failed.report.diagnostics.push_back(
        {common::Severity::kError, std::move(message), {}});
    results[lane] = std::move(failed);
  }
  return results;
}

RtModel::CompiledRun LaneEngine::model_run(
    std::shared_ptr<const transfer::CompiledDesign> compiled, RtModel& model) {
  /// Lane 0 of a one-lane block, publishing its value changes onto the
  /// model's signals and event observers.
  struct Lane {
    Lane(std::shared_ptr<const transfer::CompiledDesign> compiled,
         RtModel& model)
        : engine(std::move(compiled)), model(model) {}

    LaneEngine engine;
    RtModel& model;
    std::vector<RtSignal*> signals;  ///< value-table index -> model signal
    std::optional<LaneBlock> block;

    void value(std::uint32_t signal, std::uint64_t ordinal) {
      if (signals[signal]->set_effective(block->values.get(signal, 0))) {
        model.scheduler().dispatch_event_observers(*signals[signal],
                                                   {0, ordinal});
      }
    }
    void control(std::uint64_t ordinal) {
      const auto [step, phase] = Controller::locate(ordinal);
      Controller& controller = model.controller();
      if (controller.cs().set_effective(step)) {
        model.scheduler().dispatch_event_observers(controller.cs(), {0, ordinal});
      }
      if (controller.ph().set_effective(phase)) {
        model.scheduler().dispatch_event_observers(controller.ph(), {0, ordinal});
      }
    }
  };
  auto lane = std::make_shared<Lane>(std::move(compiled), model);

  // Registers and modules map by position (`build_model` elaborates them in
  // declaration order), the other signals by name.
  const transfer::LanePlan& tables = lane->engine.plan();
  std::vector<RtSignal*>& signals = lane->signals;
  signals.resize(tables.signal_names.size(), nullptr);
  for (std::size_t r = 0; r < tables.registers.size(); ++r) {
    signals[tables.registers[r].in] = &model.registers()[r]->in();
    signals[tables.registers[r].out] = &model.registers()[r]->out();
  }
  for (std::size_t m = 0; m < tables.modules.size(); ++m) {
    const transfer::LanePlan::Module& module = tables.modules[m];
    for (unsigned i = 0; i < module.inputs.size(); ++i) {
      signals[module.inputs[i]] = &model.modules()[m]->input(i);
    }
    if (module.op != transfer::LanePlan::kNoSignal) {
      signals[module.op] = &model.modules()[m]->op_port();
    }
    signals[module.out] = &model.modules()[m]->out();
  }
  for (std::size_t s = 0; s < signals.size(); ++s) {
    if (signals[s] == nullptr) {
      const std::string& name = tables.signal_names[s];
      RtSignal* bus = model.find_bus(name);
      RtSignal* constant = model.find_constant(name);
      signals[s] = bus != nullptr        ? bus
                   : constant != nullptr ? constant
                                         : model.find_input(name);
    }
  }

  return [lane](const RunOptions& options) {
    const LaneEngine& engine = lane->engine;
    kernel::Scheduler& scheduler = lane->model.scheduler();
    const auto start = std::chrono::steady_clock::now();
    const kernel::KernelStats before = scheduler.stats();
    kernel::KernelStats lane_before;
    if (lane->block) {
      lane_before = engine.lane_stats(*lane->block, 0);
    } else {
      // The event kernel's initialization: the drives `set_input` made
      // apply without events, and each driven input still counts an update
      // in cycle 1.
      scheduler.initialize();
      std::vector<std::pair<std::string, RtValue>> inputs;
      for (const auto& [name, index] : engine.plan().input_index) {
        if (lane->signals[index]->active()) {
          inputs.emplace_back(name, lane->signals[index]->read());
        }
      }
      std::vector<std::pair<std::size_t, std::string>> unused;  // plan names
      lane->block = engine.start_block(
          0, 1, [&inputs](std::size_t) { return inputs; }, unused);
    }
    LaneBlock& block = *lane->block;
    engine.advance(block, options.max_cycles, options.max_delta_cycles, *lane);

    const kernel::KernelStats ran = engine.lane_stats(block, 0) - lane_before;
    kernel::KernelStats& stats = scheduler.external_stats();
    stats = stats + ran;
    stats.wall_time_ns += static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now() - start)
            .count());
    RunResult result;
    result.stats = scheduler.stats() - before;
    result.cycles = ran.delta_cycles;
    result.conflicts = std::exchange(block.conflicts[0], {});
    if (block.tripped[0] != 0) {
      result.report.status = RunStatus::kWatchdogTripped;
      result.report.diagnostics.push_back(
          watchdog_diagnostic(options.max_delta_cycles, block.trip_ordinal));
    }
    return result;
  };
}

LaneEngine::TableStats LaneEngine::table_stats() const {
  const transfer::LanePlan& tables = compiled_->plan;
  TableStats stats;
  stats.cycles = tables.cycles.size() - 1;
  stats.signals = tables.signal_names.size();
  stats.resolved_sinks = tables.slots.size();
  stats.drivers = tables.total_drivers;
  stats.fire_actions = tables.fires.size();
  // Every fire is released once, in the next cycle (cr fires are
  // rejected); the plan folds releases into the lane-uniform counters.
  stats.release_actions = tables.fires.size();
  stats.update_entries = tables.updates.size();
  stats.modules = tables.modules.size();
  stats.registers = tables.registers.size();
  return stats;
}

}  // namespace ctrtl::rtl
