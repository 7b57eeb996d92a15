#include "transfer/schedule.h"

#include <algorithm>
#include <map>
#include <set>
#include <sstream>
#include <stdexcept>

#include "transfer/mapping.h"

namespace ctrtl::transfer {

namespace {

/// Producer->consumer dependency order over the design's modules: module A
/// precedes module B when A's result (directly, or through its destination
/// register) feeds one of B's operand paths. Kahn's algorithm with
/// declaration order as the tie-break; cycles (register feedback, e.g. an
/// accumulator reading its own destination) are broken by emitting the
/// remaining modules in declaration order.
std::vector<std::string> levelize_modules(const Design& design) {
  const std::size_t n = design.modules.size();
  std::map<std::string, std::size_t> index;
  for (std::size_t i = 0; i < n; ++i) {
    index[design.modules[i].name] = i;
  }

  // Which module writes each register (the last writer wins is irrelevant
  // for ordering; collect all writers).
  std::multimap<std::string, std::size_t> register_writers;
  for (const RegisterTransfer& transfer : design.transfers) {
    const auto it = index.find(transfer.module);
    if (it != index.end() && transfer.destination) {
      register_writers.emplace(*transfer.destination, it->second);
    }
  }

  std::vector<std::set<std::size_t>> successors(n);
  std::vector<std::size_t> indegree(n, 0);
  const auto add_edge = [&](std::size_t from, std::size_t to) {
    if (from != to && successors[from].insert(to).second) {
      ++indegree[to];
    }
  };
  for (const RegisterTransfer& transfer : design.transfers) {
    const auto consumer = index.find(transfer.module);
    if (consumer == index.end()) {
      continue;
    }
    for (const std::optional<OperandPath>& operand :
         {transfer.operand_a, transfer.operand_b}) {
      if (!operand) {
        continue;
      }
      if (operand->source.kind == Endpoint::Kind::kModuleOut) {
        const auto producer = index.find(operand->source.resource);
        if (producer != index.end()) {
          add_edge(producer->second, consumer->second);
        }
      } else if (operand->source.kind == Endpoint::Kind::kRegisterOut) {
        const auto [first, last] =
            register_writers.equal_range(operand->source.resource);
        for (auto it = first; it != last; ++it) {
          add_edge(it->second, consumer->second);
        }
      }
    }
  }

  std::vector<std::string> order;
  order.reserve(n);
  std::vector<bool> emitted(n, false);
  for (std::size_t remaining = n; remaining > 0;) {
    // Smallest-index ready module; falls back to the smallest-index
    // not-yet-emitted module when only cycles remain.
    std::size_t pick = n;
    for (std::size_t i = 0; i < n; ++i) {
      if (!emitted[i] && indegree[i] == 0) {
        pick = i;
        break;
      }
    }
    if (pick == n) {
      for (std::size_t i = 0; i < n; ++i) {
        if (!emitted[i]) {
          pick = i;
          break;
        }
      }
    }
    emitted[pick] = true;
    order.push_back(design.modules[pick].name);
    for (const std::size_t next : successors[pick]) {
      if (indegree[next] > 0) {
        --indegree[next];
      }
    }
    --remaining;
  }
  return order;
}

}  // namespace

const ScheduleLevel* StaticSchedule::level(unsigned step, rtl::Phase phase) const {
  if (step == 0 || step > cs_max) {
    return nullptr;
  }
  const std::size_t ordinal =
      (static_cast<std::size_t>(step) - 1) * rtl::kPhasesPerStep +
      static_cast<std::size_t>(rtl::phase_index(phase));
  return ordinal < levels.size() ? &levels[ordinal] : nullptr;
}

StaticSchedule lower_schedule(const Design& design) {
  return lower_schedule(design, to_instances(design.transfers));
}

StaticSchedule lower_schedule(const Design& design,
                              std::vector<TransInstance> instances) {
  common::DiagnosticBag diags;
  if (!validate(design, diags)) {
    throw std::invalid_argument("design '" + design.name +
                                "' does not validate:\n" + diags.to_text());
  }

  StaticSchedule schedule;
  schedule.design_name = design.name;
  schedule.cs_max = design.cs_max;
  schedule.levels.resize(static_cast<std::size_t>(design.cs_max) *
                         rtl::kPhasesPerStep);
  for (std::size_t i = 0; i < schedule.levels.size(); ++i) {
    schedule.levels[i].step =
        static_cast<unsigned>(i / rtl::kPhasesPerStep) + 1;
    schedule.levels[i].phase =
        rtl::phase_from_index(static_cast<int>(i % rtl::kPhasesPerStep));
  }

  for (TransInstance& instance : instances) {
    if (instance.phase == rtl::kPhaseHigh) {
      throw std::invalid_argument("instance '" + instance.name() +
                                  "' fires at phase cr, which has no release "
                                  "level in the static schedule");
    }
    const std::size_t ordinal =
        (static_cast<std::size_t>(instance.step) - 1) * rtl::kPhasesPerStep +
        static_cast<std::size_t>(rtl::phase_index(instance.phase));
    schedule.levels[ordinal].fires.push_back(std::move(instance));
  }

  schedule.module_order = levelize_modules(design);
  for (const ScheduleLevel& level : schedule.levels) {
    schedule.occupancy.instances += level.fires.size();
    if (!level.fires.empty()) {
      ++schedule.occupancy.occupied_levels;
      schedule.occupancy.busiest_level =
          std::max(schedule.occupancy.busiest_level, level.fires.size());
    }
  }
  return schedule;
}

std::shared_ptr<const CompiledDesign> CompiledDesign::compile(Design design) {
  auto compiled = std::make_shared<CompiledDesign>();
  compiled->schedule = lower_schedule(design);
  compiled->plan = lower_lane_plan(design, compiled->schedule);
  compiled->design = std::move(design);
  return compiled;
}

std::shared_ptr<const CompiledDesign> CompiledDesign::compile(
    Design design, std::vector<TransInstance> instances) {
  auto compiled = std::make_shared<CompiledDesign>();
  compiled->schedule = lower_schedule(design, std::move(instances));
  compiled->plan = lower_lane_plan(design, compiled->schedule);
  compiled->design = std::move(design);
  return compiled;
}

std::string to_text(const StaticSchedule& schedule) {
  std::ostringstream out;
  out << "static schedule '" << schedule.design_name << "' (" << schedule.cs_max
      << " steps, " << schedule.levels.size() << " levels)\n";
  for (const ScheduleLevel& level : schedule.levels) {
    if (level.fires.empty()) {
      continue;
    }
    out << "  step " << level.step << " " << rtl::phase_name(level.phase)
        << "  |";
    for (std::size_t i = 0; i < level.fires.size(); ++i) {
      out << (i == 0 ? " " : ", ") << to_string(level.fires[i].source) << " -> "
          << to_string(level.fires[i].sink);
    }
    out << "\n";
  }
  out << "  module order:";
  if (schedule.module_order.empty()) {
    out << " (none)";
  }
  for (const std::string& name : schedule.module_order) {
    out << " " << name;
  }
  out << "\n  occupancy: " << schedule.occupancy.instances << " instances, "
      << schedule.occupancy.occupied_levels << "/" << schedule.levels.size()
      << " levels occupied, busiest level " << schedule.occupancy.busiest_level
      << "\n";
  return out.str();
}

}  // namespace ctrtl::transfer
