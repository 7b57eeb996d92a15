#include "verify/equivalence.h"

#include <algorithm>
#include <functional>
#include <memory>
#include <sstream>
#include <tuple>

#include "rtl/lane_engine.h"
#include "transfer/build.h"
#include "transfer/schedule.h"

namespace ctrtl::verify {

std::string CheckReport::to_text() const {
  std::ostringstream out;
  for (const std::string& mismatch : mismatches) {
    out << mismatch << '\n';
  }
  return out.str();
}

CheckReport check_consistency(const transfer::Design& design,
                              const std::map<std::string, std::int64_t>& inputs) {
  CheckReport report;

  // Side 1: the dedicated formal semantics.
  const EvalResult reference = evaluate(design, inputs);

  // Side 2: VHDL-style event simulation.
  const auto model = transfer::build_model(design);
  for (const auto& [name, value] : inputs) {
    model->set_input(name, rtl::RtValue::of(value));
  }
  const rtl::RunResult simulated = model->run();

  // Delta-cycle cost (plus at most one trailing delta for the final
  // register-output update, which performs no phase work).
  if (simulated.stats.delta_cycles != reference.expected_delta_cycles &&
      simulated.stats.delta_cycles != reference.expected_delta_cycles + 1) {
    std::ostringstream out;
    out << "delta cycles: simulated " << simulated.stats.delta_cycles
        << ", semantics requires " << reference.expected_delta_cycles
        << " (cs_max * 6)";
    report.mismatches.push_back(out.str());
  }

  // Register values.
  for (const auto& [name, expected] : reference.registers) {
    const rtl::Register* reg = model->find_register(name);
    if (reg == nullptr) {
      report.mismatches.push_back("register " + name + " missing in model");
      continue;
    }
    if (reg->value() != expected) {
      report.mismatches.push_back("register " + name + ": semantics " +
                                  rtl::to_string(expected) + ", simulation " +
                                  rtl::to_string(reg->value()));
    }
  }

  // Conflicts (order-insensitive; the kernel's update order within a delta
  // is an implementation detail).
  auto expected_conflicts = reference.conflicts;
  auto actual_conflicts = simulated.conflicts;
  const auto conflict_key = [](const rtl::Conflict& c) {
    return std::tuple(c.step, c.phase, c.signal);
  };
  const auto by_key = [&](const rtl::Conflict& a, const rtl::Conflict& b) {
    return conflict_key(a) < conflict_key(b);
  };
  std::sort(expected_conflicts.begin(), expected_conflicts.end(), by_key);
  std::sort(actual_conflicts.begin(), actual_conflicts.end(), by_key);
  if (expected_conflicts != actual_conflicts) {
    std::ostringstream out;
    out << "conflict sets differ; semantics {";
    for (const rtl::Conflict& c : expected_conflicts) {
      out << " [" << rtl::to_string(c) << "]";
    }
    out << " } simulation {";
    for (const rtl::Conflict& c : actual_conflicts) {
      out << " [" << rtl::to_string(c) << "]";
    }
    out << " }";
    report.mismatches.push_back(out.str());
  }
  return report;
}

namespace {

/// Shared body of the clean and fault-sweep engine-equivalence checks:
/// `build` elaborates one side in the requested mode, `compiled` is the
/// pre-lowered design the lane engine executes. The clean check passes the
/// design straight through; the fault check routes both through the fault
/// facade so every engine consumes the identical transformed stream.
CheckReport check_engine_equivalence_impl(
    const std::map<std::string, std::int64_t>& inputs,
    const std::function<std::unique_ptr<rtl::RtModel>(rtl::TransferMode)>& build,
    std::shared_ptr<const transfer::CompiledDesign> compiled) {
  CheckReport report;

  // The trace must be declared after the model: its destructor unregisters
  // from the model's scheduler, so it has to die first (a tuple would
  // destroy the model head-first and leave the recorder unregistering from
  // a freed scheduler — caught by the TSan CI job).
  struct EngineRun {
    std::unique_ptr<rtl::RtModel> model;
    std::unique_ptr<TraceRecorder> trace;
    rtl::RunResult result;
  };
  const auto run_with = [&](rtl::TransferMode mode) {
    EngineRun run;
    run.model = build(mode);
    for (const auto& [name, value] : inputs) {
      run.model->set_input(name, rtl::RtValue::of(value));
    }
    run.trace = std::make_unique<TraceRecorder>(run.model->scheduler());
    run.result = run.model->run();
    return run;
  };
  const auto [event_model, event_trace, event_result] =
      run_with(rtl::TransferMode::kProcessPerTransfer);
  const auto [compiled_model, compiled_trace, compiled_result] =
      run_with(rtl::TransferMode::kCompiled);

  if (event_trace->events() != compiled_trace->events()) {
    const auto& lhs = event_trace->events();
    const auto& rhs = compiled_trace->events();
    std::ostringstream out;
    out << "event traces differ (event " << lhs.size() << " events, compiled "
        << rhs.size() << ")";
    const std::size_t common = std::min(lhs.size(), rhs.size());
    for (std::size_t i = 0; i < common; ++i) {
      if (lhs[i] != rhs[i]) {
        out << "; first divergence at index " << i << ": event ["
            << kernel::to_string(lhs[i].time) << " " << lhs[i].signal << " = "
            << lhs[i].value << "], compiled ["
            << kernel::to_string(rhs[i].time) << " " << rhs[i].signal << " = "
            << rhs[i].value << "]";
        break;
      }
    }
    report.mismatches.push_back(out.str());
  }

  // Every lane — the kCompiled model's, and side 3, the lane engine's
  // blocks over the same design lowered once into the shared action table
  // — must equal the event kernel's InstanceResult: registers, ordered
  // conflicts (recorded the delta cycle the ILLEGAL value becomes visible)
  // and counters. The blocks are checked as a single lane and as an inner
  // lane of a wider block (the latter catches cross-lane indexing mistakes
  // a lone lane cannot expose).
  const auto instance_of = [](const rtl::RtModel& model,
                              const rtl::RunResult& result) {
    rtl::InstanceResult instance;
    instance.cycles = result.cycles;
    instance.stats = result.stats;
    instance.conflicts = result.conflicts;
    for (const auto& reg : model.registers()) {
      instance.registers.emplace_back(reg->name(), reg->value());
    }
    return instance;
  };
  const rtl::InstanceResult event_instance = instance_of(*event_model, event_result);
  const rtl::BatchInputProvider provider = [&inputs](std::size_t) {
    std::vector<std::pair<std::string, rtl::RtValue>> pairs;
    pairs.reserve(inputs.size());
    for (const auto& [name, value] : inputs) {
      pairs.emplace_back(name, rtl::RtValue::of(value));
    }
    return pairs;
  };
  const rtl::LaneEngine lane_engine(std::move(compiled));
  const auto check_lane = [&](const rtl::InstanceResult& lane,
                              const std::string& label) {
    if (lane == event_instance) {
      return;
    }
    if (lane.registers != event_instance.registers) {
      std::ostringstream out;
      out << label << ": register values differ; event {";
      for (const auto& [name, value] : event_instance.registers) {
        out << " " << name << "=" << rtl::to_string(value);
      }
      out << " } lanes {";
      for (const auto& [name, value] : lane.registers) {
        out << " " << name << "=" << rtl::to_string(value);
      }
      out << " }";
      report.mismatches.push_back(out.str());
    }
    if (lane.conflicts != event_instance.conflicts) {
      std::ostringstream out;
      out << label << ": conflict records differ; event {";
      for (const rtl::Conflict& c : event_instance.conflicts) {
        out << " [" << rtl::to_string(c) << "]";
      }
      out << " } lanes {";
      for (const rtl::Conflict& c : lane.conflicts) {
        out << " [" << rtl::to_string(c) << "]";
      }
      out << " }";
      report.mismatches.push_back(out.str());
    }
    const auto lane_counter = [&](const char* name, std::uint64_t event_count,
                                  std::uint64_t lane_count) {
      if (event_count != lane_count) {
        report.mismatches.push_back(label + ": " + name + " differ: event " +
                                    std::to_string(event_count) + ", lanes " +
                                    std::to_string(lane_count));
      }
    };
    lane_counter("cycles", event_instance.cycles, lane.cycles);
    lane_counter("delta_cycles", event_instance.stats.delta_cycles,
                 lane.stats.delta_cycles);
    lane_counter("events", event_instance.stats.events, lane.stats.events);
    lane_counter("updates", event_instance.stats.updates, lane.stats.updates);
    lane_counter("transactions", event_instance.stats.transactions,
                 lane.stats.transactions);
  };
  check_lane(instance_of(*compiled_model, compiled_result),
             "compiled engine (model lane)");
  check_lane(lane_engine.run_block(0, 1, provider)[0], "lane engine (1 lane)");
  check_lane(lane_engine.run_block(0, 3, provider)[1],
             "lane engine (lane 1 of 3)");
  return report;
}

}  // namespace

CheckReport check_engine_equivalence(
    const transfer::Design& design,
    const std::map<std::string, std::int64_t>& inputs) {
  return check_engine_equivalence_impl(
      inputs,
      [&design](rtl::TransferMode mode) {
        return transfer::build_model(design, mode);
      },
      transfer::CompiledDesign::compile(design));
}

CheckReport check_engine_equivalence(
    const fault::FaultedDesign& faulted,
    const std::map<std::string, std::int64_t>& inputs) {
  return check_engine_equivalence_impl(
      inputs,
      [&faulted](rtl::TransferMode mode) {
        return fault::build_model(faulted, mode);
      },
      fault::compile(faulted));
}

CheckReport compare_write_traces(const std::vector<RegisterWrite>& expected,
                                 const std::vector<RegisterWrite>& actual,
                                 bool ignore_preload) {
  const auto filter = [&](const std::vector<RegisterWrite>& writes) {
    std::vector<RegisterWrite> out;
    for (const RegisterWrite& write : writes) {
      if (!ignore_preload || write.step != 0) {
        out.push_back(write);
      }
    }
    return out;
  };
  const std::vector<RegisterWrite> lhs = filter(expected);
  const std::vector<RegisterWrite> rhs = filter(actual);

  CheckReport report;
  const std::size_t common = std::min(lhs.size(), rhs.size());
  for (std::size_t i = 0; i < common; ++i) {
    if (lhs[i] != rhs[i]) {
      report.mismatches.push_back("write " + std::to_string(i) + ": expected [" +
                                  to_string(lhs[i]) + "], actual [" +
                                  to_string(rhs[i]) + "]");
    }
  }
  if (lhs.size() != rhs.size()) {
    report.mismatches.push_back(
        "write counts differ: expected " + std::to_string(lhs.size()) +
        ", actual " + std::to_string(rhs.size()));
  }
  return report;
}

}  // namespace ctrtl::verify
