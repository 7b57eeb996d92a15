// ctrtl_design — work with register-transfer design files (.rtd).
//
// Usage:
//   ctrtl_design <file.rtd> [--analyze] [--simulate] [--dataflow]
//                [--emit-vhdl <out.vhd>] [--set input=value ...]
//                [--engine=event|compiled] [--dispatch] [--vcd <out.vcd>]
//                [--batch=N] [--workers=W] [--max-delta-cycles=N]
//                [--fault-plan=FILE]
//
// Validates the design, then (per flags) runs static conflict analysis,
// symbolic dataflow extraction, simulation (with final register values and
// conflict reports), VHDL emission, and VCD dumping. With --batch=N the
// design is lowered once and run as N instances on the lane engine.
// --fault-plan applies a declarative fault plan (see docs/ROBUSTNESS.md)
// before simulating; --max-delta-cycles arms the delta-cycle watchdog.
//
// Exit status: 0 clean run, 1 usage/front-end errors, 2 runtime errors,
// 3 conflicts observed, 4 delta-cycle watchdog tripped.

#include <charconv>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <sstream>

#include "fault/inject.h"
#include "fault/plan.h"
#include "rtl/batch_runner.h"
#include "transfer/build.h"
#include "transfer/conflict.h"
#include "transfer/schedule.h"
#include "transfer/text_format.h"
#include "verify/dataflow.h"
#include "verify/trace.h"
#include "verify/vcd.h"
#include "vhdl/emitter.h"

namespace {

void usage() {
  std::fprintf(stderr,
               "usage: ctrtl_design <file.rtd> [--analyze] [--simulate] "
               "[--dataflow] [--emit-vhdl <out.vhd>] [--set input=value ...] "
               "[--engine=event|compiled] [--dispatch] [--vcd <out.vcd>] "
               "[--batch=N] [--workers=W]\n"
               "  --engine=event     event-driven kernel, one TRANS process "
               "per transfer (default)\n"
               "  --engine=compiled  compiled static-schedule engine "
               "(levelized tables, same results)\n"
               "  --dispatch         event kernel with the indexed-dispatcher "
               "ablation\n"
               "  --batch=N          run N instances on the lane engine "
               "(shared schedule, SoA lanes)\n"
               "  --workers=W        worker threads for --batch "
               "(default: hardware concurrency)\n"
               "  --max-delta-cycles=N  delta-cycle watchdog: a run needing "
               "more than N delta cycles\n"
               "                     stops with a diagnostic and exit code 4 "
               "instead of spinning\n"
               "  --fault-plan=FILE  apply a declarative fault plan "
               "(stuck-disc, stuck-illegal,\n"
               "                     force-bus, drop, corrupt-module) before "
               "simulating\n");
}

/// Parses all of `text` as a decimal number that fits `T`: no leading space
/// or '+', nothing trailing, and no '-' for an unsigned `T`.
template <typename T>
bool parse_decimal(const std::string& text, T& out) {
  const char* const end = text.data() + text.size();
  const auto [ptr, ec] = std::from_chars(text.data(), end, out);
  return ec == std::errc() && ptr == end;
}

}  // namespace

int main(int argc, char** argv) {
  std::string path;
  bool analyze = false;
  bool simulate = false;
  bool dataflow = false;
  bool dispatch = false;
  std::string engine = "event";
  bool engine_set = false;
  std::string vhdl_out;
  std::string vcd_out;
  std::size_t batch = 0;
  std::size_t workers = 0;
  bool workers_set = false;
  std::uint64_t max_delta_cycles = ctrtl::kernel::Scheduler::kNoLimit;
  std::string fault_plan_path;
  std::map<std::string, std::int64_t> inputs;

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--analyze") {
      analyze = true;
    } else if (arg == "--simulate") {
      simulate = true;
    } else if (arg == "--dataflow") {
      dataflow = true;
    } else if (arg == "--dispatch") {
      dispatch = true;
    } else if (arg.rfind("--engine=", 0) == 0 ||
               (arg == "--engine" && i + 1 < argc)) {
      engine = arg == "--engine" ? argv[++i] : arg.substr(std::strlen("--engine="));
      engine_set = true;
      if (engine != "event" && engine != "compiled") {
        std::fprintf(stderr, "--engine expects 'event' or 'compiled', got '%s'\n",
                     engine.c_str());
        return 1;
      }
    } else if (arg.rfind("--batch=", 0) == 0 ||
               (arg == "--batch" && i + 1 < argc)) {
      const std::string count =
          arg == "--batch" ? argv[++i] : arg.substr(std::strlen("--batch="));
      if (!parse_decimal(count, batch) || batch == 0) {
        std::fprintf(stderr, "--batch expects a positive instance count, "
                     "got '%s'\n", count.c_str());
        return 1;
      }
    } else if (arg.rfind("--workers=", 0) == 0 ||
               (arg == "--workers" && i + 1 < argc)) {
      const std::string count =
          arg == "--workers" ? argv[++i] : arg.substr(std::strlen("--workers="));
      workers_set = true;
      if (!parse_decimal(count, workers) || workers == 0) {
        std::fprintf(stderr, "--workers expects a positive thread count, "
                     "got '%s'\n", count.c_str());
        return 1;
      }
    } else if (arg.rfind("--max-delta-cycles=", 0) == 0 ||
               (arg == "--max-delta-cycles" && i + 1 < argc)) {
      const std::string count =
          arg == "--max-delta-cycles"
              ? argv[++i]
              : arg.substr(std::strlen("--max-delta-cycles="));
      if (!parse_decimal(count, max_delta_cycles) || max_delta_cycles == 0) {
        std::fprintf(stderr, "--max-delta-cycles expects a positive limit, "
                     "got '%s'\n", count.c_str());
        return 1;
      }
    } else if (arg.rfind("--fault-plan=", 0) == 0 ||
               (arg == "--fault-plan" && i + 1 < argc)) {
      fault_plan_path = arg == "--fault-plan"
                            ? argv[++i]
                            : arg.substr(std::strlen("--fault-plan="));
    } else if (arg == "--emit-vhdl" && i + 1 < argc) {
      vhdl_out = argv[++i];
    } else if (arg == "--vcd" && i + 1 < argc) {
      vcd_out = argv[++i];
    } else if (arg == "--set" && i + 1 < argc) {
      const std::string assignment = argv[++i];
      const std::size_t eq = assignment.find('=');
      std::int64_t value = 0;
      if (eq == std::string::npos ||
          !parse_decimal(assignment.substr(eq + 1), value)) {
        std::fprintf(stderr, "--set expects input=<decimal int64>, got '%s'\n",
                     assignment.c_str());
        return 1;
      }
      inputs[assignment.substr(0, eq)] = value;
    } else if (arg == "--help" || arg == "-h") {
      usage();
      return 0;
    } else if (!arg.empty() && arg[0] != '-') {
      path = arg;
    } else {
      std::fprintf(stderr, "unknown option '%s'\n", arg.c_str());
      usage();
      return 1;
    }
  }
  if (path.empty()) {
    usage();
    return 1;
  }
  if (dispatch && engine == "compiled") {
    std::fprintf(stderr, "--dispatch and --engine=compiled are exclusive\n");
    return 1;
  }
  if (workers_set && batch == 0) {
    std::fprintf(stderr, "--workers requires --batch=N\n");
    return 1;
  }
  if (batch > 0 && (dispatch || (engine_set && engine == "event"))) {
    // The lane engine executes the compiled shared plan; there is no
    // batched variant of the event kernel in this tool.
    std::fprintf(stderr, "--batch runs the compiled lane engine; it is not "
                 "available with --engine=event or --dispatch\n");
    return 1;
  }
  if (batch > 0 && !vcd_out.empty()) {
    std::fprintf(stderr, "--batch has no per-instance event trace; --vcd "
                 "requires a single-instance run\n");
    return 1;
  }

  std::ifstream file(path);
  if (!file) {
    std::fprintf(stderr, "cannot open '%s'\n", path.c_str());
    return 1;
  }
  std::ostringstream buffer;
  buffer << file.rdbuf();

  ctrtl::common::DiagnosticBag diags;
  const ctrtl::transfer::Design design =
      ctrtl::transfer::parse_design(buffer.str(), diags);
  if (diags.has_errors() || !ctrtl::transfer::validate(design, diags)) {
    std::fprintf(stderr, "%s", diags.to_text().c_str());
    return 1;
  }
  for (const auto& [name, value] : inputs) {
    if (!design.has_input(name)) {
      std::fprintf(stderr, "--set: design '%s' has no input named '%s'\n",
                   design.name.c_str(), name.c_str());
      return 1;
    }
  }
  std::printf("design '%s': %u control steps, %zu registers, %zu buses, "
              "%zu modules, %zu transfers\n",
              design.name.c_str(), design.cs_max, design.registers.size(),
              design.buses.size(), design.modules.size(),
              design.transfers.size());

  std::optional<ctrtl::fault::FaultedDesign> faulted;
  if (!fault_plan_path.empty()) {
    std::ifstream plan_file(fault_plan_path);
    if (!plan_file) {
      std::fprintf(stderr, "cannot open fault plan '%s'\n",
                   fault_plan_path.c_str());
      return 1;
    }
    std::ostringstream plan_buffer;
    plan_buffer << plan_file.rdbuf();
    ctrtl::common::DiagnosticBag plan_diags;
    const ctrtl::fault::FaultPlan plan =
        ctrtl::fault::parse_fault_plan(plan_buffer.str(), plan_diags);
    if (!plan_diags.has_errors()) {
      faulted = ctrtl::fault::apply_plan(design, plan, plan_diags);
    }
    if (!plan_diags.empty()) {
      std::fprintf(stderr, "%s", plan_diags.to_text().c_str());
    }
    if (plan_diags.has_errors() || !faulted.has_value()) {
      return 1;
    }
    std::printf("fault plan: %zu faults (dropped %zu, rewrote %zu, inserted "
                "%zu instances)\n",
                plan.faults.size(), faulted->dropped, faulted->rewritten,
                faulted->inserted);
  }

  if (analyze) {
    const ctrtl::transfer::AnalysisReport report = ctrtl::transfer::analyze(design);
    if (report.clean()) {
      std::printf("static analysis: clean (no conflicts, discipline holds)\n");
    } else {
      for (const auto& conflict : report.drive_conflicts) {
        std::printf("static analysis: %s\n", to_string(conflict).c_str());
      }
      for (const auto& violation : report.discipline_violations) {
        std::printf("static analysis: %s\n", to_string(violation).c_str());
      }
    }
  }

  if (dataflow) {
    const ctrtl::verify::DataflowResult result =
        ctrtl::verify::extract_dataflow(design);
    std::printf("symbolic dataflow%s:\n",
                result.saw_illegal ? " (conflicts occurred!)" : "");
    for (const auto& [reg, expr] : result.registers) {
      std::printf("  %-12s = %s\n", reg.c_str(),
                  ctrtl::verify::canonical(expr).c_str());
    }
  }

  if (!vhdl_out.empty()) {
    std::ofstream out(vhdl_out);
    if (!out) {
      std::fprintf(stderr, "cannot write '%s'\n", vhdl_out.c_str());
      return 1;
    }
    try {
      out << ctrtl::vhdl::emit_vhdl(design);
      std::printf("wrote VHDL to %s (top entity '%s')\n", vhdl_out.c_str(),
                  ctrtl::vhdl::vhdl_name(design.name).c_str());
    } catch (const std::exception& error) {
      std::fprintf(stderr, "VHDL emission failed: %s\n", error.what());
      return 1;
    }
  }

  if (batch > 0) {
    // Lane-engine batch: lower the design once, run `batch` instances as
    // structure-of-arrays lanes sharded across `workers` threads. The --set
    // inputs apply to every instance.
    ctrtl::rtl::BatchInputProvider provider;
    if (!inputs.empty()) {
      provider = [&inputs](std::size_t) {
        std::vector<std::pair<std::string, ctrtl::rtl::RtValue>> pairs;
        pairs.reserve(inputs.size());
        for (const auto& [name, value] : inputs) {
          pairs.emplace_back(name, ctrtl::rtl::RtValue::of(value));
        }
        return pairs;
      };
    }
    try {
      ctrtl::rtl::BatchRunner runner(
          faulted ? ctrtl::fault::compile(*faulted)
                  : ctrtl::transfer::CompiledDesign::compile(design),
          ctrtl::rtl::BatchRunOptions{
              .workers = workers,
              .max_delta_cycles = max_delta_cycles,
              .engine = ctrtl::rtl::BatchEngineKind::kCompiledLanes},
          provider);
      const ctrtl::rtl::BatchRunResult result = runner.run(batch);
      std::printf("batched: %zu instances, %zu workers, %llu delta cycles, "
                  "%llu events, %llu conflicts, lane engine\n",
                  result.instances.size(), runner.worker_count(),
                  static_cast<unsigned long long>(result.total.delta_cycles),
                  static_cast<unsigned long long>(result.total.events),
                  static_cast<unsigned long long>(result.conflict_count()));
      bool saw_error = false;
      bool saw_watchdog = false;
      for (std::size_t i = 0; i < result.instances.size(); ++i) {
        const ctrtl::rtl::RunReport& report = result.instances[i].report;
        if (report.ok()) {
          continue;
        }
        saw_error |= report.status == ctrtl::rtl::RunStatus::kError;
        saw_watchdog |=
            report.status == ctrtl::rtl::RunStatus::kWatchdogTripped;
        std::fprintf(stderr, "instance %zu:\n%s", i, report.to_text().c_str());
      }
      for (const auto& conflict : result.instances.front().conflicts) {
        std::printf("  instance 0: %s\n", to_string(conflict).c_str());
      }
      std::printf("final register values (instance 0):\n");
      for (const auto& [name, value] : result.instances.front().registers) {
        std::printf("  %-12s %s\n", name.c_str(), to_string(value).c_str());
      }
      if (saw_error) {
        return 2;
      }
      if (saw_watchdog) {
        return 4;
      }
      return result.conflict_count() == 0 ? 0 : 3;
    } catch (const std::exception& error) {
      std::fprintf(stderr, "batch run failed: %s\n", error.what());
      return 2;
    }
  }

  if (simulate || !vcd_out.empty()) {
    try {
      const ctrtl::rtl::TransferMode mode =
          engine == "compiled" ? ctrtl::rtl::TransferMode::kCompiled
          : dispatch           ? ctrtl::rtl::TransferMode::kDispatch
                               : ctrtl::rtl::TransferMode::kProcessPerTransfer;
      auto model = faulted ? ctrtl::fault::build_model(*faulted, mode)
                           : ctrtl::transfer::build_model(design, mode);
      for (const auto& [name, value] : inputs) {
        model->set_input(name, ctrtl::rtl::RtValue::of(value));
      }
      std::unique_ptr<ctrtl::verify::TraceRecorder> recorder;
      if (!vcd_out.empty()) {
        recorder =
            std::make_unique<ctrtl::verify::TraceRecorder>(model->scheduler());
      }
      const ctrtl::rtl::RunResult result = model->run(
          ctrtl::rtl::RunOptions{.max_delta_cycles = max_delta_cycles});
      std::printf("simulated: %llu delta cycles, %llu events, %s mode\n",
                  static_cast<unsigned long long>(result.stats.delta_cycles),
                  static_cast<unsigned long long>(result.stats.events),
                  engine == "compiled" ? "compiled"
                  : dispatch           ? "dispatch"
                                       : "process-per-transfer");
      for (const auto& conflict : result.conflicts) {
        std::printf("  %s\n", to_string(conflict).c_str());
      }
      std::printf("final register values:\n");
      for (const auto& reg : design.registers) {
        std::printf("  %-12s %s\n", reg.name.c_str(),
                    to_string(model->find_register(reg.name)->value()).c_str());
      }
      if (recorder) {
        std::ofstream vcd(vcd_out);
        if (!vcd) {
          std::fprintf(stderr, "cannot write '%s'\n", vcd_out.c_str());
          return 1;
        }
        ctrtl::verify::write_vcd(vcd, recorder->events());
        std::printf("wrote %zu events to %s\n", recorder->events().size(),
                    vcd_out.c_str());
      }
      if (!result.report.ok()) {
        std::fprintf(stderr, "%s", result.report.to_text().c_str());
        return result.report.status == ctrtl::rtl::RunStatus::kWatchdogTripped
                   ? 4
                   : 2;
      }
      return result.conflict_free() ? 0 : 3;
    } catch (const std::exception& error) {
      // Lowering or running can exhaust memory (a huge cs_max): report it
      // like the --batch path instead of aborting on an uncaught throw.
      std::fprintf(stderr, "simulation failed: %s\n", error.what());
      return 2;
    }
  }
  return 0;
}
