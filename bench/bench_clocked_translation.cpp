// Experiment E7 (paper section 4, future work made real): the automatic
// control-step -> clock-scheme translation. Measures planning, the clocked
// simulation under the two-cycles-per-step scheme (bench_vs_clocked's
// BM_ClockedRtl times the one-cycle scheme), and the full equivalence check
// (abstract trace vs clocked trace).

#include <benchmark/benchmark.h>

#include "baseline/clocked_rtl.h"
#include "transfer/build.h"
#include "verify/equivalence.h"
#include "verify/random_design.h"

namespace {

using namespace ctrtl;

transfer::Design workload(unsigned transfers) {
  verify::RandomDesignOptions options;
  options.seed = 17;
  options.num_transfers = transfers;
  return verify::random_design(options);
}

void BM_PlanTranslation(benchmark::State& state) {
  const transfer::Design design =
      workload(static_cast<unsigned>(state.range(0)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(clocked::plan_translation(design));
  }
  state.SetItemsProcessed(state.iterations() * design.transfers.size());
}
BENCHMARK(BM_PlanTranslation)->Arg(8)->Arg(64)->Arg(512);

void BM_TwoPhaseClockedSimulation(benchmark::State& state) {
  // The alternative clock scheme (two cycles per control step): same
  // observable behaviour, twice the cycles — the cycle-count cost of a
  // looser per-cycle timing budget.
  const transfer::Design design =
      workload(static_cast<unsigned>(state.range(0)));
  const clocked::TranslationPlan plan = clocked::plan_translation(design);
  unsigned cycles = 0;
  for (auto _ : state) {
    baseline::ClockedRtlSim sim(plan, clocked::ClockScheme::kTwoCyclesPerStep);
    const baseline::ClockedRtlSim::Result result = sim.run();
    cycles = result.clock_cycles;
    benchmark::DoNotOptimize(result);
  }
  state.counters["clock_cycles"] = cycles;
  state.SetItemsProcessed(state.iterations() * cycles);
}
BENCHMARK(BM_TwoPhaseClockedSimulation)->Arg(8)->Arg(64)->Arg(512);

void BM_FullEquivalenceCheck(benchmark::State& state) {
  // Abstract run + clocked run + write-trace comparison: the cost of
  // certifying one translation.
  const transfer::Design design =
      workload(static_cast<unsigned>(state.range(0)));
  const clocked::TranslationPlan plan = clocked::plan_translation(design);
  for (auto _ : state) {
    auto abstract = transfer::build_model(design);
    verify::RegisterWriteTrace trace(*abstract);
    abstract->run();
    baseline::ClockedRtlSim sim(plan);
    sim.run();
    const verify::CheckReport report = verify::compare_write_traces(
        trace.writes(), sim.writes(), /*ignore_preload=*/true);
    if (!report.consistent()) {
      state.SkipWithError("translation not equivalent");
    }
    benchmark::DoNotOptimize(report);
  }
  state.SetItemsProcessed(state.iterations() * design.transfers.size());
}
BENCHMARK(BM_FullEquivalenceCheck)->Arg(8)->Arg(64)->Arg(256);

}  // namespace
