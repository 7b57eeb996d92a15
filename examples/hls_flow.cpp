// High-level synthesis flow (the paper's application 2):
//
//   dataflow graph  ->  list scheduling + left-edge allocation
//                   ->  abstract register-transfer design (9-tuples)
//                   ->  clock-free simulation (verified against the
//                       algorithmic evaluation)
//                   ->  control-step -> clock-cycle translation
//                   ->  clocked simulation (write traces compared)
//
// "High level synthesis results are translated into our subset and can then
// be simulated at a high level before the next synthesis steps translate to
// a more concrete implementation."

#include <cstdio>

#include "baseline/clocked_rtl.h"
#include "hls/emit.h"
#include "transfer/build.h"
#include "verify/equivalence.h"
#include "verify/trace.h"

int main() {
  using namespace ctrtl;

  // f(a, b) = max(a*3 - b, (a + b) * 2) + 1
  hls::Dfg dfg;
  dfg.add_input("a");
  dfg.add_input("b");
  const auto a = hls::ValueRef::of_input("a");
  const auto b = hls::ValueRef::of_input("b");
  const std::size_t a3 = dfg.add_node(hls::OpKind::kMul,
                                      {a, hls::ValueRef::of_constant(3)});
  const std::size_t lhs =
      dfg.add_node(hls::OpKind::kSub, {hls::ValueRef::of_node(a3), b});
  const std::size_t sum = dfg.add_node(hls::OpKind::kAdd, {a, b});
  const std::size_t rhs = dfg.add_node(
      hls::OpKind::kMul,
      {hls::ValueRef::of_node(sum), hls::ValueRef::of_constant(2)});
  const std::size_t mx = dfg.add_node(
      hls::OpKind::kMax, {hls::ValueRef::of_node(lhs), hls::ValueRef::of_node(rhs)});
  const std::size_t out = dfg.add_node(
      hls::OpKind::kAdd, {hls::ValueRef::of_node(mx), hls::ValueRef::of_constant(1)});
  dfg.mark_output("f", hls::ValueRef::of_node(out));

  // Synthesize onto one ALU and one two-stage multiplier.
  const hls::EmitResult emitted =
      hls::synthesize(dfg, hls::default_resources(), "hlsdemo");
  std::printf("synthesized %zu operations into %u control steps, %zu tuples, "
              "%zu registers, %zu buses\n",
              dfg.nodes().size(), emitted.design.cs_max,
              emitted.design.transfers.size(), emitted.design.registers.size(),
              emitted.design.buses.size());
  for (const transfer::RegisterTransfer& tuple : emitted.design.transfers) {
    std::printf("  %s\n", transfer::to_string(tuple).c_str());
  }

  // Simulate the abstract model and compare with the algorithmic evaluation.
  const std::map<std::string, std::int64_t> inputs = {{"a", 6}, {"b", 4}};
  const auto expected = hls::evaluate(dfg, inputs);

  auto abstract = transfer::build_model(emitted.design);
  verify::RegisterWriteTrace abstract_trace(*abstract);
  for (const auto& [name, value] : inputs) {
    abstract->set_input(name, rtl::RtValue::of(value));
  }
  const rtl::RunResult abstract_result = abstract->run();
  const rtl::RtValue f_abstract =
      abstract->find_register(emitted.output_registers.at("f"))->value();
  std::printf("abstract model : f(6,4) = %s (algorithmic: %lld), %llu deltas, "
              "0 fs\n",
              rtl::to_string(f_abstract).c_str(),
              static_cast<long long>(expected.at("f")),
              static_cast<unsigned long long>(abstract_result.stats.delta_cycles));

  // Translate to the clocked implementation and re-simulate.
  const clocked::TranslationPlan plan = clocked::plan_translation(emitted.design);
  baseline::ClockedRtlSim clocked_rtl(plan);
  for (const auto& [name, value] : inputs) {
    clocked_rtl.set_input(name, rtl::RtValue::of(value));
  }
  const baseline::ClockedRtlSim::Result clocked_result = clocked_rtl.run();
  const rtl::RtValue f_clocked =
      clocked_rtl.register_value(emitted.output_registers.at("f"));
  std::printf("clocked model  : f(6,4) = %s, %u clock cycles, %llu fs\n",
              rtl::to_string(f_clocked).c_str(), clocked_result.clock_cycles,
              static_cast<unsigned long long>(clocked_result.elapsed_fs));

  const verify::CheckReport traces = verify::compare_write_traces(
      abstract_trace.writes(), clocked_rtl.writes(), /*ignore_preload=*/true);
  std::printf("write traces   : %s\n",
              traces.consistent() ? "equivalent" : traces.to_text().c_str());

  const bool ok = f_abstract == rtl::RtValue::of(expected.at("f")) &&
                  f_clocked == f_abstract && traces.consistent();
  std::printf("%s\n", ok ? "HLS flow verified end to end" : "MISMATCH");
  return ok ? 0 : 1;
}
