#include "library.h"

#include <memory>

#include "baseline/clocked_rtl.h"
#include "baseline/handshake.h"
#include "clocked/translate.h"
#include "gen/corpus.h"
#include "gen/generator.h"
#include "gen/oracle.h"
#include "inputs.h"
#include "rtl/lane_engine.h"
#include "transfer/build.h"
#include "transfer/schedule.h"
#include "verify/equivalence.h"
#include "verify/oracle_check.h"

namespace ctrtl_bench {

namespace transfer = ctrtl::transfer;

namespace {

/// The mixed-profile generator configuration for `seed`.
ctrtl::gen::GeneratorConfig mixed_config(std::uint64_t seed) {
  ctrtl::gen::GeneratorConfig config;
  config.seed = seed;
  config.profile = ctrtl::gen::Profile::kMixed;
  return config;
}

/// Times `build` and then `run` (which returns the steps it simulated) as
/// two spans, and files both samples under `engine`.
template <typename Build, typename Run>
std::uint64_t time_engine(const std::string& engine, const std::string& design,
                          Build&& build, Run&& run, E6Result& result,
                          SpanBuffer& spans) {
  const std::int64_t start = now_ns();
  auto built = build();
  const std::int64_t middle = now_ns();
  const std::uint64_t steps = run(built);
  const std::int64_t end = now_ns();
  spans.add("e6." + engine + ".build", design, 0, start, middle);
  spans.add("e6." + engine + ".run", design, 0, middle, end);
  result.build_us[engine].push_back(static_cast<double>(middle - start) / 1e3);
  result.run_ns_per_step[engine].push_back(
      static_cast<double>(end - middle) /
      static_cast<double>(std::max<std::uint64_t>(1, steps)));
  return steps;
}

}  // namespace

E6Result run_e6(const std::vector<transfer::Design>& designs, int repetitions,
                SpanBuffer& spans) {
  E6Result result;
  const auto model_steps = [](std::unique_ptr<ctrtl::rtl::RtModel>& model) {
    return model->run().stats.delta_cycles / ctrtl::rtl::kPhasesPerStep;
  };
  for (std::size_t d = 0; d < designs.size(); ++d) {
    const transfer::Design& design = designs[d];
    const std::string name = "hot-" + std::to_string(d);
    for (int rep = 0; rep < repetitions; ++rep) {
      const std::uint64_t event = time_engine(
          "event", name,
          [&] {
            return transfer::build_model(
                design, ctrtl::rtl::TransferMode::kProcessPerTransfer);
          },
          model_steps, result, spans);
      const std::uint64_t compiled = time_engine(
          "compiled", name,
          [&] {
            return transfer::build_model(design,
                                         ctrtl::rtl::TransferMode::kCompiled);
          },
          model_steps, result, spans);
      const std::uint64_t lane = time_engine(
          "lane1", name,
          [&] {
            return std::make_unique<ctrtl::rtl::LaneEngine>(
                transfer::CompiledDesign::compile(design));
          },
          [](std::unique_ptr<ctrtl::rtl::LaneEngine>& engine) {
            return engine->run_block(0, 1, nullptr)
                       .front()
                       .stats.delta_cycles /
                   ctrtl::rtl::kPhasesPerStep;
          },
          result, spans);
      (void)time_engine(
          "clocked", name,
          [&] {
            return std::make_unique<ctrtl::baseline::ClockedRtlSim>(
                ctrtl::clocked::plan_translation(design));
          },
          [](std::unique_ptr<ctrtl::baseline::ClockedRtlSim>& sim) {
            return static_cast<std::uint64_t>(sim->run().clock_cycles);
          },
          result, spans);
      (void)time_engine(
          "handshake", name,
          [&] { return std::make_unique<ctrtl::baseline::HandshakeModel>(design); },
          [&](std::unique_ptr<ctrtl::baseline::HandshakeModel>& model) {
            (void)model->run();
            return static_cast<std::uint64_t>(design.cs_max);
          },
          result, spans);
      if (event != compiled || event != lane) {
        ++result.mismatches;
      }
    }
  }
  return result;
}

CorpusStages run_corpus_stages(std::uint64_t first_seed, unsigned count,
                               SpanBuffer& spans) {
  CorpusStages stages;
  const auto micros = [](std::int64_t start, std::int64_t end) {
    return static_cast<double>(end - start) / 1e3;
  };
  for (std::uint64_t seed = first_seed; seed < first_seed + count; ++seed) {
    const std::string job = "case-" + std::to_string(seed);
    const std::int64_t t0 = now_ns();
    const ctrtl::gen::GeneratedCase generated =
        ctrtl::gen::generate(mixed_config(seed));
    const std::int64_t t1 = now_ns();
    const ctrtl::verify::OutcomePrediction prediction =
        ctrtl::gen::predict_outcomes(generated.design);
    const std::int64_t t2 = now_ns();
    const bool engines_agree =
        ctrtl::verify::check_engine_equivalence(generated.design).consistent();
    const std::int64_t t3 = now_ns();
    const bool oracle_holds =
        ctrtl::verify::check_prediction(generated.design, prediction)
            .consistent();
    const std::int64_t t4 = now_ns();

    spans.add("gen.generate", job, 0, t0, t1);
    spans.add("gen.oracle", job, 0, t1, t2);
    spans.add("verify.equivalence", job, 0, t2, t3);
    spans.add("verify.oracle_check", job, 0, t3, t4);
    stages.generate_us.push_back(micros(t0, t1));
    stages.oracle_us.push_back(micros(t1, t2));
    stages.equivalence_us.push_back(micros(t2, t3));
    stages.oracle_check_us.push_back(micros(t3, t4));
    stages.failures += (engines_agree ? 0 : 1) + (oracle_holds ? 0 : 1);
    ++stages.cases;
  }

  ctrtl::gen::CorpusOptions options;
  options.first_seed = first_seed;
  options.count = count;
  options.profile = ctrtl::gen::Profile::kMixed;
  options.fault_every = 10;
  const std::int64_t start = now_ns();
  const ctrtl::gen::CorpusReport report = ctrtl::gen::run_corpus(options);
  spans.add("gen.run_corpus", "probe", 0, start, now_ns());
  stages.failures += report.failures.size();
  return stages;
}

}  // namespace ctrtl_bench
