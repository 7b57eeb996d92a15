#include "inputs.h"

#include <algorithm>
#include <fstream>
#include <stdexcept>

#include "common.h"
#include "common/diagnostics.h"
#include "fault/inject.h"
#include "fault/plan.h"
#include "gen/corpus.h"
#include "rtl/batch_runner.h"
#include "transfer/hash.h"
#include "transfer/mapping.h"
#include "transfer/schedule.h"
#include "transfer/text_format.h"
#include "verify/random_design.h"

namespace ctrtl_bench {

namespace serve = ctrtl::serve;
namespace transfer = ctrtl::transfer;

namespace {

constexpr std::size_t kHotSet = 8;
constexpr unsigned kHotTransfers = 48;
constexpr unsigned kHotCsMax = 114;
constexpr std::uint64_t kSmallInstances = 4;
constexpr std::uint64_t kWideInstances = 256;
constexpr std::size_t kOrderLength = 4096;

/// Prepares and lowers the job as a service worker would, runs it on the
/// per-instance engine (one scheduler per instance) rather than the
/// service's lane engine, so the check does not share the code it checks,
/// and fills in the expected reports. Returns the cache key.
std::uint64_t compute_reference(JobSpec& spec) {
  SpanBuffer unused;
  const Prepared prepared = prepare(spec, unused, "ref", 0);
  auto compiled =
      transfer::CompiledDesign::compile(prepared.design, prepared.instances);

  ctrtl::rtl::BatchRunOptions options;
  options.workers = 1;
  ctrtl::rtl::BatchRunner runner(compiled, options);
  const ctrtl::rtl::BatchRunResult result = runner.run(spec.instances);

  spec.expected.clear();
  spec.delta_cycles = spec.conflicts = spec.failed_instances = 0;
  for (std::size_t i = 0; i < result.instances.size(); ++i) {
    const std::string payload =
        serve::encode_report("ref", i, result.instances[i]);
    serve::ReportPayload report;
    std::string error;
    if (!serve::parse_report(payload, &report, &error)) {
      throw std::runtime_error("reference report does not parse: " + error);
    }
    report.job_id.clear();
    spec.delta_cycles += report.delta_cycles;
    spec.conflicts += report.conflicts.size();
    spec.failed_instances += report.status == "ok" ? 0 : 1;
    spec.expected.push_back(std::move(report));
  }
  return prepared.key;
}

JobSpec text_spec(const transfer::Design& design, std::uint64_t instances) {
  JobSpec spec;
  spec.design_text = transfer::to_text(design);
  spec.instances = instances;
  return spec;
}

/// A 48-transfer `random_design` drawn from `rng`. Its cs_max varies with
/// the seed (about 104..125) and job time with it, so draws are repeated
/// until cs_max is the most common value: every seed then gives designs of
/// the same length, and seed-to-seed spread stays small.
transfer::Design hot_design(Rng& rng) {
  for (;;) {
    ctrtl::verify::RandomDesignOptions options;
    options.seed = static_cast<std::uint32_t>(rng.next());
    options.num_transfers = kHotTransfers;
    transfer::Design design = ctrtl::verify::random_design(options);
    if (design.cs_max == kHotCsMax) {
      return design;
    }
  }
}

std::vector<std::size_t> random_order(Rng& rng, std::size_t count) {
  std::vector<std::size_t> order(kOrderLength);
  for (std::size_t& index : order) {
    index = rng.below(count);
  }
  return order;
}

/// Puts every spec so far, the workload's warm set, in the boot journal.
void journal(Workload& workload) {
  for (JobSpec& spec : workload.specs) {
    serve::SnapshotRecord record;
    record.key = compute_reference(spec);
    record.design_text = spec.design_text;
    record.has_fault_plan = spec.has_fault_plan;
    record.fault_plan_text = spec.fault_plan_text;
    workload.snapshot.push_back(std::move(record));
  }
}

}  // namespace

const std::vector<std::string>& workload_names() {
  static const std::vector<std::string> names = {"hot_small", "wide_batch"};
  return names;
}

bool known_workload(const std::string& name) {
  return std::ranges::find(workload_names(), name) != workload_names().end();
}

Workload make_workload(const std::string& name, std::uint64_t seed) {
  if (!known_workload(name)) {
    throw std::invalid_argument("unknown workload " + name);
  }
  Workload workload;
  workload.name = name;
  Rng rng(seed);

  // Every workload derives the same hot set and probe seed from `seed`, so
  // the traced library probes (E6, generator/verifier stages) measure the
  // same inputs whichever workload carries them.
  for (std::size_t i = 0; i < kHotSet; ++i) {
    workload.hot_set.push_back(hot_design(rng));
  }
  workload.probe_seed = rng.next() >> 16;

  serve::ServiceOptions& service = workload.service;
  if (name == "hot_small") {
    service.workers = 2;
    service.lane_workers = 1;
    service.cache_capacity = kHotSet;
    for (const transfer::Design& design : workload.hot_set) {
      workload.specs.push_back(text_spec(design, kSmallInstances));
    }
    workload.streams.push_back({"a", random_order(rng, kHotSet)});
    workload.streams.push_back({"b", random_order(rng, kHotSet)});
    workload.warmup_jobs = 16;
  } else {  // wide_batch
    service.workers = 1;
    // One lane worker: with two, the job waits for the slower of two cores,
    // and its latency spread between runs about twice as much.
    service.lane_workers = 1;
    workload.specs.push_back(text_spec(hot_design(rng), kWideInstances));
    workload.streams.push_back({"a", {0}});
    workload.warmup_jobs = 2;
  }
  journal(workload);

  for (const transfer::Design& design : workload.hot_set) {
    JobSpec spec = text_spec(design, kSmallInstances);
    spec.has_fault_plan = true;
    spec.fault_plan_text =
        ctrtl::fault::to_text(ctrtl::gen::standard_fault_plans(design).front());
    (void)compute_reference(spec);
    workload.cold_probe.push_back(workload.specs.size());
    workload.specs.push_back(std::move(spec));
  }
  return workload;
}

Prepared prepare(const JobSpec& spec, SpanBuffer& spans, const std::string& job,
                 std::uint64_t parent) {
  Prepared out;
  ctrtl::common::DiagnosticBag diags;
  {
    Scope span(spans, "transfer.parse", job, parent);
    out.design = transfer::parse_design(spec.design_text, diags);
  }
  if (diags.has_errors()) {
    throw std::runtime_error("design does not parse: " + diags.to_text());
  }
  if (spec.has_fault_plan) {
    Scope span(spans, "fault.apply", job, parent);
    auto faulted =
        ctrtl::fault::parse_and_apply(out.design, spec.fault_plan_text, diags);
    if (!faulted.has_value()) {
      throw std::runtime_error("fault plan does not apply: " + diags.to_text());
    }
    out.design = std::move(faulted->design);
    out.instances = std::move(faulted->instances);
  }
  {
    Scope span(spans, "transfer.hash", job, parent);
    if (!spec.has_fault_plan) {
      out.instances = transfer::to_instances(out.design.transfers);
    }
    out.key = transfer::canonical_stream_hash(out.design, out.instances);
  }
  return out;
}

void write_journal(const Workload& workload, const std::string& path) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  for (const serve::SnapshotRecord& record : workload.snapshot) {
    out << serve::encode_snapshot_record(record);
  }
  if (!out.good()) {
    throw std::runtime_error("cannot write " + path);
  }
}

bool report_matches(const serve::ReportPayload& got,
                    const serve::ReportPayload& want,
                    const std::string& job_id) {
  return got.job_id == job_id && got.instance == want.instance &&
         got.status == want.status && got.cycles == want.cycles &&
         got.delta_cycles == want.delta_cycles && got.events == want.events &&
         got.updates == want.updates &&
         got.transactions == want.transactions &&
         got.conflicts == want.conflicts && got.registers == want.registers &&
         got.diagnostics == want.diagnostics;
}

}  // namespace ctrtl_bench
