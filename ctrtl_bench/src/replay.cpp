#include "replay.h"

#include <unistd.h>

#include <mutex>
#include <optional>
#include <span>
#include <stdexcept>
#include <thread>

#include "rtl/batch_runner.h"
#include "rtl/lane_engine.h"
#include "serve/cache.h"
#include "serve/protocol.h"
#include "serve/service.h"
#include "transfer/schedule.h"

namespace ctrtl_bench {

namespace serve = ctrtl::serve;
namespace transfer = ctrtl::transfer;

namespace {

using Compiled = std::shared_ptr<const transfer::CompiledDesign>;

/// Looks the job up in `cache`, lowering on a miss; one `serve.cache.get`
/// span with a `transfer.lower` child when it lowered.
Compiled lookup(serve::DesignCache& cache, Prepared& prepared, SpanBuffer& spans,
                const std::string& job, std::uint64_t parent, bool* hit,
                std::int64_t* duration_ns) {
  const std::uint64_t id = next_span_id();
  const std::int64_t start = now_ns();
  Compiled compiled = cache.get_or_compile(
      prepared.key,
      [&] {
        Scope span(spans, "transfer.lower", job, id);
        return transfer::CompiledDesign::compile(prepared.design,
                                                 prepared.instances);
      },
      hit);
  const std::int64_t end = now_ns();
  spans.add(Span{id, parent, "serve.cache.get", job, start, end,
                 std::string("\"hit\":") + (*hit ? "true" : "false")});
  *duration_ns = end - start;
  return compiled;
}

struct ThreadOutput {
  ReplayOutput totals;
  SpanBuffer spans;
};

void replay_job(const Workload& workload, const JobRecord& record,
                serve::DesignCache& cache, ThreadOutput& out) {
  const JobSpec& spec = workload.specs[record.spec];
  const std::string& job = record.job_id;
  SpanBuffer& spans = out.spans;
  ReplayOutput& totals = out.totals;

  Scope root(spans, "replay.job", job, 0);
  const std::int64_t prerun_start = now_ns();
  Prepared prepared = prepare(spec, spans, job, root.id());
  bool hit = false;
  std::int64_t lookup_ns = 0;
  const Compiled compiled =
      lookup(cache, prepared, spans, job, root.id(), &hit, &lookup_ns);
  if (hit) {
    totals.hit_wait_ns.push_back(static_cast<double>(lookup_ns));
  } else {
    ++totals.lower_calls;
  }

  ctrtl::rtl::BatchRunOptions options;
  options.workers = workload.service.lane_workers;
  options.engine = ctrtl::rtl::BatchEngineKind::kCompiledLanes;
  options.lane_block = workload.service.lane_block;
  std::optional<ctrtl::rtl::BatchRunner> runner;
  {
    Scope span(spans, "rtl.batch.setup", job, root.id());
    runner.emplace(compiled, options);
  }
  JobSplit& split = totals.split[job];
  split.prerun_ns = now_ns() - prerun_start;
  const ctrtl::rtl::LaneEngine::TableStats tables =
      runner->lane_engine()->table_stats();
  totals.actions_per_cycle.push_back(
      static_cast<double>(tables.fire_actions + tables.release_actions +
                          tables.update_entries) /
      static_cast<double>(std::max<std::size_t>(1, tables.cycles)));

  // The sink encodes each block exactly as the service's sink does; the
  // runner serializes sink calls, so the buffer needs no lock of its own.
  std::string wire;
  std::int64_t encode_ns = 0;
  std::size_t blocks = 0;
  const std::uint64_t run_id = next_span_id();
  const std::int64_t run_start = now_ns();
  const ctrtl::rtl::BatchRunResult result = runner->run(
      spec.instances, [&](std::size_t first,
                          std::span<const ctrtl::rtl::InstanceResult> block) {
        const std::int64_t start = now_ns();
        for (std::size_t i = 0; i < block.size(); ++i) {
          wire += serve::encode_frame(serve::Frame{
              serve::MessageType::kReport,
              serve::encode_report(job, first + i, block[i])});
        }
        const std::int64_t end = now_ns();
        spans.add("serve.protocol.encode", job, run_id, start, end);
        encode_ns += end - start;
        ++blocks;
      });
  const std::int64_t run_end = now_ns();
  spans.add(Span{run_id, root.id(), "rtl.batch.run", job, run_start, run_end, {}});
  totals.run_self_ns.push_back(static_cast<double>(run_end - run_start - encode_ns));
  totals.lane_blocks.push_back(static_cast<double>(blocks));
  totals.encode_ns += static_cast<double>(encode_ns);
  for (const ctrtl::rtl::InstanceResult& instance : result.instances) {
    totals.lane_steps += instance.stats.delta_cycles / ctrtl::rtl::kPhasesPerStep;
  }
  totals.report_bytes += wire.size();

  // The client's side: frame decoding and payload parsing.
  const std::int64_t decode_start = now_ns();
  std::size_t decoded = 0;
  {
    Scope span(spans, "serve.protocol.decode", job, root.id());
    serve::FrameDecoder decoder;
    decoder.feed(wire);
    serve::Frame frame;
    serve::ReportPayload report;
    std::string error;
    while (decoder.next(&frame)) {
      if (!serve::parse_report(frame.payload, &report, &error) ||
          report.instance >= spec.instances ||
          !report_matches(report, spec.expected[report.instance], job)) {
        ++totals.mismatches;
      }
      ++decoded;
    }
  }
  totals.decode_ns += static_cast<double>(now_ns() - decode_start);
  totals.reports += decoded;
  if (decoded != spec.instances) {
    ++totals.mismatches;
  }
}

}  // namespace

ReplayOutput replay(const Workload& workload, const std::vector<JobRecord>& jobs) {
  serve::DesignCache cache(workload.service.cache_capacity);
  ReplayOutput output;
  output.spans.resize(1);

  // Warm the cache the way the server's boot replay does.
  for (const serve::SnapshotRecord& record : workload.snapshot) {
    JobSpec spec;
    spec.design_text = record.design_text;
    spec.has_fault_plan = record.has_fault_plan;
    spec.fault_plan_text = record.fault_plan_text;
    const std::string job = "boot";
    Prepared prepared = prepare(spec, output.spans[0], job, 0);
    bool hit = false;
    std::int64_t duration = 0;
    (void)lookup(cache, prepared, output.spans[0], job, 0, &hit, &duration);
  }

  std::vector<std::vector<const JobRecord*>> per_stream(workload.streams.size());
  for (const JobRecord& record : jobs) {
    if (record.ok && record.stream < per_stream.size()) {
      per_stream[record.stream].push_back(&record);
    }
  }
  std::vector<ThreadOutput> outputs(per_stream.size());
  std::vector<std::thread> threads;
  std::mutex error_mutex;
  std::string error;
  for (std::size_t s = 0; s < per_stream.size(); ++s) {
    threads.emplace_back([&, s] {
      try {
        for (const JobRecord* record : per_stream[s]) {
          replay_job(workload, *record, cache, outputs[s]);
        }
      } catch (const std::exception& failure) {
        std::scoped_lock lock(error_mutex);
        error = failure.what();
      }
    });
  }
  for (std::thread& thread : threads) {
    thread.join();
  }
  if (!error.empty()) {
    throw std::runtime_error(error);
  }

  for (ThreadOutput& thread : outputs) {
    ReplayOutput& part = thread.totals;
    output.spans.push_back(std::move(thread.spans));
    output.split.merge(part.split);
    const auto append = [](std::vector<double>& to, const std::vector<double>& from) {
      to.insert(to.end(), from.begin(), from.end());
    };
    append(output.hit_wait_ns, part.hit_wait_ns);
    append(output.run_self_ns, part.run_self_ns);
    append(output.lane_blocks, part.lane_blocks);
    append(output.actions_per_cycle, part.actions_per_cycle);
    output.lane_steps += part.lane_steps;
    output.lower_calls += part.lower_calls;
    output.reports += part.reports;
    output.report_bytes += part.report_bytes;
    output.encode_ns += part.encode_ns;
    output.decode_ns += part.decode_ns;
    output.mismatches += part.mismatches;
  }
  return output;
}

std::vector<double> snapshot_replay_ns(const Workload& workload,
                                       const std::string& journal_path,
                                       int repetitions,
                                       std::uint64_t* records_loaded,
                                       SpanBuffer& spans) {
  write_journal(workload, journal_path);
  serve::ServiceOptions options = workload.service;
  options.snapshot_path = journal_path;
  options.workers = 1;
  std::vector<double> samples;
  for (int i = 0; i < repetitions; ++i) {
    const std::int64_t start = now_ns();
    serve::SimulationService service(options);
    const std::int64_t end = now_ns();
    spans.add("serve.snapshot.replay", "boot", 0, start, end);
    samples.push_back(static_cast<double>(end - start));
    *records_loaded = service.stats().snapshot_records_loaded;
  }
  ::unlink(journal_path.c_str());
  return samples;
}

}  // namespace ctrtl_bench
