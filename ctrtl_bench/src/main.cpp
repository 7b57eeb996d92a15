// ctrtl_bench: the repository's end-to-end benchmark.
//
//   ctrtl_bench --workload NAME --seed N --seconds S --trace 0|1 --out DIR
//
// --trace 0 measures the end-to-end metrics: jobs sent by `ServeClient`s
// through a live in-process `ServeServer` over a Unix socket, closed loop,
// for S seconds. --trace 1 measures the per-layer metrics: S seconds of
// alternating untraced and traced slices (client-side spans), a few cold
// probe jobs, then a replay of the traced job stream through the public
// entry points, and the library probes (E6, generator/verifier stages).
// Human-readable lines go to stdout first; the last line is one JSON
// object: {"correct", "attempted", "failed", "metrics"}. README.md lists the
// workloads and every metric.
//
//   ctrtl_bench --workload NAME --seed N --count-seeds K
//
// prints the exact rtl.sim.* counts of seeds N .. N+K-1, one line each, in
// the format of expected_counts.tsv, and measures nothing.

#include <sys/resource.h>
#include <sys/stat.h>

#include <cstdio>
#include <fstream>
#include <iostream>
#include <map>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "common.h"
#include "inputs.h"
#include "library.h"
#include "replay.h"
#include "service.h"
#include "trace.h"

namespace ctrtl_bench {
namespace {

/// The documented seed kept back for verifying claims (README.md).
constexpr std::uint64_t kHeldBackSeed = 1998;
/// expected_counts.tsv holds the rtl.sim.* counts of seeds 0 .. this - 1
/// and of the held-back seed.
constexpr std::uint64_t kCountedSeeds = 256;
/// Set-ups per untraced run; `setup_s` is their median.
constexpr int kSetups = 15;
constexpr int kSnapshotRepetitions = 5;
constexpr int kE6Repetitions = 3;
constexpr unsigned kCorpusProbeCases = 50;
/// Untraced/traced slice pairs of a traced run.
constexpr int kTraceSlices = 4;

struct Args {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 0.0;
  int trace = -1;
  std::string out;
  std::string expected;  ///< expected_counts.tsv
  std::uint64_t count_seeds = 0;
};

[[noreturn]] void usage(const std::string& problem) {
  std::cerr << "ctrtl_bench: " << problem
            << "\nusage: ctrtl_bench --workload NAME --seed N --seconds S "
               "--trace 0|1 --out DIR --expected FILE\n"
               "       ctrtl_bench --workload NAME --seed N --count-seeds K\n";
  std::exit(2);
}

Args parse_args(int argc, char** argv) {
  Args args;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) {
      usage("missing value for " + flag);
    }
    const std::string value = argv[++i];
    try {
      if (flag == "--workload") {
        args.workload = value;
      } else if (flag == "--seed") {
        args.seed = std::stoull(value);
      } else if (flag == "--seconds") {
        args.seconds = std::stod(value);
      } else if (flag == "--trace") {
        args.trace = std::stoi(value);
      } else if (flag == "--out") {
        args.out = value;
      } else if (flag == "--expected") {
        args.expected = value;
      } else if (flag == "--count-seeds") {
        args.count_seeds = std::stoull(value);
      } else {
        usage("unknown flag " + flag);
      }
    } catch (const std::logic_error&) {
      usage("bad value for " + flag + ": " + value);
    }
  }
  if (!known_workload(args.workload)) {
    usage("unknown workload '" + args.workload + "'");
  }
  if (args.count_seeds == 0 &&
      (args.seconds <= 0.0 || (args.trace != 0 && args.trace != 1) ||
       args.out.empty() || args.expected.empty())) {
    usage("--seconds > 0, --trace 0|1, --out and --expected are required");
  }
  return args;
}

/// A metric as printed and as put into the result line.
struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
  std::string note;  ///< sample counts and bases, printed only
};

std::string number(double value) {
  std::ostringstream out;
  out.precision(12);
  out << value;
  return out.str();
}

double peak_rss_mb() {
  rusage usage{};
  ::getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

std::string provenance(const Args& args, std::size_t jobs, int setups) {
  std::ostringstream out;
  out << "{\"provenance\": {\"workload\": \"" << args.workload
      << "\", \"seed\": " << args.seed
      << ", \"held_back_seed\": " << kHeldBackSeed
      << ", \"nproc\": " << std::thread::hardware_concurrency()
      << ", \"compiler\": \""
#if defined(__clang__)
      << "clang "
#elif defined(__GNUC__)
      << "g++ "
#endif
      << __VERSION__ << "\", \"build_type\": \"" << CTRTL_BENCH_BUILD_TYPE
      << "\", \"run_seconds\": " << number(args.seconds)
      << ", \"trace\": " << args.trace << ", \"setups\": " << setups
      << ", \"timed_jobs\": " << jobs << "}}";
  return out.str();
}

/// The exact `rtl.sim.*` counts: sums over the distinct jobs the streams
/// send, from the reference path. Fixed for a seed.
struct SimCounts {
  std::uint64_t delta_cycles = 0;
  std::uint64_t conflicts = 0;
  std::uint64_t failed_instances = 0;
  std::size_t distinct_jobs = 0;
};

SimCounts sim_counts(const Workload& workload) {
  std::set<std::size_t> distinct;
  for (const Stream& stream : workload.streams) {
    distinct.insert(stream.order.begin(), stream.order.end());
  }
  SimCounts counts;
  for (const std::size_t index : distinct) {
    counts.delta_cycles += workload.specs[index].delta_cycles;
    counts.conflicts += workload.specs[index].conflicts;
    counts.failed_instances += workload.specs[index].failed_instances;
  }
  counts.distinct_jobs = distinct.size();
  return counts;
}

std::vector<Metric> sim_metrics(const SimCounts& counts) {
  const std::string note =
      "over " + std::to_string(counts.distinct_jobs) + " distinct jobs";
  return {{"rtl.sim.delta_cycles", static_cast<double>(counts.delta_cycles),
           "count", note},
          {"rtl.sim.conflicts", static_cast<double>(counts.conflicts), "count",
           note},
          {"rtl.sim.failed_instances", static_cast<double>(counts.failed_instances),
           "count", note}};
}

/// One line of expected_counts.tsv.
std::string counts_line(const std::string& workload, std::uint64_t seed,
                        const SimCounts& counts) {
  return workload + '\t' + std::to_string(seed) + '\t' +
         std::to_string(counts.delta_cycles) + '\t' +
         std::to_string(counts.conflicts) + '\t' +
         std::to_string(counts.failed_instances);
}

/// Compares the exact counts with the committed table, so a change that
/// alters simulated behaviour fails the run instead of reading as a gain:
/// those of `seed` when the table has them, otherwise those of the canary
/// seed `seed % kCountedSeeds`, whose workload is built here for it.
bool counts_match(const Args& args, const Workload& workload) {
  std::ifstream table(args.expected);
  if (!table) {
    std::cerr << "ctrtl_bench: cannot read " << args.expected << '\n';
    return false;
  }
  std::map<std::uint64_t, std::string> lines;  // seed -> line, this workload
  std::string line;
  while (std::getline(table, line)) {
    std::istringstream fields(line);
    std::string name;
    std::uint64_t seed = 0;
    if (line.empty() || line.front() == '#' || !(fields >> name >> seed) ||
        name != args.workload) {
      continue;
    }
    lines[seed] = line;
  }
  std::uint64_t seed = args.seed;
  SimCounts counts;
  if (lines.contains(seed)) {
    counts = sim_counts(workload);
  } else {
    seed = args.seed % kCountedSeeds;
    counts = sim_counts(make_workload(args.workload, seed));
  }
  const std::string got = counts_line(args.workload, seed, counts);
  const auto it = lines.find(seed);
  if (it == lines.end() || it->second != got) {
    std::cerr << "ctrtl_bench: rtl.sim counts of seed " << seed << " are '" << got
              << "', expected_counts.tsv has '"
              << (it == lines.end() ? std::string("no entry") : it->second)
              << "'\n";
    return false;
  }
  std::cout << "rtl.sim counts of seed " << seed << " match expected_counts.tsv\n";
  return true;
}

/// Adds `part` to `whole`; timed wall time is the sum of the parts'.
void append(PhaseResult& whole, PhaseResult part) {
  whole.end_ns += part.end_ns - part.start_ns;
  whole.summary.merge(part.summary);
  for (JobRecord& job : part.jobs) {
    whole.jobs.push_back(std::move(job));
  }
  whole.attempted += part.attempted;
  whole.failed += part.failed;
  for (std::string& note : part.failure_notes) {
    whole.failure_notes.push_back(std::move(note));
  }
  whole.spans.resize(std::max(whole.spans.size(), part.spans.size()));
  for (std::size_t i = 0; i < part.spans.size(); ++i) {
    for (const Span& span : part.spans[i].spans()) {
      whole.spans[i].add(span);
    }
  }
}

std::string samples(std::size_t n) { return "n=" + std::to_string(n); }

/// Samples beyond the p99 rank, printed next to every p99.
std::string beyond_p99(std::size_t n) {
  const auto rank =
      static_cast<std::size_t>(std::ceil(0.99 * static_cast<double>(n)));
  return "n=" + std::to_string(n) + ", " + std::to_string(n - std::min(n, rank)) +
         " beyond p99";
}

/// Median over the phase's one-second windows of `of(window)`. A slow
/// spell of the host then shifts a few windows, not the figure.
template <typename Of>
double window_median(const JobSummary& jobs, Of&& of) {
  std::vector<double> values;
  for (const Window& window : jobs.windows) {
    if (window.jobs != 0) {
      values.push_back(of(window));
    }
  }
  return median(std::move(values));
}

/// The run's p99 of `Window::*which`, made robust to a slow spell of the
/// host: the median over groups of consecutive windows, each group the
/// fewest whole seconds holding at least 1000 samples (ten beyond its p99).
/// With fewer than two groups, the p99 of the whole run (`whole`).
double grouped_p99(const JobSummary& jobs, Histogram Window::*which,
                   const Histogram& whole) {
  constexpr std::uint64_t kGroupSamples = 1000;
  std::vector<Histogram> groups;
  Histogram group(0.01);
  for (const Window& window : jobs.windows) {
    group.merge(window.*which);
    if (group.count() >= kGroupSamples) {
      groups.push_back(group);
      group = Histogram(0.01);
    }
  }
  if (!groups.empty()) {
    groups.back().merge(group);  // a short tail joins the last group
  }
  if (groups.size() < 2) {
    return whole.percentile(0.99);
  }
  std::vector<double> p99s;
  for (const Histogram& each : groups) {
    p99s.push_back(each.percentile(0.99));
  }
  return median(std::move(p99s));
}

std::vector<Metric> end_to_end(const PhaseResult& phase,
                               const std::vector<double>& setups) {
  const JobSummary& jobs = phase.summary;
  const std::size_t done = jobs.latency_ns.count();
  const std::string over = ", median over " + std::to_string(jobs.windows.size()) +
                           " one-second windows";
  const std::string grouped = ", median over groups of >= 1000 samples";
  const double attempted = static_cast<double>(phase.attempted);
  const double failed_ratio =
      attempted > 0 ? static_cast<double>(phase.failed) / attempted : 0.0;
  const auto p50 = [](const Histogram& histogram) { return histogram.percentile(0.5); };
  const auto per_job_rate = [](const Window& w, std::uint64_t amount) {
    return w.jobs_per_s() * static_cast<double>(amount) / static_cast<double>(w.jobs);
  };
  return {
      {"setup_s", median(setups), "s",
       "median of " + std::to_string(setups.size()) + " set-ups"},
      {"job_p50_ms",
       window_median(jobs, [&](const Window& w) { return p50(w.latency_ns); }) / 1e6,
       "ms", samples(done) + over},
      {"job_p99_ms", grouped_p99(jobs, &Window::latency_ns, jobs.latency_ns) / 1e6,
       "ms", beyond_p99(done) + grouped},
      {"first_report_p50_ms",
       window_median(jobs, [&](const Window& w) { return p50(w.first_report_ns); }) /
           1e6,
       "ms", samples(done) + over},
      {"jobs_per_s",
       window_median(jobs, [](const Window& w) { return w.jobs_per_s(); }), "1/s",
       samples(done) + over},
      {"sim_steps_per_s",
       window_median(
           jobs, [&](const Window& w) { return per_job_rate(w, w.delta_cycles) / 6; }),
       "1/s",
       number(static_cast<double>(jobs.delta_cycles) / 6) + " control steps" + over},
      {"failed_job_ratio", failed_ratio, "ratio",
       std::to_string(phase.failed) + " failed of " + std::to_string(phase.attempted) +
           " attempted"},
      {"peak_rss_mb", peak_rss_mb(), "MB", "getrusage ru_maxrss"},
  };
}

using SelfTimes = std::map<std::string, std::vector<double>>;

double p50_us(const SelfTimes& times, const std::string& name) {
  const auto it = times.find(name);
  return it == times.end() ? 0.0 : percentile(it->second, 0.5) / 1e3;
}

std::size_t span_count(const SelfTimes& times, const std::string& name) {
  const auto it = times.find(name);
  return it == times.end() ? 0 : it->second.size();
}

void print(const std::vector<Metric>& metrics) {
  for (const Metric& metric : metrics) {
    std::cout << "metric " << metric.name << " = " << number(metric.value) << ' '
              << metric.unit;
    if (!metric.note.empty()) {
      std::cout << "  (" << metric.note << ')';
    }
    std::cout << '\n';
  }
}

void print_result(bool correct, std::uint64_t attempted, std::uint64_t failed,
                  const std::vector<Metric>& metrics, const std::set<std::string>& keep,
                  const std::string& path, const std::string& provenance_line) {
  std::ostringstream line;
  line << "{\"correct\": " << (correct ? "true" : "false")
       << ", \"attempted\": " << attempted << ", \"failed\": " << failed
       << ", \"metrics\": {";
  bool first = true;
  for (const Metric& metric : metrics) {
    if (!keep.contains(metric.name)) {
      continue;
    }
    line << (first ? "" : ", ") << '"' << metric.name << "\": {\"value\": "
         << number(metric.value) << ", \"unit\": \"" << metric.unit << "\"}";
    first = false;
  }
  line << "}}";
  if (FILE* file = std::fopen(path.c_str(), "w")) {
    std::fprintf(file, "%s\n%s\n", provenance_line.c_str(), line.str().c_str());
    std::fclose(file);
  }
  std::cout << provenance_line << '\n' << line.str() << std::endl;
}

void report_failures(const PhaseResult& phase) {
  for (const std::string& note : phase.failure_notes) {
    std::cerr << "ctrtl_bench: failed: " << note << '\n';
  }
}

/// The end-to-end metrics of the result line: those whose spread between
/// runs stays within their bound on a shared host (README.md, "Which
/// metrics are bounded"). The others are printed on every run and reported
/// as per-layer metrics by the traced run.
const std::set<std::string>& end_to_end_names() {
  static const std::set<std::string> names = {"setup_s", "job_p99_ms",
                                              "peak_rss_mb"};
  return names;
}

int run_untraced(const Args& args, const Workload& workload, bool counts_ok) {
  Harness harness(workload, args.out);
  std::vector<double> setups;
  for (int i = 0; i < kSetups; ++i) {
    setups.push_back(harness.setup());
  }
  const PhaseResult phase = harness.run(args.seconds, false);
  report_failures(phase);

  std::vector<Metric> metrics = end_to_end(phase, setups);
  for (Metric& metric : sim_metrics(sim_counts(workload))) {
    metrics.push_back(std::move(metric));
  }
  print(metrics);
  const std::string stem = args.out + "/result-" + args.workload + "-seed" +
                           std::to_string(args.seed) + "-trace0.json";
  print_result(phase.failed == 0 && counts_ok, phase.attempted, phase.failed,
               metrics,
               end_to_end_names(), stem,
               provenance(args, phase.summary.latency_ns.count(), kSetups));
  return 0;
}

int run_traced(const Args& args, const Workload& workload, bool counts_ok) {
  Harness harness(workload, args.out);
  (void)harness.setup();
  // Untraced and traced slices alternate, so drift over the run does not
  // read as tracing overhead.
  PhaseResult untraced(0, 0), traced(0, 0);
  for (int slice = 0; slice < kTraceSlices; ++slice) {
    append(untraced, harness.run(args.seconds / (2 * kTraceSlices), false));
    append(traced, harness.run(args.seconds / (2 * kTraceSlices), true));
  }
  PhaseResult probe = harness.run_specs(workload.cold_probe, true);
  const ctrtl::serve::StatsPayload stats = harness.stats();
  for (const PhaseResult* phase : {&untraced, &traced, &probe}) {
    report_failures(*phase);
  }

  // Replay a bounded prefix of each stream's traced jobs, then the probe.
  const std::size_t per_stream =
      std::max<std::size_t>(16, 1024 / workload.specs.front().instances);
  std::vector<JobRecord> to_replay;
  std::map<std::size_t, std::size_t> taken;
  for (const JobRecord& job : traced.jobs) {
    if (taken[job.stream]++ < per_stream) {
      to_replay.push_back(job);
    }
  }
  to_replay.insert(to_replay.end(), probe.jobs.begin(), probe.jobs.end());
  ReplayOutput replayed = replay(workload, to_replay);

  SpanBuffer library;
  std::uint64_t records_loaded = 0;
  const std::vector<double> snapshot_ns = snapshot_replay_ns(
      workload, harness.journal_path() + ".probe", kSnapshotRepetitions,
      &records_loaded, library);
  const E6Result e6 = run_e6(workload.hot_set, kE6Repetitions, library);
  const CorpusStages corpus =
      run_corpus_stages(workload.probe_seed, kCorpusProbeCases, library);

  // Every span of the run goes to the span file; self times come from the
  // same spans.
  std::vector<Span> spans;
  const auto collect = [&](const std::vector<SpanBuffer>& buffers) {
    for (const SpanBuffer& buffer : buffers) {
      spans.insert(spans.end(), buffer.spans().begin(), buffer.spans().end());
    }
  };
  collect(traced.spans);
  collect(probe.spans);
  collect(replayed.spans);
  spans.insert(spans.end(), library.spans().begin(), library.spans().end());
  // One file per workload, replaced by each traced run.
  const std::string span_path = args.out + "/spans-" + args.workload + ".jsonl";
  if (!write_spans(span_path, spans)) {
    std::cerr << "ctrtl_bench: cannot write " << span_path << '\n';
    return 1;
  }
  const SelfTimes times = self_times(spans);
  std::cout << "spans: " << spans.size() << " written to " << span_path << '\n';
  for (const auto& [name, self_ns] : times) {
    double total = 0;
    for (const double self : self_ns) {
      total += self;
    }
    std::cout << "self " << name << "  n=" << self_ns.size()
              << "  p50_us=" << number(percentile(self_ns, 0.5) / 1e3)
              << "  total_ms=" << number(total / 1e6) << '\n';
  }

  // Client-side splits of the traced socket jobs.
  std::vector<double> stream_us, run_us, lower_us, wire_us, run_share;
  for (const PhaseResult* phase : {&traced, &probe}) {
    for (const JobRecord& job : phase->jobs) {
      if (!job.ok) {
        continue;
      }
      const double latency_ns = static_cast<double>(job.done_ns - job.submit_ns);
      if (!job.cache_hit) {
        lower_us.push_back(static_cast<double>(job.lower_ns) / 1e3);
      }
      if (phase != &traced) {
        continue;
      }
      stream_us.push_back(static_cast<double>(job.done_ns - job.first_report_ns) /
                          1e3);
      run_us.push_back(static_cast<double>(job.run_ns) / 1e3);
      // DONE's run-ns and the latency are of the same job at the same time;
      // a replayed run, timed later, may meet another host speed.
      run_share.push_back(100.0 * static_cast<double>(job.run_ns) / latency_ns);
      if (const auto it = replayed.split.find(job.job_id);
          it != replayed.split.end()) {
        wire_us.push_back((latency_ns - static_cast<double>(job.run_ns) -
                           static_cast<double>(it->second.prerun_ns)) /
                          1e3);
      }
    }
  }
  const double untraced_p50 = untraced.summary.latency_ns.percentile(0.5) / 1e6;
  const double traced_p50 = traced.summary.latency_ns.percentile(0.5) / 1e6;
  const double untraced_s =
      static_cast<double>(untraced.end_ns - untraced.start_ns) / 1e9;
  const std::size_t untraced_jobs = untraced.summary.latency_ns.count();
  const double reports =
      static_cast<double>(std::max<std::uint64_t>(1, replayed.reports));
  const double lookups = static_cast<double>(stats.cache_hits + stats.cache_misses);
  const auto e6_median = [](const std::map<std::string, std::vector<double>>& by,
                            const std::string& engine) {
    const auto it = by.find(engine);
    return it == by.end() ? 0.0 : median(it->second);
  };

  const std::string over_untraced = samples(untraced_jobs) + " in the untraced slices";
  std::vector<Metric> metrics = {
      {"serve.client.job_p50_ms", untraced_p50, "ms", over_untraced},
      {"serve.client.first_report_p50_ms",
       untraced.summary.first_report_ns.percentile(0.5) / 1e6, "ms", over_untraced},
      {"serve.client.jobs_per_s", static_cast<double>(untraced_jobs) / untraced_s,
       "1/s", over_untraced},
      {"serve.client.sim_steps_per_s",
       static_cast<double>(untraced.summary.delta_cycles) / 6 / untraced_s, "1/s",
       over_untraced},
      {"transfer.parse.us_p50", p50_us(times, "transfer.parse"), "us",
       samples(span_count(times, "transfer.parse"))},
      {"transfer.hash.us_p50", p50_us(times, "transfer.hash"), "us",
       samples(span_count(times, "transfer.hash"))},
      {"rtl.batch.setup_us_p50", p50_us(times, "rtl.batch.setup"), "us",
       samples(span_count(times, "rtl.batch.setup"))},
      {"rtl.tables.actions_per_cycle", median(replayed.actions_per_cycle), "count",
       "fire+release+update entries per planned delta cycle"},
      {"serve.snapshot.replay_ms", median(snapshot_ns) / 1e6, "ms",
       "median of " + std::to_string(snapshot_ns.size())},
      {"serve.snapshot.records_loaded", static_cast<double>(records_loaded), "count",
       ""},
      {"serve.wire.self_us_p50", percentile(wire_us, 0.5), "us",
       samples(wire_us.size())},
      {"rtl.batch.run_self_us_p50", percentile(replayed.run_self_ns, 0.5) / 1e3, "us",
       samples(replayed.run_self_ns.size())},
      {"rtl.batch.ns_per_lane_step",
       [&] {
         double total = 0;
         for (const double self : replayed.run_self_ns) {
           total += self;
         }
         return total /
                static_cast<double>(std::max<std::uint64_t>(1, replayed.lane_steps));
       }(),
       "ns", std::to_string(replayed.lane_steps) + " lane steps"},
      {"rtl.batch.lane_blocks", median(replayed.lane_blocks), "count", "per job"},
      {"rtl.batch.run_share_pct", percentile(run_share, 0.5), "%",
       "DONE run-ns / socket job latency, " + samples(run_share.size())},
      {"serve.protocol.encode_us_per_report", replayed.encode_ns / reports / 1e3, "us",
       std::to_string(replayed.reports) + " reports"},
      {"serve.protocol.decode_us_per_report", replayed.decode_ns / reports / 1e3, "us",
       std::to_string(replayed.reports) + " reports"},
      {"serve.protocol.report_bytes_mean",
       static_cast<double>(replayed.report_bytes) / reports, "bytes", "framed"},
      {"serve.client.stream_us_p50", percentile(stream_us, 0.5), "us",
       samples(stream_us.size())},
      {"serve.done.run_us_p50", percentile(run_us, 0.5), "us", samples(run_us.size())},
      {"fault.apply.us_p50", p50_us(times, "fault.apply"), "us",
       samples(span_count(times, "fault.apply"))},
      {"transfer.lower.us_p50", p50_us(times, "transfer.lower"), "us",
       samples(span_count(times, "transfer.lower"))},
      {"transfer.lower.calls", static_cast<double>(replayed.lower_calls), "count",
       "replayed misses"},
      {"serve.done.lower_us_p50", percentile(lower_us, 0.5), "us",
       samples(lower_us.size())},
      {"serve.cache.hit_wait_us_p99", percentile(replayed.hit_wait_ns, 0.99) / 1e3,
       "us", beyond_p99(replayed.hit_wait_ns.size())},
      {"serve.stats.cache_hit_ratio",
       lookups > 0 ? static_cast<double>(stats.cache_hits) / lookups : 0.0, "ratio",
       std::to_string(stats.cache_hits) + " hits of " +
           std::to_string(stats.cache_hits + stats.cache_misses) + " lookups"},
      {"serve.stats.cache_hits", static_cast<double>(stats.cache_hits), "count", ""},
      {"serve.stats.cache_lookups", lookups, "count", ""},
      {"serve.stats.cache_evictions", static_cast<double>(stats.cache_evictions),
       "count", ""},
      {"serve.stats.busy_rejects", static_cast<double>(stats.jobs_rejected_busy),
       "count", ""},
      {"gen.generate.us_p50", percentile(corpus.generate_us, 0.5), "us",
       samples(corpus.cases)},
      {"gen.oracle.us_p50", percentile(corpus.oracle_us, 0.5), "us",
       samples(corpus.cases)},
      {"verify.equivalence.us_p50", percentile(corpus.equivalence_us, 0.5), "us",
       samples(corpus.cases)},
      {"verify.oracle_check.us_p50", percentile(corpus.oracle_check_us, 0.5), "us",
       samples(corpus.cases)},
      {"gen.corpus.failures", static_cast<double>(corpus.failures), "count",
       samples(corpus.cases) + " cases"},
  };
  for (const char* engine : {"event", "compiled", "lane1", "clocked", "handshake"}) {
    const std::string prefix = std::string("e6.") + engine;
    const std::string per = std::string(engine) == "clocked" ? "per clock cycle"
                                                             : "per control step";
    metrics.push_back({prefix + ".build_us", e6_median(e6.build_us, engine), "us",
                       "median over the hot set"});
    metrics.push_back({prefix + ".run_ns_per_step",
                       e6_median(e6.run_ns_per_step, engine), "ns", per});
  }
  for (Metric& metric : sim_metrics(sim_counts(workload))) {
    metrics.push_back(std::move(metric));
  }
  const double overhead_pct =
      untraced_p50 > 0 ? 100.0 * (traced_p50 - untraced_p50) / untraced_p50 : 0.0;
  metrics.push_back({"bench.trace_overhead_pct", overhead_pct, "%",
                     "job_p50_ms traced " + number(traced_p50) + " vs untraced " +
                         number(untraced_p50)});
  print(metrics);

  std::set<std::string> names;
  for (const Metric& metric : metrics) {
    names.insert(metric.name);
  }
  const std::uint64_t attempted =
      untraced.attempted + traced.attempted + probe.attempted;
  const std::uint64_t failed = untraced.failed + traced.failed + probe.failed +
                               replayed.mismatches + e6.mismatches + corpus.failures;
  if (replayed.mismatches + e6.mismatches + corpus.failures != 0) {
    std::cerr << "ctrtl_bench: " << replayed.mismatches << " replay mismatches, "
              << e6.mismatches << " E6 engine disagreements, " << corpus.failures
              << " corpus failures\n";
  }
  const std::string stem = args.out + "/result-" + args.workload + "-seed" +
                           std::to_string(args.seed) + "-trace1.json";
  print_result(failed == 0 && counts_ok, attempted, failed, metrics, names, stem,
               provenance(args,
                          untraced.summary.latency_ns.count() +
                              traced.summary.latency_ns.count(),
                          1));
  return 0;
}

}  // namespace
}  // namespace ctrtl_bench

int main(int argc, char** argv) {
  using namespace ctrtl_bench;
  const Args args = parse_args(argc, argv);
  try {
    if (args.count_seeds != 0) {
      for (std::uint64_t seed = args.seed; seed < args.seed + args.count_seeds;
           ++seed) {
        std::cout << counts_line(args.workload, seed,
                                 sim_counts(make_workload(args.workload, seed)))
                  << std::endl;
      }
      return 0;
    }
    ::mkdir(args.out.c_str(), 0755);
    std::cout << "ctrtl_bench: workload " << args.workload << ", seed " << args.seed
              << (args.seed == kHeldBackSeed ? " (held-back seed)" : "") << ", "
              << args.seconds << " s, trace " << args.trace << std::endl;
    const Workload workload = make_workload(args.workload, args.seed);
    const bool counts_ok = counts_match(args, workload);
    return args.trace == 0 ? run_untraced(args, workload, counts_ok)
                           : run_traced(args, workload, counts_ok);
  } catch (const std::exception& error) {
    std::cerr << "ctrtl_bench: " << error.what() << '\n';
    return 1;
  }
}
