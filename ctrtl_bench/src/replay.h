#pragma once

// The per-layer half of the traced run: the job stream the socket phase
// sent is replayed, in pipeline order, through the public entry points a
// service worker calls — parse, fault, hash, cache, lower, table build,
// lane run, REPORT encode, REPORT decode — each wrapped in a span. Streams
// replay on their own threads against one shared `DesignCache`, so lock
// waits between a hit and a concurrent miss show.

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "inputs.h"
#include "service.h"
#include "trace.h"

namespace ctrtl_bench {

/// Where one replayed job's time went.
struct JobSplit {
  std::int64_t prerun_ns = 0;  ///< parse .. table build
};

struct ReplayOutput {
  /// One buffer per replay thread, plus one for the cache warm-up.
  std::vector<SpanBuffer> spans;
  std::map<std::string, JobSplit> split;  ///< by job id
  std::vector<double> hit_wait_ns;        ///< get_or_compile on hits
  std::vector<double> run_self_ns;
  std::vector<double> lane_blocks;        ///< lane blocks per job
  std::vector<double> actions_per_cycle;  ///< per replayed job's tables
  std::uint64_t lane_steps = 0;           ///< instances x control steps
  std::uint64_t lower_calls = 0;          ///< misses that lowered
  std::uint64_t reports = 0;
  std::uint64_t report_bytes = 0;
  double encode_ns = 0.0;
  double decode_ns = 0.0;
  std::uint64_t mismatches = 0;  ///< decoded REPORTs unequal to the reference
};

/// Replays `jobs` (each stream's in the order they were sent, one thread
/// per stream), the cache first warmed like the server's boot.
[[nodiscard]] ReplayOutput replay(const Workload& workload,
                                  const std::vector<JobRecord>& jobs);

/// Constructs a `SimulationService` from the workload's boot journal
/// `repetitions` times; returns the construction times in nanoseconds and
/// the records the last one loaded.
[[nodiscard]] std::vector<double> snapshot_replay_ns(
    const Workload& workload, const std::string& journal_path,
    int repetitions, std::uint64_t* records_loaded, SpanBuffer& spans);

}  // namespace ctrtl_bench
