#pragma once

// Workload inputs: everything the program receives is generated here from
// `--seed` before any timing starts — design text (`transfer::to_text`),
// fault-plan text (`fault::to_text`), instance counts — together with the
// reference REPORT payloads every served job is checked against.

#include <cstdint>
#include <string>
#include <vector>

#include "serve/protocol.h"
#include "serve/service.h"
#include "serve/snapshot.h"
#include "trace.h"
#include "transfer/design.h"
#include "transfer/tuple.h"

namespace ctrtl_bench {

/// One distinct job: what a SUBMIT carries, plus the expected outcome.
struct JobSpec {
  std::string design_text;
  bool has_fault_plan = false;
  std::string fault_plan_text;
  std::uint64_t instances = 1;
  /// Reference payload per instance, job id left empty (compared field by
  /// field with the id checked separately).
  std::vector<ctrtl::serve::ReportPayload> expected;
  /// Sums over the expected reports (the exact `rtl.sim.*` counts).
  std::uint64_t delta_cycles = 0;
  std::uint64_t conflicts = 0;
  std::uint64_t failed_instances = 0;
};

/// One connection's closed loop: it sends `specs[order[i % order.size()]]`
/// for i = 0, 1, ... until the run ends.
struct Stream {
  std::string label;  ///< "a", "b": job ids are "<label>-<n>"
  std::vector<std::size_t> order;
};

struct Workload {
  std::string name;
  ctrtl::serve::ServiceOptions service;
  std::vector<JobSpec> specs;
  /// The journal the server boots from (the warm set).
  std::vector<ctrtl::serve::SnapshotRecord> snapshot;
  std::vector<Stream> streams;
  /// Untimed jobs per connection after connect, part of set-up.
  std::size_t warmup_jobs = 0;
  /// The `hot_small` hot set for this seed (E6 runs on it in every traced
  /// run) and the first of the consecutive `gen::generate` seeds the
  /// generator/verifier probes run on.
  std::vector<ctrtl::transfer::Design> hot_set;
  std::uint64_t probe_seed = 0;
  /// Traced runs only: cold jobs sent after the traced phase (the hot set
  /// under a fault plan, so they miss), giving every workload DONE
  /// lower-ns, fault and lowering samples.
  std::vector<std::size_t> cold_probe;
};

/// The workload names, in the order the README lists them.
[[nodiscard]] const std::vector<std::string>& workload_names();
[[nodiscard]] bool known_workload(const std::string& name);

/// Builds the named workload from `seed` and computes every reference
/// payload through `CompiledDesign::compile` -> `BatchRunner` (per-instance
/// engine, not the lane engine the service runs) -> `encode_report`. Throws
/// on a generated input that fails.
[[nodiscard]] Workload make_workload(const std::string& name,
                                     std::uint64_t seed);

/// A job's sources parsed, faulted and hashed, as a service worker has them
/// before its cache lookup.
struct Prepared {
  ctrtl::transfer::Design design;
  std::vector<ctrtl::transfer::TransInstance> instances;
  std::uint64_t key = 0;  ///< `canonical_stream_hash`, the cache key
};

/// parse -> fault -> hash, each in its own span under `parent`. Throws when
/// the design does not parse or the fault plan does not apply.
[[nodiscard]] Prepared prepare(const JobSpec& spec, SpanBuffer& spans,
                               const std::string& job, std::uint64_t parent);

/// Writes the workload's boot journal (its warm set) to `path`, replacing
/// the file. Throws on an I/O failure.
void write_journal(const Workload& workload, const std::string& path);

/// True when `got` equals the reference `want` in every field and carries
/// `job_id`.
[[nodiscard]] bool report_matches(const ctrtl::serve::ReportPayload& got,
                                  const ctrtl::serve::ReportPayload& want,
                                  const std::string& job_id);

}  // namespace ctrtl_bench
