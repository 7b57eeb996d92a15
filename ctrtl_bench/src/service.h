#pragma once

// The socket side of every workload: a live in-process `ServeServer`
// booted from the workload's snapshot journal, one `ServeClient` per
// stream, each running a closed loop (its next SUBMIT goes out only after
// DONE) for a fixed time. Every REPORT is checked against the reference.

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "inputs.h"
#include "serve/client.h"
#include "serve/server.h"
#include "trace.h"

namespace ctrtl_bench {

/// One timed job, as the client saw it.
struct JobRecord {
  std::size_t stream = 0;
  std::size_t spec = 0;
  std::string job_id;
  std::int64_t submit_ns = 0;
  std::int64_t first_report_ns = 0;
  std::int64_t done_ns = 0;
  bool ok = false;
  bool cache_hit = false;
  std::uint64_t lower_ns = 0;  ///< from DONE
  std::uint64_t run_ns = 0;    ///< from DONE
  std::uint64_t delta_cycles = 0;
};

/// One second of a phase, by job completion time.
struct Window {
  Histogram latency_ns{0.01};
  Histogram first_report_ns{0.01};
  std::uint64_t jobs = 0;
  std::uint64_t delta_cycles = 0;
  std::int64_t first_done_ns = 0;
  std::int64_t last_done_ns = 0;

  /// Completions per second between the window's first and last DONE; 0
  /// with fewer than two. Unlike a count per window it is not rounded to
  /// whole jobs.
  [[nodiscard]] double jobs_per_s() const;
};

/// What the end-to-end metrics need from a phase's completed jobs, in
/// memory fixed by the run length, not by the job count.
struct JobSummary {
  /// `seconds` whole windows from `start_ns`; later completions count in
  /// the totals only.
  JobSummary(std::int64_t start_ns, double seconds);

  Histogram latency_ns;
  Histogram first_report_ns;
  std::uint64_t delta_cycles = 0;
  std::int64_t start_ns;
  std::vector<Window> windows;

  void add(const JobRecord& job);
  void merge(const JobSummary& other);
};

struct PhaseResult {
  PhaseResult(std::int64_t start, double seconds)
      : summary(start, seconds), start_ns(start), end_ns(start) {}

  JobSummary summary;
  /// Every job, kept only by traced phases (the replay reads them).
  std::vector<JobRecord> jobs;
  std::int64_t start_ns;
  std::int64_t end_ns;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> failure_notes;  ///< the first few, for stderr
  /// Client-side spans, one buffer per stream (empty when untraced).
  std::vector<SpanBuffer> spans;
};

class Harness {
 public:
  /// `dir` holds the boot journal and the socket; keep it short (the
  /// socket path must fit `sun_path`).
  Harness(const Workload& workload, std::string dir);
  ~Harness();

  Harness(const Harness&) = delete;
  Harness& operator=(const Harness&) = delete;

  /// Writes the boot journal, constructs and starts the server, connects
  /// every stream and runs the untimed warm-up jobs. Returns the seconds
  /// from server construction to the end of the warm-up. Any previous
  /// server is torn down first (untimed).
  double setup();

  /// Runs every stream's closed loop for `seconds`; `trace` records
  /// client-side spans.
  [[nodiscard]] PhaseResult run(double seconds, bool trace);

  /// Sends `specs` once each over the first stream's connection.
  [[nodiscard]] PhaseResult run_specs(const std::vector<std::size_t>& specs,
                                      bool trace);

  /// The server's STATS, over the first stream's connection.
  [[nodiscard]] ctrtl::serve::StatsPayload stats();

  [[nodiscard]] const std::string& journal_path() const { return journal_path_; }

 private:
  struct Client {
    ctrtl::serve::ServeClient client;
    std::size_t position = 0;  ///< next index into the stream's order
    std::uint64_t sequence = 0;
  };

  void teardown();
  void connect(Client& client);
  /// The spec the stream sends next.
  [[nodiscard]] std::size_t next_spec(std::size_t stream, Client& client) const;
  /// Sends one job and checks it. Returns false when it failed; `note`
  /// says why. Throws when the connection cannot be re-established.
  bool run_one(std::size_t stream, Client& client, std::size_t spec_index,
               JobRecord& record, SpanBuffer* spans, std::string& note);

  const Workload& workload_;
  std::string socket_path_;
  std::string journal_path_;
  std::unique_ptr<ctrtl::serve::ServeServer> server_;
  std::vector<std::unique_ptr<Client>> clients_;
};

}  // namespace ctrtl_bench
