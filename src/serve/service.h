#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include <condition_variable>
#include <deque>

#include "serve/cache.h"
#include "serve/protocol.h"
#include "serve/snapshot.h"

namespace ctrtl::serve {

/// Tuning knobs for a `SimulationService`. docs/SERVICE.md ("Operations")
/// discusses how to size them.
struct ServiceOptions {
  /// Job worker threads — jobs processed concurrently.
  std::size_t workers = 2;
  /// Worker threads inside each job's `rtl::BatchRunner` (lane-block
  /// parallelism within one job). workers * lane_workers should not exceed
  /// the machine.
  std::size_t lane_workers = 1;
  /// Lane-engine shard size, forwarded to `BatchRunOptions::lane_block`.
  std::size_t lane_block = 16;
  /// Bounded admission queue: jobs accepted but not yet picked up by a
  /// worker. A full queue rejects with BUSY instead of growing without
  /// bound — the backpressure contract.
  std::size_t queue_capacity = 16;
  /// Soft overload threshold for load shedding: once the queue holds at
  /// least this many jobs, *low-priority* submissions are rejected with a
  /// BUSY (reason shed-low-priority, retry hint attached) while normal
  /// work is still admitted up to `queue_capacity`. 0 disables shedding.
  std::size_t shed_queue_depth = 0;
  /// Backoff hint attached to every BUSY reply (`retry-after-ms`); 0 sends
  /// no hint.
  std::uint64_t retry_after_ms = 50;
  /// Lowered designs retained, LRU (`DesignCache`).
  std::size_t cache_capacity = 8;
  /// Per-job instance-count limit (E-LIMIT above it).
  std::uint64_t max_instances = 65536;
  /// Per-blob source-size limit in bytes (E-LIMIT above it).
  std::size_t max_source_bytes = 1u << 20;
  /// Crash-safe cache persistence: when non-empty, every cache miss
  /// appends the job's sources to this append-only snapshot journal, and
  /// construction replays the journal — re-parsing, re-faulting, and
  /// re-lowering each record — to warm the cache before the first job.
  /// Empty disables persistence.
  std::string snapshot_path;
  /// Test/observability hook: invoked on the worker thread with the job id
  /// right after dequeue, before any processing. Lets tests park a worker
  /// deterministically to exercise queue-full backpressure.
  std::function<void(const std::string& job_id)> on_job_start;
};

/// Shared handle for steering one accepted job from outside the worker
/// pool. The server holds one per in-flight job so a vanished client can
/// cancel its work; the service polls it between lane blocks. The first
/// recorded cause wins — a job is terminated for exactly one reason.
class JobControl {
 public:
  /// Requests cooperative cancellation (client abandoned the job). The
  /// worker stops at the next lane-block boundary and ends the job with
  /// E-CANCELLED. No-op if the deadline already fired or the job finished.
  void cancel() {
    int expected = kRunning;
    reason_.compare_exchange_strong(expected, kCancelledByClient);
  }

  /// True once the job emitted its terminal frame (DONE or ERROR).
  [[nodiscard]] bool finished() const {
    return finished_.load(std::memory_order_acquire);
  }

 private:
  friend class SimulationService;

  static constexpr int kRunning = 0;
  static constexpr int kDeadlineExpired = 1;
  static constexpr int kCancelledByClient = 2;

  /// Records deadline expiry unless cancellation won the race.
  void expire() {
    int expected = kRunning;
    reason_.compare_exchange_strong(expected, kDeadlineExpired);
  }

  [[nodiscard]] int reason() const {
    return reason_.load(std::memory_order_acquire);
  }

  void mark_finished() { finished_.store(true, std::memory_order_release); }

  std::atomic<int> reason_{kRunning};
  std::atomic<bool> finished_{false};
};

enum class SubmitStatus : std::uint8_t {
  kAccepted,  ///< queued; REPORT/DONE/ERROR frames will follow via the sink
  kBusy,      ///< queue full or load shed — resubmit later
  kRejected,  ///< failed admission validation; `error` says why
};

/// Synchronous outcome of `submit`. Everything frame-shaped — ACCEPTED
/// (emitted inside `submit` before the job is visible to a worker, so it
/// always precedes the job's other frames), REPORT, DONE, job-level ERROR
/// — arrives through the job's `EventSink` instead.
struct SubmitOutcome {
  SubmitStatus status = SubmitStatus::kRejected;
  /// Jobs in the queue: after enqueue for kAccepted (this job included),
  /// at rejection for kBusy.
  std::uint64_t queued = 0;
  /// Populated when status == kRejected.
  ErrorPayload error;
  /// For kBusy: the server's backoff hint and why the job was turned away.
  std::uint64_t retry_after_ms = 0;
  BusyReason busy_reason = BusyReason::kQueueFull;
  /// For kAccepted: the job's cancellation handle (never null).
  std::shared_ptr<JobControl> control;
};

/// Receives a job's asynchronous frames (one ACCEPTED first, REPORT per
/// instance in completion order, then exactly one DONE or ERROR). Invoked
/// on worker threads (ACCEPTED on the submitting thread, under the queue
/// lock — sinks must not call back into the service); calls for one job
/// are serialized. Must not block the worker for long — socket-facing
/// callers buffer into a per-connection outbox and let a writer thread
/// drain it (see `ServeServer`).
using EventSink = std::function<void(const Frame& frame)>;

/// The in-process core of `ctrtl_serve`: a bounded job queue, a worker
/// pool, and a content-addressed `DesignCache`, independent of any wire.
/// A job's lifecycle: accept -> hash -> cache hit/miss -> lower ->
/// lane-sharded run (streaming REPORTs as lane blocks complete) -> DONE.
/// Anything that fails before the run starts ends the job with a single
/// structured ERROR frame instead; instance-level failures (watchdog,
/// per-instance errors) are *not* job errors — they stream as REPORT
/// frames with a non-ok status and the job still completes with DONE.
///
/// Two more terminal shapes exist for production hardening: a job whose
/// `deadline-ms` budget expires ends with E-DEADLINE, and a job whose
/// client vanished (reader hit EOF; `JobControl::cancel`) ends with
/// E-CANCELLED. Both are *cooperative* — the worker polls between lane
/// blocks, so REPORTs already streamed stay valid and termination latency
/// is bounded by one lane block plus one instance's convergence (bound
/// non-converging instances with max-delta-cycles; the watchdog and the
/// deadline complement each other).
class SimulationService {
 public:
  explicit SimulationService(ServiceOptions options = {});

  /// Drains and joins (`shutdown()`).
  ~SimulationService();

  SimulationService(const SimulationService&) = delete;
  SimulationService& operator=(const SimulationService&) = delete;

  /// Validates and enqueues one job. On kAccepted the sink will be invoked
  /// asynchronously until the job's terminal frame (DONE or ERROR); on
  /// kBusy/kRejected the sink is never invoked.
  [[nodiscard]] SubmitOutcome submit(JobRequest request, EventSink sink);

  [[nodiscard]] StatsPayload stats() const;

  /// The design cache, read-only (tests and diagnostics).
  [[nodiscard]] const DesignCache& cache() const { return cache_; }

  /// Stops admission (further submits are kRejected with E-SHUTDOWN),
  /// drains already-accepted jobs, and joins the workers. Idempotent.
  void shutdown();

 private:
  struct Job {
    JobRequest request;
    EventSink sink;
    std::shared_ptr<JobControl> control;
    bool has_deadline = false;
    std::chrono::steady_clock::time_point deadline;
  };

  void worker_loop();
  void process(Job job);
  void restore_snapshot();

  ServiceOptions options_;
  DesignCache cache_;
  std::unique_ptr<SnapshotJournal> journal_;

  mutable std::mutex mutex_;
  std::condition_variable queue_cv_;
  std::deque<Job> queue_;
  bool draining_ = false;
  std::vector<std::thread> workers_;

  // Counters (guarded by mutex_; the snapshot pair is written once in the
  // constructor, before any worker exists).
  std::uint64_t jobs_accepted_ = 0;
  std::uint64_t jobs_completed_ = 0;
  std::uint64_t jobs_rejected_busy_ = 0;
  std::uint64_t jobs_failed_ = 0;
  std::uint64_t jobs_shed_ = 0;
  std::uint64_t jobs_deadline_expired_ = 0;
  std::uint64_t jobs_cancelled_ = 0;
  std::uint64_t instances_completed_ = 0;
  std::uint64_t snapshot_loaded_ = 0;
  std::uint64_t snapshot_skipped_ = 0;
};

}  // namespace ctrtl::serve
