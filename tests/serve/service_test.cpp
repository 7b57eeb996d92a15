// SimulationService: the job lifecycle end to end, in process. The
// acceptance-critical properties live here: submitting the same design
// twice proves the second job skipped lowering (cache-hit flag + counter)
// with byte-identical streamed reports, a fault-plan job and a
// watchdog-tripping job flow through as structured results, and the
// bounded queue rejects with BUSY deterministically.

#include "serve/service.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <condition_variable>
#include <cstdio>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "rtl/batch_runner.h"
#include "transfer/schedule.h"
#include "transfer/text_format.h"

namespace ctrtl::serve {
namespace {

constexpr const char* kFig1 = R"(design fig1
cs_max 7
register R1 init 30
register R2 init 12
bus B1
bus B2
module ADD add
transfer R1 B1 R2 B2 5 ADD 6 B1 R1
)";

/// Collects one job's frames and lets the test block until the terminal
/// frame (DONE or ERROR) lands.
struct Collector {
  std::mutex mutex;
  std::condition_variable cv;
  std::vector<Frame> frames;
  bool terminal = false;

  EventSink sink() {
    return [this](const Frame& frame) {
      std::unique_lock lock(mutex);
      frames.push_back(frame);
      if (frame.type == MessageType::kDone ||
          frame.type == MessageType::kError) {
        terminal = true;
        cv.notify_all();
      }
    };
  }

  void wait() {
    std::unique_lock lock(mutex);
    cv.wait(lock, [this] { return terminal; });
  }

  [[nodiscard]] std::vector<Frame> reports() const {
    std::vector<Frame> out;
    for (const Frame& frame : frames) {
      if (frame.type == MessageType::kReport) {
        out.push_back(frame);
      }
    }
    return out;
  }

  [[nodiscard]] const Frame& last() const { return frames.back(); }
};

ServiceOptions one_worker() {
  ServiceOptions options;
  options.workers = 1;
  return options;
}

JobRequest fig1_job(const std::string& job_id, std::uint64_t instances = 1) {
  JobRequest request;
  request.job_id = job_id;
  request.instances = instances;
  request.design_text = kFig1;
  return request;
}

TEST(ServiceTest, SecondIdenticalJobSkipsLoweringWithIdenticalReports) {
  SimulationService service(one_worker());

  Collector cold;
  ASSERT_EQ(service.submit(fig1_job("cold", 3), cold.sink()).status,
            SubmitStatus::kAccepted);
  cold.wait();

  Collector warm;
  ASSERT_EQ(service.submit(fig1_job("warm", 3), warm.sink()).status,
            SubmitStatus::kAccepted);
  warm.wait();

  // Terminal frames: DONE with the cache verdicts and matching keys.
  DonePayload cold_done, warm_done;
  std::string error;
  ASSERT_EQ(cold.last().type, MessageType::kDone);
  ASSERT_TRUE(parse_done(cold.last().payload, &cold_done, &error)) << error;
  ASSERT_EQ(warm.last().type, MessageType::kDone);
  ASSERT_TRUE(parse_done(warm.last().payload, &warm_done, &error)) << error;
  EXPECT_FALSE(cold_done.cache_hit);
  EXPECT_TRUE(warm_done.cache_hit) << "identical sources must hit the cache";
  EXPECT_EQ(cold_done.cache_key, warm_done.cache_key);
  EXPECT_GT(cold_done.lower_ns, 0u);
  EXPECT_EQ(warm_done.lower_ns, 0u) << "a hit must not lower again";

  // The cache-hit counter is the observable proof the second job skipped
  // lowering.
  StatsPayload stats = service.stats();
  EXPECT_EQ(stats.cache_hits, 1u);
  EXPECT_EQ(stats.cache_misses, 1u);
  EXPECT_EQ(stats.jobs_completed, 2u);
  EXPECT_EQ(stats.instances_completed, 6u);
  EXPECT_TRUE(service.cache().indexed({kFig1, false, ""}))
      << "the resubmitted bytes are served by the request-bytes index";

  // A byte-identical resubmission under the first job's id streams
  // byte-identical REPORT frames.
  Collector again;
  ASSERT_EQ(service.submit(fig1_job("cold", 3), again.sink()).status,
            SubmitStatus::kAccepted);
  again.wait();
  DonePayload again_done;
  ASSERT_TRUE(parse_done(again.last().payload, &again_done, &error)) << error;
  EXPECT_TRUE(again_done.cache_hit);
  EXPECT_EQ(again_done.cache_key, cold_done.cache_key);
  EXPECT_EQ(again_done.lower_ns, 0u);
  const auto payloads = [](const std::vector<Frame>& frames) {
    std::vector<std::string> out;
    for (const Frame& frame : frames) {
      out.push_back(frame.payload);
    }
    std::sort(out.begin(), out.end());
    return out;
  };
  EXPECT_EQ(payloads(again.reports()), payloads(cold.reports()));
  stats = service.stats();
  EXPECT_EQ(stats.cache_hits, 2u);
  EXPECT_EQ(stats.cache_misses, 1u);

  // Byte-identical streamed reports (modulo the job-id line, which is the
  // only intentional difference).
  auto normalize = [](std::vector<Frame> frames) {
    std::vector<std::string> out;
    for (Frame& frame : frames) {
      const std::size_t line_end = frame.payload.find('\n');
      out.push_back(frame.payload.substr(line_end + 1));
    }
    std::sort(out.begin(), out.end());
    return out;
  };
  EXPECT_EQ(normalize(cold.reports()), normalize(warm.reports()));
}

/// Submits one job and waits for its terminal frame. A job the service
/// does not accept leaves the collector without frames.
std::unique_ptr<Collector> run_job(SimulationService& service,
                                   JobRequest request) {
  auto collector = std::make_unique<Collector>();
  const SubmitStatus status =
      service.submit(std::move(request), collector->sink()).status;
  EXPECT_EQ(status, SubmitStatus::kAccepted);
  if (status == SubmitStatus::kAccepted) {
    collector->wait();
  }
  return collector;
}

DonePayload done_of(const Collector& collector) {
  DonePayload done;
  std::string error;
  if (collector.frames.empty()) {
    ADD_FAILURE() << "the job produced no frames";
    return done;
  }
  EXPECT_EQ(collector.last().type, MessageType::kDone);
  EXPECT_TRUE(parse_done(collector.last().payload, &done, &error)) << error;
  return done;
}

TEST(ServiceTest, ReformattedDesignIsACanonicalHitThenAnIndexHit) {
  SimulationService service(one_worker());
  const DonePayload cold = done_of(*run_job(service, fig1_job("cold")));
  EXPECT_FALSE(cold.cache_hit);

  // Same design, different bytes: comments, blank lines, extra spaces.
  JobRequest variant = fig1_job("variant");
  variant.design_text = "# fig1, reformatted\n\n" + std::string(kFig1);
  variant.design_text.replace(variant.design_text.find("cs_max 7"), 8,
                              "cs_max    7   # seven steps");
  ASSERT_FALSE(service.cache().indexed({variant.design_text, false, ""}));
  const DonePayload canonical = done_of(*run_job(service, variant));
  EXPECT_TRUE(canonical.cache_hit);
  EXPECT_EQ(canonical.cache_key, cold.cache_key);
  EXPECT_EQ(canonical.lower_ns, 0u);

  // The variant's bytes are now the entry's alias, so a repeat of the
  // variant hits through the index.
  EXPECT_TRUE(service.cache().indexed({variant.design_text, false, ""}));
  variant.job_id = "variant-again";
  const DonePayload indexed = done_of(*run_job(service, variant));
  EXPECT_TRUE(indexed.cache_hit);
  EXPECT_EQ(indexed.cache_key, cold.cache_key);
  EXPECT_EQ(indexed.lower_ns, 0u);

  const StatsPayload stats = service.stats();
  EXPECT_EQ(stats.cache_misses, 1u);
  EXPECT_EQ(stats.cache_hits, 2u);
}

TEST(ServiceTest, CapacityOneAlternatingDesignsMissEveryTime) {
  ServiceOptions options = one_worker();
  options.cache_capacity = 1;
  SimulationService service(options);
  JobRequest other = fig1_job("other");
  other.design_text.replace(other.design_text.find("init 30"), 7, "init 29");
  for (int round = 0; round < 3; ++round) {
    EXPECT_FALSE(done_of(*run_job(service, fig1_job("fig1"))).cache_hit);
    EXPECT_FALSE(done_of(*run_job(service, other)).cache_hit);
  }
  const StatsPayload stats = service.stats();
  EXPECT_EQ(stats.cache_misses, 6u);
  EXPECT_EQ(stats.cache_hits, 0u);
  EXPECT_EQ(stats.cache_evictions, 5u);
}

TEST(ServiceTest, FailingSourcesFailTheSameWayWhenResubmitted) {
  SimulationService service(one_worker());
  JobRequest unparseable = fig1_job("parse");
  unparseable.design_text = "this is not a design\n";
  JobRequest bad_plan = fig1_job("plan");
  bad_plan.has_fault_plan = true;
  bad_plan.fault_plan_text = "force-bus NOSUCHBUS = 1 @5:ra\n";
  JobRequest invalid = fig1_job("validate");
  invalid.design_text.replace(invalid.design_text.find("5 ADD"), 5, "5 NOPE");
  // CORDIC defines op codes 0 (sin) and 1 (cos) only.
  JobRequest bad_op = fig1_job("op");
  bad_op.design_text =
      "design rot\ncs_max 3\nregister A init 1\nregister S init 0\n"
      "bus B1\nbus B2\nmodule ROT cordic latency 1 frac 16 iters 12\n"
      "transfer A B1 - - 1 ROT 2 B2 S op 7\n";
  const std::vector<std::pair<JobRequest, ErrorCode>> cases = {
      {unparseable, ErrorCode::kParse},
      {bad_plan, ErrorCode::kFaultPlan},
      {invalid, ErrorCode::kValidate},
      {bad_op, ErrorCode::kValidate},
  };
  for (const auto& [request, code] : cases) {
    std::vector<ErrorPayload> errors;
    for (int attempt = 0; attempt < 2; ++attempt) {
      const auto collector = run_job(service, request);
      ASSERT_FALSE(collector->frames.empty());
      ASSERT_EQ(collector->last().type, MessageType::kError);
      ErrorPayload parsed;
      std::string error;
      ASSERT_TRUE(parse_error(collector->last().payload, &parsed, &error))
          << error;
      EXPECT_EQ(parsed.code, code) << request.job_id;
      errors.push_back(parsed);
    }
    EXPECT_EQ(errors[0], errors[1]) << request.job_id;
    EXPECT_FALSE(service.cache().indexed(
        {request.design_text, request.has_fault_plan, request.fault_plan_text}))
        << "only sources that compiled enter the index";
  }
  EXPECT_EQ(service.stats().cache_entries, 0u);
}

TEST(ServiceTest, SnapshotBootAnswersTheFirstJobFromTheCache) {
  const std::string path = testing::TempDir() + "service_boot_hit_test.snap";
  std::remove(path.c_str());
  ServiceOptions options = one_worker();
  options.snapshot_path = path;
  std::string key;
  {
    SimulationService first(options);
    const DonePayload done = done_of(*run_job(first, fig1_job("journaled")));
    EXPECT_FALSE(done.cache_hit);
    key = done.cache_key;
  }
  SimulationService booted(options);
  EXPECT_EQ(booted.stats().snapshot_records_loaded, 1u);
  const DonePayload done = done_of(*run_job(booted, fig1_job("first")));
  EXPECT_TRUE(done.cache_hit);
  EXPECT_EQ(done.lower_ns, 0u);
  EXPECT_EQ(done.cache_key, key);
  const StatsPayload stats = booted.stats();
  EXPECT_EQ(stats.cache_hits, 1u);
  EXPECT_EQ(stats.cache_misses, 1u) << "the boot replay's own lowering";
  std::remove(path.c_str());
}

TEST(ServiceTest, EveryJobThatReachesTheCacheIsOneLookup) {
  SimulationService service(one_worker());
  JobRequest reformatted = fig1_job("reformatted");
  reformatted.design_text = "# comment\n" + std::string(kFig1);
  JobRequest faulted = fig1_job("faulted");
  faulted.has_fault_plan = true;
  faulted.fault_plan_text = "force-bus B1 = 99 @5:ra\n";
  JobRequest invalid = fig1_job("validate");
  invalid.design_text.replace(invalid.design_text.find("5 ADD"), 5, "5 NOPE");
  JobRequest unparseable = fig1_job("parse");
  unparseable.design_text = "garbage\n";

  // E-PARSE and E-FAULT-PLAN end before the cache; E-VALIDATE is a miss
  // whose lowering threw.
  const std::vector<JobRequest> jobs = {
      fig1_job("a"), fig1_job("b"), reformatted, reformatted, faulted,
      faulted,       invalid,       invalid,     unparseable, fig1_job("c")};
  std::uint64_t reached = 0;
  for (const JobRequest& job : jobs) {
    const auto collector = run_job(service, job);
    ASSERT_FALSE(collector->frames.empty());
    const Frame& terminal = collector->last();
    ErrorPayload parsed;
    std::string error;
    const bool validate_error = terminal.type == MessageType::kError &&
                                parse_error(terminal.payload, &parsed, &error) &&
                                parsed.code == ErrorCode::kValidate;
    if (terminal.type == MessageType::kDone || validate_error) {
      ++reached;
    }
  }
  EXPECT_EQ(reached, 9u);
  const StatsPayload stats = service.stats();
  EXPECT_EQ(stats.cache_hits + stats.cache_misses, reached);
  EXPECT_EQ(stats.cache_misses, 4u) << "fig1, faulted, invalid twice";
}

TEST(ServiceTest, ReportsAreByteIdenticalToDirectBatchRunnerRun) {
  // The wire payloads must encode exactly what a direct (no service, no
  // cache) BatchRunner run of the same sources produces.
  SimulationService service(one_worker());
  Collector collector;
  ASSERT_EQ(service.submit(fig1_job("direct", 4), collector.sink()).status,
            SubmitStatus::kAccepted);
  collector.wait();

  common::DiagnosticBag diags;
  const transfer::Design design = transfer::parse_design(kFig1, diags);
  ASSERT_FALSE(diags.has_errors());
  rtl::BatchRunner runner(
      transfer::CompiledDesign::compile(design),
      rtl::BatchRunOptions{.workers = 1,
                           .engine = rtl::BatchEngineKind::kCompiledLanes});
  const rtl::BatchRunResult expected = runner.run(4);

  const std::vector<Frame> reports = collector.reports();
  ASSERT_EQ(reports.size(), 4u);
  std::vector<std::string> got(4);
  for (const Frame& frame : reports) {
    ReportPayload parsed;
    std::string error;
    ASSERT_TRUE(parse_report(frame.payload, &parsed, &error)) << error;
    ASSERT_LT(parsed.instance, got.size());
    got[parsed.instance] = frame.payload;
  }
  for (std::size_t i = 0; i < expected.instances.size(); ++i) {
    EXPECT_EQ(got[i], encode_report("direct", i, expected.instances[i]));
  }
}

TEST(ServiceTest, FaultPlanJobStreamsConflicts) {
  SimulationService service(one_worker());
  JobRequest request = fig1_job("faulted");
  request.has_fault_plan = true;
  request.fault_plan_text = "force-bus B1 = 99 @5:ra\n";
  Collector collector;
  ASSERT_EQ(service.submit(std::move(request), collector.sink()).status,
            SubmitStatus::kAccepted);
  collector.wait();

  ASSERT_EQ(collector.last().type, MessageType::kDone);
  DonePayload done;
  std::string error;
  ASSERT_TRUE(parse_done(collector.last().payload, &done, &error)) << error;
  // The forced drive collides on B1 at rb and the ILLEGAL then propagates
  // through ADD.in1 / B1@wb / R1.in — four conflict records total.
  EXPECT_EQ(done.conflicts, 4u);
  EXPECT_FALSE(done.cache_hit) << "faulted stream must key differently";

  ReportPayload report;
  ASSERT_TRUE(
      parse_report(collector.reports().at(0).payload, &report, &error));
  ASSERT_EQ(report.conflicts.size(), 4u);
  EXPECT_EQ(report.conflicts[0],
            "conflict on B1 at step 5, phase rb (driven at ra)");
  ASSERT_FALSE(report.registers.empty());
  EXPECT_EQ(report.registers[0],
            (std::pair<std::string, std::string>{"R1", "ILLEGAL"}));
}

TEST(ServiceTest, WatchdogTripIsAStructuredReportNotAJobError) {
  SimulationService service(one_worker());
  JobRequest request = fig1_job("wd");
  request.max_delta_cycles = 10;
  Collector collector;
  ASSERT_EQ(service.submit(std::move(request), collector.sink()).status,
            SubmitStatus::kAccepted);
  collector.wait();

  // The job completes with DONE; the trip lives in the instance report.
  ASSERT_EQ(collector.last().type, MessageType::kDone);
  DonePayload done;
  std::string error;
  ASSERT_TRUE(parse_done(collector.last().payload, &done, &error)) << error;
  EXPECT_EQ(done.failures, 1u);

  ReportPayload report;
  ASSERT_TRUE(
      parse_report(collector.reports().at(0).payload, &report, &error));
  EXPECT_EQ(report.status, "watchdog-tripped");
  ASSERT_FALSE(report.diagnostics.empty());
  EXPECT_NE(report.diagnostics[0].find("watchdog"), std::string::npos);
}

TEST(ServiceTest, UnparseableDesignEndsInEParse) {
  SimulationService service(one_worker());
  JobRequest request;
  request.job_id = "bad";
  request.design_text = "this is not a design\n";
  Collector collector;
  ASSERT_EQ(service.submit(std::move(request), collector.sink()).status,
            SubmitStatus::kAccepted);
  collector.wait();

  ASSERT_EQ(collector.last().type, MessageType::kError);
  ErrorPayload parsed;
  std::string error;
  ASSERT_TRUE(parse_error(collector.last().payload, &parsed, &error)) << error;
  EXPECT_EQ(parsed.code, ErrorCode::kParse);
  EXPECT_EQ(parsed.job_id, "bad");
  EXPECT_FALSE(parsed.diagnostics.empty());
  EXPECT_EQ(service.stats().jobs_failed, 1u);
}

TEST(ServiceTest, BadFaultPlanEndsInEFaultPlan) {
  SimulationService service(one_worker());
  JobRequest request = fig1_job("badplan");
  request.has_fault_plan = true;
  request.fault_plan_text = "force-bus NOSUCHBUS = 1 @5:ra\n";
  Collector collector;
  ASSERT_EQ(service.submit(std::move(request), collector.sink()).status,
            SubmitStatus::kAccepted);
  collector.wait();

  ASSERT_EQ(collector.last().type, MessageType::kError);
  ErrorPayload parsed;
  std::string error;
  ASSERT_TRUE(parse_error(collector.last().payload, &parsed, &error)) << error;
  EXPECT_EQ(parsed.code, ErrorCode::kFaultPlan);
}

TEST(ServiceTest, AdmissionValidatesLimitsSynchronously) {
  ServiceOptions options;
  options.workers = 1;
  options.max_instances = 8;
  options.max_source_bytes = 64;
  SimulationService service(options);

  const SubmitOutcome too_many =
      service.submit(fig1_job("big", 9), [](const Frame&) { FAIL(); });
  EXPECT_EQ(too_many.status, SubmitStatus::kRejected);
  EXPECT_EQ(too_many.error.code, ErrorCode::kLimit);

  JobRequest huge = fig1_job("huge");
  huge.design_text = std::string(65, 'x');
  EXPECT_EQ(service.submit(std::move(huge), nullptr).error.code,
            ErrorCode::kLimit);

  JobRequest bad_id = fig1_job("has space");
  EXPECT_EQ(service.submit(std::move(bad_id), nullptr).error.code,
            ErrorCode::kValidate);
}

TEST(ServiceTest, FullQueueRejectsBusyDeterministically) {
  // One worker parked inside a job + capacity-1 queue: the third submit
  // must bounce with BUSY while nothing is lost for the first two.
  std::mutex gate_mutex;
  std::condition_variable gate_cv;
  bool gate_open = false;
  bool worker_parked = false;

  ServiceOptions options;
  options.workers = 1;
  options.queue_capacity = 1;
  options.on_job_start = [&](const std::string&) {
    std::unique_lock lock(gate_mutex);
    worker_parked = true;
    gate_cv.notify_all();
    gate_cv.wait(lock, [&] { return gate_open; });
  };
  SimulationService service(options);

  Collector a, b;
  ASSERT_EQ(service.submit(fig1_job("a"), a.sink()).status,
            SubmitStatus::kAccepted);
  {
    // Wait until the worker has dequeued job a — the queue is now empty.
    std::unique_lock lock(gate_mutex);
    gate_cv.wait(lock, [&] { return worker_parked; });
  }
  ASSERT_EQ(service.submit(fig1_job("b"), b.sink()).status,
            SubmitStatus::kAccepted);  // fills the queue

  const SubmitOutcome busy = service.submit(fig1_job("c"), nullptr);
  EXPECT_EQ(busy.status, SubmitStatus::kBusy);
  EXPECT_EQ(busy.queued, 1u);
  EXPECT_EQ(service.stats().jobs_rejected_busy, 1u);

  {
    std::unique_lock lock(gate_mutex);
    gate_open = true;
    worker_parked = false;  // job b will park again at its own start
  }
  gate_cv.notify_all();
  {
    // Let job b through its gate too.
    std::unique_lock lock(gate_mutex);
    gate_cv.wait(lock, [&] { return worker_parked; });
  }
  gate_cv.notify_all();
  a.wait();
  b.wait();
  EXPECT_EQ(a.last().type, MessageType::kDone);
  EXPECT_EQ(b.last().type, MessageType::kDone);
}

TEST(ServiceTest, SoftLimitShedsLowPriorityWithRetryHint) {
  // One worker parked on a normal job, queue capacity 4, shedding at depth
  // 2: low-priority jobs bounce once two jobs queue, normal jobs keep the
  // remaining headroom, and the hard limit still rejects everyone.
  std::mutex gate_mutex;
  std::condition_variable gate_cv;
  bool gate_open = false;
  bool worker_parked = false;

  ServiceOptions options;
  options.workers = 1;
  options.queue_capacity = 4;
  options.shed_queue_depth = 2;
  options.retry_after_ms = 7;
  options.on_job_start = [&](const std::string& job_id) {
    if (job_id != "a") {
      return;  // only the first job parks; the drain must run unimpeded
    }
    std::unique_lock lock(gate_mutex);
    worker_parked = true;
    gate_cv.notify_all();
    gate_cv.wait(lock, [&] { return gate_open; });
  };
  SimulationService service(options);

  const auto low = [](JobRequest request) {
    request.low_priority = true;
    return request;
  };

  Collector a, b, c, e, g;
  ASSERT_EQ(service.submit(fig1_job("a"), a.sink()).status,
            SubmitStatus::kAccepted);
  {
    std::unique_lock lock(gate_mutex);
    gate_cv.wait(lock, [&] { return worker_parked; });
  }
  // Queue is empty; two low-priority jobs fit under the soft limit.
  ASSERT_EQ(service.submit(low(fig1_job("b")), b.sink()).status,
            SubmitStatus::kAccepted);
  ASSERT_EQ(service.submit(low(fig1_job("c")), c.sink()).status,
            SubmitStatus::kAccepted);

  // Depth 2 reached: the next low-priority job is shed, with the reason
  // and the configured retry hint on the outcome.
  const SubmitOutcome shed = service.submit(low(fig1_job("d")), nullptr);
  EXPECT_EQ(shed.status, SubmitStatus::kBusy);
  EXPECT_EQ(shed.busy_reason, BusyReason::kShed);
  EXPECT_EQ(shed.retry_after_ms, 7u);

  // Normal priority still gets the headroom between soft and hard limits.
  ASSERT_EQ(service.submit(fig1_job("e"), e.sink()).status,
            SubmitStatus::kAccepted);
  EXPECT_EQ(service.submit(low(fig1_job("f")), nullptr).busy_reason,
            BusyReason::kShed);
  ASSERT_EQ(service.submit(fig1_job("g"), g.sink()).status,
            SubmitStatus::kAccepted);  // queue now at capacity 4

  const SubmitOutcome hard = service.submit(fig1_job("h"), nullptr);
  EXPECT_EQ(hard.status, SubmitStatus::kBusy);
  EXPECT_EQ(hard.busy_reason, BusyReason::kQueueFull);
  EXPECT_EQ(hard.retry_after_ms, 7u);

  const StatsPayload mid = service.stats();
  EXPECT_EQ(mid.jobs_shed, 2u);
  EXPECT_EQ(mid.jobs_rejected_busy, 3u) << "shed jobs count as busy too";

  {
    std::unique_lock lock(gate_mutex);
    gate_open = true;
  }
  gate_cv.notify_all();
  for (Collector* collector : {&a, &b, &c, &e, &g}) {
    collector->wait();
    EXPECT_EQ(collector->last().type, MessageType::kDone);
  }
  EXPECT_EQ(service.stats().jobs_completed, 5u);
}

TEST(ServiceTest, CancelledWhileQueuedEndsInECancelledWithoutRunning) {
  std::mutex gate_mutex;
  std::condition_variable gate_cv;
  bool gate_open = false;
  bool worker_parked = false;

  ServiceOptions options;
  options.workers = 1;
  options.on_job_start = [&](const std::string& job_id) {
    if (job_id != "first") {
      return;
    }
    std::unique_lock lock(gate_mutex);
    worker_parked = true;
    gate_cv.notify_all();
    gate_cv.wait(lock, [&] { return gate_open; });
  };
  SimulationService service(options);

  Collector first, victim;
  ASSERT_EQ(service.submit(fig1_job("first"), first.sink()).status,
            SubmitStatus::kAccepted);
  {
    std::unique_lock lock(gate_mutex);
    gate_cv.wait(lock, [&] { return worker_parked; });
  }
  const SubmitOutcome queued =
      service.submit(fig1_job("victim", 4), victim.sink());
  ASSERT_EQ(queued.status, SubmitStatus::kAccepted);
  ASSERT_NE(queued.control, nullptr);

  // The client vanishes while the job is still queued.
  queued.control->cancel();
  {
    std::unique_lock lock(gate_mutex);
    gate_open = true;
  }
  gate_cv.notify_all();
  first.wait();
  victim.wait();

  EXPECT_EQ(first.last().type, MessageType::kDone);
  ASSERT_EQ(victim.last().type, MessageType::kError);
  ErrorPayload parsed;
  std::string error;
  ASSERT_TRUE(parse_error(victim.last().payload, &parsed, &error)) << error;
  EXPECT_EQ(parsed.code, ErrorCode::kCancelled);
  EXPECT_TRUE(victim.reports().empty())
      << "a job cancelled before it started must not stream reports";
  EXPECT_TRUE(queued.control->finished());

  const StatsPayload stats = service.stats();
  EXPECT_EQ(stats.jobs_cancelled, 1u);
  EXPECT_EQ(stats.jobs_failed, 1u);
  EXPECT_EQ(stats.jobs_deadline_expired, 0u);
}

TEST(ServiceTest, DeadlineBurnedWhileQueuedEndsInEDeadline) {
  std::mutex gate_mutex;
  std::condition_variable gate_cv;
  bool gate_open = false;
  bool worker_parked = false;

  ServiceOptions options;
  options.workers = 1;
  options.on_job_start = [&](const std::string& job_id) {
    if (job_id != "first") {
      return;
    }
    std::unique_lock lock(gate_mutex);
    worker_parked = true;
    gate_cv.notify_all();
    gate_cv.wait(lock, [&] { return gate_open; });
  };
  SimulationService service(options);

  Collector first, stale;
  ASSERT_EQ(service.submit(fig1_job("first"), first.sink()).status,
            SubmitStatus::kAccepted);
  {
    std::unique_lock lock(gate_mutex);
    gate_cv.wait(lock, [&] { return worker_parked; });
  }
  JobRequest request = fig1_job("stale");
  request.deadline_ms = 1;
  ASSERT_EQ(service.submit(std::move(request), stale.sink()).status,
            SubmitStatus::kAccepted);
  // Burn the budget while the job is stuck behind the parked worker.
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  {
    std::unique_lock lock(gate_mutex);
    gate_open = true;
  }
  gate_cv.notify_all();
  first.wait();
  stale.wait();

  ASSERT_EQ(stale.last().type, MessageType::kError);
  ErrorPayload parsed;
  std::string error;
  ASSERT_TRUE(parse_error(stale.last().payload, &parsed, &error)) << error;
  EXPECT_EQ(parsed.code, ErrorCode::kDeadline);
  ASSERT_FALSE(parsed.diagnostics.empty());
  EXPECT_NE(parsed.diagnostics[0].find("expired while queued"),
            std::string::npos);
  EXPECT_EQ(service.stats().jobs_deadline_expired, 1u);
}

TEST(ServiceTest, ShutdownDrainsAcceptedJobsAndRejectsNewOnes) {
  SimulationService service(one_worker());
  Collector collector;
  ASSERT_EQ(service.submit(fig1_job("last", 2), collector.sink()).status,
            SubmitStatus::kAccepted);
  service.shutdown();  // blocks until the queue drains
  collector.wait();
  EXPECT_EQ(collector.last().type, MessageType::kDone);

  const SubmitOutcome rejected = service.submit(fig1_job("late"), nullptr);
  EXPECT_EQ(rejected.status, SubmitStatus::kRejected);
  EXPECT_EQ(rejected.error.code, ErrorCode::kShutdown);
}

TEST(ServiceTest, EvictionUnderPressureKeepsJobsCorrect) {
  // cache_capacity 1 with alternating designs: every other job evicts the
  // previous entry, and every job still completes correctly.
  ServiceOptions options;
  options.workers = 2;
  options.cache_capacity = 1;
  SimulationService service(options);

  std::vector<std::unique_ptr<Collector>> collectors;
  for (int round = 0; round < 3; ++round) {
    for (const char* variant : {"init 30", "init 29"}) {
      JobRequest request;
      request.job_id = "evict";
      request.instances = 2;
      request.design_text = kFig1;
      const std::size_t pos = request.design_text.find("init 30");
      request.design_text.replace(pos, 7, variant);
      collectors.push_back(std::make_unique<Collector>());
      ASSERT_EQ(
          service.submit(std::move(request), collectors.back()->sink()).status,
          SubmitStatus::kAccepted);
    }
  }
  for (const auto& collector : collectors) {
    collector->wait();
    EXPECT_EQ(collector->last().type, MessageType::kDone);
  }
  const StatsPayload stats = service.stats();
  EXPECT_EQ(stats.jobs_completed, 6u);
  EXPECT_GE(stats.cache_evictions, 1u);
  EXPECT_EQ(stats.cache_entries, 1u);
}

}  // namespace
}  // namespace ctrtl::serve
