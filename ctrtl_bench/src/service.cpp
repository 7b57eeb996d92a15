#include "service.h"

#include <unistd.h>

#include <stdexcept>
#include <thread>


namespace ctrtl_bench {

namespace serve = ctrtl::serve;

namespace {

constexpr std::size_t kMaxNotes = 5;
/// Per-REPORT spans stop once a stream's buffer holds this many spans, so
/// wide jobs do not make the span file (and memory) huge.
constexpr std::size_t kReportSpanBudget = 16384;

}  // namespace

double Window::jobs_per_s() const {
  if (jobs < 2 || last_done_ns <= first_done_ns) {
    return 0.0;
  }
  return static_cast<double>(jobs - 1) * 1e9 /
         static_cast<double>(last_done_ns - first_done_ns);
}

JobSummary::JobSummary(std::int64_t start, double seconds)
    : start_ns(start), windows(static_cast<std::size_t>(seconds)) {}

void JobSummary::add(const JobRecord& job) {
  const std::int64_t latency = job.done_ns - job.submit_ns;
  const std::int64_t first_report = job.first_report_ns - job.submit_ns;
  latency_ns.add(latency);
  first_report_ns.add(first_report);
  delta_cycles += job.delta_cycles;
  const std::int64_t second = (job.done_ns - start_ns) / 1'000'000'000;
  if (second >= 0 && static_cast<std::size_t>(second) < windows.size()) {
    Window& window = windows[static_cast<std::size_t>(second)];
    window.latency_ns.add(latency);
    window.first_report_ns.add(first_report);
    if (window.jobs++ == 0) {
      window.first_done_ns = window.last_done_ns = job.done_ns;
    }
    window.first_done_ns = std::min(window.first_done_ns, job.done_ns);
    window.last_done_ns = std::max(window.last_done_ns, job.done_ns);
    window.delta_cycles += job.delta_cycles;
  }
}

void JobSummary::merge(const JobSummary& other) {
  latency_ns.merge(other.latency_ns);
  first_report_ns.merge(other.first_report_ns);
  delta_cycles += other.delta_cycles;
  for (std::size_t i = 0; i < windows.size() && i < other.windows.size(); ++i) {
    windows[i].latency_ns.merge(other.windows[i].latency_ns);
    windows[i].first_report_ns.merge(other.windows[i].first_report_ns);
    Window& window = windows[i];
    const Window& theirs = other.windows[i];
    if (theirs.jobs != 0) {
      window.first_done_ns =
          window.jobs == 0 ? theirs.first_done_ns
                           : std::min(window.first_done_ns, theirs.first_done_ns);
      window.last_done_ns = std::max(window.last_done_ns, theirs.last_done_ns);
    }
    windows[i].jobs += other.windows[i].jobs;
    windows[i].delta_cycles += other.windows[i].delta_cycles;
  }
}

Harness::Harness(const Workload& workload, std::string dir)
    : workload_(workload),
      socket_path_(dir + "/" + workload.name + "-" +
                   std::to_string(::getpid()) + ".sock"),
      journal_path_(dir + "/" + workload.name + "-" +
                    std::to_string(::getpid()) + ".snap") {}

Harness::~Harness() {
  teardown();
  ::unlink(journal_path_.c_str());
}

void Harness::teardown() {
  for (std::unique_ptr<Client>& client : clients_) {
    try {
      client->client.close();
    } catch (const std::exception&) {
      // The connection is going away either way.
    }
  }
  clients_.clear();
  server_.reset();  // stops, drains and joins
}

void Harness::connect(Client& client) {
  client.client.connect(socket_path_);
  // A wedged server must fail the run, not hang it.
  client.client.set_read_timeout_ms(30000);
}

double Harness::setup() {
  teardown();
  // A fresh journal every time: misses during an earlier warm-up must not
  // grow the next boot's replay.
  write_journal(workload_, journal_path_);
  serve::ServerOptions options;
  options.socket_path = socket_path_;
  options.service = workload_.service;
  options.service.snapshot_path = journal_path_;

  const std::int64_t start = now_ns();
  server_ = std::make_unique<serve::ServeServer>(options);
  server_->start();
  for (std::size_t s = 0; s < workload_.streams.size(); ++s) {
    clients_.push_back(std::make_unique<Client>());
    connect(*clients_.back());
  }
  for (std::size_t s = 0; s < clients_.size(); ++s) {
    for (std::size_t i = 0; i < workload_.warmup_jobs; ++i) {
      JobRecord record;
      std::string note;
      if (!run_one(s, *clients_[s], next_spec(s, *clients_[s]), record, nullptr,
                   note)) {
        throw std::runtime_error("warm-up job failed: " + note);
      }
    }
  }
  return static_cast<double>(now_ns() - start) / 1e9;
}

std::size_t Harness::next_spec(std::size_t stream, Client& client) const {
  const std::vector<std::size_t>& order = workload_.streams[stream].order;
  return order[client.position % order.size()];
}

bool Harness::run_one(std::size_t stream, Client& client, std::size_t spec_index,
                      JobRecord& record, SpanBuffer* spans, std::string& note) {
  const JobSpec& spec = workload_.specs[spec_index];
  ++client.position;

  serve::JobRequest request;
  request.job_id = workload_.streams[stream].label + "-" +
                   std::to_string(client.sequence++);
  request.instances = spec.instances;
  request.design_text = spec.design_text;
  request.has_fault_plan = spec.has_fault_plan;
  request.fault_plan_text = spec.fault_plan_text;

  record.stream = stream;
  record.spec = spec_index;
  record.job_id = request.job_id;

  const std::uint64_t job_span = spans != nullptr ? next_span_id() : 0;
  std::uint64_t stream_span = 0;
  std::int64_t last_arrival = 0;
  const auto on_report = [&](const serve::ReportPayload&) {
    const std::int64_t arrival = now_ns();
    if (record.first_report_ns == 0) {
      record.first_report_ns = arrival;
      if (spans != nullptr) {
        stream_span = next_span_id();
      }
    } else if (spans != nullptr && spans->spans().size() < kReportSpanBudget) {
      spans->add("client.report", request.job_id, stream_span, last_arrival,
                 arrival);
    }
    last_arrival = arrival;
  };

  serve::JobOutcome outcome;
  record.submit_ns = now_ns();
  try {
    outcome = client.client.run_job(request, on_report);
  } catch (const serve::ClientError& error) {
    note = request.job_id + ": " + error.what();
    // Reconnect so the stream can go on; a second failure ends it.
    try {
      client.client.close();
    } catch (const serve::ClientError&) {
      // The connection is already gone.
    }
    connect(client);
    return false;
  }
  record.done_ns = now_ns();

  if (spans != nullptr) {
    spans->add(Span{job_span, 0, "client.job", request.job_id, record.submit_ns,
                    record.done_ns,
                    "\"cache_hit\":" +
                        std::string(outcome.done.cache_hit ? "true" : "false") +
                        ",\"lower_ns\":" + std::to_string(outcome.done.lower_ns) +
                        ",\"run_ns\":" + std::to_string(outcome.done.run_ns) +
                        ",\"reports\":" + std::to_string(outcome.reports.size())});
    if (record.first_report_ns != 0) {
      spans->add("client.first_report", request.job_id, job_span,
                 record.submit_ns, record.first_report_ns);
      spans->add(Span{stream_span, job_span, "client.stream", request.job_id,
                      record.first_report_ns, record.done_ns, {}});
    }
  }

  if (outcome.status != serve::JobOutcome::Status::kDone) {
    note = request.job_id +
           (outcome.status == serve::JobOutcome::Status::kBusy
                ? ": BUSY"
                : ": ERROR " + serve::to_string(outcome.error.code));
    return false;
  }
  record.cache_hit = outcome.done.cache_hit;
  record.lower_ns = outcome.done.lower_ns;
  record.run_ns = outcome.done.run_ns;

  // Every instance exactly once, each REPORT equal to the reference.
  if (outcome.reports.size() != spec.instances ||
      outcome.done.instances != spec.instances) {
    note = request.job_id + ": " + std::to_string(outcome.reports.size()) +
           " reports for " + std::to_string(spec.instances) + " instances";
    return false;
  }
  std::vector<bool> seen(spec.instances, false);
  for (const serve::ReportPayload& report : outcome.reports) {
    if (report.instance >= spec.instances || seen[report.instance] ||
        !report_matches(report, spec.expected[report.instance],
                        request.job_id)) {
      note = request.job_id + ": REPORT for instance " +
             std::to_string(report.instance) + " differs from the reference";
      return false;
    }
    seen[report.instance] = true;
    record.delta_cycles += report.delta_cycles;
  }
  record.ok = true;
  return true;
}

PhaseResult Harness::run(double seconds, bool trace) {
  const std::int64_t start = now_ns();
  PhaseResult result(start, seconds);
  result.spans.resize(clients_.size());
  std::vector<PhaseResult> per_stream(clients_.size(), PhaseResult(start, seconds));
  const std::int64_t deadline = start + static_cast<std::int64_t>(seconds * 1e9);
  std::vector<std::thread> threads;
  for (std::size_t s = 0; s < clients_.size(); ++s) {
    threads.emplace_back([&, s] {
      PhaseResult& mine = per_stream[s];
      SpanBuffer* spans = trace ? &result.spans[s] : nullptr;
      Client& client = *clients_[s];
      while (now_ns() < deadline) {
        std::string note;
        bool ok = false;
        JobRecord record;
        try {
          ok = run_one(s, client, next_spec(s, client), record, spans, note);
        } catch (const std::exception& error) {
          note = error.what();
          ++mine.attempted;
          ++mine.failed;
          mine.failure_notes.push_back(note);
          break;  // reconnect failed: the stream is over
        }
        ++mine.attempted;
        if (ok) {
          mine.summary.add(record);
        } else if (++mine.failed <= kMaxNotes) {
          mine.failure_notes.push_back(note);
        }
        if (trace) {
          mine.jobs.push_back(std::move(record));
        }
      }
    });
  }
  for (std::thread& thread : threads) {
    thread.join();
  }
  result.end_ns = now_ns();
  for (PhaseResult& mine : per_stream) {
    result.summary.merge(mine.summary);
    for (JobRecord& record : mine.jobs) {
      result.jobs.push_back(std::move(record));
    }
    result.attempted += mine.attempted;
    result.failed += mine.failed;
    for (std::string& note : mine.failure_notes) {
      result.failure_notes.push_back(std::move(note));
    }
  }
  return result;
}

PhaseResult Harness::run_specs(const std::vector<std::size_t>& specs,
                               bool trace) {
  PhaseResult result(now_ns(), 0);
  result.spans.resize(1);
  for (const std::size_t spec : specs) {
    JobRecord record;
    std::string note;
    ++result.attempted;
    if (run_one(0, *clients_.front(), spec, record,
                trace ? &result.spans.front() : nullptr, note)) {
      result.summary.add(record);
    } else {
      ++result.failed;
      result.failure_notes.push_back(note);
    }
    result.jobs.push_back(std::move(record));
  }
  result.end_ns = now_ns();
  return result;
}

serve::StatsPayload Harness::stats() { return clients_.front()->client.stats(); }

}  // namespace ctrtl_bench
