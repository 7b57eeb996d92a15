#pragma once

// Spans for the traced run: name, start, end, parent and job id, kept in
// memory (one buffer per recording thread) and written out when the run
// ends, one JSON object per line. A span's self time is its duration minus
// the part of it its children cover.

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "common.h"

namespace ctrtl_bench {

struct Span {
  std::uint64_t id = 0;
  std::uint64_t parent = 0;  ///< 0 for a root span
  std::string name;
  std::string job;
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  /// Extra JSON members, already rendered (`"cache_hit":true,...`).
  std::string attrs;
};

/// A fresh span id, unique across threads.
[[nodiscard]] std::uint64_t next_span_id();

/// One thread's spans. Not thread-safe; give each recording thread its own.
class SpanBuffer {
 public:
  void add(Span span) { spans_.push_back(std::move(span)); }
  /// Records a finished span and returns its id.
  std::uint64_t add(std::string name, const std::string& job,
                    std::uint64_t parent, std::int64_t start_ns,
                    std::int64_t end_ns, std::string attrs = {});
  [[nodiscard]] const std::vector<Span>& spans() const { return spans_; }

 private:
  std::vector<Span> spans_;
};

/// Times a call from construction to destruction and records it into
/// `buffer` under a pre-reserved id, so children can name it as parent
/// before it ends.
class Scope {
 public:
  Scope(SpanBuffer& buffer, std::string name, const std::string& job,
        std::uint64_t parent)
      : buffer_(buffer),
        name_(std::move(name)),
        job_(job),
        parent_(parent),
        id_(next_span_id()),
        start_(now_ns()) {}
  ~Scope() {
    buffer_.add({id_, parent_, std::move(name_), std::move(job_), start_,
                 now_ns(), {}});
  }

  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

  [[nodiscard]] std::uint64_t id() const { return id_; }

 private:
  SpanBuffer& buffer_;
  std::string name_;
  std::string job_;
  std::uint64_t parent_;
  std::uint64_t id_;
  std::int64_t start_;
};

/// Self time of every span in nanoseconds (duration minus the union of its
/// children's intervals, clipped to the span), grouped by span name.
[[nodiscard]] std::map<std::string, std::vector<double>> self_times(
    const std::vector<Span>& spans);

/// Writes one span per line; returns false on an I/O failure.
bool write_spans(const std::string& path, const std::vector<Span>& spans);

}  // namespace ctrtl_bench
