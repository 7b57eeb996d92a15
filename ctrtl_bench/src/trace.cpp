#include "trace.h"

#include <algorithm>
#include <atomic>
#include <fstream>
#include <unordered_map>
#include <utility>

namespace ctrtl_bench {

std::uint64_t next_span_id() {
  static std::atomic<std::uint64_t> next{1};
  return next.fetch_add(1, std::memory_order_relaxed);
}

std::uint64_t SpanBuffer::add(std::string name, const std::string& job,
                              std::uint64_t parent, std::int64_t start_ns,
                              std::int64_t end_ns, std::string attrs) {
  const std::uint64_t id = next_span_id();
  spans_.push_back(
      {id, parent, std::move(name), job, start_ns, end_ns, std::move(attrs)});
  return id;
}

std::map<std::string, std::vector<double>> self_times(
    const std::vector<Span>& spans) {
  std::unordered_map<std::uint64_t, std::vector<std::pair<std::int64_t, std::int64_t>>>
      children;
  for (const Span& span : spans) {
    if (span.parent != 0) {
      children[span.parent].emplace_back(span.start_ns, span.end_ns);
    }
  }
  std::map<std::string, std::vector<double>> out;
  for (const Span& span : spans) {
    std::int64_t covered = 0;
    if (auto it = children.find(span.id); it != children.end()) {
      std::vector<std::pair<std::int64_t, std::int64_t>>& intervals = it->second;
      std::sort(intervals.begin(), intervals.end());
      std::int64_t reach = span.start_ns;
      for (auto [start, end] : intervals) {
        start = std::max(start, reach);
        end = std::min(end, span.end_ns);
        if (end > start) {
          covered += end - start;
          reach = end;
        }
      }
    }
    out[span.name].push_back(
        static_cast<double>(span.end_ns - span.start_ns - covered));
  }
  return out;
}

bool write_spans(const std::string& path, const std::vector<Span>& spans) {
  std::ofstream out(path, std::ios::trunc);
  for (const Span& span : spans) {
    out << "{\"id\":" << span.id << ",\"parent\":" << span.parent
        << ",\"name\":\"" << span.name << "\",\"job\":\"" << span.job
        << "\",\"start_ns\":" << span.start_ns << ",\"end_ns\":" << span.end_ns;
    if (!span.attrs.empty()) {
      out << ',' << span.attrs;
    }
    out << "}\n";
  }
  out.flush();
  return out.good();
}

}  // namespace ctrtl_bench
