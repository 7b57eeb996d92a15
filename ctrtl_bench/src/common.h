#pragma once

// Small helpers shared by the benchmark's files: a monotonic clock, a
// seeded generator, and order statistics.

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <string>
#include <vector>

namespace ctrtl_bench {

/// Host time in nanoseconds since an arbitrary fixed point.
inline std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// splitmix64: the benchmark derives every input from `--seed` with it, so
/// one seed always gives the same inputs.
class Rng {
 public:
  explicit Rng(std::uint64_t seed) : state_(seed) {}

  std::uint64_t next() {
    std::uint64_t z = (state_ += 0x9e3779b97f4a7c15ull);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    return z ^ (z >> 31);
  }

  /// Uniform in [0, bound).
  std::uint64_t below(std::uint64_t bound) { return next() % bound; }

 private:
  std::uint64_t state_;
};

/// Nearest-rank percentile (`q` in [0, 1]) of `values`; 0 when empty.
inline double percentile(std::vector<double> values, double q) {
  if (values.empty()) {
    return 0.0;
  }
  std::sort(values.begin(), values.end());
  const double rank = std::ceil(q * static_cast<double>(values.size()));
  const std::size_t index =
      rank < 1.0 ? 0 : static_cast<std::size_t>(rank) - 1;
  return values[std::min(index, values.size() - 1)];
}

/// The middle value; the mean of the two middle values for an even count,
/// so a two-element median is not simply the smaller one. 0 when empty.
inline double median(std::vector<double> values) {
  if (values.empty()) {
    return 0.0;
  }
  const std::size_t half = values.size() / 2;
  std::nth_element(values.begin(), values.begin() + half, values.end());
  const double upper = values[half];
  if (values.size() % 2 == 1) {
    return upper;
  }
  return (*std::max_element(values.begin(), values.begin() + half) + upper) / 2;
}

/// Log-bucketed histogram of durations: constant memory whatever the run
/// length, so the benchmark's own bookkeeping does not grow `peak_rss_mb`
/// with the number of jobs.
class Histogram {
 public:
  /// `resolution` is the relative bucket width (0.001: 0.1%).
  explicit Histogram(double resolution = 0.001)
      : log_growth_(std::log1p(resolution)),
        buckets_(static_cast<std::size_t>(std::log(kMaxNs) / log_growth_) + 1, 0) {}

  void add(std::int64_t ns) {
    const double position =
        std::log(static_cast<double>(std::max<std::int64_t>(1, ns))) / log_growth_;
    ++buckets_[std::min(static_cast<std::size_t>(position), buckets_.size() - 1)];
    ++count_;
  }

  /// Adds `other`, which must have the same resolution.
  void merge(const Histogram& other) {
    for (std::size_t i = 0; i < buckets_.size(); ++i) {
      buckets_[i] += other.buckets_[i];
    }
    count_ += other.count_;
  }

  [[nodiscard]] std::uint64_t count() const { return count_; }

  /// Nearest-rank percentile (`q` in [0, 1]) in nanoseconds, placed
  /// within its bucket by the rank's position among the bucket's samples;
  /// 0 when empty.
  [[nodiscard]] double percentile(double q) const {
    if (count_ == 0) {
      return 0.0;
    }
    const double rank = std::max(1.0, std::ceil(q * static_cast<double>(count_)));
    double before = 0.0;
    std::size_t i = 0;
    while (i + 1 < buckets_.size() && before + buckets_[i] < rank) {
      before += buckets_[i++];
    }
    const double within = buckets_[i] == 0 ? 0.5 : (rank - before - 0.5) / buckets_[i];
    return std::exp((static_cast<double>(i) + within) * log_growth_);
  }

 private:
  static constexpr double kMaxNs = 1e11;  // 100 s
  double log_growth_;
  std::vector<std::uint32_t> buckets_;
  std::uint64_t count_ = 0;
};

}  // namespace ctrtl_bench
