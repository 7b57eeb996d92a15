#pragma once

#include <condition_variable>
#include <cstdint>
#include <exception>
#include <functional>
#include <list>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <string_view>
#include <unordered_map>

#include "transfer/schedule.h"

namespace ctrtl::serve {

/// The request bytes a compiled design depends on: the design text and the
/// optional fault plan. The rest of a SUBMIT (instances, inputs, bounds,
/// deadline) only steers the run.
struct RequestBytes {
  std::string_view design_text;
  bool has_fault_plan = false;
  std::string_view fault_plan_text;
};

/// LRU-bounded cache of lowered designs, keyed by the canonical-stream
/// content hash (`transfer::canonical_stream_hash` over the post-fault
/// `(design, instances)` pair — see docs/SERVICE.md, "Cache key"). An entry
/// is the whole `CompiledDesign`, lane plan included, so a hit rebuilds no
/// table.
///
/// In front of the canonical key sits a request-bytes index: every entry
/// keeps the exact bytes of the latest request that resolved to it (one
/// alias per entry), and `find` returns the entry for a byte-identical
/// request without parsing or canonical hashing. `find` compares the bytes
/// in full, so a collision of the index digest is a miss, never a wrong
/// design. Aliases leave the cache with their entry.
///
/// The cache owns nothing but `shared_ptr`s: eviction drops the cache's
/// reference, and any job still running against the evicted
/// `CompiledDesign` keeps it alive until the job finishes. Thread-safe,
/// with per-key single-flight: the first miss on a key compiles outside the
/// cache lock, later lookups of that key wait for that compile (and count
/// as hits), and lookups of other keys and `find` never wait on a compile —
/// a slow lowering delays only the jobs that need its result.
class DesignCache {
 public:
  using Compile =
      std::function<std::shared_ptr<const transfer::CompiledDesign>()>;

  /// `capacity` == 0 disables caching (every lookup is a miss that
  /// compiles, and nothing is retained or indexed).
  explicit DesignCache(std::size_t capacity) : capacity_(capacity) {}

  struct Stats {
    std::uint64_t hits = 0;
    std::uint64_t misses = 0;
    std::uint64_t evictions = 0;
    std::uint64_t entries = 0;
  };

  /// The design a byte-identical request resolved to, or null. On success
  /// `key` (when non-null) receives the entry's canonical key, the lookup
  /// counts as one hit, and the entry becomes the most recently used.
  [[nodiscard]] std::shared_ptr<const transfer::CompiledDesign> find(
      const RequestBytes& request, std::uint64_t* key = nullptr);

  /// True when `find(request)` would return an entry. Counts nothing and
  /// leaves the recency order alone.
  [[nodiscard]] bool indexed(const RequestBytes& request) const;

  /// Returns the cached design for `key`, or invokes `compile`, stores the
  /// result (evicting the least-recently-used entry when over capacity) and
  /// returns it. `hit` (when non-null) reports which path was taken; a
  /// lookup that waited for another caller's compile of `key` is a hit. A
  /// `compile` that throws propagates — to the waiters too — caches
  /// nothing, and leaves the key compilable. When `request` is non-null and
  /// the entry is resident afterwards, `request` becomes the entry's alias
  /// for `find`.
  [[nodiscard]] std::shared_ptr<const transfer::CompiledDesign> get_or_compile(
      std::uint64_t key, const Compile& compile, bool* hit = nullptr,
      const RequestBytes* request = nullptr);

  [[nodiscard]] Stats stats() const;
  [[nodiscard]] std::size_t capacity() const { return capacity_; }

 private:
  /// The exact bytes of the request an entry was last resolved from.
  struct Alias {
    std::uint64_t digest = 0;
    std::string design_text;
    bool has_fault_plan = false;
    std::string fault_plan_text;

    [[nodiscard]] bool matches(const RequestBytes& request) const;
  };

  struct Entry {
    std::shared_ptr<const transfer::CompiledDesign> design;
    std::list<std::uint64_t>::iterator order;  ///< position in order_
    std::optional<Alias> alias;
  };

  /// One compile in progress; its waiters sleep on `compiled_`.
  struct Flight {
    bool done = false;
    std::shared_ptr<const transfer::CompiledDesign> design;
    std::exception_ptr error;
  };

  using Entries = std::unordered_map<std::uint64_t, Entry>;

  /// Index digest of a request: a `transfer::StreamHasher` digest of the
  /// design text, the fault-plan flag and the fault-plan text.
  [[nodiscard]] static std::uint64_t digest_of(const RequestBytes& request);

  // The helpers below require mutex_ to be held.
  /// The entry whose alias is exactly `request`, or entries_.end().
  [[nodiscard]] Entries::const_iterator aliased(const RequestBytes& request,
                                                std::uint64_t digest) const;
  void set_alias(std::uint64_t key, Entry& entry, const RequestBytes& request,
                 std::uint64_t digest);
  void insert(std::uint64_t key,
              std::shared_ptr<const transfer::CompiledDesign> design,
              const RequestBytes* request, std::uint64_t digest);

  std::size_t capacity_;
  mutable std::mutex mutex_;
  std::condition_variable compiled_;
  /// Keys in recency order, most recent at the front.
  std::list<std::uint64_t> order_;
  Entries entries_;
  std::unordered_map<std::uint64_t, std::shared_ptr<Flight>> flights_;
  /// Request digest -> canonical key of the entry holding that alias.
  /// Holds exactly the resident entries' aliases.
  std::unordered_map<std::uint64_t, std::uint64_t> index_;
  Stats counters_;
};

}  // namespace ctrtl::serve
