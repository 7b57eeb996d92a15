// DesignCache: hit/miss accounting, LRU eviction order, the capacity-0
// bypass, the guarantee that eviction never kills an in-flight job's
// compiled design, the request-bytes index, and per-key single-flight
// compiles outside the cache lock.

#include "serve/cache.h"

#include <gtest/gtest.h>

#include <chrono>
#include <latch>
#include <stdexcept>
#include <thread>

#include "transfer/design.h"

namespace ctrtl::serve {
namespace {

transfer::Design tiny_design(const std::string& name) {
  transfer::Design design;
  design.name = name;
  design.cs_max = 1;
  design.registers.push_back({"R1", 30});
  design.registers.push_back({"R2", 12});
  design.buses.push_back({"B1"});
  design.buses.push_back({"B2"});
  transfer::ModuleDecl add;
  add.name = "ADD";
  add.kind = transfer::ModuleKind::kAdd;
  design.modules.push_back(add);
  return design;
}

DesignCache::Compile compiler(const std::string& name, int* calls = nullptr) {
  return [name, calls] {
    if (calls != nullptr) {
      ++*calls;
    }
    return transfer::CompiledDesign::compile(tiny_design(name));
  };
}

TEST(DesignCacheTest, SecondLookupHitsWithoutCompiling) {
  DesignCache cache(4);
  int calls = 0;
  bool hit = true;
  const auto first = cache.get_or_compile(1, compiler("d", &calls), &hit);
  EXPECT_FALSE(hit);
  const auto second = cache.get_or_compile(1, compiler("d", &calls), &hit);
  EXPECT_TRUE(hit);
  EXPECT_EQ(calls, 1);
  EXPECT_EQ(first.get(), second.get());  // the same lowered tables, shared
  const DesignCache::Stats stats = cache.stats();
  EXPECT_EQ(stats.hits, 1u);
  EXPECT_EQ(stats.misses, 1u);
  EXPECT_EQ(stats.entries, 1u);
}

TEST(DesignCacheTest, DistinctKeysMiss) {
  DesignCache cache(4);
  int calls = 0;
  (void)cache.get_or_compile(1, compiler("a", &calls));
  (void)cache.get_or_compile(2, compiler("b", &calls));
  EXPECT_EQ(calls, 2);
  EXPECT_EQ(cache.stats().misses, 2u);
}

TEST(DesignCacheTest, EvictsLeastRecentlyUsed) {
  DesignCache cache(2);
  (void)cache.get_or_compile(1, compiler("a"));
  (void)cache.get_or_compile(2, compiler("b"));
  // Touch 1 so 2 becomes the LRU victim.
  bool hit = false;
  (void)cache.get_or_compile(1, compiler("a"), &hit);
  EXPECT_TRUE(hit);
  (void)cache.get_or_compile(3, compiler("c"));  // evicts 2
  EXPECT_EQ(cache.stats().evictions, 1u);
  (void)cache.get_or_compile(1, compiler("a"), &hit);
  EXPECT_TRUE(hit) << "key 1 was recently used and must survive";
  (void)cache.get_or_compile(2, compiler("b"), &hit);
  EXPECT_FALSE(hit) << "key 2 was the LRU entry and must have been evicted";
}

TEST(DesignCacheTest, EvictionKeepsInFlightDesignsAlive) {
  DesignCache cache(1);
  // An "in-flight job" holds the shared_ptr while its key gets evicted.
  const auto in_flight = cache.get_or_compile(1, compiler("a"));
  (void)cache.get_or_compile(2, compiler("b"));  // evicts key 1
  EXPECT_EQ(cache.stats().evictions, 1u);
  EXPECT_EQ(cache.stats().entries, 1u);
  // The evicted design is still fully usable — eviction only dropped the
  // cache's reference.
  EXPECT_EQ(in_flight->design.name, "a");
  EXPECT_EQ(in_flight->design.cs_max, 1u);
  EXPECT_TRUE(in_flight->instances.empty());
  EXPECT_EQ(in_flight.use_count(), 1);
}

TEST(DesignCacheTest, CapacityZeroDisablesRetention) {
  DesignCache cache(0);
  int calls = 0;
  (void)cache.get_or_compile(1, compiler("a", &calls));
  (void)cache.get_or_compile(1, compiler("a", &calls));
  EXPECT_EQ(calls, 2);
  EXPECT_EQ(cache.stats().entries, 0u);
  EXPECT_EQ(cache.stats().misses, 2u);
}

TEST(DesignCacheTest, ThrowingCompileCachesNothing) {
  DesignCache cache(4);
  EXPECT_THROW(
      (void)cache.get_or_compile(
          1, []() -> std::shared_ptr<const transfer::CompiledDesign> {
            throw std::runtime_error("lowering failed");
          }),
      std::runtime_error);
  EXPECT_EQ(cache.stats().entries, 0u);
  // The key stays compilable afterwards.
  bool hit = true;
  (void)cache.get_or_compile(1, compiler("a"), &hit);
  EXPECT_FALSE(hit);
}

TEST(DesignCacheTest, IndexFindsByteIdenticalRequestsOnly) {
  DesignCache cache(4);
  const RequestBytes request{"design a\n", false, ""};
  EXPECT_EQ(cache.find(request), nullptr) << "nothing is indexed yet";
  const auto compiled =
      cache.get_or_compile(7, compiler("a"), nullptr, &request);
  std::uint64_t key = 0;
  EXPECT_EQ(cache.find(request, &key), compiled);
  EXPECT_EQ(key, 7u) << "a front hit reports the canonical key";
  // Any difference in the bytes, the flag or the plan is not a front hit.
  EXPECT_EQ(cache.find({"design a \n", false, ""}), nullptr);
  EXPECT_EQ(cache.find({"design a\n", true, ""}), nullptr);
  EXPECT_EQ(cache.find({"design a\n", true, "drop 1"}), nullptr);
  const DesignCache::Stats stats = cache.stats();
  EXPECT_EQ(stats.misses, 1u);
  EXPECT_EQ(stats.hits, 1u) << "only the found request counts";
}

TEST(DesignCacheTest, IndexKeepsOneAliasPerEntryLatestWins) {
  DesignCache cache(4);
  const RequestBytes plain{"design a\n", false, ""};
  const RequestBytes commented{"# same design\ndesign a\n", false, ""};
  (void)cache.get_or_compile(7, compiler("a"), nullptr, &plain);
  bool hit = false;
  (void)cache.get_or_compile(7, compiler("a"), &hit, &commented);
  EXPECT_TRUE(hit);
  EXPECT_EQ(cache.find(plain), nullptr) << "the older alias was replaced";
  EXPECT_NE(cache.find(commented), nullptr);
}

TEST(DesignCacheTest, AliasesLeaveWithTheirEntry) {
  DesignCache cache(1);
  const RequestBytes a{"design a\n", false, ""};
  const RequestBytes b{"design b\n", false, ""};
  (void)cache.get_or_compile(1, compiler("a"), nullptr, &a);
  (void)cache.get_or_compile(2, compiler("b"), nullptr, &b);  // evicts key 1
  EXPECT_EQ(cache.find(a), nullptr);
  EXPECT_NE(cache.find(b), nullptr);
}

TEST(DesignCacheTest, FrontHitRefreshesRecency) {
  DesignCache cache(2);
  const RequestBytes a{"design a\n", false, ""};
  (void)cache.get_or_compile(1, compiler("a"), nullptr, &a);
  (void)cache.get_or_compile(2, compiler("b"));
  ASSERT_NE(cache.find(a), nullptr);  // key 1 becomes the most recent
  (void)cache.get_or_compile(3, compiler("c"));  // evicts key 2, not key 1
  EXPECT_NE(cache.find(a), nullptr);
  bool hit = true;
  (void)cache.get_or_compile(2, compiler("b"), &hit);
  EXPECT_FALSE(hit);
}

TEST(DesignCacheTest, CapacityZeroIndexesNothing) {
  DesignCache cache(0);
  const RequestBytes a{"design a\n", false, ""};
  (void)cache.get_or_compile(1, compiler("a"), nullptr, &a);
  EXPECT_EQ(cache.find(a), nullptr);
}

/// Blocks until the cache has counted `hits` hits: how a test compile
/// knows that a concurrent lookup has reached it and is waiting.
void await_hits(const DesignCache& cache, std::uint64_t hits) {
  while (cache.stats().hits < hits) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
}

TEST(DesignCacheTest, CompileRunsOutsideTheLock) {
  DesignCache cache(4);
  const RequestBytes b{"design b\n", false, ""};
  (void)cache.get_or_compile(2, compiler("b"), nullptr, &b);

  std::latch started(1);
  std::latch release(1);
  int slow_calls = 0;
  std::thread slow([&] {
    bool hit = true;
    (void)cache.get_or_compile(
        1,
        [&] {
          ++slow_calls;
          started.count_down();
          release.wait();
          return transfer::CompiledDesign::compile(tiny_design("a"));
        },
        &hit);
    EXPECT_FALSE(hit);
  });
  started.wait();

  // While key 1 lowers: a hit on another key, an index lookup and a miss
  // on a third key all return without waiting for it.
  bool hit = false;
  EXPECT_EQ(cache.get_or_compile(2, compiler("b"), &hit)->design.name, "b");
  EXPECT_TRUE(hit);
  EXPECT_NE(cache.find(b), nullptr);
  (void)cache.get_or_compile(3, compiler("c"), &hit);
  EXPECT_FALSE(hit);

  release.count_down();
  slow.join();
  EXPECT_EQ(slow_calls, 1);
  const DesignCache::Stats stats = cache.stats();
  EXPECT_EQ(stats.misses, 3u);
  EXPECT_EQ(stats.hits, 2u);
  EXPECT_EQ(stats.entries, 3u);
}

TEST(DesignCacheTest, SameKeyLookupsWaitForOneCompile) {
  DesignCache cache(4);
  int calls = 0;
  std::shared_ptr<const transfer::CompiledDesign> first;
  std::thread compiling([&] {
    first = cache.get_or_compile(1, [&] {
      ++calls;
      await_hits(cache, 1);  // the waiter below is parked on this compile
      return transfer::CompiledDesign::compile(tiny_design("a"));
    });
  });
  while (cache.stats().misses < 1) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  bool hit = false;
  const auto second = cache.get_or_compile(1, compiler("a", &calls), &hit);
  compiling.join();
  EXPECT_TRUE(hit) << "a lookup that waited for the compile is a hit";
  EXPECT_EQ(calls, 1);
  EXPECT_EQ(second.get(), first.get());
}

TEST(DesignCacheTest, ThrowingCompileReachesItsWaitersAndCachesNothing) {
  DesignCache cache(4);
  std::thread compiling([&] {
    EXPECT_THROW((void)cache.get_or_compile(
                     1,
                     [&]() -> std::shared_ptr<const transfer::CompiledDesign> {
                       await_hits(cache, 1);
                       throw std::invalid_argument("bad design");
                     }),
                 std::invalid_argument);
  });
  while (cache.stats().misses < 1) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  EXPECT_THROW((void)cache.get_or_compile(1, compiler("a")),
               std::invalid_argument);
  compiling.join();
  EXPECT_EQ(cache.stats().entries, 0u);
  bool hit = true;
  (void)cache.get_or_compile(1, compiler("a"), &hit);
  EXPECT_FALSE(hit) << "the key stays compilable";
}

}  // namespace
}  // namespace ctrtl::serve
