// SnapshotCache: the RCU-style read-mostly map behind the TRE core's
// memo caches. Covers lookups against a plain-map model, the flood-guard
// bound, first-write-wins inserts, the contended-lock hook, and
// multi-threaded read/write storms (the data-race proof is TSan's, via
// the sanitizer tree; the assertions here are functional).
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "common/snapshot_cache.h"

namespace tre {
namespace {

// Value-parameterized only for its recorded case names
// (`BothSubstrates/.../snapshot`); every case runs the one substrate.
class SnapshotCacheModes : public ::testing::TestWithParam<bool> {};

TEST_P(SnapshotCacheModes, InsertFindRoundtrip) {
  SnapshotCache<int> cache;
  EXPECT_FALSE(cache.find("missing").has_value());
  EXPECT_FALSE(cache.contains("missing"));

  cache.insert("alpha", 1);
  cache.insert("beta", 2);
  ASSERT_TRUE(cache.find("alpha").has_value());
  EXPECT_EQ(*cache.find("alpha"), 1);
  EXPECT_EQ(*cache.find("beta"), 2);
  EXPECT_EQ(cache.size(), 2u);

  // Repeated finds exercise the warm thread-local slot path.
  for (int i = 0; i < 100; ++i) EXPECT_EQ(*cache.find("alpha"), 1);
}

TEST_P(SnapshotCacheModes, FirstWriteWins) {
  // Values are deterministic per key in every cache this backs, so a
  // duplicate insert (two threads racing the same miss) must be a no-op.
  SnapshotCache<int> cache;
  cache.insert("k", 7);
  cache.insert("k", 99);
  EXPECT_EQ(*cache.find("k"), 7);
  EXPECT_EQ(cache.size(), 1u);
}

TEST_P(SnapshotCacheModes, FloodGuardBoundsEachShard) {
  constexpr size_t kMax = 64;  // 16 per shard
  SnapshotCache<int> cache(SnapshotCacheOptions{.max_entries = kMax});
  for (int i = 0; i < 10 * static_cast<int>(kMax); ++i) {
    cache.insert("flood-" + std::to_string(i), i);
  }
  // Wholesale clearing keeps every shard under its share.
  EXPECT_LE(cache.size(), kMax);
  EXPECT_GT(cache.size(), 0u);
}

TEST_P(SnapshotCacheModes, ReadersSeeWritesAcrossThreads) {
  SnapshotCache<std::uint64_t> cache;
  constexpr int kThreads = 8;
  constexpr int kKeys = 32;
  std::atomic<int> mismatches{0};

  std::vector<std::thread> workers;
  workers.reserve(kThreads);
  for (int w = 0; w < kThreads; ++w) {
    workers.emplace_back([&, w] {
      for (int round = 0; round < 200; ++round) {
        const int k = (w + round) % kKeys;
        const std::string key = "key-" + std::to_string(k);
        const auto expect = static_cast<std::uint64_t>(k) * 1000003u;
        if (auto hit = cache.find(key)) {
          if (*hit != expect) mismatches.fetch_add(1);
        } else {
          cache.insert(key, expect);  // deterministic: races are benign
        }
      }
    });
  }
  for (auto& t : workers) t.join();

  EXPECT_EQ(mismatches.load(), 0);
  for (int k = 0; k < kKeys; ++k) {
    auto hit = cache.find("key-" + std::to_string(k));
    ASSERT_TRUE(hit.has_value()) << "key " << k;
    EXPECT_EQ(*hit, static_cast<std::uint64_t>(k) * 1000003u);
  }
}

INSTANTIATE_TEST_SUITE_P(BothSubstrates, SnapshotCacheModes, ::testing::Values(true),
                         [](const ::testing::TestParamInfo<bool>&) {
                           return std::string("snapshot");
                         });

TEST(SnapshotCacheEquivalence, MatchesPlainMapModel) {
  // The model is a plain map whose emplace keeps the first value written
  // per key, the cache's contract. 50 keys stay under the bound, so no
  // shard clears.
  SnapshotCache<int> cache;
  std::unordered_map<std::string, int> model;
  for (int i = 0; i < 200; ++i) {
    const std::string key = "k" + std::to_string(i % 50);
    cache.insert(key, i);
    model.emplace(key, i);
  }
  for (const auto& [key, value] : model) EXPECT_EQ(cache.find(key), value) << key;
  EXPECT_EQ(cache.size(), model.size());
  EXPECT_FALSE(cache.find("absent").has_value());
}

std::atomic<std::uint64_t> g_waits{0};
void count_wait(std::uint64_t) { g_waits.fetch_add(1); }

TEST(SnapshotCacheLockWait, HookFiresOnlyWhenContended) {
  g_waits.store(0);
  SnapshotCacheOptions opt;
  opt.lock_wait_ns = &count_wait;
  SnapshotCache<int> cache(opt);

  // Single-threaded: every acquisition is uncontended, hook stays silent.
  for (int i = 0; i < 100; ++i) {
    cache.insert("k" + std::to_string(i), i);
    (void)cache.find("k" + std::to_string(i));
  }
  EXPECT_EQ(g_waits.load(), 0u);

  // Writer storm on few keys: contention is likely but not guaranteed on
  // a given schedule, so only assert the hook doesn't fire spuriously
  // relative to the number of acquisitions.
  std::vector<std::thread> writers;
  for (int w = 0; w < 4; ++w) {
    writers.emplace_back([&] {
      for (int i = 0; i < 500; ++i) cache.insert("hot-" + std::to_string(i % 4), i);
    });
  }
  for (auto& t : writers) t.join();
  EXPECT_LE(g_waits.load(), 4u * 500u);
}

TEST(SnapshotCacheLifetime, NewCacheDoesNotInheritStaleSlots) {
  // Shard ids are process-unique: a fresh cache must miss where a
  // destroyed cache (whose slots may linger in this thread's TLS) hit.
  for (int round = 0; round < 3; ++round) {
    SnapshotCache<int> cache;
    EXPECT_FALSE(cache.find("x").has_value());
    cache.insert("x", round);
    EXPECT_EQ(*cache.find("x"), round);
  }
}

}  // namespace
}  // namespace tre
