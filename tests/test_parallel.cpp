// The persistent-pool parallel_for: index coverage, template-callable
// dispatch (no std::function), serial determinism under max_threads=1,
// exception propagation, nested calls, and pool stability across uses.
#include <gtest/gtest.h>

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <numeric>
#include <stdexcept>
#include <string>
#include <vector>

#include "common/parallel.h"

namespace tre {
namespace {

TEST(ParallelWorkers, Bounds) {
  EXPECT_EQ(parallel_workers(1, 0), 1u);   // never more workers than items
  EXPECT_EQ(parallel_workers(100, 1), 1u);
  EXPECT_EQ(parallel_workers(3, 8), 3u);
  EXPECT_GE(parallel_workers(100, 0), 1u);
  EXPECT_LE(parallel_workers(100, 4), 4u);
}

TEST(ParallelFor, RunsEveryIndexExactlyOnce) {
  constexpr size_t kN = 10'000;
  std::vector<std::atomic<std::uint32_t>> hits(kN);
  parallel_for(kN, [&](size_t i) { hits[i].fetch_add(1); });
  for (size_t i = 0; i < kN; ++i) {
    ASSERT_EQ(hits[i].load(), 1u) << "index " << i;
  }
}

TEST(ParallelFor, ZeroItemsIsANoop) {
  bool called = false;
  parallel_for(0, [&](size_t) { called = true; });
  EXPECT_FALSE(called);
}

TEST(ParallelFor, SerialWhenMaxThreadsIsOne) {
  // max_threads=1 must run on the calling thread, in order — the
  // determinism contract the DRBG-seeded batch tests rely on.
  std::vector<size_t> order;
  parallel_for(64, [&](size_t i) { order.push_back(i); }, /*max_threads=*/1);
  ASSERT_EQ(order.size(), 64u);
  for (size_t i = 0; i < order.size(); ++i) EXPECT_EQ(order[i], i);
}

// parallel_for takes the callable as a template parameter: any callable
// shape works without std::function boxing.
struct SquareInto {
  std::vector<std::uint64_t>* out;
  void operator()(size_t i) const { (*out)[i] = static_cast<std::uint64_t>(i) * i; }
};

TEST(ParallelFor, AcceptsFunctionObjectsAndMutableLambdas) {
  constexpr size_t kN = 513;  // deliberately not a multiple of the chunk size
  std::vector<std::uint64_t> squares(kN, 0);
  parallel_for(kN, SquareInto{&squares});
  for (size_t i = 0; i < kN; ++i) EXPECT_EQ(squares[i], i * i);

  std::atomic<std::uint64_t> sum{0};
  std::uint64_t unused_state = 0;  // forces a mutable, stateful closure
  // The call operator is non-const, but it writes no captured state:
  // every worker calls this one closure, and fn must be safe to call
  // concurrently for distinct i.
  parallel_for(
      kN,
      [&sum, unused_state](size_t i) mutable {
        (void)unused_state;
        sum.fetch_add(i, std::memory_order_relaxed);
      });
  EXPECT_EQ(sum.load(), std::uint64_t{kN} * (kN - 1) / 2);
}

TEST(ParallelFor, FirstExceptionPropagatesAndLoopDrains) {
  std::atomic<std::uint32_t> ran{0};
  try {
    parallel_for(1'000, [&](size_t i) {
      ran.fetch_add(1, std::memory_order_relaxed);
      if (i == 137) throw std::runtime_error("index 137 failed");
    });
    FAIL() << "exception was swallowed";
  } catch (const std::runtime_error& e) {
    EXPECT_STREQ(e.what(), "index 137 failed");
  }
  // The failed call must not poison the pool: the next loop runs fine.
  std::atomic<std::uint32_t> after{0};
  parallel_for(256, [&](size_t) { after.fetch_add(1, std::memory_order_relaxed); });
  EXPECT_EQ(after.load(), 256u);
  EXPECT_LE(ran.load(), 1'000u);
}

TEST(ParallelFor, NestedCallsDoNotDeadlock) {
  // The caller always participates in its own loop, so an inner
  // parallel_for issued from a worker cannot starve: worst case it runs
  // serially on that worker.
  constexpr size_t kOuter = 8;
  constexpr size_t kInner = 64;
  std::vector<std::atomic<std::uint32_t>> hits(kOuter * kInner);
  parallel_for(kOuter, [&](size_t o) {
    parallel_for(kInner, [&, o](size_t i) { hits[o * kInner + i].fetch_add(1); });
  });
  for (auto& h : hits) ASSERT_EQ(h.load(), 1u);
}

TEST(ParallelPool, ThreadCountIsStableAcrossUses) {
  parallel_for(128, [](size_t) {});  // force pool creation
  const unsigned first = pool_thread_count();
  for (int round = 0; round < 5; ++round) {
    parallel_for(128, [](size_t) {});
    EXPECT_EQ(pool_thread_count(), first) << "pool respawned on round " << round;
  }
}

}  // namespace
}  // namespace tre
