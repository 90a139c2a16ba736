#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdlib>
#include <new>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "util/thread_pool.h"

// Count every global heap allocation in this test binary so the pool's
// zero-allocation ParallelFor is checkable. Counting is always on; tests
// read the counter around a measured window.
namespace {
std::atomic<uint64_t> g_allocations{0};
}  // namespace

void* operator new(std::size_t size) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size)) return p;
  throw std::bad_alloc();
}

void* operator new[](std::size_t size) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size)) return p;
  throw std::bad_alloc();
}

void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

namespace geoblocks {
namespace {

TEST(ThreadPoolTest, ParallelForRunsEveryIndexExactlyOnce) {
  util::ThreadPool pool(4);
  constexpr size_t kN = 1000;
  std::vector<std::atomic<int>> hits(kN);
  pool.ParallelFor(kN, [&](size_t i) { ++hits[i]; });
  for (size_t i = 0; i < kN; ++i) {
    EXPECT_EQ(hits[i].load(), 1) << "index " << i;
  }
}

TEST(ThreadPoolTest, ParallelForHandlesEdgeSizes) {
  util::ThreadPool pool(2);
  std::atomic<int> count{0};
  pool.ParallelFor(0, [&](size_t) { ++count; });
  EXPECT_EQ(count.load(), 0);
  pool.ParallelFor(1, [&](size_t) { ++count; });
  EXPECT_EQ(count.load(), 1);
}

TEST(ThreadPoolTest, SingleThreadedPoolRunsInline) {
  util::ThreadPool pool(1);
  EXPECT_EQ(pool.num_threads(), 1u);
  std::atomic<int> count{0};
  pool.ParallelFor(16, [&](size_t) { ++count; });
  EXPECT_EQ(count.load(), 16);
}

TEST(ThreadPoolTest, NestedParallelForFromWorkersCompletes) {
  // Each inner caller claims its own job's indices, so nesting must make
  // progress even when every worker is itself inside a ParallelFor.
  util::ThreadPool pool(2);
  std::atomic<int> count{0};
  pool.ParallelFor(4, [&](size_t) {
    pool.ParallelFor(4, [&](size_t) { ++count; });
  });
  EXPECT_EQ(count.load(), 16);
}

TEST(ThreadPoolTest, IterationExceptionIsRethrownOnCallerAfterJoin) {
  // Every iteration waits until all have started, so the four indices
  // provably run at once on four different threads (the caller and
  // workers, whichever claims which). Index `bad` (2, then 0) then throws
  // while the others are still running: the original exception must reach
  // the caller only after every other index finished, and the pool keeps
  // serving.
  util::ThreadPool pool(4);
  constexpr size_t kN = 4;
  for (const size_t bad : {size_t{2}, size_t{0}}) {
    std::vector<std::atomic<int>> started(kN);
    std::vector<std::atomic<int>> finished(kN);
    std::atomic<size_t> running{0};
    try {
      pool.ParallelFor(kN, [&](size_t i) {
        ++started[i];
        running.fetch_add(1);
        while (running.load() < kN) std::this_thread::yield();
        if (i == bad) throw std::out_of_range("index " + std::to_string(i));
        std::this_thread::sleep_for(std::chrono::milliseconds(20));
        ++finished[i];
      });
      FAIL() << "the iteration exception must reach the caller";
    } catch (const std::out_of_range& e) {
      EXPECT_EQ(std::string(e.what()), "index " + std::to_string(bad));
    }
    for (size_t i = 0; i < kN; ++i) {
      EXPECT_EQ(started[i].load(), 1) << "bad " << bad << ", index " << i;
      EXPECT_EQ(finished[i].load(), i == bad ? 0 : 1)
          << "bad " << bad << ", index " << i;
    }
    std::atomic<int> count{0};
    pool.ParallelFor(64, [&](size_t) { ++count; });
    EXPECT_EQ(count.load(), 64);
  }
}

TEST(ThreadPoolTest, NullPoolParallelForRunsInlineAndPropagates) {
  std::vector<size_t> order;
  util::ParallelFor(nullptr, 4, [&](size_t i) { order.push_back(i); });
  EXPECT_EQ(order, (std::vector<size_t>{0, 1, 2, 3}));
  EXPECT_THROW(util::ParallelFor(nullptr, 4,
                                 [](size_t i) {
                                   if (i == 2) throw std::out_of_range("2");
                                 }),
               std::out_of_range);
}

TEST(ThreadPoolTest, ParallelForDoesNotAllocate) {
  // The job lives on the caller's stack and indices come from one shared
  // counter, so a warm ParallelFor performs no heap allocation.
  util::ThreadPool pool(4);
  std::atomic<uint64_t> ran{0};
  const auto run = [&] {
    pool.ParallelFor(128, [&ran](size_t) {
      ran.fetch_add(1, std::memory_order_relaxed);
    });
  };
  // Warm up lazy one-time allocations (thread bring-up, libc internals).
  run();
  run();
  const uint64_t before = g_allocations.load(std::memory_order_relaxed);
  for (int round = 0; round < 8; ++round) run();
  const uint64_t after = g_allocations.load(std::memory_order_relaxed);
  EXPECT_EQ(after - before, 0u) << "a warm ParallelFor must not allocate";
  EXPECT_EQ(ran.load(), 10u * 128u);
}

TEST(ThreadPoolTest, ConcurrentCallersEachRunEveryIndexOnce) {
  // Several external callers share one pool, so several jobs are linked
  // at once and workers move between them; each call must still run each
  // of its own indices exactly once and join only its own job.
  util::ThreadPool pool(2);
  constexpr size_t kCallers = 4;
  constexpr size_t kCalls = 200;
  constexpr size_t kN = 64;
  std::atomic<uint64_t> wrong{0};
  std::vector<std::thread> callers;
  for (size_t t = 0; t < kCallers; ++t) {
    callers.emplace_back([&] {
      std::vector<std::atomic<int>> hits(kN);
      for (size_t call = 0; call < kCalls; ++call) {
        for (std::atomic<int>& h : hits) h.store(0);
        pool.ParallelFor(kN, [&hits](size_t i) { ++hits[i]; });
        for (const std::atomic<int>& h : hits) {
          if (h.load() != 1) wrong.fetch_add(1);
        }
      }
    });
  }
  for (std::thread& c : callers) c.join();
  EXPECT_EQ(wrong.load(), 0u);
}

}  // namespace
}  // namespace geoblocks
