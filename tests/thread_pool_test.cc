#include <gtest/gtest.h>

#include <array>
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
// zero-allocation submit path is checkable. Counting is always on; tests
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
  // The blocked outer iterations help drain the queue, so nesting must
  // make progress even when every worker is itself inside a ParallelFor.
  util::ThreadPool pool(2);
  std::atomic<int> count{0};
  pool.ParallelFor(4, [&](size_t) {
    pool.ParallelFor(4, [&](size_t) { ++count; });
  });
  EXPECT_EQ(count.load(), 16);
}

TEST(ThreadPoolTest, IterationExceptionIsRethrownOnCallerAfterJoin) {
  // Every iteration waits until all have started, so iterations 1..3
  // provably run on workers while the caller runs 0. Index `bad` then
  // throws — on a worker (2) or on the caller (0) — while the others are
  // still running: the original exception must reach the caller only
  // after every other index finished, and the pool keeps serving.
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

TEST(ThreadPoolTest, WorkStealingRebalancesSkewedTasks) {
  // External submission round-robins across the per-worker deques, so with
  // a stride-of-num_threads skew exactly one deque receives every heavy
  // task. The other workers must steal from it or the batch serializes.
  util::ThreadPool pool(4);
  constexpr size_t kTasks = 400;
  std::atomic<uint64_t> ran{0};
  std::atomic<uint64_t> work{0};
  for (size_t i = 0; i < kTasks; ++i) {
    const bool heavy = (i % pool.num_threads()) == 0;
    pool.Submit([&ran, &work, heavy] {
      uint64_t acc = 0;
      const uint64_t spins = heavy ? 50000 : 16;
      for (uint64_t s = 0; s < spins; ++s) acc += s * s + 1;
      work.fetch_add(acc, std::memory_order_relaxed);
      ran.fetch_add(1, std::memory_order_relaxed);
    });
  }
  pool.WaitIdle();
  // WaitIdle soundness: every submitted task has fully run by now.
  EXPECT_EQ(ran.load(), kTasks);
  EXPECT_GT(work.load(), 0u);
  EXPECT_GT(pool.steal_count(), 0u);
}

TEST(ThreadPoolTest, WaitIdleCoversTasksSubmittedWhileDraining) {
  util::ThreadPool pool(3);
  std::atomic<int> count{0};
  for (int round = 0; round < 50; ++round) {
    for (int i = 0; i < 32; ++i) {
      pool.Submit([&count, &pool] {
        // Tasks submitted from inside a task (land on the worker's own
        // deque) must still be drained before WaitIdle returns.
        pool.Submit([&count] { count.fetch_add(1); });
        count.fetch_add(1);
      });
    }
    pool.WaitIdle();
  }
  EXPECT_EQ(count.load(), 50 * 32 * 2);
}

TEST(ThreadPoolTest, SubmitDoesNotAllocatePerTask) {
  util::ThreadPool pool(2);
  std::atomic<uint64_t> ran{0};
  const auto burst = [&] {
    // Bursts stay well under the per-worker ring capacity so nothing
    // spills; captures (one pointer) fit InlineTask's inline storage.
    for (int i = 0; i < 128; ++i) {
      pool.Submit([&ran] { ran.fetch_add(1, std::memory_order_relaxed); });
    }
    pool.WaitIdle();
  };
  // Warm up lazy one-time allocations (thread bring-up, libc internals).
  burst();
  burst();
  const uint64_t before = g_allocations.load(std::memory_order_relaxed);
  for (int round = 0; round < 8; ++round) burst();
  const uint64_t after = g_allocations.load(std::memory_order_relaxed);
  EXPECT_EQ(after - before, 0u) << "steady-state Submit must not allocate";
  EXPECT_EQ(ran.load(), 10u * 128u);
}

TEST(ThreadPoolTest, OversizedCapturesFallBackToHeap) {
  // Captures beyond InlineTask::kInlineBytes are boxed (correctness over
  // allocation-freedom for rare fat tasks).
  util::ThreadPool pool(2);
  std::array<uint64_t, 16> payload{};
  for (size_t i = 0; i < payload.size(); ++i) payload[i] = i + 1;
  std::atomic<uint64_t> sum{0};
  for (int i = 0; i < 64; ++i) {
    pool.Submit([payload, &sum] {
      uint64_t s = 0;
      for (uint64_t v : payload) s += v;
      sum.fetch_add(s, std::memory_order_relaxed);
    });
  }
  pool.WaitIdle();
  EXPECT_EQ(sum.load(), 64u * (16u * 17u / 2u));
}

}  // namespace
}  // namespace geoblocks
