#pragma once

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <exception>
#include <memory>
#include <mutex>
#include <new>
#include <thread>
#include <type_traits>
#include <utility>
#include <vector>

namespace geoblocks::util {

/// A move-only `void()` callable with small-buffer storage: lambdas whose
/// captures fit kInlineBytes (every task the engine submits — a few pointers
/// plus an index) are stored in place, so enqueuing them performs no heap
/// allocation. Larger callables fall back to a boxed heap copy.
class InlineTask {
 public:
  static constexpr size_t kInlineBytes = 48;

  InlineTask() = default;

  template <typename F,
            std::enable_if_t<!std::is_same_v<std::decay_t<F>, InlineTask>,
                             int> = 0>
  InlineTask(F&& f) {  // NOLINT: implicit, mirrors std::function
    using D = std::decay_t<F>;
    if constexpr (sizeof(D) <= kInlineBytes &&
                  alignof(D) <= alignof(std::max_align_t) &&
                  std::is_nothrow_move_constructible_v<D>) {
      ::new (static_cast<void*>(storage_)) D(std::forward<F>(f));
      ops_ = OpsFor<D>();
    } else {
      struct Boxed {
        std::unique_ptr<D> fn;
        void operator()() { (*fn)(); }
      };
      ::new (static_cast<void*>(storage_))
          Boxed{std::make_unique<D>(std::forward<F>(f))};
      ops_ = OpsFor<Boxed>();
    }
  }

  InlineTask(InlineTask&& o) noexcept { MoveFrom(o); }
  InlineTask& operator=(InlineTask&& o) noexcept {
    if (this != &o) {
      Reset();
      MoveFrom(o);
    }
    return *this;
  }
  InlineTask(const InlineTask&) = delete;
  InlineTask& operator=(const InlineTask&) = delete;
  ~InlineTask() { Reset(); }

  explicit operator bool() const { return ops_ != nullptr; }
  void operator()() { ops_->invoke(storage_); }

  void Reset() {
    if (ops_ != nullptr) {
      ops_->destroy(storage_);
      ops_ = nullptr;
    }
  }

 private:
  struct Ops {
    void (*invoke)(void*);
    void (*relocate)(void* dst, void* src);  ///< move-construct + destroy src
    void (*destroy)(void*);
  };

  template <typename D>
  static const Ops* OpsFor() {
    static constexpr Ops ops = {
        [](void* p) { (*static_cast<D*>(p))(); },
        [](void* dst, void* src) {
          ::new (dst) D(std::move(*static_cast<D*>(src)));
          static_cast<D*>(src)->~D();
        },
        [](void* p) { static_cast<D*>(p)->~D(); },
    };
    return &ops;
  }

  void MoveFrom(InlineTask& o) {
    ops_ = o.ops_;
    if (ops_ != nullptr) {
      ops_->relocate(storage_, o.storage_);
      o.ops_ = nullptr;
    }
  }

  alignas(std::max_align_t) unsigned char storage_[kInlineBytes];
  const Ops* ops_ = nullptr;
};

/// A fixed-size worker pool for parallel block builds, batched query
/// execution, per-shard update commits and cache rebuilds — every engine
/// use is a ParallelFor that joins before returning. Scheduling is
/// work-stealing: every worker owns a bounded ring deque (plus an
/// unbounded spill list for overflow bursts) that it pops LIFO from the
/// hot end, while idle workers steal FIFO from the cold end of their peers
/// — so batches mixing tiny and huge tasks rebalance instead of
/// serializing behind one global queue.
/// Submission from a pool worker lands in that worker's own deque; external
/// submitters round-robin. In the steady state (bursts within the ring
/// capacity, captures within InlineTask::kInlineBytes) submitting and running
/// a task performs zero heap allocations.
class ThreadPool {
 public:
  /// `num_threads == 0` uses the hardware concurrency (at least 1).
  explicit ThreadPool(size_t num_threads = 0) {
    if (num_threads == 0) {
      num_threads = std::thread::hardware_concurrency();
      if (num_threads == 0) num_threads = 1;
    }
    queues_.reserve(num_threads);
    for (size_t i = 0; i < num_threads; ++i) {
      queues_.push_back(std::make_unique<WorkerQueue>());
    }
    workers_.reserve(num_threads);
    for (size_t i = 0; i < num_threads; ++i) {
      workers_.emplace_back([this, i] { WorkerLoop(i); });
    }
  }

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  ~ThreadPool() {
    stop_.store(true, std::memory_order_seq_cst);
    {
      std::lock_guard<std::mutex> lock(sleep_mu_);
    }
    wake_.notify_all();
    for (std::thread& w : workers_) w.join();
  }

  size_t num_threads() const { return workers_.size(); }

  /// Total successful steals (pops from a deque the popping thread does not
  /// own). Test/bench observability.
  uint64_t steal_count() const {
    return steals_.load(std::memory_order_relaxed);
  }

  /// Scheduler identification for benchmark provenance.
  static const char* pool_type() { return "work-stealing"; }

  /// Enqueues one task. Never blocks: a full ring spills to the unbounded
  /// overflow list instead of running inline (running inline could
  /// self-deadlock a submitter that holds a lock the task also takes).
  template <typename F>
  void Submit(F&& task) {
    const TlsSlot& tls = Tls();
    const size_t idx =
        (tls.pool == this)
            ? tls.index
            : rr_.fetch_add(1, std::memory_order_relaxed) % queues_.size();
    // pending_/queued_ rise before the task becomes poppable so neither count
    // can dip to zero while work exists.
    pending_.fetch_add(1, std::memory_order_seq_cst);
    queued_.fetch_add(1, std::memory_order_seq_cst);
    queues_[idx]->Push(InlineTask(std::forward<F>(task)));
    if (sleepers_.load(std::memory_order_seq_cst) > 0) {
      {
        std::lock_guard<std::mutex> lock(sleep_mu_);
      }
      wake_.notify_one();
    }
  }

  /// Blocks until no submitted task is queued or running, so a caller that
  /// used Submit can join its fire-and-forget tasks before tearing down
  /// what they touch. Tasks submitted *while* waiting extend the wait;
  /// iterations a ParallelFor caller runs inline are not tracked
  /// (ParallelFor already joins its own work).
  void WaitIdle() {
    std::unique_lock<std::mutex> lock(sleep_mu_);
    idle_.wait(lock, [this] {
      return pending_.load(std::memory_order_seq_cst) == 0;
    });
  }

  /// Runs `fn(i)` for every i in [0, n) across the pool and blocks until
  /// all iterations finished. The calling thread runs iteration 0 and then
  /// helps drain the deques while waiting, so a ParallelFor issued from
  /// inside a pool worker makes progress instead of deadlocking (its
  /// sub-tasks may be executed by other blocked callers or by itself).
  /// An exception thrown by any iteration is rethrown on the caller once
  /// every iteration has finished (queued tasks hold `fn` by reference, so
  /// the join always completes first); when several throw, the first one
  /// caught wins. The inline cases (n == 1, one thread) simply propagate.
  template <typename Fn>
  void ParallelFor(size_t n, const Fn& fn) {
    if (n == 0) return;
    if (n == 1 || num_threads() == 1) {
      for (size_t i = 0; i < n; ++i) fn(i);
      return;
    }
    struct Join {
      std::mutex mu;
      std::condition_variable done;
      size_t remaining;
      std::exception_ptr error;  ///< first iteration exception, if any
      void Record(std::exception_ptr e) {
        std::lock_guard<std::mutex> lock(mu);
        if (error == nullptr) error = std::move(e);
      }
    };
    auto join = std::make_shared<Join>();
    join->remaining = n - 1;
    for (size_t i = 1; i < n; ++i) {
      Submit([&fn, i, join] {
        try {
          fn(i);
        } catch (...) {
          join->Record(std::current_exception());
        }
        std::lock_guard<std::mutex> lock(join->mu);
        if (--join->remaining == 0) join->done.notify_all();
      });
    }
    try {
      fn(0);
    } catch (...) {
      join->Record(std::current_exception());
    }
    for (;;) {
      {
        std::lock_guard<std::mutex> lock(join->mu);
        if (join->remaining == 0) break;
      }
      // Help with queued work (ours or anyone's — tasks are independent)
      // while iterations are still in flight; otherwise wait briefly. The
      // timed wait covers the race where the deques empty but our
      // iterations are still running on workers.
      if (!TryRunOne()) {
        std::unique_lock<std::mutex> lock(join->mu);
        join->done.wait_for(lock, std::chrono::milliseconds(1),
                            [&join] { return join->remaining == 0; });
      }
    }
    if (join->error != nullptr) std::rethrow_exception(join->error);
  }

 private:
  /// One worker's deque: a bounded ring (LIFO owner end at the back, FIFO
  /// steal end at the front) plus an unbounded spill list for bursts beyond
  /// the ring. Lock-per-deque keeps the protocol obviously correct; the lock
  /// is uncontended except when a steal hits the owner mid-pop.
  struct WorkerQueue {
    static constexpr size_t kRingCapacity = 256;

    std::mutex mu;
    InlineTask ring[kRingCapacity];
    size_t head = 0;  ///< index of the oldest ring entry
    size_t size = 0;
    std::deque<InlineTask> spill;

    void Push(InlineTask task) {
      std::lock_guard<std::mutex> lock(mu);
      if (size < kRingCapacity) {
        ring[(head + size) % kRingCapacity] = std::move(task);
        ++size;
      } else {
        spill.push_back(std::move(task));
      }
    }

    bool PopNewest(InlineTask* out) {  // owner end
      std::lock_guard<std::mutex> lock(mu);
      if (!spill.empty()) {
        *out = std::move(spill.back());
        spill.pop_back();
        return true;
      }
      if (size == 0) return false;
      --size;
      *out = std::move(ring[(head + size) % kRingCapacity]);
      return true;
    }

    bool PopOldest(InlineTask* out) {  // steal end
      std::lock_guard<std::mutex> lock(mu);
      if (size > 0) {
        *out = std::move(ring[head]);
        head = (head + 1) % kRingCapacity;
        --size;
        return true;
      }
      if (spill.empty()) return false;
      *out = std::move(spill.front());
      spill.pop_front();
      return true;
    }
  };

  struct TlsSlot {
    ThreadPool* pool = nullptr;
    size_t index = 0;
  };

  static TlsSlot& Tls() {
    thread_local TlsSlot slot;
    return slot;
  }

  /// Pops one task — own deque first (LIFO), then peers in ring order
  /// (FIFO) — runs it, and maintains the counters. `home` is the preferred
  /// deque; threads that are not workers of this pool scan from 0.
  bool PopAndRun(size_t home, bool count_home_as_steal) {
    InlineTask task;
    bool got = false;
    bool stolen = false;
    if (queues_[home]->PopNewest(&task)) {
      got = true;
      stolen = count_home_as_steal;
    } else {
      const size_t k = queues_.size();
      for (size_t d = 1; d < k && !got; ++d) {
        if (queues_[(home + d) % k]->PopOldest(&task)) {
          got = true;
          stolen = true;
        }
      }
    }
    if (!got) return false;
    queued_.fetch_sub(1, std::memory_order_seq_cst);
    if (stolen) steals_.fetch_add(1, std::memory_order_relaxed);
    task();
    task.Reset();
    FinishTask();
    return true;
  }

  bool TryRunOne() {
    const TlsSlot& tls = Tls();
    const size_t home = (tls.pool == this) ? tls.index : 0;
    return PopAndRun(home, tls.pool != this);
  }

  void WorkerLoop(size_t index) {
    Tls() = {this, index};
    for (;;) {
      if (PopAndRun(index, /*count_home_as_steal=*/false)) continue;
      std::unique_lock<std::mutex> lock(sleep_mu_);
      sleepers_.fetch_add(1, std::memory_order_seq_cst);
      wake_.wait(lock, [this] {
        return stop_.load(std::memory_order_seq_cst) ||
               queued_.load(std::memory_order_seq_cst) > 0;
      });
      sleepers_.fetch_sub(1, std::memory_order_seq_cst);
      // Drain everything before exiting on stop (acknowledged work runs).
      if (stop_.load(std::memory_order_seq_cst) &&
          queued_.load(std::memory_order_seq_cst) == 0) {
        return;
      }
    }
  }

  void FinishTask() {
    if (pending_.fetch_sub(1, std::memory_order_seq_cst) == 1) {
      std::lock_guard<std::mutex> lock(sleep_mu_);
      idle_.notify_all();
    }
  }

  std::vector<std::unique_ptr<WorkerQueue>> queues_;
  std::vector<std::thread> workers_;
  std::atomic<size_t> rr_{0};        ///< round-robin cursor for external Submit
  std::atomic<size_t> queued_{0};    ///< tasks sitting in some deque
  std::atomic<size_t> pending_{0};   ///< queued + currently running
  std::atomic<size_t> sleepers_{0};  ///< workers parked on wake_
  std::atomic<uint64_t> steals_{0};
  std::atomic<bool> stop_{false};
  std::mutex sleep_mu_;
  std::condition_variable wake_;
  std::condition_variable idle_;
};

/// `pool->ParallelFor(n, fn)`, or a plain inline loop when `pool` is null:
/// the one fork every optional-pool entry point shares, so an iteration's
/// exception reaches the caller the same way on either path.
template <typename Fn>
void ParallelFor(ThreadPool* pool, size_t n, const Fn& fn) {
  if (pool != nullptr) {
    pool->ParallelFor(n, fn);
    return;
  }
  for (size_t i = 0; i < n; ++i) fn(i);
}

}  // namespace geoblocks::util
