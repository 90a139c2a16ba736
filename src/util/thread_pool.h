#pragma once

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <exception>
#include <mutex>
#include <thread>
#include <vector>

namespace geoblocks::util {

/// A fixed-size fork-join pool for parallel block builds, batched query
/// execution, per-shard update commits and cache rebuilds — every engine
/// use is a ParallelFor that joins before returning, so the pool has no
/// other entry point. A ParallelFor links one job, held on the caller's
/// stack, into an intrusive list; the caller and any woken workers then
/// claim its indices from one shared atomic counter until none are left.
/// Claiming needs no queue and no per-call allocation.
class ThreadPool {
 public:
  /// `num_threads == 0` uses the hardware concurrency (at least 1).
  explicit ThreadPool(size_t num_threads = 0) {
    if (num_threads == 0) {
      num_threads = std::thread::hardware_concurrency();
      if (num_threads == 0) num_threads = 1;
    }
    workers_.reserve(num_threads);
    for (size_t i = 0; i < num_threads; ++i) {
      workers_.emplace_back([this] { WorkerLoop(); });
    }
  }

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  ~ThreadPool() {
    {
      std::lock_guard<std::mutex> lock(mu_);
      stop_ = true;
    }
    wake_.notify_all();
    for (std::thread& w : workers_) w.join();
  }

  size_t num_threads() const { return workers_.size(); }

  /// Scheduler identification for benchmark provenance.
  static const char* pool_type() { return "fork-join"; }

  /// Runs `fn(i)` for every i in [0, n) across the pool and blocks until
  /// all iterations finished. The caller claims indices alongside the
  /// workers, so a ParallelFor issued from inside an iteration (nesting)
  /// always makes progress: its caller alone can finish its job.
  /// An exception thrown by any iteration is rethrown on the caller once
  /// every claimed iteration has finished; the remaining indices still
  /// run, and when several throw, the first one caught wins. The inline
  /// cases (n == 1, one thread) simply propagate.
  template <typename Fn>
  void ParallelFor(size_t n, const Fn& fn) {
    if (n == 0) return;
    if (n == 1 || num_threads() == 1) {
      for (size_t i = 0; i < n; ++i) fn(i);
      return;
    }
    Job job;
    job.fn = &fn;
    job.run = [](const void* f, size_t i) {
      (*static_cast<const Fn*>(f))(i);
    };
    job.n = n;
    {
      std::lock_guard<std::mutex> lock(mu_);
      job.link = jobs_;
      jobs_ = &job;
    }
    wake_.notify_all();
    Drain(job);
    // Every index is claimed; unlink so no worker enters the job again,
    // then wait out the workers still running an iteration of it.
    std::unique_lock<std::mutex> lock(mu_);
    Job** p = &jobs_;
    while (*p != &job) p = &(*p)->link;
    *p = job.link;
    left_.wait(lock, [&job] { return job.active == 0; });
    lock.unlock();
    if (job.error != nullptr) std::rethrow_exception(job.error);
  }

 private:
  /// One ParallelFor call. Lives on its caller's stack; `link`, `active`
  /// and `error` are guarded by mu_.
  struct Job {
    const void* fn = nullptr;
    void (*run)(const void* fn, size_t i) = nullptr;
    size_t n = 0;
    std::atomic<size_t> next{0};  ///< next unclaimed index
    size_t active = 0;            ///< workers inside Drain of this job
    std::exception_ptr error;     ///< first iteration exception, if any
    Job* link = nullptr;          ///< next job in jobs_
  };

  /// Claims and runs indices of `job` until none are left.
  void Drain(Job& job) {
    for (size_t i = job.next++; i < job.n; i = job.next++) {
      try {
        job.run(job.fn, i);
      } catch (...) {
        std::lock_guard<std::mutex> lock(mu_);
        if (job.error == nullptr) job.error = std::current_exception();
      }
    }
  }

  /// The first linked job with an unclaimed index, or null. Caller holds mu_.
  Job* OpenJob() const {
    for (Job* j = jobs_; j != nullptr; j = j->link) {
      if (j->next.load() < j->n) return j;
    }
    return nullptr;
  }

  void WorkerLoop() {
    std::unique_lock<std::mutex> lock(mu_);
    for (;;) {
      Job* job = nullptr;
      wake_.wait(lock, [&] { return stop_ || (job = OpenJob()) != nullptr; });
      if (job == nullptr) return;
      ++job->active;
      lock.unlock();
      Drain(*job);
      lock.lock();
      if (--job->active == 0) left_.notify_all();
    }
  }

  std::mutex mu_;
  std::condition_variable wake_;  ///< workers: a job was linked, or stop_
  std::condition_variable left_;  ///< callers: a job's active reached 0
  Job* jobs_ = nullptr;           ///< linked jobs, newest first
  bool stop_ = false;
  std::vector<std::thread> workers_;
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
