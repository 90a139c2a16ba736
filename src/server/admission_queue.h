#pragma once

/// \file admission_queue.h
/// The bounded admission queue between connection reader threads and the
/// batcher: producers TryPush decoded requests (a full queue is a typed
/// Status::kBusy rejection — backpressure is explicit, never a silent
/// drop), and the single batcher thread drains up to `max` requests at a
/// time, which is the epoch seam — everything drained together executes
/// as one epoch: one ParallelFor over its reads, one ApplyBatchUpdate
/// (see server.cc).
///
/// Close() stops admission but lets the batcher drain what was already
/// admitted (graceful Stop); CloseAndDiscard() drops the backlog on the
/// floor (Abort — simulated crash: admitted-but-unanswered requests die
/// with the process, exactly like real connections at a real crash).

#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <mutex>
#include <utility>
#include <vector>

namespace geoblocks::server {

template <typename T>
class AdmissionQueue {
 public:
  /// @param capacity Maximum queued requests; pushes beyond it fail.
  explicit AdmissionQueue(size_t capacity) : capacity_(capacity) {}

  /// Admits one request without blocking.
  ///
  /// @param item The request (moved from on success).
  /// @return False when the queue is full or closed — the caller answers
  ///     kBusy / kShuttingDown; the request was NOT admitted.
  bool TryPush(T&& item) {
    {
      std::lock_guard<std::mutex> lock(mu_);
      if (closed_ || items_.size() >= capacity_) {
        ++rejected_full_;
        return false;
      }
      items_.push_back(std::move(item));
      ++pushed_;
    }
    cv_.notify_one();
    return true;
  }

  /// Blocks until at least one request is queued (or the queue is closed),
  /// then moves up to `max` requests into `*out` in admission order.
  ///
  /// @param out Receives the batch (cleared first; capacity reused).
  /// @param max Maximum requests to drain.
  /// @return False when the queue is closed AND drained — the batcher's
  ///     exit condition; `*out` is empty then.
  bool DrainBatch(std::vector<T>* out, size_t max) {
    out->clear();
    std::unique_lock<std::mutex> lock(mu_);
    cv_.wait(lock, [&] { return closed_ || !items_.empty(); });
    if (items_.empty()) return false;
    const size_t n = std::min(max, items_.size());
    for (size_t i = 0; i < n; ++i) {
      out->push_back(std::move(items_.front()));
      items_.pop_front();
    }
    return true;
  }

  /// Stops admission; queued requests remain drainable (graceful stop).
  void Close() {
    {
      std::lock_guard<std::mutex> lock(mu_);
      closed_ = true;
    }
    cv_.notify_all();
  }

  /// Stops admission and drops the backlog (simulated crash).
  void CloseAndDiscard() {
    {
      std::lock_guard<std::mutex> lock(mu_);
      closed_ = true;
      items_.clear();
    }
    cv_.notify_all();
  }

  /// @return Current queue depth (point-in-time).
  size_t size() const {
    std::lock_guard<std::mutex> lock(mu_);
    return items_.size();
  }

  /// @return Requests admitted so far.
  uint64_t pushed() const {
    std::lock_guard<std::mutex> lock(mu_);
    return pushed_;
  }

  /// @return Pushes rejected because the queue was full (or closed).
  uint64_t rejected_full() const {
    std::lock_guard<std::mutex> lock(mu_);
    return rejected_full_;
  }

 private:
  const size_t capacity_;
  mutable std::mutex mu_;
  std::condition_variable cv_;
  std::deque<T> items_;
  bool closed_ = false;
  uint64_t pushed_ = 0;
  uint64_t rejected_full_ = 0;
};

}  // namespace geoblocks::server
