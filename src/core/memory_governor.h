#pragma once

/// \file memory_governor.h
/// The process-wide memory budget behind lazy shard loading
/// (BlockSet::OpenMapped). Resident resources — materialized BlockState
/// payloads and GeoBlockQC aggregate tries — register an Entry carrying
/// three callbacks-worth of state: a size function (current bytes, safe
/// to call from any thread), an evict function (drop the resource back to
/// its reclaimable form, or refuse), and lock-free access atomics the
/// read path bumps per query.
///
/// Eviction policy: bucketed LRU with a hit-count cost tie-break. Entries
/// are ordered by recency bucket (last-access sequence / kRecencyBucket);
/// within a bucket, the entry with fewer lifetime hits goes first — the
/// per-shard hit counts mirror the cached plane's QueryStats activity, so
/// a hot shard that briefly went quiet outlives a cold one of the same
/// age. The single most-recently-touched entry is never a victim, which
/// breaks fault-evict ping-pong when the budget is smaller than one
/// working-set shard.
///
/// Eviction never frees in place. An evict callback unpublishes through
/// the owner's SnapshotCell (tombstone publish + grace period + retire),
/// so pinned readers keep answering from the state they hold; the
/// callback refuses (returns false) when the resource is not cleanly
/// reconstructible — a dirty shard, one that committed updates since
/// materialization (its state runs ahead of the mapped manifest).
/// Refusals are skipped for the rest of the scan and counted.
///
/// Locking: the governor's own mutex only guards the entry list; evict
/// callbacks run OUTSIDE it (they take shard writer + residency locks and
/// wait out snapshot grace periods). Callers must not invoke
/// EnsureBudget while holding any shard lock — the commit-path fault-in
/// is bookkeeping-only for exactly this reason (see
/// docs/ARCHITECTURE.md §Memory governance).

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

namespace geoblocks::core {

class MemoryGovernor {
 public:
  /// Accesses per recency bucket: entries touched within the same window
  /// of kRecencyBucket global accesses compete on hit count, not strict
  /// recency — that is where the cost signal gets its vote.
  static constexpr uint64_t kRecencyBucket = 256;

  struct Options {
    /// Process-wide byte budget across all registered entries; 0 means
    /// unlimited (the governor only accounts, never evicts).
    size_t budget_bytes = 0;
  };

  /// Point-in-time counters (STATS surfaces these as memory.*).
  struct Stats {
    uint64_t budget_bytes = 0;
    uint64_t resident_bytes = 0;
    uint64_t evictions = 0;  ///< successful evict callbacks
    uint64_t faults = 0;     ///< RecordFault calls (shard materializations)
    uint64_t refusals = 0;   ///< evict callbacks that declined
    uint64_t entries = 0;    ///< registered resources
  };

  /// One governed resource. Opaque to owners except through the
  /// governor's methods; held by shared_ptr so eviction scans can outlive
  /// an owner that is concurrently unregistering (Unregister waits out an
  /// in-flight callback via cb_mu_).
  class Entry {
   public:
    uint64_t hits() const { return hits_.load(std::memory_order_relaxed); }
    size_t charge() const {
      return charge_.load(std::memory_order_relaxed);
    }

   private:
    friend class MemoryGovernor;

    std::string name_;
    std::function<size_t()> size_;
    std::function<bool()> evict_;
    std::mutex cb_mu_;          ///< serializes evict_ with Unregister
    bool registered_ = true;    ///< guarded by cb_mu_
    std::atomic<size_t> charge_{0};
    std::atomic<uint64_t> last_access_{0};
    std::atomic<uint64_t> hits_{0};
  };
  using EntryHandle = std::shared_ptr<Entry>;

  explicit MemoryGovernor(const Options& options) : options_(options) {
    budget_.store(options.budget_bytes, std::memory_order_relaxed);
  }

  /// Registers a resource. `size` returns its current bytes (must be
  /// callable from any thread without external locks — pin a snapshot);
  /// `evict` drops it to its reclaimable form and returns true, or
  /// refuses with false. Both are invoked outside the governor mutex.
  EntryHandle Register(std::string name, std::function<size_t()> size,
                       std::function<bool()> evict);

  /// Removes `entry` and waits out any in-flight evict callback, so the
  /// owner may destroy whatever the callbacks capture afterwards.
  void Unregister(const EntryHandle& entry);

  /// Reader-side access bump: recency sequence + hit count, two relaxed
  /// atomic ops. Safe on the lock-free query path.
  void Touch(const EntryHandle& entry) {
    entry->last_access_.store(seq_.fetch_add(1, std::memory_order_relaxed),
                              std::memory_order_relaxed);
    entry->hits_.fetch_add(1, std::memory_order_relaxed);
  }

  /// A shard materialization: fault counter + access bump.
  void RecordFault(const EntryHandle& entry) {
    faults_.fetch_add(1, std::memory_order_relaxed);
    Touch(entry);
  }

  /// Recomputes `entry`'s charge via its size function and folds the
  /// delta into the global resident total.
  void UpdateCharge(const EntryHandle& entry);

  /// Evicts LRU/cost-ordered victims until resident_bytes fits the
  /// budget or every remaining candidate refused. Single-flight: a scan
  /// already in progress on another thread makes this a no-op. Must not
  /// be called while holding any shard lock.
  void EnsureBudget();

  size_t resident_bytes() const {
    return resident_.load(std::memory_order_relaxed);
  }
  size_t budget_bytes() const {
    return budget_.load(std::memory_order_relaxed);
  }
  /// Adjusts the budget at runtime (0 = unlimited); the next
  /// EnsureBudget enforces it.
  void set_budget_bytes(size_t bytes) {
    budget_.store(bytes, std::memory_order_relaxed);
  }

  Stats stats() const;

 private:
  Options options_;
  mutable std::mutex mu_;  ///< guards entries_ only (leaf lock)
  std::vector<EntryHandle> entries_;
  std::atomic<size_t> budget_{0};
  std::atomic<size_t> resident_{0};
  std::atomic<uint64_t> seq_{0};
  std::atomic<uint64_t> evictions_{0};
  std::atomic<uint64_t> faults_{0};
  std::atomic<uint64_t> refusals_{0};
  std::atomic<bool> rebalancing_{false};
};

}  // namespace geoblocks::core
