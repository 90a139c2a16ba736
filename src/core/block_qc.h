#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <span>
#include <vector>

#include "core/aggregate_trie.h"
#include "core/geoblock.h"
#include "core/query_stats.h"
#include "util/snapshot_cell.h"

namespace geoblocks::core {

/// Counters describing how the cache served a sequence of queries
/// (Figure 18 reports the hit rate). A plain value snapshot — the live
/// counters are the relaxed atomics of CacheCounterPlane. Only covering
/// cells at least two levels coarser than the block level are probed and
/// counted: block-level cells and their parents bypass the cache (see
/// GeoBlockQC::CombineCovering).
struct CacheCounters {
  uint64_t probes = 0;        ///< covering cells probed in the cache
  uint64_t full_hits = 0;     ///< cells answered entirely from the cache
  uint64_t partial_hits = 0;  ///< cells answered from cached direct children
  uint64_t misses = 0;        ///< cells answered by the base algorithm
  uint64_t stat_drops = 0;    ///< stat recordings lost to a full QueryStats
                              ///< table (lossy by design; nonzero means the
                              ///< rankings under-count some cells — raise
                              ///< Options::stats_capacity if it matters)
  uint64_t rebuilds = 0;          ///< RebuildCache calls that ranked, built
                                  ///< and published a trie
  uint64_t rebuilds_skipped = 0;  ///< RebuildCache calls that proved the
                                  ///< cached set unchanged and published
                                  ///< nothing

  /// @return rebuilds_skipped / (rebuilds + rebuilds_skipped) (0 when no
  ///     rebuild was requested).
  double SkippedRebuildShare() const {
    const uint64_t requested = rebuilds + rebuilds_skipped;
    return requested == 0 ? 0.0
                          : static_cast<double>(rebuilds_skipped) / requested;
  }

  /// @return full_hits / probes (0 when nothing was probed).
  double HitRate() const {
    return probes == 0 ? 0.0 : static_cast<double>(full_hits) / probes;
  }
};

/// The live cache counters: one relaxed atomic per outcome, so the read path
/// bumps them with plain `fetch_add`s — no locks, no contention beyond the
/// cache line. The two rebuild counters are bumped on the writer side, under
/// GeoBlockQC's writer mutex, with the same relaxed increments. Every probe
/// ends in exactly one outcome, so `probes` is not counted but derived:
/// `Snapshot` returns probes = full_hits + partial_hits + misses. The
/// snapshot is *point-in-time-ish*: each field is internally exact (relaxed
/// increments never lose updates) and monotone between resets, but the
/// fields are read one after another, so a snapshot taken mid-query may miss
/// increments that landed between the loads.
class CacheCounterPlane {
 public:
  /// Relaxed-increment entry points used by the lock-free read path.
  void AddFullHit() { full_hits_.fetch_add(1, std::memory_order_relaxed); }
  void AddPartialHit() {
    partial_hits_.fetch_add(1, std::memory_order_relaxed);
  }
  void AddMiss() { misses_.fetch_add(1, std::memory_order_relaxed); }
  void AddRebuild() { rebuilds_.fetch_add(1, std::memory_order_relaxed); }
  void AddRebuildSkipped() {
    rebuilds_skipped_.fetch_add(1, std::memory_order_relaxed);
  }

  /// @return A point-in-time-ish value snapshot (see class comment).
  CacheCounters Snapshot() const {
    CacheCounters c;
    c.full_hits = full_hits_.load(std::memory_order_relaxed);
    c.partial_hits = partial_hits_.load(std::memory_order_relaxed);
    c.misses = misses_.load(std::memory_order_relaxed);
    c.probes = c.full_hits + c.partial_hits + c.misses;
    c.rebuilds = rebuilds_.load(std::memory_order_relaxed);
    c.rebuilds_skipped = rebuilds_skipped_.load(std::memory_order_relaxed);
    return c;
  }

  /// Zeroes every counter. Safe concurrently with readers and recorders;
  /// increments racing with the reset may land before or after it.
  void Reset() {
    full_hits_.store(0, std::memory_order_relaxed);
    partial_hits_.store(0, std::memory_order_relaxed);
    misses_.store(0, std::memory_order_relaxed);
    rebuilds_.store(0, std::memory_order_relaxed);
    rebuilds_skipped_.store(0, std::memory_order_relaxed);
  }

 private:
  std::atomic<uint64_t> full_hits_{0};
  std::atomic<uint64_t> partial_hits_{0};
  std::atomic<uint64_t> misses_{0};
  std::atomic<uint64_t> rebuilds_{0};
  std::atomic<uint64_t> rebuilds_skipped_{0};
};

/// GeoBlocks with query caching ("BlockQC" in the evaluation): wraps a
/// GeoBlock with workload statistics and an AggregateTrie, and runs the
/// adapted SELECT algorithm of Figure 8. COUNT queries bypass the cache, as
/// their runtime is mostly independent of the cell level (Section 3.6).
///
/// Unlike Figure 8, which probes the cache for every covering cell, a cell
/// less than two levels coarser than the block level is folded from the
/// block state directly. Its base fold reads at most four stored
/// aggregates, so a cache entry could save at most three adds while its
/// probe costs a stats record and a search; such cells are never recorded,
/// probed, counted or cached.
///
/// ## Concurrency model (lock-free cached reads)
///
/// The cache is split into two planes so the hot path never takes a lock:
///
/// - **Snapshot plane.** The AggregateTrie is immutable once built and is
///   published through a util::SnapshotCell (an RCU-style epoch pointer;
///   see that header for why `std::atomic<std::shared_ptr>` is not used —
///   libstdc++'s implementation is not data-race-free). A reader enters an
///   epoch guard once per query and probes the frozen trie; a rebuild
///   constructs a *fresh* trie off the read path and installs it with one
///   pointer swap, retiring the old snapshot only after in-flight readers
///   drain.
/// - **Stats plane.** QueryStats and CacheCounterPlane are relaxed-atomic
///   tables: `Record` is a bounded probe sequence plus one CAS or relaxed
///   `fetch_add`, a counter bump is one relaxed `fetch_add`, and neither
///   allocates. Both are paid only for covering cells at least two levels
///   coarser than the block level.
/// - **Block-state plane.** The wrapped GeoBlock's aggregate state is
///   itself MVCC (an immutable BlockState behind a SnapshotCell). The
///   caller pins one block-state version (BlockSet::ResidentState, or
///   `SelectCovering` itself) and `CombineCovering` pins one trie snapshot
///   beside it, so cache hits and base-algorithm fallbacks within a query
///   read one fixed pair even while update commits publish successors.
///
/// `Select`/`SelectCovering`/`CombineCovering`/`Count` are therefore
/// `const` and safe to call from any number of threads concurrently, with
/// results bit-identical to a mutex-guarded execution of the same snapshot
/// sequence. Writers (`RebuildCache`, `CommitBlockBatch`, `DropTrie`)
/// serialize among themselves on an internal mutex that readers never
/// touch; the commit publishes the block state and the trie patch inside
/// one writer critical section,
/// which is what makes an interval-triggered rebuild (run inline by the
/// query that crosses `rebuild_interval`) racing an update commit safe
/// (a rebuild sees either the whole commit or none of it — it can
/// neither lose a batch nor bake one in twice).
///
/// What is and is not linearizable: each *query* folds exactly one trie
/// snapshot and one block-state version; across queries the snapshots may
/// advance at any point. The state is pinned before the trie, so a commit
/// publishing in between pairs the old state with the new trie, and a
/// query inside a commit's window between the state publish and the trie
/// publish pairs the new state with the old trie. Either mix keeps counts
/// between the pre- and post-batch values, never outside.
/// Counters and stats are exact but only point-in-time-ish when observed
/// mid-flight (see CacheCounterPlane).
class GeoBlockQC {
 public:
  struct Options {
    /// Aggregate threshold: cache budget as a fraction of the block's cell
    /// aggregate storage (Section 4.3, Figure 18).
    double threshold = 0.05;
    /// Re-rank the statistics every this many SELECT queries: the query
    /// that crosses the interval runs RebuildCache inline, after releasing
    /// its own read guards, while other readers keep serving from the old
    /// snapshot. A crossing whose ranking would leave the cached set as it
    /// is publishes nothing (the exact skip test of RebuildCache), so most
    /// crossings of a stable workload cost one walk of the recorded cells.
    /// 0 disables automatic rebuilds (use RebuildCache()).
    size_t rebuild_interval = 256;
    /// Slot capacity of the lock-free stats table (see QueryStats).
    size_t stats_capacity = QueryStats::kDefaultCapacity;
  };

  /// @param block   The block to cache (borrowed; must outlive the QC).
  /// @param options Cache configuration.
  GeoBlockQC(const GeoBlock* block, const Options& options)
      : block_(block),
        options_(options),
        stats_(options.stats_capacity),
        trie_(std::make_shared<AggregateTrie>()) {
    // Recycle retired trie snapshots: the hook runs inside Publish, which
    // every writer calls under writer_mu_, so spare_trie_ (also guarded by
    // writer_mu_) is safe to touch here. A sole-owned retiree keeps its
    // array buffers alive for the next clone-patch — the steady-state
    // commit path stops allocating cache storage.
    trie_.SetRetireHook([this](std::shared_ptr<const AggregateTrie> old) {
      if (old.use_count() == 1) {
        spare_trie_ = std::const_pointer_cast<AggregateTrie>(std::move(old));
      }
    });
  }

  // The cache planes are atomics and a slot table: pin the address.
  GeoBlockQC(const GeoBlockQC&) = delete;
  GeoBlockQC& operator=(const GeoBlockQC&) = delete;

  /// @return The wrapped block.
  const GeoBlock& block() const { return *block_; }

  /// The currently published cache snapshot. The returned trie is frozen:
  /// it will never change, and it stays valid as long as the caller holds
  /// the pointer, even across concurrent rebuilds (holding it never blocks
  /// a rebuild; it only keeps the memory alive).
  ///
  /// @return The current immutable trie snapshot (never null).
  std::shared_ptr<const AggregateTrie> trie_snapshot() const {
    return trie_.SnapshotShared();
  }

  /// @return The lock-free workload statistics table.
  const QueryStats& stats() const { return stats_; }

  /// @return A point-in-time-ish snapshot of the cache counters (exact
  ///     after quiescing; see CacheCounterPlane), with `stat_drops` filled
  ///     from the stats table's lossy-overflow counter so silent drops are
  ///     observable.
  CacheCounters counters() const {
    CacheCounters c = counters_.Snapshot();
    c.stat_drops = stats_.dropped();
    return c;
  }

  /// Zeroes the cache counters (safe concurrently with readers).
  void ResetCounters() const { counters_.Reset(); }

  /// Adapted SELECT query: probes the query cache per covering cell at
  /// least two levels coarser than the block level and falls back to the
  /// base algorithm only when necessary. Lock-free and
  /// thread-safe (see the class concurrency model).
  ///
  /// @param polygon Query polygon.
  /// @param request Aggregates to extract.
  /// @return Same result the base block would produce (bit-identical for
  ///     a fixed snapshot; last-ulp FP differences across snapshots, since
  ///     cached cells fold pre-merged sums).
  QueryResult Select(const geo::Polygon& polygon,
                     const AggregateRequest& request) const;
  /// SELECT over a pre-computed covering (sorted, disjoint cells).
  ///
  /// @param covering Covering cells, ascending and disjoint.
  /// @param request  Aggregates to extract.
  /// @return One value per requested aggregate plus the tuple count.
  QueryResult SelectCovering(std::span<const cell::CellId> covering,
                             const AggregateRequest& request) const;

  /// Core of the adapted SELECT: combines the covering into an external
  /// accumulator instead of finishing a result. Lets a sharded engine fold
  /// several cached blocks into one query answer (BlockSet). Loads the
  /// trie snapshot exactly once and falls back to `state` for every cell
  /// the trie does not answer. A cell at the block's level (after clamping
  /// finer cells to it) or its parent level folds at most four stored
  /// aggregates, which no cache entry can answer more cheaply, so it goes
  /// straight to `state`: it is never recorded in the stats, probed,
  /// counted or cached. A cell exactly two levels coarser is then a full
  /// hit or a miss, as its direct children are never cached.
  ///
  /// @param state    A pinned, materialized version of the wrapped block's
  ///     state (never an eviction tombstone: BlockSet::ResidentState
  ///     guarantees that on lazy sets).
  /// @param covering Covering cells, ascending and disjoint.
  /// @param acc      Accumulator the aggregates are folded into.
  void CombineCovering(const BlockState& state,
                       std::span<const cell::CellId> covering,
                       Accumulator* acc) const;

  /// COUNT uses the unmodified base algorithm (no noticeable speedup is
  /// expected from caching, Section 3.6). Lock-free: it touches neither
  /// the trie nor the stats plane.
  ///
  /// @param polygon Query polygon.
  /// @return Number of tuples in covered cells.
  uint64_t Count(const geo::Polygon& polygon) const {
    return block_->Count(polygon);
  }

  /// Ranks all recorded query cells and publishes a freshly built
  /// AggregateTrie under the configured budget: takes a stats snapshot,
  /// builds the trie off the read path (reusing payloads of cells the
  /// outgoing snapshot already caches), and installs it with one atomic
  /// pointer swap. Readers are never blocked; concurrent writers
  /// serialize on an internal mutex. `const` because a rebuild never
  /// changes query answers — the whole cache is logically-const metadata.
  ///
  /// Skip rule: first, one allocation-free walk of the recorded cells
  /// decides whether `Build` would change the cached set. Every cached
  /// cell costs the same, so `Build` admits the first K = ⌊budget /
  /// CellBytes⌋ distinct ranked cells inside the root, and every admitted
  /// cell's payload is copied from the outgoing cache. So the result equals
  /// the published cache when its root is the state's, every cached cell is
  /// still recorded, at most K cells are cached, and either no uncached
  /// in-root cell is recorded or the set is full (K cells) and every cached
  /// cell still outranks the best uncached one. Then the call publishes
  /// nothing and counts a skipped rebuild; otherwise it ranks, builds and
  /// publishes, and counts a rebuild.
  void RebuildCache() const;

  /// One-shot MVCC commit of an update batch against block *and* cache
  /// (Section 5): applies `batch` to `block` (clone-patch-publish of its
  /// BlockState) and mirrors the same tuples into a patched trie
  /// snapshot (copy-on-write: readers see the whole batch or none of it),
  /// all inside the writer critical section. Safe concurrently with any
  /// number of readers and with interval-triggered rebuilds; this is the
  /// per-shard commit BlockSet::ApplyBatchUpdate runs under its shard
  /// lock. There is deliberately no two-step variant: a block publish
  /// outside the critical section would let a racing rebuild bake the
  /// batch into its fresh trie before the cache patch applied it again.
  ///
  /// @param block  The wrapped block (non-const: the commit publishes).
  /// @param batch  The arriving tuples.
  /// @param subset Optional ascending indices into `batch` selecting the
  ///     tuples to commit (a shard's routed slice); empty means the whole
  ///     batch.
  /// @return The block's UpdateResult for the batch.
  /// @throws std::invalid_argument when `block` is not the wrapped block.
  GeoBlock::UpdateResult CommitBlockBatch(
      GeoBlock* block, std::span<const GeoBlock::UpdateTuple> batch,
      std::span<const uint32_t> subset = {});

  /// Cache budget in bytes implied by the threshold.
  ///
  /// @return Byte budget for the cached cells.
  size_t CacheBudgetBytes() const {
    return BudgetFor(*block_->StateSnapshot());
  }

  /// @return Block bytes plus the published snapshot's trie bytes.
  size_t MemoryBytes() const {
    return block_->MemoryBytes() + trie_snapshot()->MemoryBytes();
  }

  /// @return Bytes of the published trie snapshot alone — the charge the
  ///     MemoryGovernor accounts for the cache-trie resource class.
  size_t TrieBytes() const { return trie_snapshot()->MemoryBytes(); }

  /// Memory-governor eviction entry point: publishes an empty trie (and
  /// drops the recycled spare), reclaiming the cache bytes once the grace
  /// period drains. Always succeeds — the trie is a pure accelerator, so
  /// unlike block-state eviction there is nothing to refuse over; queries
  /// simply miss until interval-triggered rebuilds repopulate it from the
  /// stats table. Safe concurrently with readers, rebuilds, and commits.
  ///
  /// @return Bytes the dropped snapshot held (0 when already empty).
  size_t DropTrie() const;

 private:
  /// Clones the published trie (into the recycled spare when one is
  /// available), patches it with the committed tuples — `subset` order
  /// when non-empty, whole batch otherwise — and publishes the patched
  /// snapshot. Must hold writer_mu_.
  void PatchTrieLocked(std::span<const GeoBlock::UpdateTuple> batch,
                       std::span<const uint32_t> subset);

  /// @return The byte budget for a trie over one pinned state version.
  size_t BudgetFor(const BlockState& state) const {
    return static_cast<size_t>(options_.threshold *
                               static_cast<double>(state.CellAggregateBytes()));
  }

  /// The skip test of RebuildCache: true when a Build over `state`, the
  /// current statistics and `budget` would publish a cache equal to the
  /// published one (read from the published snapshot itself). O(recorded
  /// cells · log cached cells), allocation-free. Must hold writer_mu_.
  bool CachedSetUnchangedLocked(const BlockState& state, size_t budget) const;

  /// Interval trigger: bumps the per-query counter and, when it crosses
  /// rebuild_interval, lets exactly one caller reset it and run the
  /// rebuild inline on its own thread.
  void MaybeRebuildAfterQuery() const;

  const GeoBlock* block_;
  Options options_;

  // The stats plane (relaxed atomics) and the snapshot plane (epoch-swapped
  // pointer) are mutated from `const` readers by design: they are cache
  // metadata that never changes a query answer, hence `mutable`.
  mutable QueryStats stats_;
  mutable CacheCounterPlane counters_;
  mutable util::SnapshotCell<AggregateTrie> trie_;
  mutable std::atomic<uint64_t> queries_since_rebuild_{0};
  /// Writer-side only (rebuilds and update propagation); the read path
  /// never acquires it.
  mutable std::mutex writer_mu_;
  /// Retired trie snapshot kept for reuse by the next clone-patch commit
  /// (set by the retire hook, consumed by PatchTrieLocked). Guarded by
  /// writer_mu_ — the hook only runs inside a writer's Publish.
  mutable std::shared_ptr<AggregateTrie> spare_trie_;
};

}  // namespace geoblocks::core
