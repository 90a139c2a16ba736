#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <iosfwd>
#include <memory>
#include <mutex>
#include <span>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

#include "core/block_qc.h"
#include "core/geoblock.h"
#include "core/memory_governor.h"
#include "core/serialize.h"
#include "io/mapped_file.h"
#include "storage/sharded_dataset.h"
#include "util/thread_pool.h"

namespace geoblocks::io {
class UpdateLog;
}  // namespace geoblocks::io

namespace geoblocks::util {
class IoShim;
}  // namespace geoblocks::util

namespace geoblocks::core {

/// Thrown by ApplyBatchUpdate once the set is in degraded read-only mode:
/// the batch was rejected BEFORE any durability or memory step, so the
/// caller knows it was definitely not applied (safe to retry against a
/// healthy replica, unlike the unknown-outcome failure that caused the
/// degradation). See docs/ARCHITECTURE.md §Failure containment.
struct ReadOnlyError : std::runtime_error {
  ReadOnlyError()
      : std::runtime_error(
            "geoblocks: BlockSet is in degraded read-only mode (the update "
            "log failed); updates are rejected, reads keep working") {}
};

/// Thrown when materializing a lazily mapped shard fails — a payload CRC
/// mismatch, a short or failing pread, or a structurally corrupt payload.
/// Carries the shard index so callers (and the server) can report which
/// shard is damaged; the rest of the set stays healthy and queryable
/// (other shards keep faulting in normally, and the bad shard throws the
/// same typed error again on the next route to it).
struct ShardFaultError : std::runtime_error {
  size_t shard;
  ShardFaultError(size_t shard_index, const std::string& what)
      : std::runtime_error("geoblocks: shard " + std::to_string(shard_index) +
                           " fault failed: " + what),
        shard(shard_index) {}
};

/// Configuration of BlockSet::OpenMapped.
struct LazyOpenOptions {
  /// When set, every shard's resident payload (and, after EnableCache,
  /// every shard's trie) is registered with this governor, whose byte
  /// budget drives LRU/cost eviction back to "mapped, not materialized".
  /// Null = lazy loading without a budget (shards fault in and stay).
  /// Must outlive the set.
  MemoryGovernor* governor = nullptr;
  /// When set, payload bytes are read through `shim->Pread` on the mapped
  /// file's descriptor instead of being touched through the mapping — the
  /// chaos-test seam for injecting fault-time I/O errors (the mmap read
  /// path can otherwise only fail as SIGBUS). Must outlive the set.
  util::IoShim* shim = nullptr;
};

struct BlockSetOptions {
  /// Per-shard block configuration (level + filter). The shard partitioning
  /// should be aligned to a level no finer than `block.level` (see
  /// storage::ShardOptions::align_level) so cell aggregates never straddle
  /// shards and sharded answers stay bit-identical to a single block.
  BlockOptions block;
};

/// A batch of SELECT queries: many polygons evaluated under one aggregate
/// request. Each query still runs on its own (BlockSet::ExecuteBatch).
struct QueryBatch {
  std::vector<const geo::Polygon*> polygons;
  const AggregateRequest* request = nullptr;

  /// Borrows every polygon in `polys` (which must outlive the batch) under
  /// one shared request.
  ///
  /// @param polys Query polygons; the batch stores pointers, not copies.
  /// @param req   Aggregate request applied to every query; must be non-null
  ///              for ExecuteBatch.
  /// @return A batch referencing `polys` and `req`.
  static QueryBatch Of(const std::vector<geo::Polygon>& polys,
                       const AggregateRequest* req) {
    QueryBatch batch;
    batch.polygons.reserve(polys.size());
    for (const geo::Polygon& p : polys) batch.polygons.push_back(&p);
    batch.request = req;
    return batch;
  }

  /// @return Number of queries in the batch.
  size_t size() const { return polygons.size(); }
};

/// The sharded multi-block query engine: one GeoBlock per shard of a
/// ShardedDataset, built in parallel, queried by routing a polygon covering
/// to only the shards whose manifest key ranges it meets (the BlockHeader
/// pre-check lifted to the shard level; see OverlappingShards), and merging
/// the per-shard partial aggregates.
///
/// Sequential entry points (Select/Count) are `const` and thread-safe; the
/// batched entry points fan out over a ThreadPool; the optional cached path
/// wraps each shard in a GeoBlockQC whose reads are lock-free (epoch-swapped
/// trie snapshots + relaxed-atomic stats; see docs/ARCHITECTURE.md,
/// "Concurrency model").
///
/// ## The update plane (MVCC writes, docs/ARCHITECTURE.md "Update plane")
///
/// ApplyBatchUpdate routes arriving tuples to shards by Hilbert key using
/// the manifest boundaries and commits each shard's sub-batch under that
/// shard's commit lock: the shard block publishes a cloned-and-patched
/// BlockState version, and (when the cache is enabled) the shard's trie is
/// patched in the same writer critical section. Writers stripe across
/// shards — commits to different shards proceed in parallel (optionally on
/// a ThreadPool) — and readers never block: SELECT/COUNT, cached or not,
/// run concurrently with updates with no external serialization. A tuple
/// for a new, previously unaggregated region gets its cell aggregate in the
/// same commit (GeoBlock::ApplyBatchUpdate), so every tuple of a batch is
/// queryable once the call returns.
///
/// Like EnableCache, the update plane holds per-shard pointers: configure
/// and update a set only in its final resting place (don't move a set
/// that is actively serving updates).
///
/// ## Persistence and the attach/detach state machine
///
/// A BlockSet is a materialized view: its cell aggregates answer
/// SELECT/COUNT without the base rows. WriteTo persists the whole set —
/// a versioned, checksummed manifest (shard boundaries, row windows,
/// payload offsets; see docs/FORMAT.md) followed by one GeoBlock payload
/// per shard — and ReadFrom restores it *detached*: every query entry
/// point works and answers bit-identically to the pre-save set, but
/// refinement (GeoBlock::CoarsenTo to a finer level) needs base rows and
/// throws std::logic_error until AttachDataset re-binds the original
/// SortedDataset. The states:
///
///   Build()        -> attached  (blocks hold live DatasetViews)
///   ReadFrom()     -> detached  (blocks hold empty views)
///   AttachDataset  : detached -> attached (validates the dataset against
///                    the manifest, then re-creates each shard's view)
///   DetachDataset  : attached -> detached (drops the views and with them
///                    the set's co-ownership of the base rows)
class BlockSet {
 public:
  BlockSet() = default;

  /// Unregisters the set's memory-governor entries, waiting out any evict
  /// callback already running, before the shards they reference go away.
  ~BlockSet();

  BlockSet(BlockSet&& other) noexcept;
  /// Move-assignment unregisters the target's own governor entries first
  /// (as the destructor would) before adopting the source's shards.
  BlockSet& operator=(BlockSet&& other) noexcept;
  BlockSet(const BlockSet&) = delete;
  BlockSet& operator=(const BlockSet&) = delete;

  /// Builds one GeoBlock per shard. When `pool` is non-null the per-shard
  /// builds run concurrently on it (the build is embarrassingly parallel:
  /// each shard is an independent linear pass over its DatasetView). Each
  /// block copies its shard's view, so the `shards` object itself need not
  /// outlive the BlockSet; when the partition owns its parent (shared_ptr
  /// Partition overloads) the base rows are kept alive by the blocks
  /// themselves, while a borrowed partition leaves the parent dataset's
  /// lifetime with its owner. The partition's boundaries, row windows and
  /// alignment level are recorded so the set can be persisted (WriteTo)
  /// and later re-bound to its dataset (AttachDataset).
  ///
  /// @param shards  Partitioned dataset; one block is built per shard.
  /// @param options Block configuration shared by every shard.
  /// @param pool    Optional pool for the parallel build; null builds inline.
  /// @return The built set, in the *attached* state.
  /// @throws std::invalid_argument as GeoBlock::Build does (e.g. a level
  ///     outside [0, 30]), pooled or inline.
  static BlockSet Build(const storage::ShardedDataset& shards,
                        const BlockSetOptions& options,
                        util::ThreadPool* pool = nullptr);

  /// @return Number of shards (blocks) in the set.
  size_t num_shards() const { return blocks_.size(); }
  /// @param i Shard index in [0, num_shards()).
  /// @return The i-th shard's block.
  const GeoBlock& shard(size_t i) const { return *blocks_[i]; }
  /// @return The grid level every shard block was built at.
  int level() const { return level_; }
  /// @return The projection shared by every shard block.
  const geo::Projection& projection() const { return projection_; }

  /// @return Total number of cell aggregates across shards.
  size_t num_cells() const;

  /// Header-equivalent of the whole set: global aggregate plus the hull of
  /// the shard key ranges.
  ///
  /// @return The merged header (level, min/max cell, global aggregate).
  BlockHeader MergedHeader() const;

  /// Bytes of the materialized aggregates across shards (headers + cell
  /// aggregates). The shared base dataset is intentionally not counted —
  /// shards are views over one parent, so counting it per shard would
  /// double-count; account for the parent once via
  /// ShardedDataset::MemoryBytes.
  ///
  /// @return Aggregate bytes owned by the set.
  size_t MemoryBytes() const;

  /// Covering of a query polygon under the set's level constraint
  /// (identical to GeoBlock::Cover for any shard; shards share projection
  /// and level).
  ///
  /// @param polygon Query polygon in lat/lng coordinates.
  /// @return Sorted, disjoint covering cells no finer than level().
  std::vector<cell::CellId> Cover(const geo::Polygon& polygon) const;
  /// Allocation-reusing variant: clears and refills `*out`, keeping its
  /// capacity (see CoverPolygonInto). Once warm, the call does not
  /// allocate.
  ///
  /// @param polygon Query polygon in lat/lng coordinates.
  /// @param out     Receives the sorted, disjoint covering cells.
  void CoverInto(const geo::Polygon& polygon,
                 std::vector<cell::CellId>* out) const;

  /// SELECT: routes the covering to overlapping shards and folds their
  /// cell aggregates into one accumulator, in shard order. Because shards
  /// are contiguous ascending key ranges, the fold visits cell aggregates
  /// in exactly the order a single block over the same data would, so the
  /// result (including floating-point sums) is bit-identical.
  ///
  /// @param polygon Query polygon.
  /// @param request Aggregates to extract.
  /// @return One value per requested aggregate plus the tuple count.
  QueryResult Select(const geo::Polygon& polygon,
                     const AggregateRequest& request) const;
  /// SELECT over a pre-computed covering (sorted, disjoint cells).
  ///
  /// @param covering Covering cells, ascending and disjoint.
  /// @param request  Aggregates to extract.
  /// @return One value per requested aggregate plus the tuple count.
  QueryResult SelectCovering(std::span<const cell::CellId> covering,
                             const AggregateRequest& request) const;

  /// COUNT via the per-shard range-sum algorithm (Listing 2), summed over
  /// overlapping shards.
  ///
  /// @param polygon Query polygon.
  /// @return Number of tuples in covered cells.
  uint64_t Count(const geo::Polygon& polygon) const;
  /// COUNT over a pre-computed covering.
  ///
  /// @param covering Covering cells, ascending and disjoint.
  /// @return Number of tuples in covered cells.
  uint64_t CountCovering(std::span<const cell::CellId> covering) const;

  /// Batched SELECT: one ParallelFor iteration per query, each exactly
  /// `Select(*batch.polygons[i], *batch.request)`, so every result is
  /// bit-identical to the sequential answer whatever the pool size or
  /// schedule. `batch.request` must be non-null. An exception from any
  /// query (e.g. ShardFaultError) reaches the caller after the batch
  /// joins and fails the whole batch; a caller that must contain one
  /// query's fault (the server) calls Select per query instead.
  ///
  /// @param batch Queries plus their shared request.
  /// @param pool  Optional pool for the per-query tasks; null runs inline.
  /// @return One QueryResult per batch query, in batch order.
  std::vector<QueryResult> ExecuteBatch(const QueryBatch& batch,
                                        util::ThreadPool* pool) const;

  /// -- Update plane --------------------------------------------------------

  /// Outcome of one routed batch.
  struct SetUpdateResult {
    size_t applied = 0;  ///< tuples committed to shard states
    /// The batch's monotone change number. With an attached log it is the
    /// WAL record's change number and the batch was durable before this
    /// result was returned; without a log it only orders batches in memory.
    uint64_t change_number = 0;
  };

  /// Integrates newly arriving tuples into the sharded view (Section 5,
  /// lifted to the shard level): tuples are routed to their shard by
  /// Hilbert key via the manifest boundaries, each shard's sub-batch
  /// commits under that shard's writer lock (block state and cache trie
  /// publish as one logical unit per shard). Tuples for new regions create
  /// their cell aggregates in that same commit.
  ///
  /// Safe concurrently with every `const` read path — Select/Count,
  /// SelectCached/SelectCoveringCached, batched execution — with no
  /// external serialization: readers pin per-shard snapshots and never
  /// block. Concurrent ApplyBatchUpdate calls are also safe (shard commit
  /// locks stripe the writers), though per-shard commit order then depends
  /// on scheduling. With `pool`, per-shard commits of this batch run in
  /// parallel; results are independent of the pool (shards are disjoint).
  ///
  /// @param batch The arriving tuples (routed by location).
  /// @param pool  Optional pool for the per-shard commit fan-out.
  /// @return The committed tuple count and the batch's change number.
  /// @throws std::logic_error on a default-constructed set, which has no
  ///     manifest metadata to route tuples by.
  SetUpdateResult ApplyBatchUpdate(std::span<const GeoBlock::UpdateTuple> batch,
                                   util::ThreadPool* pool = nullptr);

  /// -- Durability (docs/ARCHITECTURE.md "Durability") ----------------------

  /// Attaches a write-ahead log: from now on every ApplyBatchUpdate batch
  /// is appended to `log` and made durable (group-committed fsync) BEFORE
  /// it commits to memory and before the call returns — persist first,
  /// acknowledge second. The log must outlive the set's update activity.
  /// Call before serving updates; not thread-safe against in-flight
  /// ApplyBatchUpdate. Pass null to detach.
  ///
  /// @param log The open log (borrowed), or null.
  void AttachLog(io::UpdateLog* log) { log_ = log; }

  /// Degraded read-only mode (sticky). The set enters it when the
  /// attached log fails — a real or injected fsync error, ENOSPC, EIO —
  /// because after a failed fsync nothing about the durability of further
  /// writes can be promised (and a failed fsync is never retried). In
  /// this state every ApplyBatchUpdate throws ReadOnlyError *before*
  /// touching the log or memory, while every read path keeps answering
  /// from the last committed state. The only way out is recovery: reopen
  /// the log and OpenLogged a fresh set.
  ///
  /// @return True once the set has entered degraded read-only mode.
  bool read_only() const {
    return read_only_.load(std::memory_order_acquire);
  }

  /// Forces degraded read-only mode (sticky). Called internally when the
  /// log dies; exposed so an operator layer (or a test) can fence writes
  /// explicitly — e.g. on an external low-disk signal.
  void EnterReadOnly() {
    read_only_.store(true, std::memory_order_release);
  }

  /// The set's committed change number: the change number of the last
  /// batch integrated into memory (logged, replayed, or in-memory-only).
  /// Monotone; persisted in the manifest by WriteTo, restored by ReadFrom.
  /// Safe to read concurrently with updates.
  ///
  /// @return The last committed change number (0 before any update).
  uint64_t change_number() const {
    return change_number_.load(std::memory_order_acquire);
  }

  /// Crash recovery: loads the manifest at `manifest_path`, then replays
  /// `log` idempotently — records with change number ≤ the manifest's
  /// persisted change number are skipped (the checkpoint already contains
  /// them), the rest are re-applied in log order — and attaches the log.
  /// The result is exactly the state whose batches were acknowledged
  /// before the crash: the log's group-commit protocol guarantees every
  /// acknowledged batch is on disk, so none is lost. A log that sits
  /// behind the manifest (brand-new, or re-initialized after a torn
  /// header) is rebased to the manifest's change number so future records
  /// never reuse change numbers a replay would skip.
  ///
  /// @param manifest_path Path of a manifest written by Checkpoint (or
  ///     WriteTo to a file).
  /// @param log The set's log, freshly Open()ed (torn tail already cut).
  /// @return The recovered set, detached, with `log` attached.
  /// @throws std::invalid_argument when `log` is null.
  /// @throws std::runtime_error on a missing/corrupt manifest or log
  ///     read failures.
  static BlockSet OpenLogged(const std::string& manifest_path,
                             io::UpdateLog* log);

  /// Durably checkpoints the set: serializes the full state (WriteTo —
  /// including the change number) to `manifest_path` atomically (temp
  /// file + fsync + rename), then truncates the attached
  /// log up to the checkpointed change number. Crash-ordering is safe at
  /// every point: the manifest replace is atomic, and a crash between the
  /// manifest landing and the log truncating only means replay skips every
  /// record (all ≤ the new manifest's change number). Requires quiesced
  /// updates (no in-flight ApplyBatchUpdate).
  ///
  /// @param manifest_path Destination manifest file.
  /// @return The checkpointed change number.
  /// @throws std::logic_error on a set without manifest metadata.
  /// @throws std::runtime_error on I/O failure.
  uint64_t Checkpoint(const std::string& manifest_path);

  /// -- Persistence ---------------------------------------------------------

  /// Persists the whole set: a versioned, CRC-checksummed manifest (magic,
  /// format version, shard count, alignment level, the committed change
  /// number, per-shard Hilbert-key boundaries, (offset, num_rows) row
  /// windows and post-update state row counts, payload byte offsets and
  /// checksums) followed by each shard's GeoBlock payload and an empty
  /// checksummed pending-updates section (every committed tuple already
  /// lives in a shard payload). The byte-level layout is specified in
  /// docs/FORMAT.md. Writing is deterministic: the same
  /// set always produces identical bytes. The optional query cache
  /// (EnableCache) is not persisted.
  ///
  /// @param out Destination stream (open in binary mode).
  /// @throws std::logic_error on a default-constructed set, which has no
  ///     manifest metadata to persist.
  /// @throws std::runtime_error on a big-endian host (the format is
  ///     little-endian).
  void WriteTo(std::ostream& out) const;

  /// Loads a set written by WriteTo. The loaded set is *detached*: all
  /// SELECT/COUNT entry points (including the batched and cached paths)
  /// answer bit-identically to the set that was saved, without the base
  /// rows; refinement throws until AttachDataset re-binds the dataset.
  /// Every manifest field and every shard payload is checksum-verified
  /// before use, so corrupt or truncated input fails cleanly. A pending
  /// section holding anything but K zero counts is rejected as corrupt.
  ///
  /// @param in Source stream (open in binary mode).
  /// @return The loaded set, in the *detached* state.
  /// @throws std::runtime_error on bad magic, an unsupported format
  ///     version, a checksum mismatch, truncation, an implausible shard
  ///     count, or manifest/payload inconsistencies (non-contiguous
  ///     windows or payload offsets, mismatched row counts, mixed shard
  ///     levels, a non-empty pending section).
  static BlockSet ReadFrom(std::istream& in);

  /// -- Lazy loading and memory governance ----------------------------------
  /// (docs/FORMAT.md §Lazy loading, docs/ARCHITECTURE.md §Memory governance)

  /// Opens a WriteTo/Checkpoint file *lazily*: the file is mmap'd, only
  /// the manifest (including the per-shard CRC table) is read and
  /// validated up front, and each shard's payload is deserialized on the
  /// first route to it — bytes touched at open are O(manifest + shard 0 +
  /// pending), not O(file). Shard 0 is materialized eagerly (it carries
  /// the level/projection/schema every other shard is validated against);
  /// a non-empty pending section is rejected as ReadFrom rejects it.
  ///
  /// The loaded set is detached, answers every query path bit-identically
  /// to ReadFrom of the same file, and accepts updates; shards touched by
  /// an update become non-evictable, because
  /// their in-memory state has diverged from the mapped payload. With a
  /// governor, faulted payloads and cache tries are evicted back to
  /// "mapped, not materialized" when the byte budget is exceeded; eviction
  /// unpublishes through the normal snapshot grace period, so readers
  /// holding pinned states are never invalidated.
  ///
  /// The file must outlive... nothing: the set owns the mapping. The
  /// caller must not truncate or rewrite the file in place while the set
  /// is open (a torn mapping is a SIGBUS; use Checkpoint's atomic-rename
  /// protocol, under which the old inode stays valid until the set drops
  /// the mapping).
  ///
  /// @param path    File written by WriteTo (via a file stream) or
  ///     Checkpoint.
  /// @param options Governor and I/O-shim wiring.
  /// @return The lazily opened set, detached, shard 0 resident.
  /// @throws std::runtime_error on open/map failure or any manifest
  ///     validation error ReadFrom would raise.
  /// @throws ShardFaultError when shard 0's payload is corrupt.
  static BlockSet OpenMapped(const std::string& path,
                             const LazyOpenOptions& options = {});

  /// @return True when the set was opened by OpenMapped (payloads fault in
  ///     from a mapped file).
  bool lazy() const { return source_ != nullptr; }

  /// @return The governor passed to OpenMapped, or null.
  MemoryGovernor* governor() const { return governor_; }

  /// Per-shard residency: true when shard `s` currently holds a
  /// materialized (non-tombstone) state. Always true on eager sets.
  /// Point-in-time — a concurrent eviction or fault can flip it.
  ///
  /// @param s Shard index in [0, num_shards()).
  /// @return Whether the shard's payload is resident.
  bool shard_resident(size_t s) const {
    return !blocks_[s]->StateSnapshot()->evicted;
  }

  /// @return Number of shards currently resident (== num_shards() on an
  ///     eager set). Point-in-time.
  size_t resident_shards() const;

  /// @return Total shard payload materializations (first faults plus
  ///     re-faults after eviction) since open; 0 on an eager set.
  uint64_t shard_fault_count() const;

  /// Faults shard `s` in if it is cold and charges the governor for it,
  /// exactly as a query fault does, but without rebalancing the budget
  /// (the next query-path fault or EnsureBudget trims). No-op on eager
  /// sets. Call it with no shard lock held: the charge takes the governor
  /// entry's callback lock, which orders before the shard locks.
  ///
  /// @param s Shard index in [0, num_shards()).
  /// @throws ShardFaultError when the shard's payload is corrupt.
  void EnsureResident(size_t s) const;

  /// Re-binds the base dataset to a detached (loaded) set after validating
  /// it against the manifest: the row count must equal the manifest total,
  /// the schema width and projection domain must match the blocks, and
  /// each shard's row window must contain only keys inside that shard's
  /// manifest boundary range. On success every block gets a fresh
  /// DatasetView window, restoring co-ownership of the rows and making
  /// refinement (GeoBlock::CoarsenTo to a finer level) work again.
  ///
  /// @param data The dataset the set was originally built over (or a
  ///     bit-identical re-extract of it).
  /// @throws std::invalid_argument when `data` is null.
  /// @throws std::logic_error when the set is empty or already attached
  ///     (DetachDataset first).
  /// @throws std::runtime_error when `data` does not match the manifest
  ///     (row count, schema width, projection domain, or a key outside its
  ///     shard's boundary range).
  void AttachDataset(std::shared_ptr<const storage::SortedDataset> data);

  /// Drops every block's DatasetView, releasing the set's co-ownership of
  /// the base rows. Queries keep working (they only need the aggregates);
  /// refinement throws again until the next AttachDataset. No-op on an
  /// already-detached set.
  void DetachDataset();

  /// @return True when the blocks currently hold live DatasetViews (built,
  ///     or loaded and re-attached); false for a loaded-but-detached set.
  bool dataset_attached() const { return dataset_attached_; }

  /// Leaf-key boundaries of the partition the set was built over: shard i
  /// covers keys in [boundaries()[i], boundaries()[i+1]). Size is
  /// num_shards() + 1; empty for a default-constructed set.
  ///
  /// @return The manifest boundary keys.
  const std::vector<uint64_t>& boundaries() const { return boundaries_; }

  /// @return The cell level shard boundaries were aligned to at partition
  ///     time (storage::ShardOptions::align_level); -1 when unknown
  ///     (default-constructed set).
  int align_level() const { return align_level_; }

  /// @return Total base rows across all shard windows (the row count
  ///     AttachDataset validates against).
  uint64_t total_rows() const { return total_rows_; }

  /// -- Cached path ---------------------------------------------------------

  /// Wraps every shard in a GeoBlockQC with `options`. Queries through
  /// SelectCached probe the per-shard tries entirely lock-free: each shard
  /// publishes an immutable trie snapshot behind an atomic pointer and
  /// records statistics in relaxed-atomic tables, so any number of reader
  /// threads proceed without serializing — per shard or otherwise. Works
  /// on attached and detached sets alike (the cache reads only cell
  /// aggregates). Not thread-safe against queries itself (enable the
  /// cache before serving).
  ///
  /// @param options Cache budget/ranking configuration.
  void EnableCache(const GeoBlockQC::Options& options);
  /// @return True once EnableCache has been called.
  bool cache_enabled() const { return !cached_.empty(); }

  /// SELECT through the per-shard caches (falls back to SelectCovering
  /// when the cache is disabled). `const`, lock-free, and thread-safe;
  /// the covering and shard-routing vectors live in reused thread-local
  /// buffers (the covering too, see CoverInto), so once warm the call
  /// does not allocate.
  ///
  /// @param polygon Query polygon.
  /// @param request Aggregates to extract.
  /// @return Same result Select would produce.
  QueryResult SelectCached(const geo::Polygon& polygon,
                           const AggregateRequest& request) const;
  /// Cached SELECT over a pre-computed covering. `const`, lock-free, and
  /// thread-safe.
  ///
  /// @param covering Covering cells, ascending and disjoint.
  /// @param request  Aggregates to extract.
  /// @return Same result SelectCovering would produce.
  QueryResult SelectCoveringCached(std::span<const cell::CellId> covering,
                                   const AggregateRequest& request) const;
  /// Allocation-free variant of SelectCoveringCached: folds into a
  /// caller-owned result whose `values` capacity is reused. With a warmed
  /// result object, a pre-computed covering, and a request of at most
  /// Accumulator::kInlineSpecs aggregates, the steady state performs zero
  /// heap allocations (the serving hot path; tests/allocation_test.cc
  /// asserts this with a counting allocator).
  ///
  /// @param covering Covering cells, ascending and disjoint.
  /// @param request  Aggregates to extract.
  /// @param out      Receives the result (count + one value per aggregate).
  void SelectCoveringCachedInto(std::span<const cell::CellId> covering,
                                const AggregateRequest& request,
                                QueryResult* out) const;

  /// Re-ranks and refills every shard trie from its recorded statistics,
  /// publishing each shard's new snapshot with one atomic pointer swap.
  /// Readers are never blocked. With a pool the per-shard rebuilds run
  /// concurrently (they are independent); null rebuilds inline.
  ///
  /// @param pool Optional pool for the per-shard fan-out.
  void RebuildCaches(util::ThreadPool* pool = nullptr);

  /// Sum of the per-shard cache counters. Safe to call concurrently with
  /// readers: each field is exact and monotone between resets, but fields
  /// are sampled one after another, so a merge taken mid-query is
  /// point-in-time-ish (see CacheCounterPlane).
  ///
  /// @return Merged counter snapshot.
  CacheCounters MergedCacheCounters() const;
  /// Zeroes every shard's cache counters. Safe concurrently with readers;
  /// increments racing with the reset land before or after it.
  void ResetCacheCounters();

  /// Per-shard cache accessor (tests and benchmarks; e.g. to compare the
  /// lock-free path against an externally locked baseline).
  ///
  /// @param i Shard index in [0, num_shards()).
  /// @return The shard's GeoBlockQC.
  /// @throws std::logic_error when the cache is not enabled.
  const GeoBlockQC& cached_shard(size_t i) const;

  /// Indices of shards whose manifest key range meets the (sorted,
  /// disjoint) covering: shard s is routed iff some covering cell's leaf
  /// range meets [boundaries()[s], boundaries()[s+1]) — the last shard's
  /// range includes the end key, and an empty range is never routed. The
  /// boundaries are align-cell RangeMins, so every grid cell, and every
  /// finer cell inside one, lies in exactly one shard's range: a shard
  /// holding a covered cell is always routed, whatever the covering's
  /// levels, commits or residency. Reads only the immutable manifest.
  /// Exposed for tests and benchmarks.
  ///
  /// @param covering Covering cells, ascending and disjoint.
  /// @return Ascending shard indices that may contain covered cells.
  std::vector<size_t> OverlappingShards(
      std::span<const cell::CellId> covering) const;
  /// Allocation-reusing variant: clears and refills `*out` (capacity kept).
  ///
  /// @param covering Covering cells, ascending and disjoint.
  /// @param out      Receives the ascending overlapping shard indices.
  void OverlappingShards(std::span<const cell::CellId> covering,
                         std::vector<size_t>* out) const;

 private:
  /// Reads internals the public interface does not expose (where a mapped
  /// shard's payload lies); defined by the tests only.
  friend class BlockSetTestPeer;

  /// One shard's (first row, row count) window into the parent dataset —
  /// the manifest fields AttachDataset uses to re-create the views.
  struct ShardWindow {
    uint64_t offset = 0;
    uint64_t num_rows = 0;
  };

  /// Per-shard writer state: the striped commit lock. Behind a
  /// shared_ptr: the shard's governor evict callback captures it, so it
  /// must survive set moves.
  struct ShardWriter {
    std::mutex mu;
  };

  /// What a lazily opened set needs to fault a shard payload in later:
  /// the mapping plus the manifest that locates and cross-checks every
  /// payload in it. Only OpenMapped creates one. Behind a shared_ptr so
  /// governor evict callbacks (which capture shard state, never the
  /// movable set) and the set agree on lifetime; a faulted shard's arrays
  /// are views of the mapping and co-own it through this pointer, so a
  /// pinned state outlives the set safely.
  struct LazySource {
    io::MappedFile file;
    /// Optional fault-injection seam: payload reads go through
    /// shim->Pread on file.fd() instead of the mapping when set.
    util::IoShim* shim = nullptr;
    serialize::SetManifest manifest;
  };

  /// Per-shard residency record, kept on every set: built shards start
  /// resident, loaded ones cold until HydrateShard. The mutex is the
  /// shard's *residency lock* (r.mu): materialization publishes under it,
  /// and eviction takes it after the shard's writer lock (w.mu) — the
  /// global lock order is always w.mu -> r.mu, so commit publishes,
  /// fault-in publishes, and eviction publishes all serialize on the state
  /// cell. Behind a shared_ptr: governor callbacks capture it, so it must
  /// survive set moves (and outlive the set if a callback is in flight).
  struct ShardResidency {
    std::mutex mu;
    /// Set by the first HydrateShard, which alone adopts the payload's
    /// configuration. Guarded by mu.
    bool hydrated = false;
    /// Sticky: set on the first committed update.
    /// A dirty shard is never evicted — its in-memory state has diverged
    /// from the mapped payload, and after a Checkpoint the mapping is
    /// stale outright, so a re-fault would resurrect old data.
    std::atomic<bool> dirty{false};
    std::atomic<uint64_t> faults{0};
    MemoryGovernor::EntryHandle entry;       ///< payload residency charge
    MemoryGovernor::EntryHandle trie_entry;  ///< cache-trie charge
  };

  /// The read-path unit of every set: returns a pinned, guaranteed
  /// non-tombstone state of shard `s`, materializing it first when cold
  /// (only a mapped shard can be). Fast path (resident): one
  /// StateSnapshot, plus a relaxed governor touch when there is one.
  /// Slow path: deserialize under r.mu, pin before unlocking (so the
  /// caller's fold survives an immediate re-eviction), then — with
  /// `rebalance` — let the governor evict someone else to pay for it.
  /// Never called with any shard lock held when `rebalance` is true
  /// (evict callbacks take other shards' w.mu/r.mu).
  std::shared_ptr<const BlockState> ResidentState(size_t s,
                                                  bool rebalance) const;

  /// Faults shard `s` in under residency_[s]->mu if it is cold, without
  /// charging the governor (callers may hold w.mu; see ChargeShard).
  ///
  /// @return True when this call materialized the shard.
  bool MaterializeIfCold(size_t s) const;

  /// Recomputes shard `s`'s governor charge; no-op without a governor.
  /// Never with a shard lock held (lock order: governor cb_mu → w.mu →
  /// r.mu).
  void ChargeShard(size_t s) const;

  /// Reads shard `s`'s payload from the mapping, hydrates it, and counts
  /// the fault. Caller holds residency_[s]->mu; the shard must be cold.
  /// @throws ShardFaultError on a failed read or a corrupt payload.
  void MaterializeShardLocked(size_t s) const;

  /// The set a manifest describes, before any payload is read: manifest
  /// metadata plus, per shard, a cold shell (a tombstoned GeoBlock), a
  /// writer record and a residency record. ReadFrom and OpenMapped both
  /// start here. Defined in serialize.cc.
  static BlockSet FromManifest(const serialize::SetManifest& m);

  /// The one hydration step: parses and cross-checks shard `s`'s payload
  /// (ParseShardPayload) and publishes it into the cold shell, adopting the
  /// shard's configuration on its first hydration only. Caller holds
  /// residency_[s]->mu or owns the set exclusively (ReadFrom). Defined in
  /// serialize.cc.
  /// The decoded arrays are views of `payload`, which `owner` keeps alive.
  void HydrateShard(size_t s, std::shared_ptr<const void> owner,
                    std::string_view payload,
                    const serialize::SetManifest& m) const;

  /// Registers shard `s`'s payload entry with the governor (OpenMapped,
  /// once per shard). The evict callback captures the shard's block,
  /// writer and residency records, never the movable set.
  void RegisterShardEntry(size_t s);
  /// Registers shard `s`'s cache trie with the governor (lazy sets with a
  /// cache only). The caller has dropped any previous trie entry.
  void RegisterTrieEntry(size_t s);
  /// Unregisters every governor entry (waits out in-flight evictions);
  /// destructor / move-assign teardown.
  void UnregisterGovernorEntries();

  /// Parses and fully cross-checks shard `s`'s payload against manifest
  /// `m` (CRC, structure, level/schema agreement with `reference`, exact
  /// state-row check). Called only by HydrateShard. Defined in
  /// serialize.cc.
  static GeoBlock ParseShardPayload(std::shared_ptr<const void> owner,
                                    std::string_view payload,
                                    const serialize::SetManifest& m,
                                    size_t s, const GeoBlock* reference);

  /// The memory half of ApplyBatchUpdate: routes `batch` to shards and
  /// commits each sub-batch under its shard's writer lock. No logging, no
  /// change-number assignment — callers (the public update path and WAL
  /// replay) wrap it with their own durability/ordering step.
  SetUpdateResult CommitRouted(std::span<const GeoBlock::UpdateTuple> batch,
                               util::ThreadPool* pool);

  /// Raises change_number_ to `cn` if it is higher (CAS max — concurrent
  /// batches may adopt log-assigned numbers out of order).
  void AdoptChangeNumber(uint64_t cn);

  /// Commits shard `s`'s slice of the batch — the tuples at the (ascending)
  /// `subset` indices into `batch`, passed by index, never copied — under
  /// its writer lock and marks the shard dirty.
  /// @return Number of tuples committed.
  size_t CommitShardBatch(size_t s,
                          std::span<const GeoBlock::UpdateTuple> batch,
                          std::span<const uint32_t> subset);

  int level_ = 0;
  geo::Projection projection_;
  // One block per shard. unique_ptr keeps each block's address stable so
  // the per-shard GeoBlockQCs and governor callbacks stay valid across set
  // moves.
  std::vector<std::unique_ptr<GeoBlock>> blocks_;
  // One lock-free GeoBlockQC per shard (unique_ptr: the QC pins its
  // address — it owns atomics and the stats slot table).
  std::vector<std::unique_ptr<GeoBlockQC>> cached_;
  // The update plane: one writer record per shard.
  std::vector<std::shared_ptr<ShardWriter>> writers_;

  // Manifest metadata (persisted by WriteTo, validated by AttachDataset).
  int align_level_ = -1;
  uint64_t total_rows_ = 0;
  std::vector<uint64_t> boundaries_;
  std::vector<ShardWindow> windows_;
  bool dataset_attached_ = false;

  // The shard plane: one residency record per shard on every set. Only
  // OpenMapped sets the mapped source and the optional governor (both
  // null otherwise), so only its shards are ever cold after load.
  std::shared_ptr<LazySource> source_;
  std::vector<std::shared_ptr<ShardResidency>> residency_;
  MemoryGovernor* governor_ = nullptr;

  // Durability: the optional attached WAL and the committed change number
  // (persisted in the v2 manifest; the idempotency floor for replay).
  io::UpdateLog* log_ = nullptr;
  std::atomic<uint64_t> change_number_{0};
  // Degraded read-only mode: sticky once the log fails. Not persisted —
  // recovery reopens the log and starts healthy.
  std::atomic<bool> read_only_{false};
};

}  // namespace geoblocks::core
