#pragma once

#include <atomic>
#include <cstdint>
#include <iosfwd>
#include <memory>
#include <span>
#include <string_view>
#include <vector>

#include "cell/cell_id.h"
#include "cell/coverer.h"
#include "core/aggregate.h"
#include "core/cell_array.h"
#include "geo/polygon.h"
#include "geo/projection.h"
#include "storage/dataset_view.h"
#include "storage/filter.h"
#include "storage/sorted_dataset.h"
#include "util/snapshot_cell.h"

namespace geoblocks::core {

/// Build-time configuration of a GeoBlock.
struct BlockOptions {
  /// Grid granularity: the level of the block's cells. Determines the
  /// spatial error bound (the cell diagonal, Section 3.2).
  int level = 17;
  /// Filter predicates applied during the build pass (Section 3.3).
  storage::Filter filter;
};

/// Global header of a GeoBlock (Section 3.4): block-wide aggregate and the
/// metadata required for the constant-time overlap pre-check.
struct BlockHeader {
  int level = 0;
  uint64_t min_cell = 0;  ///< smallest grid-cell id in the block
  uint64_t max_cell = 0;  ///< largest grid-cell id in the block
  AggregateVector global; ///< all cell aggregates combined
};

/// Covering policy shared by every block-shaped engine (GeoBlock,
/// BlockSet) and the cell-sorted baselines (BinarySearchIndex, BTreeIndex):
/// project the query polygon onto the unit square and cover it with cells
/// no finer than `level` (Section 3.5) through cell::GetCovering.
///
/// @param projection Mapping from lat/lng onto the unit square.
/// @param level      Finest cell level the covering may use.
/// @param polygon    Query polygon in lat/lng coordinates.
/// @return Sorted, disjoint covering cells.
std::vector<cell::CellId> CoverPolygon(const geo::Projection& projection,
                                       int level,
                                       const geo::Polygon& polygon);

/// Allocation-reusing variant of CoverPolygon: clears and refills `*out`,
/// keeping its capacity (for thread-local scratch buffers on query paths).
/// The polygon is projected into a thread-local unit-space polygon and
/// covered into a thread-local scratch vector, so once those and `*out` are
/// warm (the thread has covered a polygon with as many rings, each at least
/// as long) the call does not allocate.
///
/// @param projection Mapping from lat/lng onto the unit square.
/// @param level      Finest cell level the covering may use.
/// @param polygon    Query polygon in lat/lng coordinates.
/// @param out        Receives the sorted, disjoint covering cells.
void CoverPolygonInto(const geo::Projection& projection, int level,
                      const geo::Polygon& polygon,
                      std::vector<cell::CellId>* out);

/// One immutable MVCC version of a GeoBlock's aggregate state: the header
/// plus the parallel cell-aggregate arrays, frozen at publication time.
///
/// A BlockState is never mutated once published — updates build a successor
/// (cloning only the arrays they touch; untouched arrays are shared, as
/// CellArrays are refcounted) and swap it in through the block's
/// util::SnapshotCell. Readers therefore probe a consistent version with no
/// locks: every query method on this struct is `const`, touches only the
/// frozen arrays, and is safe from any number of threads concurrently.
///
/// The struct also carries the full query implementation (CombineCovering /
/// CountCovering / AggregateForCell), so a pinned snapshot can be queried
/// directly and repeatedly with bitwise-stable answers while newer versions
/// are published underneath — the contract the concurrent update stress
/// suite asserts.
struct BlockState {
  BlockHeader header;
  size_t num_columns = 0;

  /// True only for the eviction tombstone a lazily opened BlockSet
  /// publishes when a shard is dropped back to "mapped, not
  /// materialized" (and for the initial shell of a never-materialized
  /// lazy shard). A tombstone holds empty arrays, so every query method
  /// on it folds nothing — readers that can fault the shard back in
  /// (BlockSet) check this flag and re-materialize instead of answering
  /// from it; pinned snapshots of *real* versions are unaffected
  /// (eviction unpublishes, it never frees in place). Successor-building
  /// commits always clear the flag.
  bool evicted = false;

  /// Parallel arrays, one entry per non-empty grid cell, ascending by cell
  /// id. Each array is individually refcounted so a clone-patch-publish
  /// update copies only the arrays it changes (an in-place aggregate patch
  /// shares an owned `cells`, which it never touches). An array owns a heap
  /// vector (build, update commits) or is a view of the payload the state
  /// was decoded from (a lazily opened set's mapping, or a read buffer),
  /// which it keeps alive. Every array of a committed update is owned.
  CellArray<uint64_t> cells;
  CellArray<uint32_t> offsets;
  CellArray<uint32_t> counts;
  CellArray<uint64_t> min_keys;
  CellArray<uint64_t> max_keys;
  CellArray<ColumnAggregate> column_aggs;

  /// @return Number of (non-empty) cell aggregates in this version.
  size_t num_cells() const { return cells.size(); }

  /// @param idx Cell-aggregate index.
  /// @return The per-column aggregates of the idx-th cell.
  const ColumnAggregate* cell_columns(size_t idx) const {
    return column_aggs.data() + idx * num_columns;
  }

  /// Constant-time pre-check: can `cell`, at or above the state's level
  /// (clamp a finer cell first), overlap this state at all?
  bool MayOverlap(cell::CellId cell) const {
    return !cells.empty() && cell.RangeMax().id() >= header.min_cell &&
           cell.RangeMin().id() <= header.max_cell;
  }

  /// A run [begin, end) of cell-aggregate indices.
  struct CellRun {
    size_t begin = 0;
    size_t end = 0;
  };

  /// The probe of a covering is one forward cursor over the cell-aggregate
  /// array. A fold takes the slice of the covering this version can answer,
  /// seeds the cursor once, then hands every cell of the slice (or, for a
  /// cached fold, the cells and trie-miss children it does not answer from
  /// the cache) to NextRun in ascending order. SELECT, COUNT and the cached
  /// fold (GeoBlockQC::CombineCovering) all probe this way.
  ///
  /// The slice of an ascending, disjoint covering whose cells overlap
  /// [min_cell, max_cell] (Listing 1, lines 5-6): it starts at the first
  /// cell whose range reaches the min_cell grid cell and stops before the
  /// first cell whose range starts past the max_cell grid cell. Empty for a
  /// state without cells. Seeds `*cursor` with one binary search: the index
  /// of the first aggregate at or after the slice's first cell.
  std::span<const cell::CellId> CoveringSlice(
      std::span<const cell::CellId> covering, size_t* cursor) const;

  /// The run of cell aggregates contained in `qcell`, found by galloping
  /// forward from `*cursor`, which then moves to the run's end — also when
  /// the run is empty. A cell finer than the block level is clamped to its
  /// grid cell, so a second cell of the same grid cell finds an empty run
  /// and every aggregate is folded at most once. Requires that `*cursor`
  /// not pass the first aggregate of `qcell`: the cells of one slice, in
  /// ascending order, from the seeded cursor.
  CellRun NextRun(cell::CellId qcell, size_t* cursor) const;

  /// Inner loop of the SELECT algorithm for one covering cell (Listing 1):
  /// folds NextRun's run into `acc` as one batched strided scan.
  void CombineCell(cell::CellId qcell, Accumulator* acc, size_t* cursor) const;

  /// SELECT over a pre-computed covering, folded into `acc`.
  void CombineCovering(std::span<const cell::CellId> covering,
                       Accumulator* acc) const;

  /// SELECT over a pre-computed covering.
  QueryResult SelectCovering(std::span<const cell::CellId> covering,
                             const AggregateRequest& request) const;

  /// COUNT over a pre-computed covering: the runs SELECT folds, each summed
  /// from its first and last aggregate's offsets (Listing 2 range sums), so
  /// it equals SELECT's count for any ascending, disjoint covering.
  uint64_t CountCovering(std::span<const cell::CellId> covering) const;

  /// Full aggregate (count + every column) of all grid cells contained in
  /// `cell`; used to materialize trie cache entries.
  AggregateVector AggregateForCell(cell::CellId cell) const;

  /// Bytes used by the cell aggregates of this version.
  size_t CellAggregateBytes() const;
};

/// Writer-side recycling slot for retired BlockState versions. Every update
/// commit clones the touched aggregate arrays; without reuse the steady
/// state allocates (and frees) one BlockState plus four or five large
/// vectors per commit. The block's SnapshotCell retire hook hands each
/// retired version here once its grace period has drained; the next commit
/// takes it back — control block, state node, and the member arrays' heap
/// buffers included — via const_pointer_cast, which is sound because a
/// SoleOwner reference is provably the only one (nobody else can copy a
/// shared_ptr they don't hold). One commit retires one version, so one
/// slot suffices, and it bounds the bytes parked outside MemoryBytes and
/// the governor's charge to one retired version per block.
///
/// All entry points are writer-side (commits to one block are externally
/// serialized, and the retire hook runs inside the writer's Publish), so no
/// internal locking is needed.
class StateArena {
 public:
  /// Offers a retired version for reuse, replacing any older spare.
  /// Versions still pinned by a StateSnapshot holder (use_count > 1) are
  /// dropped, not recycled, and so are decoded versions whose cell ids
  /// are a view: their arrays have no heap vectors to hand on, and parking
  /// one would pin the bytes it was decoded from.
  void Recycle(std::shared_ptr<const BlockState> state) {
    if (state.use_count() == 1 &&
        (state->cells.owned() || state->cells.empty())) {
      spare_ = std::move(state);
    }
  }

  /// A mutable state node for the next commit: the recycled version when
  /// it is free (its member arrays keep their heap buffers), else a fresh
  /// one.
  std::shared_ptr<BlockState> Acquire() {
    std::shared_ptr<const BlockState> s = std::move(spare_);
    if (SoleOwner(s)) return std::const_pointer_cast<BlockState>(std::move(s));
    return std::make_shared<BlockState>();
  }

  /// Drops the spare. Eviction calls this after unpublishing a shard: the
  /// point of evicting is reclaiming bytes, and a retired multi-megabyte
  /// version parked here would defeat it.
  void Clear() { spare_.reset(); }

 private:
  std::shared_ptr<const BlockState> spare_;
};

/// A GeoBlock: a materialized view over geospatial point data that stores
/// one *cell aggregate* per non-empty grid cell, sorted by spatial key
/// (Section 3.4), and answers spatial aggregation queries over arbitrary
/// polygons from those aggregates alone (Section 3.5).
///
/// Cell aggregates are stored column-wise: parallel arrays of cell id, base
/// data offset, tuple count, min/max contained leaf key, and a flat array
/// of per-column min/max/sum.
///
/// ## MVCC aggregate state
///
/// The aggregate arrays and the global header live in an immutable,
/// refcounted BlockState published through a util::SnapshotCell. Query
/// entry points pin exactly one state version per call, so SELECT/COUNT
/// are `const`, lock-free, and safe concurrently with `ApplyBatchUpdate` —
/// writers commit a cloned-and-patched
/// successor with one epoch swap and never block readers. Writers must be
/// serialized externally (BlockSet's per-shard commit locks, or a single
/// updating thread). `StateSnapshot()` hands out an owning reference whose
/// query answers stay bitwise-stable forever, regardless of later updates.
///
/// The raw-array accessors (`cells()`, `offsets()`, `header()`, ...) read
/// the currently published version without pinning; they are for
/// writer-quiesced use (tests, serialization, benches) and must not race a
/// concurrent publish — concurrent readers go through the query methods or
/// StateSnapshot().
///
/// ## Base-data attachment
///
/// A block needs its base rows only to *refine* (CoarsenTo to a finer
/// level); every query runs off the aggregates alone. Freshly built blocks
/// hold a live DatasetView; deserialized blocks hold an empty one and
/// throw std::logic_error on refinement until AttachData re-binds a view
/// (normally via BlockSet::AttachDataset, which validates the dataset
/// against the persisted manifest first). DetachData returns the block to
/// the self-contained state.
class GeoBlock {
 public:
  GeoBlock();

  /// Copies share the (immutable) current state version — cheap, and the
  /// copy's future updates never affect the original. Quiesced-only, like
  /// the raw accessors.
  GeoBlock(const GeoBlock& other);
  GeoBlock& operator=(const GeoBlock& other);
  /// Moved-from blocks are valid only for destruction and reassignment.
  GeoBlock(GeoBlock&& other) noexcept = default;
  GeoBlock& operator=(GeoBlock&& other) noexcept = default;
  ~GeoBlock() = default;

  /// Builds a GeoBlock from a window of sorted base data in a single
  /// linear pass (the *build* phase of Figure 5). The block keeps the view
  /// — and, when the view owns its parent, the base data itself — alive
  /// for refinement (CoarsenTo to a finer level rebuilds from the rows).
  ///
  /// @param data    Window of sorted rows to aggregate.
  /// @param options Grid level and filter predicates for the build pass.
  /// @return The built block.
  /// @throws std::invalid_argument if options.level is outside
  ///     [0, CellId::kMaxLevel].
  static GeoBlock Build(storage::DatasetView data, const BlockOptions& options);

  /// Convenience overload over a whole, caller-owned dataset: the block
  /// borrows `data`, which must stay alive (and in place) as long as the
  /// block may need its rows. Prefer building from an owning DatasetView.
  ///
  /// @param data    Dataset to aggregate (borrowed, not copied).
  /// @param options Grid level and filter predicates for the build pass.
  /// @return The built block.
  static GeoBlock Build(const storage::SortedDataset& data,
                        const BlockOptions& options) {
    return Build(storage::DatasetView::Unowned(data), options);
  }

  /// Derives a block at another level. Coarsening (level < level()) merges
  /// the existing cell aggregates without touching base data (Section 3.4,
  /// "Aggregate Granularity"); refining (level > level()) rebuilds from
  /// the base rows under the block's own filter.
  ///
  /// @param level Target grid level.
  /// @return A block at `level` over the same data and filter.
  /// @throws std::logic_error when refining without attached base data
  ///     (a deserialized or detached block).
  GeoBlock CoarsenTo(int level) const;

  /// The block-wide header of the currently published state (level, key
  /// range, global aggregate). Writer-quiesced accessor: the reference is
  /// invalidated by the next update commit.
  ///
  /// @return The current header.
  const BlockHeader& header() const { return CurrentState()->header; }
  /// @return The block's grid level (immutable).
  int level() const { return level_; }
  /// @return Number of (non-empty) cell aggregates (writer-quiesced).
  size_t num_cells() const { return CurrentState()->num_cells(); }
  /// @return Number of attribute columns aggregated per cell.
  size_t num_columns() const { return num_columns_; }

  /// Pins the currently published aggregate state: an owning, immutable
  /// version whose query answers are bitwise-stable for as long as the
  /// caller holds it, across any number of concurrent update commits
  /// (holding it never blocks a writer; it only keeps the version alive).
  ///
  /// @return The current state version (never null).
  std::shared_ptr<const BlockState> StateSnapshot() const {
    return state_->SnapshotShared();
  }

  /// Number of state versions retired so far (a version is retired when an
  /// update commit's grace period ends). Observability for the MVCC write
  /// plane; exact once writers quiesce.
  uint64_t retired_states() const {
    return retired_->load(std::memory_order_relaxed);
  }

  /// The base-data window the block was built over. An empty view (no
  /// parent) for deserialized or detached blocks, which are self-contained.
  /// Owning views keep the parent dataset alive, so the accessor can never
  /// dangle even if the dataset's original handle (e.g. a moved
  /// ShardedDataset) is gone.
  ///
  /// @return The block's view of its base rows (possibly empty).
  const storage::DatasetView& dataset() const { return data_; }
  /// Projection used to map query polygons onto the unit square (copied
  /// from the dataset at build time so a deserialized block is
  /// self-contained).
  ///
  /// @return The block's projection.
  const geo::Projection& projection() const { return projection_; }

  /// Filter predicates the block was built with (empty = all rows). Kept —
  /// and persisted (format v2, docs/FORMAT.md) — so refinement re-applies
  /// the same predicate set to the base rows.
  ///
  /// @return The build-time filter.
  const storage::Filter& filter() const { return filter_; }

  /// Re-binds base data to a block whose view is empty (deserialized, or
  /// after DetachData), restoring refinement. The caller is responsible
  /// for passing the rows the block was actually built over — prefer
  /// BlockSet::AttachDataset, which validates against the persisted
  /// manifest before attaching shard windows.
  ///
  /// @param view Window of the original base rows.
  /// @throws std::logic_error when the block already has attached data
  ///     (DetachData first).
  /// @throws std::runtime_error when the view's column count does not
  ///     match the block's.
  void AttachData(storage::DatasetView view);

  /// Drops the base-data view (and with it the block's co-ownership of
  /// the rows). Queries keep working; refinement throws until the next
  /// AttachData. No-op on an already-detached block.
  void DetachData() { data_ = storage::DatasetView(); }

  /// Computes the covering of a (lat/lng) query polygon for this block.
  ///
  /// @param polygon Query polygon.
  /// @return Sorted, disjoint covering cells no finer than level().
  std::vector<cell::CellId> Cover(const geo::Polygon& polygon) const;

  /// SELECT query over an arbitrary polygon (Listing 1): covers the polygon
  /// and combines the contained cell aggregates. Pins one state version
  /// for the whole covering; lock-free and safe concurrently with updates.
  ///
  /// @param polygon Query polygon.
  /// @param request Aggregates to extract.
  /// @return One value per requested aggregate plus the tuple count.
  QueryResult Select(const geo::Polygon& polygon,
                     const AggregateRequest& request) const;

  /// SELECT over a pre-computed covering (one pinned state version).
  ///
  /// @param covering Covering cells, ascending and disjoint.
  /// @param request  Aggregates to extract.
  /// @return One value per requested aggregate plus the tuple count.
  QueryResult SelectCovering(std::span<const cell::CellId> covering,
                             const AggregateRequest& request) const;

  /// Specialized COUNT query (Listing 2): per covering cell, a range sum
  /// over only the first and last contained cell aggregate.
  ///
  /// @param polygon Query polygon.
  /// @return Number of tuples in covered cells.
  uint64_t Count(const geo::Polygon& polygon) const;
  /// COUNT over a pre-computed covering (one pinned state version).
  ///
  /// @param covering Covering cells, ascending and disjoint.
  /// @return Number of tuples in covered cells.
  uint64_t CountCovering(std::span<const cell::CellId> covering) const;

  /// Full aggregate (count + every column) of all grid cells contained in
  /// `cell`; used to materialize trie cache entries.
  ///
  /// @param cell The (coarse) cell to aggregate.
  /// @return Combined aggregate of every contained cell.
  AggregateVector AggregateForCell(cell::CellId cell) const;

  /// One newly arriving tuple (Section 5, Updates).
  struct UpdateTuple {
    geo::Point location;          ///< lat/lng of the new point
    std::vector<double> values;   ///< one value per schema column
  };

  /// Outcome of a batch update.
  struct UpdateResult {
    size_t applied = 0;  ///< tuples committed (every tuple of the slice)
  };

  /// Integrates newly arriving tuples (Section 5) in one commit: a tuple
  /// whose grid cell already has a cell aggregate updates that aggregate
  /// (and the global header); a tuple for a new region gets a fresh cell
  /// aggregate, slotted into the sorted layout by one linear merge (the
  /// paper's rebuild for new cells, with no base-row rescan). Every tuple
  /// folds into its cell with ColumnAggregate::Add in batch order, so a
  /// batch is bit-identical to its tuples committed one at a time. Offsets
  /// are fixed in a single pass over the patched version, so COUNT range
  /// sums stay exact.
  ///
  /// MVCC commit: the current state is cloned (only the touched arrays —
  /// an all-in-cell batch shares the cell-id array, and the base-data view
  /// is never copied), patched with the whole batch, and published with
  /// one epoch swap. Readers concurrently pinning snapshots see the
  /// pre-batch or the post-batch version, never a torn one. An empty batch
  /// publishes nothing — the state pointer is unchanged. Writers must be
  /// externally serialized (BlockSet's per-shard commit locks).
  ///
  /// Note: updates apply to the materialized view only; the block
  /// intentionally diverges from its (historical) base data, mirroring the
  /// paper's design where updates patch the aggregate layout.
  ///
  /// The all-in-cell commit is allocation-free in the steady state: the
  /// classification scratch is thread-local, and the successor state —
  /// node, control block, and cloned arrays — is recycled from retired
  /// versions through the block's StateArena.
  ///
  /// @param batch  The arriving tuples.
  /// @param subset Optional ascending indices into `batch` selecting the
  ///     tuples this block should commit (a sharded caller routes one batch
  ///     to many blocks without copying tuples). Empty means the whole
  ///     batch.
  /// @return Count of committed tuples.
  UpdateResult ApplyBatchUpdate(std::span<const UpdateTuple> batch,
                                std::span<const uint32_t> subset = {});

  /// Bytes used by the cell aggregates (the reference size for the cache's
  /// aggregate threshold, Section 4.3). Pins the current version; safe
  /// concurrently with updates.
  ///
  /// @return Cell-aggregate bytes.
  size_t CellAggregateBytes() const;

  /// @return Total bytes of the block (header + cell aggregates).
  size_t MemoryBytes() const;

  /// Persists the block in a self-contained binary payload (format v3,
  /// docs/FORMAT.md: magic, version, level, schema width, projection
  /// domain, key range, global aggregate, the parallel cell-aggregate
  /// arrays, and the build filter; every array starts on an 8-byte
  /// boundary of the payload). GeoBlocks are materialized views;
  /// storing them avoids re-extracting on restart. The payload does not
  /// reference the base data, so a loaded block answers SELECT/COUNT but
  /// cannot refine until data is re-attached (AttachData). The currently
  /// published state version is written — a block that received updates
  /// persists the updated aggregates (see docs/FORMAT.md on
  /// re-serialization after updates).
  ///
  /// @param out Destination stream (open in binary mode).
  /// @throws std::runtime_error on a big-endian host (the format is
  ///     little-endian).
  void WriteTo(std::ostream& out) const;

  /// Loads the block WriteTo wrote (format v3, the only one read) from
  /// the front of `bytes`, without copying it: every cell array is a view
  /// of `bytes`, which `owner` keeps alive for as long as any state
  /// version shares the array. Every array length is checked against the
  /// bytes that remain.
  ///
  /// @param owner    Keeps `bytes` alive (a mapping, a read buffer such as
  ///     serialize::NewPayloadBuffer's).
  /// @param bytes    The payload, possibly followed by other bytes; must
  ///     start on an 8-byte boundary in memory.
  /// @param consumed Receives the payload's length in bytes.
  /// @return The loaded, self-contained block (empty DatasetView).
  /// @throws std::runtime_error on `bytes` that are not 8-aligned, bad
  ///     magic, a version other than 3, a level outside
  ///     [0, CellId::kMaxLevel], truncation, a non-zero pad byte, or
  ///     inconsistent array lengths.
  static GeoBlock ReadFrom(std::shared_ptr<const void> owner,
                           std::string_view bytes, size_t* consumed);

  /// WriteTo for an explicitly pinned state version: BlockSet::WriteTo
  /// pins each shard's state once and serializes exactly that version, so
  /// the payload and the manifest row count can never disagree even with
  /// concurrent eviction/re-fault traffic. `state` must be a (current or
  /// pinned) version of *this* block and must not be a tombstone.
  ///
  /// @param out   Destination stream (open in binary mode).
  /// @param state The version to persist.
  void WriteStateTo(std::ostream& out, const BlockState& state) const;

  // -- Materialization plane (BlockSet::ReadFrom / OpenMapped machinery) --
  //
  // A loaded set constructs its shard GeoBlocks as empty shells whose
  // published state is a tombstone (`BlockState::evicted`), then
  // materializes each shard — at load (ReadFrom) or on first route
  // (OpenMapped) — by deserializing its payload and publishing the
  // loaded state INTO the existing block. The block object, its
  // SnapshotCell, and the pointers GeoBlockQC and concurrent readers
  // hold all stay valid. Both calls below are state-cell writes
  // and must obey the external-serialization contract BlockSet provides
  // (per-shard writer/residency locks; see docs/ARCHITECTURE.md §Memory
  // governance for the exact lock pairing).

  /// Publishes `loaded`'s state (a GeoBlock::ReadFrom result) through
  /// this block's cell. With `adopt_config` (first materialization) the
  /// scalar configuration — level, schema width, projection, filter — is
  /// copied too; a re-fault after eviction passes false, because the
  /// configuration is immutable once readers may be looking at it (the
  /// manifest cross-checks guarantee the re-loaded values are identical
  /// anyway).
  ///
  /// @param loaded       The freshly deserialized block (consumed).
  /// @param adopt_config True on first materialization only.
  void AdoptDeserialized(GeoBlock&& loaded, bool adopt_config);

  /// Drops the shard back to "mapped, not materialized": publishes an
  /// eviction tombstone through the normal SnapshotCell swap, so the
  /// grace period retires (frees) the old version only after every
  /// pinned reader drains — never free-in-place.
  void EvictState();

  // Raw cell-aggregate accessors (tests, serialization, the trie builder —
  // writer-quiesced use only; see the class comment).
  const CellArray<uint64_t>& cells() const { return CurrentState()->cells; }
  const CellArray<uint32_t>& offsets() const {
    return CurrentState()->offsets;
  }
  const CellArray<uint32_t>& counts() const { return CurrentState()->counts; }
  const ColumnAggregate* cell_columns(size_t idx) const {
    return CurrentState()->cell_columns(idx);
  }
  uint64_t cell_min_key(size_t idx) const {
    return CurrentState()->min_keys[idx];
  }
  uint64_t cell_max_key(size_t idx) const {
    return CurrentState()->max_keys[idx];
  }

 private:
  /// Raw pointer to the currently published state. Writer-quiesced: must
  /// not race a concurrent Publish (concurrent readers pin instead).
  const BlockState* CurrentState() const { return state_->WriterPeek(); }

  /// Installs a freshly built state (build/load/copy paths, before any
  /// reader can see the block).
  void InstallState(std::shared_ptr<const BlockState> state);

  storage::DatasetView data_;
  storage::Filter filter_;
  geo::Projection projection_;
  int level_ = 0;
  size_t num_columns_ = 0;

  /// The MVCC plane: the currently published aggregate state. unique_ptr
  /// keeps the cell's address stable across block moves; the retire
  /// counter is shared with the cell's retire hook.
  std::unique_ptr<util::SnapshotCell<BlockState>> state_;
  std::shared_ptr<std::atomic<uint64_t>> retired_;
  /// Recycles retired state versions into the next commit (shared with the
  /// cell's retire hook, which outlives any single cell instance).
  std::shared_ptr<StateArena> arena_;
};

}  // namespace geoblocks::core
