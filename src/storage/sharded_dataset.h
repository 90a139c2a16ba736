#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <span>
#include <utility>
#include <vector>

#include "cell/cell_id.h"
#include "storage/dataset_view.h"
#include "storage/sorted_dataset.h"

namespace geoblocks::storage {

struct ShardOptions {
  /// Number of shards K to cut the dataset into. Shards are contiguous
  /// Hilbert-key ranges, so every shard is itself a valid sorted dataset
  /// window; each holds the same number of distinct `align_level` cells,
  /// to within one. Must be >= 1 (Partition throws std::invalid_argument).
  size_t num_shards = 4;
  /// The level whose distinct cells Partition counts and cuts at: no cell
  /// at `align_level` (or any finer level) spans two shards. Blocks built
  /// over the shards at a level >= align_level therefore never split a
  /// cell aggregate across shards, which keeps sharded query results
  /// bit-identical to a single-block execution. Use the (coarsest) block
  /// level you intend to build. Must be in [0, cell::CellId::kMaxLevel]
  /// (Partition throws std::invalid_argument).
  int align_level = 17;
};

/// Index of the shard whose boundary range [boundaries[i], boundaries[i+1])
/// contains `key`, given the K+1 ascending boundary keys of a partition
/// (ShardedDataset::boundaries(), or a persisted BlockSet manifest). Keys
/// below boundaries[0] clamp to shard 0 and keys at or above the last
/// boundary clamp to shard K-1, so every leaf key routes to exactly one
/// shard — the routing rule shared by the partitioner and the update
/// plane's tuple router.
///
/// @param boundaries K+1 ascending boundary keys (K >= 1).
/// @param key        A leaf-cell Hilbert key.
/// @return The owning shard index, in [0, K).
size_t ShardForKey(std::span<const uint64_t> boundaries, uint64_t key);

/// A SortedDataset partitioned into K contiguous Hilbert-key ranges — the
/// storage side of the sharded query engine. Because the space-filling
/// curve preserves locality, each shard covers a compact spatial region,
/// and the per-shard key ranges (`boundaries()`) stay selective for query
/// routing.
///
/// Partitioning is zero-copy: each shard is a DatasetView (offset + length
/// + shared_ptr) over the single parent dataset, so Partition costs O(K)
/// metadata and no row is ever duplicated. Use DatasetView::Materialize /
/// SortedDataset::Slice when an owning copy of a shard is genuinely needed.
///
/// The partition exports exactly the fields the persistent BlockSet
/// manifest records (docs/FORMAT.md): `boundaries()` gives the per-shard
/// Hilbert-key ranges, each shard view carries its `(offset, num_rows)`
/// window, and `align_level()` preserves the alignment contract across a
/// save/load cycle.
class ShardedDataset {
 public:
  ShardedDataset() = default;

  /// Cuts `data` into `options.num_shards` = K contiguous key ranges by
  /// distinct cells: with C distinct `options.align_level` cells, shard i
  /// holds cell ranks [floor(iC/K), floor((i+1)C/K)), so floor(C/K) or
  /// ceil(C/K) cells, and starts at the first row of its first cell. A
  /// block built at align_level stores one aggregate per cell, so its
  /// bytes, its MemoryGovernor charge and its query-cache budget are even
  /// across shards; row counts are not (dense cells hold many rows). With
  /// C < K some shards are empty; they are kept so shard indices remain
  /// stable, and their repeated boundary keys route no key to them except
  /// shard 0, which owns every key below the first cell. Reads the keys
  /// about once and keeps one cell count per 1,024 rows while it cuts; the
  /// result holds O(K) metadata. The shards co-own `data`, so the rows stay
  /// alive for as long as any shard view (or any GeoBlock built from one)
  /// exists.
  ///
  /// @param data    The sorted dataset to partition (co-owned by the shards).
  /// @param options Shard count and boundary alignment level.
  /// @return The partitioned dataset.
  /// @throws std::invalid_argument for a null `data`, num_shards == 0, or
  ///     an align_level outside [0, cell::CellId::kMaxLevel].
  static ShardedDataset Partition(std::shared_ptr<const SortedDataset> data,
                                  const ShardOptions& options);

  /// Takes ownership of `data` by move, then partitions as above. Options
  /// are validated before the move, so a throwing call leaves `data`
  /// untouched in the caller's hands.
  ///
  /// @param data    The sorted dataset to consume and partition.
  /// @param options Shard count and boundary alignment level.
  /// @return The partitioned dataset (sole owner of the rows).
  /// @throws std::invalid_argument as the shared_ptr overload.
  static ShardedDataset Partition(SortedDataset&& data,
                                  const ShardOptions& options);

  /// Non-owning partition: the shard views borrow `data`, which the caller
  /// must keep alive (and in place) for the lifetime of the shards and of
  /// anything built from them. Prefer the shared_ptr overload; this exists
  /// for callers whose dataset is owned elsewhere (tests, benches).
  ///
  /// @param data    The sorted dataset to partition (borrowed).
  /// @param options Shard count and boundary alignment level.
  /// @return The partitioned dataset (views do not own the rows).
  /// @throws std::invalid_argument as the shared_ptr overload.
  static ShardedDataset Partition(const SortedDataset& data,
                                  const ShardOptions& options);

  /// @return Number of shards K.
  size_t num_shards() const { return views_.size(); }
  /// @param i Shard index in [0, num_shards()).
  /// @return The i-th shard's zero-copy view.
  const DatasetView& shard(size_t i) const { return views_[i]; }
  /// @return All shard views, in ascending key order.
  const std::vector<DatasetView>& shards() const { return views_; }

  /// The single dataset all shards window into (null for a default-
  /// constructed ShardedDataset; non-owning for the borrow overload).
  ///
  /// @return Shared handle to the parent dataset.
  const std::shared_ptr<const SortedDataset>& parent() const {
    return parent_;
  }

  /// Leaf-key boundaries: shard i holds rows whose key falls in
  /// [boundaries()[i], boundaries()[i + 1]). Size is num_shards() + 1.
  /// These are the per-shard key ranges the persistent BlockSet manifest
  /// stores.
  ///
  /// @return The boundary keys.
  const std::vector<uint64_t>& boundaries() const { return boundaries_; }

  /// The shard a leaf key routes to under this partition's boundaries.
  ///
  /// @param key A leaf-cell Hilbert key.
  /// @return The owning shard index.
  size_t ShardIndexForKey(uint64_t key) const {
    return ShardForKey(boundaries_, key);
  }

  /// The cell level shard boundaries were snapped to (ShardOptions::
  /// align_level as passed to Partition).
  ///
  /// @return The alignment level; -1 for a default-constructed object.
  int align_level() const { return align_level_; }

  /// @return Total rows across all shards (== the parent's row count).
  size_t total_rows() const {
    size_t n = 0;
    for (const DatasetView& v : views_) n += v.num_rows();
    return n;
  }

  /// Bytes the partitioning added on top of the parent dataset: boundary
  /// keys plus K view records. This is what `Partition` actually allocates.
  ///
  /// @return Partitioning metadata bytes.
  size_t PartitionOverheadBytes() const {
    return boundaries_.size() * sizeof(uint64_t) +
           views_.size() * sizeof(DatasetView);
  }

  /// True resident bytes: one shared parent payload plus the partitioning
  /// metadata. The parent is counted once — shards are views, not copies.
  ///
  /// @return Resident bytes of the partitioned dataset.
  size_t MemoryBytes() const {
    return (parent_ ? parent_->MemoryBytes() : 0) + PartitionOverheadBytes();
  }

 private:
  std::shared_ptr<const SortedDataset> parent_;
  std::vector<DatasetView> views_;
  std::vector<uint64_t> boundaries_;
  int align_level_ = -1;
};

}  // namespace geoblocks::storage
