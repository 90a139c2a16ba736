#pragma once

#include <array>
#include <cstdint>
#include <span>
#include <vector>

#include "cell/cell_id.h"
#include "core/aggregate.h"
#include "core/geoblock.h"

namespace geoblocks::core {

/// The trie-like query cache of Section 3.6 (Figure 7): pre-aggregated
/// answers for frequently queried cells, stored in one contiguous memory
/// region ("in-place with the cell aggregates").
///
/// Layout of the arena:
///   [8 reserved bytes][root node][4-node child blocks ...][aggregates ...]
///
/// A node is two 32-bit integers: the byte offset of its first child (the
/// children of a node are always allocated as one contiguous block of four
/// nodes) and the byte offset of its cached aggregate; 0 encodes "n/a".
/// The root corresponds to the cell level that encloses the input data;
/// each following trie level encodes exactly one cell level (fanout 4).
///
/// A cached aggregate is `8 + 24 * num_columns` bytes: a uint64 tuple count
/// followed by (min, max, sum) doubles per column.
///
/// ## Const-probe contract (frozen tries)
///
/// The probe API (`Lookup`, `DirectChildren`, `Combine`, `IsCached`) never
/// mutates the trie, so any number of threads may probe one instance
/// concurrently *as long as no mutator runs*. The mutators are `Build` and
/// `ApplyTupleUpdate` — neither is safe against concurrent probes on the
/// *same* instance. The lock-free cached read path (GeoBlockQC) therefore
/// treats every trie as frozen once published: mutation happens only on a
/// private instance (a fresh build or a clone), which is then swapped in
/// behind an atomic `shared_ptr` — readers always probe an immutable
/// snapshot. `Combine`'s internal scratch is thread-local, so concurrent
/// probes of a frozen trie are race-free.
class AggregateTrie {
 public:
  struct BuildResult {
    size_t cached_cells = 0;  ///< cells whose aggregate was materialized
    size_t bytes_used = 0;    ///< total arena bytes (nodes + aggregates)
  };

  AggregateTrie() = default;

  /// Builds the cache for one pinned block state from `ranked` candidate
  /// cells (most relevant first, see QueryStats::RankedCells), inserting
  /// cells until the next one would exceed `byte_budget`. When `previous`
  /// is given (typically the trie being replaced), aggregates of cells it
  /// already caches are copied instead of recomputed from the state — this
  /// makes periodic cache refreshes cheap once the cached set stabilizes.
  /// Taking a BlockState (not a GeoBlock) pins the build to exactly one
  /// MVCC version, so a rebuild racing concurrent update commits still
  /// produces a trie consistent with a single version. Costs one descent
  /// of at most the trie depth per candidate (array loads, no hashing)
  /// plus one breadth-first pass over the allocated child blocks.
  BuildResult Build(const BlockState& state,
                    const std::vector<cell::CellId>& ranked,
                    size_t byte_budget,
                    const AggregateTrie* previous = nullptr);

  /// Convenience overload: builds over the block's currently published
  /// state version.
  BuildResult Build(const GeoBlock& block,
                    const std::vector<cell::CellId>& ranked,
                    size_t byte_budget,
                    const AggregateTrie* previous = nullptr) {
    return Build(*block.StateSnapshot(), ranked, byte_budget, previous);
  }

  /// @return The root cell a build over `state` gets: the lowest cell
  ///     enclosing all of its cells (Section 3.6), or an invalid cell when
  ///     the state has none.
  static cell::CellId RootFor(const BlockState& state);

  bool empty() const { return num_cached_ == 0; }
  size_t num_cached() const { return num_cached_; }
  cell::CellId root_cell() const { return root_cell_; }
  size_t MemoryBytes() const { return arena_.size(); }
  /// @return The raw arena (layout in the class comment).
  std::span<const uint8_t> bytes() const { return arena_; }

  /// Outcome of locating `cell`'s trie node (first two decision points of
  /// Figure 8).
  struct Probe {
    bool node_exists = false;       ///< a node for the cell exists
    uint32_t node_offset = 0;       ///< arena offset of that node
    const uint8_t* agg = nullptr;   ///< cached aggregate, or null
  };

  Probe Lookup(cell::CellId cell) const;

  /// Direct-children inspection for partially cached cells (Figure 8,
  /// bottom-left branch). `exists` is true when the child has a node.
  struct ChildInfo {
    bool exists = false;
    const uint8_t* agg = nullptr;
  };

  std::array<ChildInfo, 4> DirectChildren(uint32_t node_offset) const;

  /// True when the exact cell has a cached aggregate.
  bool IsCached(cell::CellId cell) const { return Lookup(cell).agg != nullptr; }

  /// Folds a cached aggregate into an accumulator.
  void Combine(const uint8_t* agg, Accumulator* acc) const;

  /// Integrates a newly arriving tuple into every cached aggregate on the
  /// path from the root to the tuple's cell (Section 5: "update all cached
  /// parents of the grid cell ... in a single depth-first traversal").
  /// `values` must hold one value per block column. Returns the number of
  /// cached aggregates updated.
  size_t ApplyTupleUpdate(cell::CellId leaf, const double* values);

  /// Tuple count of a cached aggregate.
  static uint64_t CachedCount(const uint8_t* agg);

 private:
  static constexpr uint32_t kRootOffset = 8;
  static constexpr size_t kNodeBytes = 8;
  static constexpr size_t kBlockBytes = 4 * kNodeBytes;

  size_t AggBytes() const { return 8 + 24 * num_columns_; }

  uint32_t ReadU32(size_t offset) const;
  void WriteU32(size_t offset, uint32_t value);

  std::vector<uint8_t> arena_;
  cell::CellId root_cell_;
  size_t num_columns_ = 0;
  size_t num_cached_ = 0;
};

}  // namespace geoblocks::core
