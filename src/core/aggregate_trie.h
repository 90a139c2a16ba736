#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "cell/cell_id.h"
#include "core/aggregate.h"
#include "core/geoblock.h"
#include "core/scan_kernels.h"

namespace geoblocks::core {

/// The query cache of Section 3.6: pre-aggregated answers for frequently
/// queried cells inside the root cell (the lowest cell enclosing the
/// block's data).
///
/// Layout: three parallel arrays sorted by cell id — `ids`, `counts` and
/// `column_aggs` (`num_columns` (min, max, sum) triples per cell), the same
/// shape as the block state's own cell aggregates. This deviates from
/// Figure 7, which stores the cached cells in a pointer trie of 4-node
/// child blocks: a reader here finds "the cached cells inside a covering
/// cell" the way it finds the stored ones, with a galloping cursor
/// (NextRun), because the cells contained in a cell are exactly the ids in
/// its range [RangeMin, RangeMax] (an ancestor's id never falls in a
/// descendant's range). Figure 8's decisions read off that run: empty is a
/// miss, the cell's own id is a full hit, and otherwise its four direct
/// children decide a partial hit. With no nodes, every cached cell costs
/// a constant CellBytes.
///
/// ## Const-probe contract (frozen caches)
///
/// The probe API (`NextRun`, `Find`, `Combine`, `IsCached`) never mutates
/// the cache, so any number of threads may probe one instance concurrently
/// *as long as no mutator runs*. The mutators are `Build` and
/// `ApplyTupleUpdate`. The lock-free cached read path (GeoBlockQC)
/// therefore treats every instance as frozen once published: mutation
/// happens only on a private instance (a fresh build or a clone), which is
/// then swapped in behind a snapshot cell — readers always probe an
/// immutable snapshot.
class AggregateTrie {
 public:
  struct BuildResult {
    size_t cached_cells = 0;  ///< cells whose aggregate was materialized
    size_t bytes_used = 0;    ///< MemoryBytes of the built cache
  };

  AggregateTrie() = default;

  /// Builds the cache for one pinned block state from `ranked` candidate
  /// cells (most relevant first, see QueryStats::RankedCells): admits the
  /// distinct ranked cells inside the root until the next one would exceed
  /// `byte_budget`, i.e. the first ⌊byte_budget / CellBytes⌋ of them.
  /// When `previous` is given (typically the cache being replaced),
  /// aggregates of cells it already caches are copied instead of
  /// recomputed from the state — this makes periodic cache refreshes cheap
  /// once the cached set stabilizes. Taking a BlockState (not a GeoBlock)
  /// pins the build to exactly one MVCC version, so a rebuild racing
  /// concurrent update commits still produces a cache consistent with a
  /// single version.
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

  /// @return Bytes one cached cell costs: its id and tuple count plus a
  ///     (min, max, sum) triple per column.
  static constexpr size_t CellBytes(size_t num_columns) {
    return 2 * sizeof(uint64_t) + num_columns * sizeof(ColumnAggregate);
  }

  bool empty() const { return ids_.empty(); }
  size_t num_cached() const { return ids_.size(); }
  size_t num_columns() const { return num_columns_; }
  cell::CellId root_cell() const { return root_cell_; }
  size_t MemoryBytes() const { return ids_.size() * CellBytes(num_columns_); }

  /// The three parallel arrays (layout in the class comment).
  std::span<const uint64_t> ids() const { return ids_; }
  std::span<const uint64_t> counts() const { return counts_; }
  std::span<const ColumnAggregate> column_aggs() const { return column_aggs_; }

  /// The run of cached cells contained in `cell` (itself included), found
  /// by galloping forward from `*cursor`, which then moves to the run's
  /// end. Requires that `*cursor` not pass the run's first cell: cells
  /// probed in ascending, disjoint order from a cursor of 0.
  BlockState::CellRun NextRun(cell::CellId cell, size_t* cursor) const {
    const uint64_t* ids = ids_.data();
    const size_t n = ids_.size();
    BlockState::CellRun run;
    run.begin =
        kernels::GallopLowerBoundU64(ids, n, *cursor, cell.RangeMin().id());
    run.end =
        kernels::GallopUpperBoundU64(ids, n, run.begin, cell.RangeMax().id());
    *cursor = run.end;
    return run;
  }

  /// @return The index of exactly `cell` within `run`, or `run.end` when
  ///     it is not cached there.
  size_t Find(cell::CellId cell, BlockState::CellRun run) const {
    const size_t i =
        run.begin + kernels::LowerBoundU64(ids_.data() + run.begin,
                                           run.end - run.begin, cell.id());
    return i < run.end && ids_[i] == cell.id() ? i : run.end;
  }
  /// @return The index of exactly `cell`, or num_cached() when it is not
  ///     cached.
  size_t Find(cell::CellId cell) const { return Find(cell, {0, ids_.size()}); }

  /// True when the exact cell has a cached aggregate.
  bool IsCached(cell::CellId cell) const { return Find(cell) != ids_.size(); }

  /// Folds the aggregate of the i-th cached cell into an accumulator.
  void Combine(size_t i, Accumulator* acc) const {
    acc->AddAggregate(counts_[i], column_aggs_.data() + i * num_columns_);
  }

  /// Integrates a newly arriving tuple into every cached cell containing
  /// its leaf cell (Section 5: "update all cached parents of the grid
  /// cell"): one lookup of the leaf's ancestor per level, from the root
  /// down to the deepest level with cached cells inside that ancestor.
  /// `values` must hold one value per block column. Returns the number of
  /// cached aggregates updated.
  size_t ApplyTupleUpdate(cell::CellId leaf, const double* values);

 private:
  std::vector<uint64_t> ids_;
  std::vector<uint64_t> counts_;
  std::vector<ColumnAggregate> column_aggs_;
  cell::CellId root_cell_;
  size_t num_columns_ = 0;
};

}  // namespace geoblocks::core
