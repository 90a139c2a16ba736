#include "core/aggregate_trie.h"

#include <algorithm>

namespace geoblocks::core {

namespace {

void SortUnique(std::vector<uint64_t>* ids) {
  std::sort(ids->begin(), ids->end());
  ids->erase(std::unique(ids->begin(), ids->end()), ids->end());
}

}  // namespace

cell::CellId AggregateTrie::RootFor(const BlockState& state) {
  if (state.num_cells() == 0) return cell::CellId();
  // The root encloses the block's input data (Section 3.6).
  return cell::CellId::CommonAncestor(cell::CellId(state.header.min_cell),
                                      cell::CellId(state.header.max_cell));
}

AggregateTrie::BuildResult AggregateTrie::Build(
    const BlockState& state, const std::vector<cell::CellId>& ranked,
    size_t byte_budget, const AggregateTrie* previous) {
  ids_.clear();
  counts_.clear();
  column_aggs_.clear();
  num_columns_ = state.num_columns;
  root_cell_ = RootFor(state);
  if (state.num_cells() == 0) return {};

  // Every cached cell costs CellBytes, so the cached set is the first
  // `capacity` distinct ranked cells inside the root.
  const size_t capacity = byte_budget / CellBytes(num_columns_);
  for (const cell::CellId& cand : ranked) {
    if (!root_cell_.Contains(cand)) continue;
    if (ids_.size() == capacity) {
      // A ranking raced by a QueryStats::Clear may list a cell twice:
      // a full set stops the admission only once it is distinct.
      SortUnique(&ids_);
      if (ids_.size() == capacity) break;
    }
    ids_.push_back(cand.id());
  }
  SortUnique(&ids_);

  const size_t n = ids_.size();
  counts_.resize(n);
  column_aggs_.resize(n * num_columns_);
  if (previous != nullptr && previous->num_columns_ != num_columns_) {
    previous = nullptr;
  }
  size_t prev_cursor = 0;
  for (size_t i = 0; i < n; ++i) {
    ColumnAggregate* dst = column_aggs_.data() + i * num_columns_;
    if (previous != nullptr) {
      // Cheap refresh: a cell the previous cache holds keeps its payload
      // (update commits patch the published cache in the same writer
      // critical section that publishes the block state, so the previous
      // cache is always consistent with the pinned state). Both id arrays
      // ascend, so one forward cursor finds every such cell.
      const std::vector<uint64_t>& prev_ids = previous->ids_;
      prev_cursor = kernels::GallopLowerBoundU64(
          prev_ids.data(), prev_ids.size(), prev_cursor, ids_[i]);
      if (prev_cursor < prev_ids.size() && prev_ids[prev_cursor] == ids_[i]) {
        counts_[i] = previous->counts_[prev_cursor];
        std::copy_n(previous->column_aggs_.data() + prev_cursor * num_columns_,
                    num_columns_, dst);
        continue;
      }
    }
    const AggregateVector agg = state.AggregateForCell(cell::CellId(ids_[i]));
    counts_[i] = agg.count;
    std::copy(agg.columns.begin(), agg.columns.end(), dst);
  }
  return {n, MemoryBytes()};
}

size_t AggregateTrie::ApplyTupleUpdate(cell::CellId leaf,
                                       const double* values) {
  if (ids_.empty() || !root_cell_.Contains(leaf)) return 0;
  size_t updated = 0;
  // Walk from the root towards the leaf, keeping the run of cached cells
  // inside the current ancestor (a sub-run of its parent's), and patch
  // every ancestor that is cached itself: each contains the new tuple.
  const uint64_t* ids = ids_.data();
  BlockState::CellRun run{0, ids_.size()};
  for (int level = root_cell_.level(); level <= leaf.level(); ++level) {
    const cell::CellId cell = leaf.Parent(level);
    run.begin += kernels::LowerBoundU64(ids + run.begin, run.end - run.begin,
                                        cell.RangeMin().id());
    run.end = run.begin + kernels::UpperBoundU64(ids + run.begin,
                                                 run.end - run.begin,
                                                 cell.RangeMax().id());
    if (run.begin == run.end) break;  // nothing cached this deep
    const size_t i = Find(cell, run);
    if (i == run.end) continue;
    ++counts_[i];
    ColumnAggregate* cols = column_aggs_.data() + i * num_columns_;
    for (size_t c = 0; c < num_columns_; ++c) cols[c].Add(values[c]);
    ++updated;
  }
  return updated;
}

}  // namespace geoblocks::core
