#include "core/block_qc.h"

#include <stdexcept>

namespace geoblocks::core {

QueryResult GeoBlockQC::Select(const geo::Polygon& polygon,
                               const AggregateRequest& request) const {
  const std::vector<cell::CellId> covering = block_->Cover(polygon);
  return SelectCovering(covering, request);
}

QueryResult GeoBlockQC::SelectCovering(
    std::span<const cell::CellId> covering,
    const AggregateRequest& request) const {
  Accumulator acc(&request);
  // An owning pin, not a ReadGuard: the fold may run an inline rebuild,
  // which waits on writer_mu_ — held by any commit that is itself waiting
  // out the grace period of a guard this thread would still hold.
  CombineCovering(*block_->StateSnapshot(), covering, &acc);
  return acc.Finish();
}

void GeoBlockQC::CombineCovering(const BlockState& state,
                                 std::span<const cell::CellId> covering,
                                 Accumulator* acc_out) const {
  {
    // One trie snapshot per call, paired with the caller's pinned state:
    // cache hits and base-algorithm fallbacks read one trie and one block
    // state version, which concurrent publishes cannot retire underneath.
    const util::SnapshotCell<AggregateTrie>::ReadGuard trie(trie_);
    Accumulator& acc = *acc_out;
    // Two forward cursors for the whole fold, over this shard's slice of
    // the covering: one over the state's cell aggregates (cells answered
    // from the cache leave it behind, and the next base fold gallops on
    // from there) and one over the cached cells.
    size_t cursor = 0;
    size_t cache_cursor = 0;
    for (cell::CellId qcell : state.CoveringSlice(covering, &cursor)) {
      if (qcell.level() > block_->level()) {
        qcell = qcell.Parent(block_->level());
      }
      // A block-level cell is one stored aggregate and its parent's run at
      // most four: no cache entry can answer either more cheaply than the
      // base fold, so they are never recorded, probed, counted or cached,
      // and the cache budget goes to cells two or more levels coarser.
      if (qcell.level() + 1 >= block_->level()) {
        state.CombineCell(qcell, &acc, &cursor);
        continue;
      }
      // Track workload statistics for every coarser query cell that
      // intersects the GeoBlock (Section 3.6): a bounded probe sequence
      // plus one CAS (first sighting) or one relaxed fetch_add.
      stats_.Record(qcell);

      // Adapted query algorithm (Figure 8): probe the cache first and
      // resort to the base algorithm only when necessary. The cached cells
      // inside qcell are one run of the cache.
      const BlockState::CellRun run = trie->NextRun(qcell, &cache_cursor);
      if (run.begin == run.end) {
        counters_.AddMiss();
        state.CombineCell(qcell, &acc, &cursor);
        continue;
      }
      const size_t self = trie->Find(qcell, run);
      if (self != run.end) {
        counters_.AddFullHit();
        trie->Combine(self, &acc);
        continue;
      }
      // Cells inside qcell are cached, qcell itself is not: use cached
      // *direct* children and the base algorithm for the rest. A cell two
      // levels coarser has no cached children, as they bypass the cache.
      if (qcell.level() + 2 == block_->level()) {
        counters_.AddMiss();
        state.CombineCell(qcell, &acc, &cursor);
        continue;
      }
      size_t child_at[4];
      bool any_cached = false;
      for (int k = 0; k < 4; ++k) {
        child_at[k] = trie->Find(qcell.Child(k), run);
        any_cached |= child_at[k] != run.end;
      }
      if (!any_cached) {
        counters_.AddMiss();
        state.CombineCell(qcell, &acc, &cursor);
        continue;
      }
      counters_.AddPartialHit();
      for (int k = 0; k < 4; ++k) {
        if (child_at[k] != run.end) {
          trie->Combine(child_at[k], &acc);
        } else {
          state.CombineCell(qcell.Child(k), &acc, &cursor);
        }
      }
    }
  }
  // Outside the trie guard: an inline rebuild must not wait for its own
  // reader lease to drain.
  MaybeRebuildAfterQuery();
}

size_t GeoBlockQC::DropTrie() const {
  std::lock_guard<std::mutex> lock(writer_mu_);
  const AggregateTrie* prev = trie_.WriterPeek();
  if (prev->empty()) return 0;
  const size_t bytes = prev->MemoryBytes();
  trie_.Publish(std::make_shared<AggregateTrie>());
  // The retire hook just parked the dropped snapshot as the recycling
  // spare; eviction exists to free those bytes, so drop the spare too.
  spare_trie_.reset();
  return bytes;
}

void GeoBlockQC::MaybeRebuildAfterQuery() const {
  const size_t interval = options_.rebuild_interval;
  if (interval == 0) return;
  const uint64_t n =
      queries_since_rebuild_.fetch_add(1, std::memory_order_relaxed) + 1;
  if (n < interval) return;
  // Exactly one caller per interval crossing resets the counter and owns
  // the rebuild; everyone else keeps serving queries on the old snapshot.
  uint64_t expected = n;
  if (!queries_since_rebuild_.compare_exchange_strong(
          expected, 0, std::memory_order_relaxed)) {
    return;
  }
  RebuildCache();
}

bool GeoBlockQC::CachedSetUnchangedLocked(const BlockState& state,
                                          size_t budget) const {
  // Only the (serialized) writer publishes, so peeking is safe here. A
  // dropped cache has no root, so it never matches a state with cells.
  const AggregateTrie& published = *trie_.WriterPeek();
  const cell::CellId root = published.root_cell();
  if (root != AggregateTrie::RootFor(state)) return false;
  // A state without cells builds the empty cache whatever was recorded.
  if (!root.is_valid()) return true;
  // Build admits the first `capacity` distinct ranked cells inside the
  // root.
  const size_t capacity = budget / AggregateTrie::CellBytes(state.num_columns);
  const size_t cached = published.num_cached();
  if (cached > capacity) return false;
  // One walk of the recorded cells: the last-ranked cached cell and the
  // best-ranked uncached cell inside the root. Cells outside the root are
  // never candidates.
  using Scored = QueryStats::ScoredCell;
  size_t members = 0;
  Scored worst_member;
  bool any_other = false;
  Scored best_other;
  stats_.ForEachCell([&](const Scored& c) {
    if (!root.Contains(c.cell)) return;
    if (published.IsCached(c.cell)) {
      if (members++ == 0 || Scored::Before(worst_member, c)) worst_member = c;
    } else if (!any_other || Scored::Before(c, best_other)) {
      best_other = c;
      any_other = true;
    }
  });
  // Every cached cell was recorded when it was built; one gone missing
  // means the statistics were cleared.
  if (members != cached) return false;
  // Only cached cells inside the root: Build admits all of them again.
  if (!any_other) return true;
  // Otherwise the set must be full, and every member must still outrank
  // the best outsider: then the first `capacity` in-root cells are the
  // members, whichever outsider ranks next.
  return cached == capacity &&
         (members == 0 || Scored::Before(worst_member, best_other));
}

void GeoBlockQC::RebuildCache() const {
  // Writers serialize among themselves; readers never touch this mutex.
  std::lock_guard<std::mutex> lock(writer_mu_);
  queries_since_rebuild_.store(0, std::memory_order_relaxed);
  // Pin the block state *inside* the writer critical section: update
  // commits (CommitBlockBatch) publish their state
  // and trie patch under the same mutex, so the version seen here is
  // always whole-commit consistent with the published trie — a rebuild can
  // neither lose a committed batch nor let one be applied twice.
  const std::shared_ptr<const BlockState> state = block_->StateSnapshot();
  const size_t budget = BudgetFor(*state);
  if (CachedSetUnchangedLocked(*state, budget)) {
    counters_.AddRebuildSkipped();
    return;
  }
  counters_.AddRebuild();
  // Build the successor off the read path: a point-in-time-ish stats
  // snapshot ranks the cells; payloads cached by the outgoing snapshot are
  // copied instead of recomputed.
  auto fresh = std::make_shared<AggregateTrie>();
  fresh->Build(*state, stats_.RankedCells(), budget, trie_.WriterPeek());
  // Epoch swap: one pointer swap publishes the new snapshot; in-flight
  // readers finish on the old one before it is retired.
  trie_.Publish(std::move(fresh));
}

void GeoBlockQC::PatchTrieLocked(std::span<const GeoBlock::UpdateTuple> batch,
                                 std::span<const uint32_t> subset) {
  // An empty trie (cache enabled but nothing cached yet) makes every
  // tuple walk a no-op: skip the clone, epoch flip, and grace period —
  // the published snapshot would be bit-identical.
  if (trie_.WriterPeek()->empty()) return;
  // Copy-on-write: patch a private clone, then publish it atomically so
  // readers see the whole batch or none of it. The clone lands in the
  // snapshot retired by the previous commit when that spare is sole-owned —
  // copy-assignment reuses its array buffers, so the steady-state commit
  // allocates no trie storage.
  std::shared_ptr<AggregateTrie> patched;
  if (spare_trie_ != nullptr && spare_trie_.use_count() == 1) {
    patched = std::move(spare_trie_);
    *patched = *trie_.WriterPeek();
  } else {
    patched = std::make_shared<AggregateTrie>(*trie_.WriterPeek());
  }
  spare_trie_.reset();
  // Iterate the committed tuples: the routed subset (ascending batch
  // indices) when one is given, the whole batch otherwise. Cached
  // ancestors of a new cell absorb its tuples like any other.
  const size_t m = subset.empty() ? batch.size() : subset.size();
  for (size_t j = 0; j < m; ++j) {
    const size_t b = subset.empty() ? j : subset[j];
    const cell::CellId leaf = cell::CellId::FromPoint(
        block_->projection().ToUnit(batch[b].location));
    patched->ApplyTupleUpdate(leaf, batch[b].values.data());
  }
  trie_.Publish(std::move(patched));
}

GeoBlock::UpdateResult GeoBlockQC::CommitBlockBatch(
    GeoBlock* block, std::span<const GeoBlock::UpdateTuple> batch,
    std::span<const uint32_t> subset) {
  if (block != block_) {
    // Patching this cache with another block's batch would silently
    // diverge cache answers from block answers; fail loudly instead.
    throw std::invalid_argument(
        "GeoBlockQC::CommitBlockBatch: block is not the wrapped block");
  }
  // The whole commit — block-state publish plus trie patch — runs inside
  // one writer critical section, so a rebuild serializes against it as a
  // unit. Readers are never blocked: both publishes are epoch swaps.
  std::lock_guard<std::mutex> lock(writer_mu_);
  const GeoBlock::UpdateResult result = block->ApplyBatchUpdate(batch, subset);
  if (result.applied > 0) PatchTrieLocked(batch, subset);
  return result;
}

}  // namespace geoblocks::core
