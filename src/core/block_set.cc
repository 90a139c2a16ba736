#include "core/block_set.h"

#include <algorithm>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <utility>

#include "io/update_log.h"

namespace geoblocks::core {

BlockSet::~BlockSet() {
  // Unregister waits out in-flight evict callbacks, which hold the
  // per-shard records this destructor is about to drop.
  UnregisterGovernorEntries();
}

BlockSet::BlockSet(BlockSet&& other) noexcept
    : level_(other.level_),
      projection_(other.projection_),
      blocks_(std::move(other.blocks_)),
      cached_(std::move(other.cached_)),
      writers_(std::move(other.writers_)),
      align_level_(other.align_level_),
      total_rows_(other.total_rows_),
      boundaries_(std::move(other.boundaries_)),
      windows_(std::move(other.windows_)),
      dataset_attached_(other.dataset_attached_),
      // The governor callbacks captured the stable per-shard records
      // (block addresses, writer/residency shared_ptrs), never `other`,
      // so the registered entries survive the move untouched.
      source_(std::move(other.source_)),
      residency_(std::move(other.residency_)),
      governor_(other.governor_),
      log_(other.log_),
      change_number_(
          other.change_number_.load(std::memory_order_relaxed)),
      read_only_(other.read_only_.load(std::memory_order_relaxed)) {
  other.governor_ = nullptr;
  other.log_ = nullptr;
}

BlockSet& BlockSet::operator=(BlockSet&& other) noexcept {
  if (this == &other) return *this;
  UnregisterGovernorEntries();
  level_ = other.level_;
  projection_ = other.projection_;
  blocks_ = std::move(other.blocks_);
  cached_ = std::move(other.cached_);
  writers_ = std::move(other.writers_);
  align_level_ = other.align_level_;
  total_rows_ = other.total_rows_;
  boundaries_ = std::move(other.boundaries_);
  windows_ = std::move(other.windows_);
  dataset_attached_ = other.dataset_attached_;
  source_ = std::move(other.source_);
  residency_ = std::move(other.residency_);
  governor_ = other.governor_;
  other.governor_ = nullptr;
  log_ = other.log_;
  other.log_ = nullptr;
  change_number_.store(other.change_number_.load(std::memory_order_relaxed),
                       std::memory_order_relaxed);
  read_only_.store(other.read_only_.load(std::memory_order_relaxed),
                   std::memory_order_relaxed);
  return *this;
}

BlockSet BlockSet::Build(const storage::ShardedDataset& shards,
                         const BlockSetOptions& options,
                         util::ThreadPool* pool) {
  BlockSet set;
  set.level_ = options.block.level;
  const size_t k = shards.num_shards();
  set.blocks_.reserve(k);
  set.writers_.reserve(k);
  set.residency_.reserve(k);
  for (size_t i = 0; i < k; ++i) {
    set.blocks_.push_back(std::make_unique<GeoBlock>());
    set.writers_.push_back(std::make_shared<ShardWriter>());
    set.residency_.push_back(std::make_shared<ShardResidency>());
  }
  if (k == 0) return set;
  set.projection_ = shards.shard(0).projection();

  // Record the partition manifest: boundaries, row windows, alignment.
  // These are exactly the fields WriteTo persists and AttachDataset
  // validates a dataset against after a load.
  set.align_level_ = shards.align_level();
  set.boundaries_ = shards.boundaries();
  set.windows_.reserve(k);
  for (size_t i = 0; i < k; ++i) {
    const storage::DatasetView& view = shards.shard(i);
    set.windows_.push_back({view.offset(), view.num_rows()});
  }
  set.total_rows_ = shards.total_rows();
  set.dataset_attached_ = true;

  util::ParallelFor(pool, k, [&](size_t i) {
    *set.blocks_[i] = GeoBlock::Build(shards.shard(i), options.block);
  });
  return set;
}

size_t BlockSet::num_cells() const {
  // Pin each shard's state: this is a read path and must stay safe
  // concurrently with update commits (the raw GeoBlock accessors are
  // writer-quiesced only). A lazy set faults cold shards in — counting
  // cells needs every payload — and rebalances once at the end.
  size_t cells = 0;
  for (size_t s = 0; s < blocks_.size(); ++s) {
    cells += ResidentState(s, /*rebalance=*/false)->num_cells();
  }
  if (governor_ != nullptr) governor_->EnsureBudget();
  return cells;
}

BlockHeader BlockSet::MergedHeader() const {
  BlockHeader header;
  header.level = level_;
  size_t columns = 0;
  for (const std::unique_ptr<GeoBlock>& b : blocks_) {
    columns = std::max(columns, b->num_columns());
  }
  header.global = AggregateVector(columns);
  bool any = false;
  // One pinned version per shard (not the unpinned header() peek): a
  // monitoring thread may merge headers while commits publish successors.
  // On a lazy set cold shards fault in — the merged global aggregate
  // needs every shard's payload.
  for (size_t s = 0; s < blocks_.size(); ++s) {
    const std::shared_ptr<const BlockState> state =
        ResidentState(s, /*rebalance=*/false);
    if (state->num_cells() == 0) continue;
    if (!any) {
      header.min_cell = state->header.min_cell;
      header.max_cell = state->header.max_cell;
      any = true;
    } else {
      header.min_cell = std::min(header.min_cell, state->header.min_cell);
      header.max_cell = std::max(header.max_cell, state->header.max_cell);
    }
    header.global.Merge(state->header.global);
  }
  if (governor_ != nullptr) governor_->EnsureBudget();
  return header;
}

size_t BlockSet::MemoryBytes() const {
  size_t bytes = 0;
  for (const std::unique_ptr<GeoBlock>& b : blocks_) {
    bytes += b->MemoryBytes();
  }
  return bytes;
}

std::vector<cell::CellId> BlockSet::Cover(const geo::Polygon& polygon) const {
  return CoverPolygon(projection_, level_, polygon);
}

void BlockSet::CoverInto(const geo::Polygon& polygon,
                         std::vector<cell::CellId>* out) const {
  CoverPolygonInto(projection_, level_, polygon, out);
}

std::vector<size_t> BlockSet::OverlappingShards(
    std::span<const cell::CellId> covering) const {
  std::vector<size_t> result;
  OverlappingShards(covering, &result);
  return result;
}

void BlockSet::OverlappingShards(std::span<const cell::CellId> covering,
                                 std::vector<size_t>* out) const {
  std::vector<size_t>& result = *out;
  result.clear();
  if (covering.empty()) return;
  result.reserve(blocks_.size());
  // Shard s holds the keys [boundaries_[s], boundaries_[s+1]), the last
  // shard also the end key (storage::ShardForKey's rule). Covering cells
  // are disjoint and sorted, so their leaf ranges ascend, as do the
  // shards' lower bounds: each shard binary-searches, from where the
  // previous one stopped, the first cell whose range reaches its lower
  // bound; one comparison with its upper bound decides the overlap.
  const size_t k = blocks_.size();
  auto it = covering.begin();
  for (size_t s = 0; s < k; ++s) {
    const uint64_t lo = boundaries_[s];
    const uint64_t hi = boundaries_[s + 1];
    if (lo == hi) continue;  // an empty range holds no key
    it = std::lower_bound(it, covering.end(), lo,
                          [](const cell::CellId& c, uint64_t key) {
                            return c.RangeMax().id() < key;
                          });
    if (it == covering.end()) return;
    if (s + 1 == k || it->RangeMin().id() < hi) result.push_back(s);
  }
}

QueryResult BlockSet::Select(const geo::Polygon& polygon,
                             const AggregateRequest& request) const {
  thread_local std::vector<cell::CellId> covering;
  CoverInto(polygon, &covering);
  return SelectCovering(covering, request);
}

QueryResult BlockSet::SelectCovering(std::span<const cell::CellId> covering,
                                     const AggregateRequest& request) const {
  thread_local std::vector<size_t> shards;
  OverlappingShards(covering, &shards);
  Accumulator acc(&request);
  // Each shard folds its whole covering contribution under one pinned
  // state version; shards ascend, so the fold order matches a single block
  // over the same data bit for bit. The pin comes from ResidentState,
  // which faults a cold (mapped) shard in first — the fold never sees a
  // tombstone, so answers stay bit-identical to the fully resident set.
  for (const size_t s : shards) {
    ResidentState(s, /*rebalance=*/true)->CombineCovering(covering, &acc);
  }
  return acc.Finish();
}

uint64_t BlockSet::Count(const geo::Polygon& polygon) const {
  thread_local std::vector<cell::CellId> covering;
  CoverInto(polygon, &covering);
  return CountCovering(covering);
}

uint64_t BlockSet::CountCovering(
    std::span<const cell::CellId> covering) const {
  thread_local std::vector<size_t> shards;
  OverlappingShards(covering, &shards);
  uint64_t result = 0;
  for (const size_t s : shards) {
    result += ResidentState(s, /*rebalance=*/true)->CountCovering(covering);
  }
  return result;
}

std::vector<QueryResult> BlockSet::ExecuteBatch(const QueryBatch& batch,
                                                util::ThreadPool* pool) const {
  // One task per query, each exactly Select — the same covering, routing
  // and ascending shard fold — so a batched answer is bit-identical to the
  // sequential one, whatever the pool.
  std::vector<QueryResult> results(batch.size());
  util::ParallelFor(pool, batch.size(), [&](size_t i) {
    results[i] = Select(*batch.polygons[i], *batch.request);
  });
  return results;
}

// ---------------------------------------------------------------------------
// The update plane
// ---------------------------------------------------------------------------

BlockSet::SetUpdateResult BlockSet::ApplyBatchUpdate(
    std::span<const GeoBlock::UpdateTuple> batch, util::ThreadPool* pool) {
  const size_t k = blocks_.size();
  if (k == 0 || boundaries_.size() != k + 1 || writers_.size() != k) {
    throw std::logic_error(
        "BlockSet::ApplyBatchUpdate: set has no manifest metadata (a "
        "default-constructed set cannot be updated)");
  }
  if (batch.empty()) {
    SetUpdateResult result;
    result.change_number = change_number();
    return result;
  }

  // Fault containment: a set whose log died is degraded read-only, and
  // the rejection happens HERE — before the log, before memory — so the
  // caller knows the batch was definitely not applied (unlike the
  // unknown-outcome failure that caused the degradation).
  if (read_only()) throw ReadOnlyError();

  // Durability first: with a log attached, the batch becomes a fsync'd WAL
  // record BEFORE it touches memory — Append blocks until the group
  // commits (or throws, in which case nothing was acknowledged and nothing
  // committed). Without a log, the change number only orders batches in
  // memory.
  uint64_t cn = 0;
  if (log_ != nullptr) {
    try {
      cn = log_->Append(batch);
    } catch (...) {
      // The log is dead (fsync error, ENOSPC, EIO, injected crash) and is
      // never retried: flip the set into sticky degraded read-only mode.
      // This in-flight batch still propagates the original unknown-outcome
      // error — it may or may not be durable — while every later update is
      // fenced off with the typed ReadOnlyError above. Reads are untouched.
      if (log_->failed()) EnterReadOnly();
      throw;
    }
  }

  SetUpdateResult result = CommitRouted(batch, pool);
  if (cn == 0) {
    cn = change_number_.fetch_add(1, std::memory_order_acq_rel) + 1;
  } else {
    AdoptChangeNumber(cn);
  }
  result.change_number = cn;
  return result;
}

void BlockSet::AdoptChangeNumber(uint64_t cn) {
  uint64_t current = change_number_.load(std::memory_order_relaxed);
  while (current < cn &&
         !change_number_.compare_exchange_weak(current, cn,
                                               std::memory_order_acq_rel)) {
  }
}

BlockSet::SetUpdateResult BlockSet::CommitRouted(
    std::span<const GeoBlock::UpdateTuple> batch, util::ThreadPool* pool) {
  const size_t k = blocks_.size();

  // Phase 1: route every tuple to its shard by Hilbert key against the
  // manifest boundaries — the same rule the partitioner cut the data with,
  // so a tuple lands in the shard whose block covers (or will cover) its
  // cell. Routing reads only immutable fields; no locks. Tuples are routed
  // by *index*, not copied — copying an UpdateTuple allocates (its values
  // vector). The scratch is thread-local: its capacity survives across
  // batches, making the steady-state route allocation-free.
  struct RouteScratch {
    std::vector<std::vector<uint32_t>> per_shard;  ///< batch indices
    std::vector<size_t> busy;                      ///< shards with tuples
  };
  thread_local RouteScratch scratch;
  if (scratch.per_shard.size() < k) scratch.per_shard.resize(k);
  for (size_t s = 0; s < k; ++s) scratch.per_shard[s].clear();
  scratch.busy.clear();
  for (size_t b = 0; b < batch.size(); ++b) {
    const uint64_t key =
        cell::CellId::FromPoint(projection_.ToUnit(batch[b].location)).id();
    const size_t s = storage::ShardForKey(boundaries_, key);
    if (scratch.per_shard[s].empty()) scratch.busy.push_back(s);
    scratch.per_shard[s].push_back(static_cast<uint32_t>(b));
  }
  // Deterministic commit order on the inline path (parallel commits are
  // unordered anyway; shards are disjoint, so results never depend on it).
  std::sort(scratch.busy.begin(), scratch.busy.end());

  // Phase 2: commit each busy shard's index slice under that shard's
  // commit lock — striped writers, parallel across shards on the pool.
  // Readers never block: each commit is an epoch-swap publish. The lambda
  // must reach the *submitting* thread's scratch through ordinary local
  // references: a thread_local named inside a lambda is re-resolved in the
  // executing thread, and a pool worker's own scratch is empty. ParallelFor
  // completes before returning, so the references stay stable.
  std::vector<std::vector<uint32_t>>& per_shard = scratch.per_shard;
  std::vector<size_t>& busy = scratch.busy;
  std::atomic<size_t> applied{0};
  util::ParallelFor(pool, busy.size(), [&](size_t i) {
    const size_t s = busy[i];
    applied.fetch_add(CommitShardBatch(s, batch, per_shard[s]),
                      std::memory_order_relaxed);
  });

  SetUpdateResult result;
  result.applied = applied.load(std::memory_order_relaxed);
  return result;
}

size_t BlockSet::CommitShardBatch(size_t s,
                                  std::span<const GeoBlock::UpdateTuple> batch,
                                  std::span<const uint32_t> subset) {
  GeoBlock* block = blocks_[s].get();
  GeoBlockQC* qc = cache_enabled() ? cached_[s].get() : nullptr;
  bool faulted = false;
  GeoBlock::UpdateResult r;
  {
    std::lock_guard<std::mutex> lock(writers_[s]->mu);
    // The commit must patch a materialized state — a commit against a
    // tombstone would build a state holding ONLY this batch (data loss).
    // A resident shard: no-op.
    faulted = MaterializeIfCold(s);
    // The commit proper: with a cache, block-state publish and trie patch
    // run as one writer critical section (GeoBlockQC::CommitBlockBatch),
    // so an interval-triggered trie rebuild can never interleave half a
    // commit. The shard reads its tuples straight out of the caller's
    // batch through the subset indices.
    r = qc != nullptr ? qc->CommitBlockBatch(block, batch, subset)
                      : block->ApplyBatchUpdate(batch, subset);
    if (r.applied > 0) {
      // Sticky: this shard's in-memory state now runs ahead of any mapped
      // payload, so it must never be evicted — a re-fault would resurrect
      // the stale payload.
      residency_[s]->dirty.store(true, std::memory_order_release);
    }
  }
  // Charge a fault-in only after releasing w.mu: the charge takes the
  // governor entry's callback lock, which orders before the shard locks.
  // No EnsureBudget here (another shard's evict callback could be waiting
  // on a commit); the budget transiently overshoots and the next
  // query-path fault trims it.
  if (faulted) ChargeShard(s);
  return r.applied;
}

// ---------------------------------------------------------------------------
// Durability: recovery and checkpointing
// ---------------------------------------------------------------------------

BlockSet BlockSet::OpenLogged(const std::string& manifest_path,
                              io::UpdateLog* log) {
  if (log == nullptr) {
    throw std::invalid_argument("BlockSet::OpenLogged: null log");
  }
  std::ifstream in(manifest_path, std::ios::binary);
  if (!in) {
    throw std::runtime_error("BlockSet::OpenLogged: cannot open manifest " +
                             manifest_path);
  }
  BlockSet set = ReadFrom(in);
  // Replay the tail the checkpoint has not absorbed: records at or below
  // the manifest's change number are already inside the loaded state and
  // are skipped (idempotent replay); the rest re-commit in log order, so
  // the recovered state equals a serial re-execution of every durable
  // batch.
  log->Replay(set.change_number(),
              [&set](uint64_t cn,
                     std::vector<GeoBlock::UpdateTuple>&& tuples) {
                set.CommitRouted(tuples, nullptr);
                set.AdoptChangeNumber(cn);
              });
  // A log that sits behind the manifest — a brand-new file, or one whose
  // header was torn by a crash and re-initialized at base 0 — would hand
  // out change numbers that a future replay against this manifest must
  // skip, silently dropping those batches. Rebase it to the manifest's
  // change number: every record it held was at or below that number (the
  // replay above skipped them all), so discarding them loses nothing.
  if (log->last_change_number() < set.change_number()) {
    log->Truncate(set.change_number());
  }
  set.log_ = log;
  return set;
}

uint64_t BlockSet::Checkpoint(const std::string& manifest_path) {
  std::ostringstream out(std::ios::binary);
  WriteTo(out);
  // Manifest first, atomically and durably; only then truncate the log.
  // A crash between the two leaves old records behind, and replay skips
  // all of them (every cn ≤ the new manifest's change number).
  io::AtomicWriteFile(manifest_path, out.str());
  const uint64_t cn = change_number();
  if (log_ != nullptr) log_->Truncate(cn);
  return cn;
}

// ---------------------------------------------------------------------------
// Attachment and the cached path
// ---------------------------------------------------------------------------

void BlockSet::AttachDataset(
    std::shared_ptr<const storage::SortedDataset> data) {
  if (data == nullptr) {
    throw std::invalid_argument("BlockSet::AttachDataset: null dataset");
  }
  if (blocks_.empty() || boundaries_.size() != blocks_.size() + 1) {
    throw std::logic_error(
        "BlockSet::AttachDataset: set has no manifest metadata");
  }
  if (dataset_attached_) {
    throw std::logic_error(
        "BlockSet::AttachDataset: dataset already attached; DetachDataset "
        "first");
  }
  // Attachment validates per-shard schema widths, which only materialized
  // shards know: fault everything in first (the views attached below are
  // independent of residency — an eviction after attach keeps them).
  for (size_t s = 0; s < blocks_.size(); ++s) EnsureResident(s);
  if (governor_ != nullptr) governor_->EnsureBudget();
  if (data->num_rows() != total_rows_) {
    throw std::runtime_error(
        "BlockSet::AttachDataset: dataset row count does not match the "
        "manifest");
  }
  const geo::Rect domain = data->projection().domain();
  const geo::Rect expected = projection_.domain();
  if (domain.min.x != expected.min.x || domain.min.y != expected.min.y ||
      domain.max.x != expected.max.x || domain.max.y != expected.max.y) {
    throw std::runtime_error(
        "BlockSet::AttachDataset: dataset projection domain does not match "
        "the blocks");
  }
  constexpr uint64_t kEndKey = ~uint64_t{0};
  for (size_t i = 0; i < blocks_.size(); ++i) {
    if (blocks_[i]->num_columns() != data->num_columns()) {
      throw std::runtime_error(
          "BlockSet::AttachDataset: dataset column count does not match the "
          "blocks");
    }
    const ShardWindow& w = windows_[i];
    if (w.num_rows == 0) continue;
    // Every key in the window must fall inside the shard's manifest
    // boundary range [boundaries_[i], boundaries_[i+1]); the keys are
    // sorted, so checking the two endpoints suffices.
    const uint64_t first = data->keys()[w.offset];
    const uint64_t last = data->keys()[w.offset + w.num_rows - 1];
    if (first < boundaries_[i] ||
        (boundaries_[i + 1] != kEndKey && last >= boundaries_[i + 1])) {
      throw std::runtime_error(
          "BlockSet::AttachDataset: dataset keys fall outside the shard "
          "boundaries in the manifest");
    }
  }
  for (size_t i = 0; i < blocks_.size(); ++i) {
    const ShardWindow& w = windows_[i];
    blocks_[i]->AttachData(
        storage::DatasetView::Window(data, w.offset, w.offset + w.num_rows));
  }
  dataset_attached_ = true;
}

void BlockSet::DetachDataset() {
  for (const std::unique_ptr<GeoBlock>& b : blocks_) b->DetachData();
  dataset_attached_ = false;
}

void BlockSet::EnableCache(const GeoBlockQC::Options& options) {
  // Trie governor entries reference the outgoing QCs: drop them before
  // the QCs die (Unregister waits out an in-flight evict callback). The
  // payload entries capture only the block, writer and residency records,
  // which outlive the swap, so they stay registered.
  if (governor_ != nullptr) {
    for (const std::shared_ptr<ShardResidency>& res : residency_) {
      if (res->trie_entry != nullptr) {
        governor_->Unregister(res->trie_entry);
        res->trie_entry = nullptr;
      }
    }
  }
  cached_.clear();
  cached_.reserve(blocks_.size());
  for (const std::unique_ptr<GeoBlock>& b : blocks_) {
    cached_.push_back(std::make_unique<GeoBlockQC>(b.get(), options));
  }
  for (size_t s = 0; s < blocks_.size(); ++s) RegisterTrieEntry(s);
}

const GeoBlockQC& BlockSet::cached_shard(size_t i) const {
  if (!cache_enabled()) {
    throw std::logic_error("BlockSet::cached_shard: cache not enabled");
  }
  return *cached_[i];
}

QueryResult BlockSet::SelectCached(const geo::Polygon& polygon,
                                   const AggregateRequest& request) const {
  // Per-thread covering scratch: the vector's capacity is reused across
  // queries, so the cached hot path performs no per-query allocation for
  // the covering.
  thread_local std::vector<cell::CellId> covering;
  CoverInto(polygon, &covering);
  return SelectCoveringCached(covering, request);
}

QueryResult BlockSet::SelectCoveringCached(
    std::span<const cell::CellId> covering,
    const AggregateRequest& request) const {
  QueryResult result;
  SelectCoveringCachedInto(covering, request, &result);
  return result;
}

void BlockSet::SelectCoveringCachedInto(std::span<const cell::CellId> covering,
                                        const AggregateRequest& request,
                                        QueryResult* out) const {
  thread_local std::vector<size_t> shards;
  OverlappingShards(covering, &shards);
  Accumulator acc(&request);
  // SelectCovering's fold, with each shard's trie probed first when the
  // cache is on: ResidentState pins a never-tombstone state (faulting a
  // cold shard in), and GeoBlockQC::CombineCovering pairs it with one
  // lock-free trie snapshot. Shards ascend, so the fold stays
  // bit-identical to a serialized execution over the same snapshots.
  for (const size_t s : shards) {
    const std::shared_ptr<const BlockState> state =
        ResidentState(s, /*rebalance=*/true);
    if (cache_enabled()) {
      cached_[s]->CombineCovering(*state, covering, &acc);
    } else {
      state->CombineCovering(covering, &acc);
    }
  }
  acc.FinishInto(out);
}

void BlockSet::RebuildCaches(util::ThreadPool* pool) {
  util::ParallelFor(pool, cached_.size(),
                    [this](size_t i) { cached_[i]->RebuildCache(); });
}

CacheCounters BlockSet::MergedCacheCounters() const {
  // Lock-free merge of per-shard snapshots: monotone between resets and
  // exact once readers quiesce (see the header's consistency note).
  CacheCounters total;
  for (const std::unique_ptr<GeoBlockQC>& shard : cached_) {
    const CacheCounters c = shard->counters();
    total.probes += c.probes;
    total.full_hits += c.full_hits;
    total.partial_hits += c.partial_hits;
    total.misses += c.misses;
    total.stat_drops += c.stat_drops;
    total.rebuilds += c.rebuilds;
    total.rebuilds_skipped += c.rebuilds_skipped;
  }
  return total;
}

void BlockSet::ResetCacheCounters() {
  for (const std::unique_ptr<GeoBlockQC>& shard : cached_) {
    shard->ResetCounters();
  }
}

}  // namespace geoblocks::core
