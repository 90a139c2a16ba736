#include "core/geoblock.h"

#include <algorithm>
#include <span>
#include <stdexcept>
#include <string>
#include <utility>

#include "core/scan_kernels.h"

namespace geoblocks::core {

namespace {

/// Mutable staging area for a fresh BlockState: build/merge paths fill the
/// plain vectors, then Finish() freezes them into the immutable,
/// individually refcounted form a publish expects.
struct StateBuilder {
  BlockHeader header;
  size_t num_columns = 0;
  std::vector<uint64_t> cells;
  std::vector<uint32_t> offsets;
  std::vector<uint32_t> counts;
  std::vector<uint64_t> min_keys;
  std::vector<uint64_t> max_keys;
  std::vector<ColumnAggregate> column_aggs;

  std::shared_ptr<const BlockState> Finish() {
    if (!cells.empty()) {
      header.min_cell = cells.front();
      header.max_cell = cells.back();
    }
    auto state = std::make_shared<BlockState>();
    state->header = std::move(header);
    state->num_columns = num_columns;
    state->cells = CellArray<uint64_t>(std::move(cells));
    state->offsets = CellArray<uint32_t>(std::move(offsets));
    state->counts = CellArray<uint32_t>(std::move(counts));
    state->min_keys = CellArray<uint64_t>(std::move(min_keys));
    state->max_keys = CellArray<uint64_t>(std::move(max_keys));
    state->column_aggs = CellArray<ColumnAggregate>(std::move(column_aggs));
    return state;
  }
};

}  // namespace

// ---------------------------------------------------------------------------
// BlockState: the immutable query plane
// ---------------------------------------------------------------------------

std::span<const cell::CellId> BlockState::CoveringSlice(
    std::span<const cell::CellId> covering, size_t* cursor) const {
  *cursor = 0;
  if (cells.empty()) return {};
  // A covering cell at or above the block level overlaps the min_cell grid
  // cell's leaf range or lies wholly on one side of it; a finer one lies
  // inside one grid cell. Either way, comparing leaf ranges with the first
  // and last grid cell's decides the clamped cell's overlap.
  const uint64_t lo = cell::CellId(header.min_cell).RangeMin().id();
  const uint64_t hi = cell::CellId(header.max_cell).RangeMax().id();
  const auto first = std::partition_point(
      covering.begin(), covering.end(),
      [lo](cell::CellId c) { return c.RangeMax().id() < lo; });
  const auto last = std::partition_point(
      first, covering.end(),
      [hi](cell::CellId c) { return c.RangeMin().id() <= hi; });
  if (first == last) return {};
  cell::CellId seed = *first;
  if (seed.level() > header.level) seed = seed.Parent(header.level);
  *cursor = kernels::LowerBoundU64(cells.data(), cells.size(),
                                   seed.ChildBegin(header.level).id());
  return {first, last};
}

BlockState::CellRun BlockState::NextRun(cell::CellId qcell,
                                        size_t* cursor) const {
  // A cell finer than the grid stands for the grid cell that holds it.
  if (qcell.level() > header.level) qcell = qcell.Parent(header.level);
  const uint64_t* ids = cells.data();
  const size_t n = cells.size();
  // Contiguous range over the sorted cell aggregates (Listing 1, 25-28):
  // gallop to its first aggregate, then from there to its end.
  CellRun run;
  run.begin = kernels::GallopLowerBoundU64(ids, n, *cursor,
                                           qcell.ChildBegin(header.level).id());
  run.end = kernels::GallopUpperBoundU64(ids, n, run.begin,
                                         qcell.ChildLast(header.level).id());
  *cursor = run.end;
  return run;
}

void BlockState::CombineCell(cell::CellId qcell, Accumulator* acc,
                             size_t* cursor) const {
  const CellRun run = NextRun(qcell, cursor);
  if (run.end > run.begin) {
    acc->AddCellRange(counts.data() + run.begin,
                      column_aggs.data() + run.begin * num_columns,
                      run.end - run.begin, num_columns);
  }
}

void BlockState::CombineCovering(std::span<const cell::CellId> covering,
                                 Accumulator* acc) const {
  size_t cursor = 0;
  for (const cell::CellId qcell : CoveringSlice(covering, &cursor)) {
    CombineCell(qcell, acc, &cursor);
  }
}

QueryResult BlockState::SelectCovering(std::span<const cell::CellId> covering,
                                       const AggregateRequest& request) const {
  Accumulator acc(&request);
  CombineCovering(covering, &acc);
  return acc.Finish();
}

uint64_t BlockState::CountCovering(
    std::span<const cell::CellId> covering) const {
  uint64_t result = 0;
  size_t cursor = 0;
  for (const cell::CellId qcell : CoveringSlice(covering, &cursor)) {
    const CellRun run = NextRun(qcell, &cursor);
    if (run.end == run.begin) continue;
    // Range-sum over the offsets of the run's first and last aggregate
    // (Listing 2, line 11).
    const size_t last = run.end - 1;
    result += static_cast<uint64_t>(offsets[last]) + counts[last] -
              offsets[run.begin];
  }
  return result;
}

AggregateVector BlockState::AggregateForCell(cell::CellId cell) const {
  AggregateVector agg(num_columns);
  if (cell.level() > header.level) cell = cell.Parent(header.level);
  if (!MayOverlap(cell)) return agg;
  const CellArray<uint64_t>& ids = cells;
  const uint64_t first_child = cell.ChildBegin(header.level).id();
  const uint64_t last_child = cell.ChildLast(header.level).id();
  size_t idx = static_cast<size_t>(
      std::lower_bound(ids.begin(), ids.end(), first_child) - ids.begin());
  while (idx < ids.size() && ids[idx] <= last_child) {
    agg.count += counts[idx];
    const ColumnAggregate* cols = cell_columns(idx);
    for (size_t c = 0; c < num_columns; ++c) agg.columns[c].Merge(cols[c]);
    ++idx;
  }
  return agg;
}

size_t BlockState::CellAggregateBytes() const {
  return cells.size() * (sizeof(uint64_t) * 3 + sizeof(uint32_t) * 2) +
         column_aggs.size() * sizeof(ColumnAggregate);
}

// ---------------------------------------------------------------------------
// GeoBlock: construction, copies, state installation
// ---------------------------------------------------------------------------

namespace {

/// One cell with the retirement hook attached — shared by the default
/// constructor and InstallState. The hook counts the retirement and hands
/// the version to the arena so the next commit reuses its allocations.
std::unique_ptr<util::SnapshotCell<BlockState>> MakeStateCell(
    std::shared_ptr<const BlockState> initial,
    const std::shared_ptr<std::atomic<uint64_t>>& counter,
    const std::shared_ptr<StateArena>& arena) {
  auto cell =
      std::make_unique<util::SnapshotCell<BlockState>>(std::move(initial));
  cell->SetRetireHook([counter, arena](std::shared_ptr<const BlockState> old) {
    counter->fetch_add(1, std::memory_order_relaxed);
    arena->Recycle(std::move(old));
  });
  return cell;
}

}  // namespace

GeoBlock::GeoBlock()
    : retired_(std::make_shared<std::atomic<uint64_t>>(0)),
      arena_(std::make_shared<StateArena>()) {
  state_ =
      MakeStateCell(std::make_shared<const BlockState>(), retired_, arena_);
}

GeoBlock::GeoBlock(const GeoBlock& other) : GeoBlock() {
  data_ = other.data_;
  filter_ = other.filter_;
  projection_ = other.projection_;
  level_ = other.level_;
  num_columns_ = other.num_columns_;
  // Copies share the immutable current version; future publishes on either
  // block never affect the other (each has its own cell).
  InstallState(other.StateSnapshot());
}

GeoBlock& GeoBlock::operator=(const GeoBlock& other) {
  if (this == &other) return *this;
  GeoBlock copy(other);
  *this = std::move(copy);
  return *this;
}

GeoBlock::GeoBlock(GeoBlock&& other) noexcept
    : data_(std::move(other.data_)),
      filter_(std::move(other.filter_)),
      projection_(other.projection_),
      level_(other.level_),
      num_columns_(other.num_columns_),
      state_(std::move(other.state_)),
      retired_(std::move(other.retired_)),
      arena_(std::move(other.arena_)) {
  route_cells_.store(other.route_cells_.load(std::memory_order_relaxed),
                     std::memory_order_relaxed);
  route_min_.store(other.route_min_.load(std::memory_order_relaxed),
                   std::memory_order_relaxed);
  route_max_.store(other.route_max_.load(std::memory_order_relaxed),
                   std::memory_order_relaxed);
}

GeoBlock& GeoBlock::operator=(GeoBlock&& other) noexcept {
  if (this == &other) return *this;
  data_ = std::move(other.data_);
  filter_ = std::move(other.filter_);
  projection_ = other.projection_;
  level_ = other.level_;
  num_columns_ = other.num_columns_;
  state_ = std::move(other.state_);
  retired_ = std::move(other.retired_);
  arena_ = std::move(other.arena_);
  route_cells_.store(other.route_cells_.load(std::memory_order_relaxed),
                     std::memory_order_relaxed);
  route_min_.store(other.route_min_.load(std::memory_order_relaxed),
                   std::memory_order_relaxed);
  route_max_.store(other.route_max_.load(std::memory_order_relaxed),
                   std::memory_order_relaxed);
  return *this;
}

void GeoBlock::InstallState(std::shared_ptr<const BlockState> state) {
  // Pre-publication (build/load/copy): no readers exist yet, so the cell is
  // replaced outright instead of epoch-swapped — the empty initial state is
  // not counted as a retirement.
  state_ = MakeStateCell(state, retired_, arena_);
  route_cells_.store(state->num_cells(), std::memory_order_relaxed);
  route_min_.store(state->header.min_cell, std::memory_order_relaxed);
  route_max_.store(state->header.max_cell, std::memory_order_relaxed);
}

void GeoBlock::PublishState(std::shared_ptr<const BlockState> state) {
  // Commit order: the state version first (readers pinning after the swap
  // see the successor), then the routing mirror. A reader interleaving the
  // two sees a routing range at most one version behind its pinned state,
  // which the MayOverlap contract tolerates.
  const size_t cells = state->num_cells();
  const uint64_t min_cell = state->header.min_cell;
  const uint64_t max_cell = state->header.max_cell;
  state_->Publish(std::move(state));
  route_cells_.store(cells, std::memory_order_relaxed);
  route_min_.store(min_cell, std::memory_order_relaxed);
  route_max_.store(max_cell, std::memory_order_relaxed);
}

// ---------------------------------------------------------------------------
// Build and derivation
// ---------------------------------------------------------------------------

GeoBlock GeoBlock::Build(storage::DatasetView data,
                         const BlockOptions& options) {
  if (options.level < 0 || options.level > cell::CellId::kMaxLevel) {
    throw std::invalid_argument(
        "BlockOptions::level must be in [0, " +
        std::to_string(cell::CellId::kMaxLevel) + "], got " +
        std::to_string(options.level));
  }
  GeoBlock block;
  block.data_ = std::move(data);
  block.filter_ = options.filter;
  const storage::DatasetView& view = block.data_;
  block.level_ = options.level;
  if (view.has_data()) {
    block.projection_ = view.projection();
    block.num_columns_ = view.num_columns();
  }

  StateBuilder b;
  b.header.level = options.level;
  b.num_columns = block.num_columns_;
  b.header.global = AggregateVector(block.num_columns_);

  const uint64_t lsb = cell::CellId::LsbForLevel(options.level);
  const storage::Filter& filter = options.filter;
  const kernels::KernelTable& kern = kernels::Kernels();

  const std::span<const uint64_t> keys = view.keys();
  const size_t n = view.num_rows();
  std::vector<const double*> col_ptrs(b.num_columns);
  for (size_t c = 0; c < b.num_columns; ++c) col_ptrs[c] = view.column(c).data();

  // Evaluate the filter once over the whole window as a byte mask: one
  // vectorized pass per predicate over the contiguous column arrays (same
  // conjunction as the old short-circuiting per-row evaluation).
  std::vector<uint8_t> mask;
  const bool filtered = !filter.IsTrue();
  if (filtered && n > 0) {
    const std::vector<storage::Predicate>& preds = filter.predicates();
    mask.resize(n);
    std::vector<const double*> pred_cols(preds.size());
    for (size_t p = 0; p < preds.size(); ++p) {
      pred_cols[p] = view.column(static_cast<size_t>(preds[p].column)).data();
    }
    kernels::FilterMask(preds.data(), preds.size(), pred_cols.data(), n,
                        mask.data());
  }

  uint32_t matched_so_far = 0;  // offset into the filtered tuple sequence
  size_t row = 0;
  while (row < n) {
    const uint64_t cell_id = (keys[row] & (~lsb + 1)) | lsb;
    // Keys ascend, so one grid cell's rows are exactly the contiguous run up
    // to the cell's maximal leaf key.
    const size_t run_end = row + kernels::UpperBoundU64(keys.data() + row,
                                                        n - row,
                                                        cell_id + lsb - 1);
    const size_t run_len = run_end - row;
    uint32_t matched = 0;
    uint64_t min_key = 0;
    uint64_t max_key = 0;
    if (filtered) {
      size_t lo = run_end;
      size_t hi = row;
      for (size_t i = row; i < run_end; ++i) {
        if (mask[i]) {
          ++matched;
          hi = i;
          if (lo == run_end) lo = i;
        }
      }
      if (matched == 0) {  // fully filtered-out cell: no aggregate at all
        row = run_end;
        continue;
      }
      min_key = keys[lo];
      max_key = keys[hi];
    } else {
      matched = static_cast<uint32_t>(run_len);
      min_key = keys[row];
      max_key = keys[run_end - 1];
    }
    b.cells.push_back(cell_id);
    b.offsets.push_back(matched_so_far);
    b.counts.push_back(matched);
    b.min_keys.push_back(min_key);
    b.max_keys.push_back(max_key);
    const size_t agg_base = b.column_aggs.size();
    b.column_aggs.resize(agg_base + b.num_columns);
    for (size_t c = 0; c < b.num_columns; ++c) {
      ColumnAggregate* agg = &b.column_aggs[agg_base + c];
      if (filtered) {
        kern.aggregate_column_masked(col_ptrs[c] + row, mask.data() + row,
                                     run_len, agg);
      } else {
        kern.aggregate_column(col_ptrs[c] + row, run_len, agg);
      }
      b.header.global.columns[c].Merge(*agg);
    }
    b.header.global.count += matched;
    matched_so_far += matched;
    row = run_end;
  }

  block.InstallState(b.Finish());
  return block;
}

GeoBlock GeoBlock::CoarsenTo(int level) const {
  if (level >= level_) {
    // Refining requires the base data; same level is a copy.
    if (level == level_) return *this;
    if (!data_.has_data()) {
      // Deserialized blocks are self-contained cell aggregates without base
      // rows; they can coarsen but not refine.
      throw std::logic_error(
          "GeoBlock::CoarsenTo: refining requires the base data");
    }
    // Re-scan the base rows under the block's own filter so a refined
    // filtered block aggregates exactly the rows the original did.
    return Build(data_, BlockOptions{level, filter_});
  }

  const std::shared_ptr<const BlockState> state = StateSnapshot();
  GeoBlock block;
  block.data_ = data_;
  block.filter_ = filter_;
  block.projection_ = projection_;
  block.level_ = level;
  block.num_columns_ = num_columns_;

  StateBuilder b;
  b.header.level = level;
  b.num_columns = num_columns_;
  b.header.global = state->header.global;

  const CellArray<uint64_t>& src_cells = state->cells;
  const uint64_t lsb = cell::CellId::LsbForLevel(level);
  uint64_t current_cell = 0;
  for (size_t i = 0; i < src_cells.size(); ++i) {
    const uint64_t parent = (src_cells[i] & (~lsb + 1)) | lsb;
    if (parent != current_cell) {
      b.cells.push_back(parent);
      b.offsets.push_back(state->offsets[i]);
      b.counts.push_back(0);
      b.min_keys.push_back(state->min_keys[i]);
      b.max_keys.push_back(state->max_keys[i]);
      b.column_aggs.resize(b.column_aggs.size() + num_columns_);
      current_cell = parent;
    }
    const size_t idx = b.cells.size() - 1;
    b.counts[idx] += state->counts[i];
    b.max_keys[idx] = state->max_keys[i];
    ColumnAggregate* dst = b.column_aggs.data() + idx * num_columns_;
    const ColumnAggregate* src = state->cell_columns(i);
    for (size_t c = 0; c < num_columns_; ++c) dst[c].Merge(src[c]);
  }
  block.InstallState(b.Finish());
  return block;
}

void GeoBlock::AttachData(storage::DatasetView view) {
  if (data_.has_data()) {
    throw std::logic_error(
        "GeoBlock::AttachData: block already has base data; DetachData "
        "first");
  }
  if (view.has_data() && view.num_columns() != num_columns_) {
    throw std::runtime_error(
        "GeoBlock::AttachData: view column count does not match the block");
  }
  data_ = std::move(view);
}

// ---------------------------------------------------------------------------
// Covering and queries (each pins one state version)
// ---------------------------------------------------------------------------

std::vector<cell::CellId> CoverPolygon(const geo::Projection& projection,
                                       int level,
                                       const geo::Polygon& polygon) {
  std::vector<cell::CellId> covering;
  CoverPolygonInto(projection, level, polygon, &covering);
  return covering;
}

void CoverPolygonInto(const geo::Projection& projection, int level,
                      const geo::Polygon& polygon,
                      std::vector<cell::CellId>* out) {
  thread_local geo::Polygon unit;
  thread_local std::vector<cell::CoveringCell> covering;
  projection.ToUnit(polygon, &unit);
  cell::GetCovering(unit, level, &covering);
  out->clear();
  for (const cell::CoveringCell& cc : covering) out->push_back(cc.cell);
}

std::vector<cell::CellId> GeoBlock::Cover(const geo::Polygon& polygon) const {
  return CoverPolygon(projection_, level_, polygon);
}

QueryResult GeoBlock::Select(const geo::Polygon& polygon,
                             const AggregateRequest& request) const {
  const std::vector<cell::CellId> covering = Cover(polygon);
  return SelectCovering(covering, request);
}

QueryResult GeoBlock::SelectCovering(std::span<const cell::CellId> covering,
                                     const AggregateRequest& request) const {
  const util::SnapshotCell<BlockState>::ReadGuard state(*state_);
  return state->SelectCovering(covering, request);
}

uint64_t GeoBlock::Count(const geo::Polygon& polygon) const {
  const std::vector<cell::CellId> covering = Cover(polygon);
  return CountCovering(covering);
}

uint64_t GeoBlock::CountCovering(
    std::span<const cell::CellId> covering) const {
  const util::SnapshotCell<BlockState>::ReadGuard state(*state_);
  return state->CountCovering(covering);
}

AggregateVector GeoBlock::AggregateForCell(cell::CellId cell) const {
  const util::SnapshotCell<BlockState>::ReadGuard state(*state_);
  return state->AggregateForCell(cell);
}

// ---------------------------------------------------------------------------
// The MVCC write plane: clone-patch-publish
// ---------------------------------------------------------------------------

namespace {

/// One classified tuple of an update batch.
struct UpdateHit {
  size_t idx;  ///< cell-aggregate index the tuple lands in
  size_t b;    ///< batch index
  uint64_t key;
};

/// Clones `src` into the vector `slot->TakeVector()` hands out (assign
/// reuses its capacity when it suffices). The clone is owned even when
/// `src` is a view of a mapped payload.
template <typename T>
std::shared_ptr<std::vector<T>> CloneReusing(CellArray<T>* slot,
                                             const CellArray<T>& src) {
  std::shared_ptr<std::vector<T>> out = slot->TakeVector();
  out->assign(src.begin(), src.end());
  return out;
}

/// Copies `src`, rows of `width` entries, into the vector
/// `slot->TakeVector()` hands out, inserting a row of `fill` before old row
/// p for each p in the ascending `at` (a repeated p inserts several rows).
template <typename T>
std::shared_ptr<std::vector<T>> MergeReusing(
    CellArray<T>* slot, const CellArray<T>& src, size_t width,
    std::span<const size_t> at, const T& fill) {
  std::shared_ptr<std::vector<T>> out = slot->TakeVector();
  out->clear();
  out->reserve(src.size() + at.size() * width);
  size_t from = 0;
  for (const size_t p : at) {
    out->insert(out->end(), src.begin() + from * width,
                src.begin() + p * width);
    out->insert(out->end(), width, fill);
    from = p;
  }
  out->insert(out->end(), src.begin() + from * width, src.end());
  return out;
}

}  // namespace

GeoBlock::UpdateResult GeoBlock::ApplyBatchUpdate(
    std::span<const UpdateTuple> batch, std::span<const uint32_t> subset) {
  // Writers are externally serialized, so the raw current version is
  // stable for the whole commit.
  const BlockState* cur = CurrentState();
  const CellArray<uint64_t>& ids = cur->cells;
  const uint64_t lsb = cell::CellId::LsbForLevel(level_);
  const auto cell_of = [lsb](uint64_t key) { return (key & (~lsb + 1)) | lsb; };

  // Pass 1: classify the batch against the (frozen) cell layout. A tuple
  // whose grid cell has no aggregate yet lands before index `pos` and
  // collects its cell in `fresh`. The scratch is thread-local — its
  // capacity survives across commits, so the steady state never allocates
  // here (writers to different blocks on one thread share the scratch; its
  // contents are per-call).
  thread_local std::vector<UpdateHit> hits;
  thread_local std::vector<uint64_t> fresh;
  thread_local std::vector<size_t> at;
  hits.clear();
  fresh.clear();
  const size_t m = subset.empty() ? batch.size() : subset.size();
  for (size_t j = 0; j < m; ++j) {
    const size_t b = subset.empty() ? j : subset[j];
    const uint64_t key =
        cell::CellId::FromPoint(projection_.ToUnit(batch[b].location)).id();
    const uint64_t cell_id = cell_of(key);
    const size_t pos =
        kernels::LowerBoundU64(ids.data(), ids.size(), cell_id);
    if (pos == ids.size() || ids[pos] != cell_id) fresh.push_back(cell_id);
    hits.push_back({pos, b, key});
  }
  // An empty batch publishes nothing: the state pointer is unchanged.
  if (hits.empty()) return {};

  // Pass 2: the successor's arrays. The successor node and its arrays come
  // out of the arena — in the steady state this reuses the allocations of
  // the version the previous commit retired.
  std::shared_ptr<BlockState> next = arena_->Acquire();
  next->header = cur->header;
  next->num_columns = num_columns_;
  // A recycled spare may be a retired eviction tombstone; successors are
  // always real, materialized versions.
  next->evicted = false;
  std::shared_ptr<std::vector<uint32_t>> counts;
  std::shared_ptr<std::vector<uint64_t>> min_keys;
  std::shared_ptr<std::vector<uint64_t>> max_keys;
  std::shared_ptr<std::vector<ColumnAggregate>> column_aggs;
  if (fresh.empty()) {
    // Every tuple hits an existing cell: clone only the touched arrays. The
    // cell-id array is shared with the predecessor once it is owned; a view
    // of decoded bytes is cloned on this first commit, so no committed
    // version pins a decode buffer or the mapping.
    counts = CloneReusing(&next->counts, cur->counts);
    min_keys = CloneReusing(&next->min_keys, cur->min_keys);
    max_keys = CloneReusing(&next->max_keys, cur->max_keys);
    column_aggs = CloneReusing(&next->column_aggs, cur->column_aggs);
    if (cur->cells.owned()) {
      next->cells = cur->cells;
    } else {
      next->cells =
          CellArray<uint64_t>(CloneReusing(&next->cells, cur->cells));
    }
  } else {
    // New cells (Section 5's rebuild): one linear merge of the sorted
    // layout with an empty slot per new cell, no base-row rescan. The
    // tuples then fold into their slots exactly like in-cell tuples.
    std::sort(fresh.begin(), fresh.end());
    fresh.erase(std::unique(fresh.begin(), fresh.end()), fresh.end());
    at.clear();
    for (const uint64_t c : fresh) {
      at.push_back(kernels::LowerBoundU64(ids.data(), ids.size(), c));
    }
    auto cells = MergeReusing(&next->cells, ids, 1, at, uint64_t{0});
    for (size_t k = 0; k < fresh.size(); ++k) (*cells)[at[k] + k] = fresh[k];
    counts = MergeReusing(&next->counts, cur->counts, 1, at, uint32_t{0});
    min_keys =
        MergeReusing(&next->min_keys, cur->min_keys, 1, at, ~uint64_t{0});
    max_keys =
        MergeReusing(&next->max_keys, cur->max_keys, 1, at, uint64_t{0});
    column_aggs = MergeReusing(&next->column_aggs, cur->column_aggs,
                               num_columns_, at, ColumnAggregate{});
    // Each slot moves up by the number of new cells sorted before it.
    for (UpdateHit& h : hits) {
      h.idx += static_cast<size_t>(
          std::lower_bound(fresh.begin(), fresh.end(), cell_of(h.key)) -
          fresh.begin());
    }
    next->header.min_cell = cells->front();
    next->header.max_cell = cells->back();
    next->cells = CellArray<uint64_t>(std::move(cells));
  }
  std::shared_ptr<std::vector<uint32_t>> offsets = next->offsets.TakeVector();

  // Pass 3: fold every tuple into its slot with ColumnAggregate::Add, in
  // batch order — never a pre-summed partial — so a batch is bit-identical
  // to its tuples committed one at a time, and routed shards to one block.
  for (const UpdateHit& h : hits) {
    const UpdateTuple& tuple = batch[h.b];
    ++(*counts)[h.idx];
    (*min_keys)[h.idx] = std::min((*min_keys)[h.idx], h.key);
    (*max_keys)[h.idx] = std::max((*max_keys)[h.idx], h.key);
    ColumnAggregate* cols = column_aggs->data() + h.idx * num_columns_;
    ++next->header.global.count;
    for (size_t c = 0; c < num_columns_; ++c) {
      cols[c].Add(tuple.values[c]);
      next->header.global.columns[c].Add(tuple.values[c]);
    }
  }
  // Restore the prefix-sum invariant of the offsets in one pass.
  const size_t n = next->cells.size();
  offsets->resize(n);
  uint32_t running = 0;
  for (size_t i = 0; i < n; ++i) {
    (*offsets)[i] = running;
    running += (*counts)[i];
  }
  next->counts = CellArray<uint32_t>(std::move(counts));
  next->min_keys = CellArray<uint64_t>(std::move(min_keys));
  next->max_keys = CellArray<uint64_t>(std::move(max_keys));
  next->column_aggs = CellArray<ColumnAggregate>(std::move(column_aggs));
  next->offsets = CellArray<uint32_t>(std::move(offsets));

  PublishState(std::move(next));
  return {hits.size()};
}

// ---------------------------------------------------------------------------
// Lazy materialization plane (BlockSet::OpenMapped machinery)
// ---------------------------------------------------------------------------

void GeoBlock::AdoptDeserialized(GeoBlock&& loaded, bool adopt_config) {
  std::shared_ptr<const BlockState> state = loaded.StateSnapshot();
  if (adopt_config) {
    // First materialization: no reader has ever seen this shard's
    // configuration (BlockSet routes cold shards by manifest boundaries
    // and serializes them through the residency lock), so the scalar
    // fields are safe to set exactly once here. On a re-fault they are
    // left alone — the manifest cross-checks guarantee the re-loaded
    // values are identical, and rewriting them would race readers.
    filter_ = std::move(loaded.filter_);
    projection_ = loaded.projection_;
    level_ = loaded.level_;
    num_columns_ = loaded.num_columns_;
  }
  // Publish through the existing cell: readers and the shard's
  // GeoBlockQC keep their pointers; the routing mirror advances to the
  // loaded hull (identical to the manifest hull on a re-fault).
  PublishState(std::move(state));
}

void GeoBlock::EvictState() {
  auto tomb = std::make_shared<BlockState>();
  tomb->evicted = true;
  tomb->header.level = level_;
  tomb->num_columns = num_columns_;
  // Publish the tombstone through the normal epoch swap — the retired
  // version is freed only after its grace period drains, so pinned
  // readers keep answering bitwise-stably from it. The routing atomics
  // stay at the (manifest-true) hull of the evicted clean shard.
  state_->Publish(std::move(tomb));
  // The retire hook may have parked the big retired version as an arena
  // spare; eviction exists to reclaim those bytes.
  arena_->Clear();
}

// ---------------------------------------------------------------------------
// Sizes
// ---------------------------------------------------------------------------

size_t GeoBlock::CellAggregateBytes() const {
  return StateSnapshot()->CellAggregateBytes();
}

size_t GeoBlock::MemoryBytes() const {
  const std::shared_ptr<const BlockState> state = StateSnapshot();
  return sizeof(BlockHeader) +
         state->header.global.columns.size() * sizeof(ColumnAggregate) +
         state->CellAggregateBytes();
}

}  // namespace geoblocks::core
