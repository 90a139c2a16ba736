#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <memory>
#include <random>
#include <span>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "core/block_set.h"
#include "core/geoblock.h"
#include "storage/sharded_dataset.h"
#include "util/thread_pool.h"
#include "workload/datagen.h"
#include "workload/polygen.h"

namespace geoblocks {
namespace {

using core::AggFn;
using core::AggregateRequest;
using core::BlockSet;
using core::BlockSetOptions;
using core::GeoBlock;
using core::QueryResult;

/// Sharded execution must be indistinguishable from a single block: the
/// shard cut is aligned to cell boundaries, shards are visited in key
/// order, and each shard combines its aggregates in ascending order, so
/// even the floating-point sums are reproduced bit for bit. This is the
/// same invariant integration_test.cc checks for the sorted baselines.
class BlockSetTest : public ::testing::Test {
 protected:
  static constexpr int kLevel = 15;

  static void SetUpTestSuite() {
    raw_ = new storage::PointTable(workload::GenTaxi(40000, 11));
    storage::ExtractOptions options;
    options.clean_bounds = workload::NycBounds();
    data_ = new storage::SortedDataset(
        storage::SortedDataset::Extract(*raw_, options));
    block_ = new GeoBlock(
        GeoBlock::Build(*data_, core::BlockOptions{kLevel, {}}));
    polygons_ = new std::vector<geo::Polygon>(
        workload::Neighborhoods(*raw_, 30, 12));
  }
  static void TearDownTestSuite() {
    delete polygons_;
    delete block_;
    delete data_;
    delete raw_;
    polygons_ = nullptr;
    block_ = nullptr;
    data_ = nullptr;
    raw_ = nullptr;
  }

  static AggregateRequest Request() {
    AggregateRequest req;
    req.Add(AggFn::kCount);
    req.Add(AggFn::kSum, 0);
    req.Add(AggFn::kMin, 1);
    req.Add(AggFn::kMax, 2);
    req.Add(AggFn::kAvg, 3);
    req.Add(AggFn::kSum, 5);
    return req;
  }

  static void ExpectBitIdentical(const QueryResult& got,
                                 const QueryResult& want, const char* what) {
    ASSERT_EQ(got.count, want.count) << what;
    ASSERT_EQ(got.values.size(), want.values.size()) << what;
    for (size_t i = 0; i < got.values.size(); ++i) {
      ASSERT_EQ(got.values[i], want.values[i]) << what << " value " << i;
    }
  }

  static storage::ShardedDataset Shard(size_t k, int align_level = kLevel) {
    storage::ShardOptions options;
    options.num_shards = k;
    options.align_level = align_level;
    return storage::ShardedDataset::Partition(*data_, options);
  }

  static storage::PointTable* raw_;
  static storage::SortedDataset* data_;
  static GeoBlock* block_;
  static std::vector<geo::Polygon>* polygons_;
};

storage::PointTable* BlockSetTest::raw_ = nullptr;
storage::SortedDataset* BlockSetTest::data_ = nullptr;
GeoBlock* BlockSetTest::block_ = nullptr;
std::vector<geo::Polygon>* BlockSetTest::polygons_ = nullptr;

TEST_F(BlockSetTest, PartitionPreservesRowsAndOrder) {
  const storage::ShardedDataset sharded = Shard(4);
  ASSERT_EQ(sharded.num_shards(), 4u);
  ASSERT_EQ(sharded.total_rows(), data_->num_rows());
  // Concatenating the shard keys reproduces the sorted key sequence.
  size_t row = 0;
  for (size_t s = 0; s < sharded.num_shards(); ++s) {
    for (const uint64_t key : sharded.shard(s).keys()) {
      ASSERT_EQ(key, data_->keys()[row]) << "row " << row;
      ++row;
    }
  }
  ASSERT_EQ(row, data_->num_rows());
}

TEST_F(BlockSetTest, PartitionIsZeroCopy) {
  const storage::ShardedDataset sharded = Shard(6);
  ASSERT_EQ(sharded.parent().get(), data_);
  size_t offset = 0;
  for (size_t s = 0; s < sharded.num_shards(); ++s) {
    const storage::DatasetView& view = sharded.shard(s);
    // The shard's spans alias the parent's arrays — no row was copied.
    EXPECT_EQ(view.keys().data(), data_->keys().data() + view.offset());
    EXPECT_EQ(view.xs().data(), data_->xs().data() + view.offset());
    EXPECT_EQ(view.offset(), offset);
    offset += view.num_rows();
  }
  EXPECT_EQ(offset, data_->num_rows());
}

TEST_F(BlockSetTest, PartitionMemoryIsMetadataPlusOneParent) {
  const storage::ShardedDataset sharded = Shard(8);
  // The partition adds O(K) metadata on top of the single shared payload;
  // the old deep-copy design effectively doubled MemoryBytes here.
  EXPECT_EQ(sharded.MemoryBytes(),
            data_->MemoryBytes() + sharded.PartitionOverheadBytes());
  EXPECT_LT(sharded.PartitionOverheadBytes(), data_->MemoryBytes() / 100);
  EXPECT_EQ(sharded.total_rows(), data_->num_rows());
}

TEST_F(BlockSetTest, PartitionValidatesOptions) {
  storage::ShardOptions zero_shards;
  zero_shards.num_shards = 0;
  EXPECT_THROW(storage::ShardedDataset::Partition(*data_, zero_shards),
               std::invalid_argument);
  storage::ShardOptions negative_level;
  negative_level.align_level = -1;
  EXPECT_THROW(storage::ShardedDataset::Partition(*data_, negative_level),
               std::invalid_argument);
  storage::ShardOptions too_fine;
  too_fine.align_level = cell::CellId::kMaxLevel + 1;
  EXPECT_THROW(storage::ShardedDataset::Partition(*data_, too_fine),
               std::invalid_argument);
  EXPECT_THROW(
      storage::ShardedDataset::Partition(
          std::shared_ptr<const storage::SortedDataset>(), {}),
      std::invalid_argument);
}

TEST_F(BlockSetTest, MoveOverloadValidatesBeforeConsumingData) {
  storage::SortedDataset copy = data_->Slice(0, 1000);
  storage::ShardOptions bad;
  bad.num_shards = 0;
  EXPECT_THROW(storage::ShardedDataset::Partition(std::move(copy), bad),
               std::invalid_argument);
  // Validation happens before the move, so a failed call leaves the rows
  // with the caller for a retry.
  ASSERT_EQ(copy.num_rows(), 1000u);
  const storage::ShardedDataset sharded =
      storage::ShardedDataset::Partition(std::move(copy), {});
  EXPECT_EQ(sharded.total_rows(), 1000u);
}

TEST_F(BlockSetTest, PartitionAlignsToCellBoundaries) {
  const storage::ShardedDataset sharded = Shard(5);
  // No align-level cell may span two shards: the last key of a shard and
  // the first key of the next shard must fall into different cells.
  uint64_t prev_last = 0;
  bool have_prev = false;
  for (size_t s = 0; s < sharded.num_shards(); ++s) {
    const storage::DatasetView& shard = sharded.shard(s);
    if (shard.num_rows() == 0) continue;
    const cell::CellId first =
        cell::CellId(shard.keys().front()).Parent(kLevel);
    if (have_prev) {
      EXPECT_NE(first, cell::CellId(prev_last).Parent(kLevel))
          << "shard " << s << " splits a level-" << kLevel << " cell";
    }
    prev_last = shard.keys().back();
    have_prev = true;
  }
}

/// Taxi rows moved into one dense cluster of a few grid cells (nine rows in
/// ten) plus a sparse spread over the whole of NYC (one cell per row, or
/// nearly): equal row counts and equal cell counts cut this data in very
/// different places.
storage::PointTable SkewedTable(const storage::PointTable& taxi,
                                uint64_t seed) {
  std::mt19937_64 rng(seed);
  std::normal_distribution<double> dense(0.0, 0.004);
  std::uniform_real_distribution<double> unit(0.0, 1.0);
  const geo::Rect nyc = workload::NycBounds();
  storage::PointTable out(taxi.schema());
  std::vector<double> values(taxi.num_columns());
  for (size_t r = 0; r < taxi.num_rows(); ++r) {
    for (size_t c = 0; c < values.size(); ++c) values[c] = taxi.Value(r, c);
    geo::Point p;
    if (rng() % 10 != 0) {
      p = {-73.98 + dense(rng), 40.75 + dense(rng)};
    } else {
      p = {nyc.min.x + unit(rng) * nyc.Width(),
           nyc.min.y + unit(rng) * nyc.Height()};
    }
    out.AddRow(p, values);
  }
  return out;
}

/// Distinct `level` cells among sorted leaf keys, told apart with
/// CellId::Parent.
size_t DistinctCells(std::span<const uint64_t> keys, int level) {
  size_t cells = 0;
  for (size_t r = 0; r < keys.size(); ++r) {
    cells += r == 0 || cell::CellId(keys[r]).Parent(level) !=
                           cell::CellId(keys[r - 1]).Parent(level);
  }
  return cells;
}

/// The rule Partition promises, checked against CellId::Parent: shard i
/// holds cell ranks [iC/K, (i+1)C/K) of the C distinct align-level cells,
/// so floor(C/K) or ceil(C/K) of them; no cell spans two shards; and
/// ShardForKey routes every row's key to the shard whose view holds it.
void ExpectCellBalanced(const storage::SortedDataset& data,
                        const storage::ShardedDataset& sharded, int align) {
  const size_t total_cells = DistinctCells(data.keys(), align);
  const size_t k = sharded.num_shards();
  ASSERT_EQ(sharded.total_rows(), data.num_rows());
  ASSERT_EQ(sharded.boundaries().size(), k + 1);
  size_t seen_cells = 0;
  uint64_t prev_last = 0;
  bool have_prev = false;
  for (size_t s = 0; s < k; ++s) {
    const storage::DatasetView& shard = sharded.shard(s);
    const size_t cells = DistinctCells(shard.keys(), align);
    for (size_t r = 0; r < shard.num_rows(); ++r) {
      ASSERT_EQ(storage::ShardForKey(sharded.boundaries(), shard.keys()[r]),
                s)
          << "K=" << k << " row " << shard.offset() + r;
    }
    EXPECT_GE(cells, total_cells / k) << "K=" << k << " shard " << s;
    EXPECT_LE(cells, (total_cells + k - 1) / k) << "K=" << k << " shard " << s;
    seen_cells += cells;
    if (shard.num_rows() == 0) continue;
    if (have_prev) {
      EXPECT_NE(cell::CellId(shard.keys().front()).Parent(align),
                cell::CellId(prev_last).Parent(align))
          << "K=" << k << " shard " << s << " splits a level-" << align
          << " cell";
    }
    prev_last = shard.keys().back();
    have_prev = true;
  }
  EXPECT_EQ(seen_cells, total_cells) << "K=" << k;
}

TEST_F(BlockSetTest, PartitionBalancesDistinctCells) {
  for (const size_t k : {size_t{1}, size_t{2}, size_t{4}, size_t{7},
                         size_t{16}, size_t{64}}) {
    ExpectCellBalanced(*data_, Shard(k), kLevel);
  }

  // More shards than cells: some shards are empty, keep their index, and
  // receive no key.
  constexpr int kCoarse = 11;
  const size_t coarse_cells = DistinctCells(data_->keys(), kCoarse);
  ASSERT_GT(coarse_cells, 1u);
  const storage::ShardedDataset sparse = Shard(2 * coarse_cells + 3, kCoarse);
  size_t empty = 0;
  for (const storage::DatasetView& view : sparse.shards()) {
    empty += view.num_rows() == 0;
  }
  EXPECT_EQ(empty, coarse_cells + 3);
  ExpectCellBalanced(*data_, sparse, kCoarse);

  // The skewed data: one block against K cell-balanced shards.
  const storage::PointTable skewed_raw = SkewedTable(*raw_, 32);
  storage::ExtractOptions extract;
  extract.clean_bounds = workload::NycBounds();
  const storage::SortedDataset skewed =
      storage::SortedDataset::Extract(skewed_raw, extract);
  const GeoBlock single =
      GeoBlock::Build(skewed, core::BlockOptions{kLevel, {}});
  std::vector<geo::Polygon> polygons =
      workload::Neighborhoods(skewed_raw, 20, 5);
  for (geo::Polygon& poly :
       workload::Neighborhoods(skewed_raw, 20, 6, 0.002, 0.01)) {
    polygons.push_back(std::move(poly));
  }
  const AggregateRequest req = Request();
  for (const size_t k : {size_t{1}, size_t{4}, size_t{7}, size_t{32}}) {
    storage::ShardOptions options;
    options.num_shards = k;
    options.align_level = kLevel;
    const storage::ShardedDataset sharded =
        storage::ShardedDataset::Partition(skewed, options);
    ExpectCellBalanced(skewed, sharded, kLevel);
    const BlockSet set =
        BlockSet::Build(sharded, BlockSetOptions{{kLevel, {}}});
    ASSERT_EQ(set.num_cells(), single.num_cells()) << "K=" << k;
    for (const geo::Polygon& poly : polygons) {
      const auto covering = single.Cover(poly);
      const QueryResult want = single.SelectCovering(covering, req);
      const QueryResult got = set.SelectCovering(covering, req);
      ASSERT_EQ(got.count, want.count) << "K=" << k;
      ASSERT_EQ(got.values.size(), want.values.size());
      ASSERT_EQ(std::memcmp(got.values.data(), want.values.data(),
                            got.values.size() * sizeof(double)),
                0)
          << "K=" << k;
      ASSERT_EQ(set.CountCovering(covering), single.CountCovering(covering))
          << "K=" << k;
    }
  }
}

TEST_F(BlockSetTest, ShardedResultsBitIdenticalToSingleBlock) {
  util::ThreadPool pool(4);
  const AggregateRequest req = Request();
  for (const size_t k : {size_t{1}, size_t{4}, size_t{7}}) {
    const storage::ShardedDataset sharded = Shard(k);
    const BlockSet set =
        BlockSet::Build(sharded, BlockSetOptions{{kLevel, {}}}, &pool);
    ASSERT_EQ(set.num_shards(), k);
    ASSERT_EQ(set.num_cells(), block_->num_cells()) << "K=" << k;
    for (const geo::Polygon& poly : *polygons_) {
      const auto covering = block_->Cover(poly);
      ExpectBitIdentical(set.SelectCovering(covering, req),
                         block_->SelectCovering(covering, req), "select");
      EXPECT_EQ(set.CountCovering(covering),
                block_->CountCovering(covering));
    }
  }
}

TEST_F(BlockSetTest, PooledBuildRethrowsBlockErrorOnCaller) {
  // Every shard's GeoBlock::Build rejects level 31 on a pool worker; the
  // typed error must reach the caller instead of terminating the process.
  util::ThreadPool pool(4);
  const storage::ShardedDataset sharded = Shard(4);
  EXPECT_THROW(BlockSet::Build(sharded, BlockSetOptions{{31, {}}}, &pool),
               std::invalid_argument);
  EXPECT_THROW(BlockSet::Build(sharded, BlockSetOptions{{31, {}}}),
               std::invalid_argument);
}

TEST_F(BlockSetTest, CoarseAlignmentCreatesEmptyShardsButStaysCorrect) {
  // Aligning at a very coarse level leaves fewer cells than shards, so
  // some shards are empty. Results must be unaffected. (The block level
  // must stay >= align_level for the bit-identical guarantee, so build at
  // kLevel with align 6.)
  const storage::ShardedDataset sharded = Shard(16, 6);
  ASSERT_EQ(sharded.num_shards(), 16u);
  size_t empty = 0;
  for (size_t s = 0; s < sharded.num_shards(); ++s) {
    if (sharded.shard(s).num_rows() == 0) ++empty;
  }
  EXPECT_GT(empty, 0u) << "expected coarse alignment to produce empty shards";
  ASSERT_EQ(sharded.total_rows(), data_->num_rows());

  const BlockSet set = BlockSet::Build(sharded, BlockSetOptions{{kLevel, {}}});
  const AggregateRequest req = Request();
  for (const geo::Polygon& poly : *polygons_) {
    const auto covering = block_->Cover(poly);
    ExpectBitIdentical(set.SelectCovering(covering, req),
                       block_->SelectCovering(covering, req), "empty-shards");
  }
}

/// A seeded random covering: sorted, disjoint cells from eight levels above
/// the grid to three below it, around data leaves, uniform points and the
/// `edges` grid cells (each shard's first and last). Each shard sees cells
/// before its min_cell and after its max_cell, and the finer cells put
/// several covering cells into one grid cell, at shard edges too.
std::vector<cell::CellId> RandomCovering(const storage::SortedDataset& data,
                                         std::span<const cell::CellId> edges,
                                         int level, size_t n,
                                         std::mt19937_64* rng) {
  std::uniform_int_distribution<int> levels(level - 8, level + 3);
  std::uniform_real_distribution<double> unit(0.0, 1.0);
  std::vector<cell::CellId> cells;
  for (size_t i = 0; i < n; ++i) {
    const uint64_t source = (*rng)() % 4;
    if (source == 0) {
      const double x = unit(*rng);
      cells.push_back(
          cell::CellId::FromPoint({x, unit(*rng)}).Parent(levels(*rng)));
      continue;
    }
    if (source == 1) {
      // Some children (or grandchildren) of a shard's edge grid cell.
      const cell::CellId edge = edges[(*rng)() % edges.size()];
      for (int k = 0; k < 4; ++k) {
        if ((*rng)() % 2 == 0) continue;
        const cell::CellId child = edge.Child(k);
        cells.push_back((*rng)() % 2 == 0 ? child
                                          : child.Child((*rng)() % 4));
      }
      continue;
    }
    // Rows next to each other in key order share grid cells: a few of
    // them at levels below the grid clamp to one grid cell.
    const size_t row = (*rng)() % data.num_rows();
    const size_t run = (*rng)() % 2 == 0 ? 1 : 3;
    for (size_t r = row; r < std::min(row + run, data.num_rows()); ++r) {
      const int l = run == 1 ? levels(*rng) : level + 1 + (*rng)() % 3;
      cells.push_back(cell::CellId(data.keys()[r]).Parent(l));
    }
  }
  std::sort(cells.begin(), cells.end(), [](cell::CellId a, cell::CellId b) {
    return a.RangeMin() < b.RangeMin();
  });
  std::vector<cell::CellId> covering;
  for (const cell::CellId c : cells) {
    if (covering.empty() || c.RangeMin() > covering.back().RangeMax()) {
      covering.push_back(c);
    }
  }
  return covering;
}

/// The oracle: a fold that searches for each cell on its own. Clamp to the
/// grid, prune against [min_cell, max_cell], std::lower_bound from just
/// past the last folded aggregate, std::upper_bound from there, fold.
QueryResult PerCellFold(const core::BlockState& state,
                        std::span<const cell::CellId> covering,
                        const AggregateRequest& request) {
  core::Accumulator acc(&request);
  const int level = state.header.level;
  const uint64_t* ids = state.cells.data();
  const size_t n = state.cells.size();
  size_t from = 0;
  for (cell::CellId q : covering) {
    if (q.level() > level) q = q.Parent(level);
    if (!state.MayOverlap(q)) continue;
    const size_t begin = static_cast<size_t>(
        std::lower_bound(ids + from, ids + n, q.ChildBegin(level).id()) - ids);
    const size_t end = static_cast<size_t>(
        std::upper_bound(ids + begin, ids + n, q.ChildLast(level).id()) -
        ids);
    if (end == begin) continue;
    acc.AddCellRange(state.counts.data() + begin,
                     state.column_aggs.data() + begin * state.num_columns,
                     end - begin, state.num_columns);
    from = end;
  }
  return acc.Finish();
}

TEST_F(BlockSetTest, CursorFoldMatchesPerCellSearch) {
  // The single block plus every shard of a coarse-aligned set, empty
  // shards included.
  const storage::ShardedDataset sharded = Shard(16, 6);
  const BlockSet set = BlockSet::Build(sharded, BlockSetOptions{{kLevel, {}}});
  std::vector<std::shared_ptr<const core::BlockState>> states{
      block_->StateSnapshot()};
  size_t empty_shards = 0;
  std::vector<cell::CellId> edges;
  for (size_t s = 0; s < set.num_shards(); ++s) {
    states.push_back(set.shard(s).StateSnapshot());
    if (states.back()->num_cells() == 0) {
      ++empty_shards;
      continue;
    }
    edges.emplace_back(states.back()->header.min_cell);
    edges.emplace_back(states.back()->header.max_cell);
  }
  ASSERT_GT(empty_shards, 0u);
  const AggregateRequest req = Request();
  std::mt19937_64 rng(30);
  size_t shared_grid_cells = 0;
  for (size_t round = 0; round < 300; ++round) {
    const std::vector<cell::CellId> covering =
        RandomCovering(*data_, edges, kLevel, 1 + round % 80, &rng);
    for (size_t i = 1; i < covering.size(); ++i) {
      if (covering[i - 1].level() > kLevel && covering[i].level() > kLevel &&
          covering[i - 1].Parent(kLevel) == covering[i].Parent(kLevel)) {
        ++shared_grid_cells;
      }
    }
    for (const auto& state : states) {
      const QueryResult want = PerCellFold(*state, covering, req);
      const QueryResult got = state->SelectCovering(covering, req);
      ASSERT_EQ(got.count, want.count) << "round " << round;
      ASSERT_EQ(got.values.size(), want.values.size());
      ASSERT_EQ(std::memcmp(got.values.data(), want.values.data(),
                            got.values.size() * sizeof(double)),
                0)
          << "round " << round;
      ASSERT_EQ(state->CountCovering(covering), want.count)
          << "round " << round;
    }
  }
  EXPECT_GT(shared_grid_cells, 0u);
}

TEST_F(BlockSetTest, CountFoldsFinerCellsOnce) {
  // The four children of a grid cell clamp to it; the set folds its tuples
  // once, in COUNT as in SELECT.
  const BlockSet set = BlockSet::Build(Shard(4), BlockSetOptions{{kLevel, {}}});
  AggregateRequest count_req;
  count_req.Add(AggFn::kCount);
  for (size_t i = 0; i < block_->num_cells(); i += 7) {
    const cell::CellId grid(block_->cells()[i]);
    const std::vector<cell::CellId> children{grid.Child(0), grid.Child(1),
                                             grid.Child(2), grid.Child(3)};
    ASSERT_EQ(set.SelectCovering(children, count_req).count,
              block_->counts()[i])
        << "cell " << i;
    ASSERT_EQ(set.CountCovering(children), block_->counts()[i])
        << "cell " << i;
  }
}

/// The rule OverlappingShards promises, one shard and one cell at a time:
/// shard s is routed iff its manifest key range [bounds[s], bounds[s+1])
/// (the last shard's closed at the end key) is non-empty and meets some
/// covering cell's leaf range.
std::vector<size_t> KeyRangeShards(std::span<const uint64_t> bounds,
                                   std::span<const cell::CellId> covering) {
  std::vector<size_t> shards;
  const size_t k = bounds.size() - 1;
  for (size_t s = 0; s < k; ++s) {
    if (bounds[s] == bounds[s + 1]) continue;
    for (const cell::CellId c : covering) {
      if (c.RangeMax().id() >= bounds[s] &&
          (s + 1 == k || c.RangeMin().id() < bounds[s + 1])) {
        shards.push_back(s);
        break;
      }
    }
  }
  return shards;
}

/// Each child of every shard's first and last grid cell alone, then the
/// four together. A grid cell's id is its centre key, so two of its four
/// children lie outside the shard's [min_cell, max_cell] id hull while
/// still inside its key range.
std::vector<std::vector<cell::CellId>> EdgeChildCoverings(const BlockSet& set) {
  std::vector<std::vector<cell::CellId>> coverings;
  for (size_t s = 0; s < set.num_shards(); ++s) {
    const std::shared_ptr<const core::BlockState> state =
        set.shard(s).StateSnapshot();
    if (state->num_cells() == 0) continue;
    for (const uint64_t edge : {state->header.min_cell,
                                state->header.max_cell}) {
      const cell::CellId grid(edge);
      std::vector<cell::CellId> all;
      for (int c = 0; c < 4; ++c) {
        coverings.push_back({grid.Child(c)});
        all.push_back(grid.Child(c));
      }
      coverings.push_back(std::move(all));
    }
  }
  return coverings;
}

/// New-region tuples for `block`: one in the grid cell just below each
/// non-empty shard's lower boundary (the key range of the shard before it,
/// past that shard's last cell) when no cell holds it yet, then `random`
/// more in unpopulated cells.
std::vector<GeoBlock::UpdateTuple> NewRegionTuples(
    const GeoBlock& block, std::span<const uint64_t> bounds, size_t random,
    uint64_t seed) {
  std::mt19937_64 rng(seed);
  std::uniform_real_distribution<double> unit(0.0, 1.0);
  const auto populated = [&](cell::CellId c) {
    return std::binary_search(block.cells().begin(), block.cells().end(),
                              c.id());
  };
  std::vector<GeoBlock::UpdateTuple> batch;
  const auto add = [&](cell::CellId c) {
    GeoBlock::UpdateTuple t;
    t.location = block.projection().FromUnit(c.CenterPoint());
    t.values.assign(block.num_columns(),
                    static_cast<double>(rng() % 1000) / 10.0);
    batch.push_back(std::move(t));
  };
  for (size_t s = 1; s + 1 < bounds.size(); ++s) {
    if (bounds[s] == bounds[s + 1]) continue;
    // Leaf keys are odd: bounds[s] - 2 is the last one below the range.
    const cell::CellId below =
        cell::CellId(bounds[s] - 2).Parent(block.level());
    if (!populated(below)) add(below);
  }
  for (size_t n = 0; n < random;) {
    const double x = unit(rng);
    const cell::CellId c =
        cell::CellId::FromPoint({x, unit(rng)}).Parent(block.level());
    if (populated(c)) continue;
    add(c);
    ++n;
  }
  return batch;
}

TEST_F(BlockSetTest, RoutingByKeyRangeMatchesSingleBlock) {
  // Coverings finer than the grid at every shard's edges, and the
  // polygons', on eager sets and their cold mapped twins, before and after
  // new-region commits. 2C+3 shards over C level-11 cells leave empty
  // ranges between the occupied ones.
  constexpr int kCoarse = 11;
  const size_t coarse_cells = DistinctCells(data_->keys(), kCoarse);
  const AggregateRequest req = Request();
  const std::string path = ::testing::TempDir() + "block_set_routing.gbst";
  struct Cut {
    size_t k;
    int align;
  };
  for (const Cut cut : {Cut{1, kLevel}, Cut{4, kLevel}, Cut{7, kLevel},
                        Cut{2 * coarse_cells + 3, kCoarse}}) {
    BlockSet set = BlockSet::Build(Shard(cut.k, cut.align),
                                   BlockSetOptions{{kLevel, {}}});
    {
      std::ofstream out(path, std::ios::binary | std::ios::trunc);
      set.WriteTo(out);
    }
    BlockSet twin = BlockSet::OpenMapped(path);
    GeoBlock single(*block_);
    const std::vector<uint64_t>& bounds = set.boundaries();
    size_t empty_ranges = 0;
    for (size_t s = 0; s < cut.k; ++s) {
      empty_ranges += bounds[s] == bounds[s + 1];
    }
    if (cut.align == kCoarse) {
      ASSERT_GT(empty_ranges, 0u);
    }

    size_t finer_hits = 0;
    for (const bool updated : {false, true}) {
      if (updated) {
        const std::vector<GeoBlock::UpdateTuple> batch =
            NewRegionTuples(single, bounds, 32, cut.k);
        ASSERT_FALSE(batch.empty());
        set.ApplyBatchUpdate(batch);
        twin.ApplyBatchUpdate(batch);
        single.ApplyBatchUpdate(batch);
      }
      std::vector<std::vector<cell::CellId>> coverings =
          EdgeChildCoverings(set);
      for (const geo::Polygon& poly : *polygons_) {
        coverings.push_back(set.Cover(poly));
      }
      // Coarse cells straddle the boundaries, empty ranges' included.
      coverings.push_back({cell::CellId::Root()});
      for (const uint64_t b : bounds) {
        if (b != 0 && b != ~uint64_t{0}) {
          coverings.push_back({cell::CellId(b).Parent(kCoarse - 3)});
        }
      }
      for (size_t i = 0; i < coverings.size(); ++i) {
        const std::vector<cell::CellId>& covering = coverings[i];
        SCOPED_TRACE(::testing::Message() << "K=" << cut.k << " updated="
                                        << updated << " covering " << i);
        // The twin answers from the manifest alone: it is asked before
        // anything faults its shards in.
        const std::vector<size_t> routed = set.OverlappingShards(covering);
        ASSERT_EQ(routed, KeyRangeShards(bounds, covering));
        ASSERT_EQ(twin.OverlappingShards(covering), routed);
        for (const size_t s : routed) ASSERT_LT(bounds[s], bounds[s + 1]);

        const QueryResult want = single.SelectCovering(covering, req);
        const QueryResult got = set.SelectCovering(covering, req);
        ASSERT_EQ(got.count, want.count);
        ASSERT_EQ(got.values.size(), want.values.size());
        ASSERT_EQ(std::memcmp(got.values.data(), want.values.data(),
                              got.values.size() * sizeof(double)),
                  0);
        ASSERT_EQ(set.CountCovering(covering),
                  single.CountCovering(covering));
        finer_hits += covering.size() == 1 &&
                      covering[0].level() > kLevel && want.count > 0;
      }
    }
    EXPECT_GT(finer_hits, 0u) << "K=" << cut.k;
  }
  std::remove(path.c_str());
}

TEST_F(BlockSetTest, EmptyDatasetYieldsEmptyShards) {
  const storage::SortedDataset empty = data_->Slice(0, 0);
  storage::ShardOptions options;
  options.num_shards = 3;
  const auto sharded = storage::ShardedDataset::Partition(empty, options);
  ASSERT_EQ(sharded.num_shards(), 3u);
  EXPECT_EQ(sharded.total_rows(), 0u);

  const BlockSet set = BlockSet::Build(sharded, BlockSetOptions{{kLevel, {}}});
  const AggregateRequest req = Request();
  const QueryResult r = set.Select((*polygons_)[0], req);
  EXPECT_EQ(r.count, 0u);
  EXPECT_EQ(set.Count((*polygons_)[0]), 0u);
}

TEST_F(BlockSetTest, MergedHeaderMatchesSingleBlockHeader) {
  const storage::ShardedDataset sharded = Shard(7);
  const BlockSet set = BlockSet::Build(sharded, BlockSetOptions{{kLevel, {}}});
  const core::BlockHeader merged = set.MergedHeader();
  EXPECT_EQ(merged.level, block_->header().level);
  EXPECT_EQ(merged.min_cell, block_->header().min_cell);
  EXPECT_EQ(merged.max_cell, block_->header().max_cell);
  EXPECT_EQ(merged.global.count, block_->header().global.count);
  ASSERT_EQ(merged.global.columns.size(),
            block_->header().global.columns.size());
  for (size_t c = 0; c < merged.global.columns.size(); ++c) {
    EXPECT_EQ(merged.global.columns[c].min,
              block_->header().global.columns[c].min);
    EXPECT_EQ(merged.global.columns[c].max,
              block_->header().global.columns[c].max);
  }
}

TEST_F(BlockSetTest, RoutingPrunesShards) {
  const storage::ShardedDataset sharded = Shard(7);
  const BlockSet set = BlockSet::Build(sharded, BlockSetOptions{{kLevel, {}}});
  // Hilbert locality: small neighborhood polygons should hit only a
  // fraction of the 7 shards on average.
  size_t total_visits = 0;
  for (const geo::Polygon& poly : *polygons_) {
    const auto covering = set.Cover(poly);
    const auto shards = set.OverlappingShards(covering);
    ASSERT_LE(shards.size(), set.num_shards());
    total_visits += shards.size();
  }
  EXPECT_LT(total_visits, polygons_->size() * set.num_shards() / 2)
      << "shard routing is not pruning";
}

TEST_F(BlockSetTest, FilteredBuildMatchesFilteredSingleBlock) {
  storage::Filter filter;
  filter.Add({1, storage::CompareOp::kGe, 4.0});
  const GeoBlock filtered_block =
      GeoBlock::Build(*data_, core::BlockOptions{kLevel, filter});
  const storage::ShardedDataset sharded = Shard(4);
  const BlockSet set =
      BlockSet::Build(sharded, BlockSetOptions{{kLevel, filter}});
  const AggregateRequest req = Request();
  for (const geo::Polygon& poly : *polygons_) {
    const auto covering = filtered_block.Cover(poly);
    ExpectBitIdentical(set.SelectCovering(covering, req),
                       filtered_block.SelectCovering(covering, req),
                       "filtered");
  }
}

}  // namespace
}  // namespace geoblocks
