#include <gtest/gtest.h>

#include <cstring>
#include <memory>
#include <random>
#include <sstream>
#include <vector>

#include "core/block_qc.h"
#include "core/block_set.h"
#include "core/geoblock.h"
#include "storage/sharded_dataset.h"
#include "workload/datagen.h"
#include "workload/polygen.h"

namespace geoblocks::core {
namespace {

class UpdateTest : public ::testing::Test {
 protected:
  void SetUp() override {
    raw_ = workload::GenTaxi(15000, 31);
    storage::ExtractOptions options;
    options.clean_bounds = workload::NycBounds();
    data_ = storage::SortedDataset::Extract(raw_, options);
    block_ = GeoBlock::Build(data_, BlockOptions{15, {}});
  }

  /// A batch of tuples located inside already-populated cells.
  std::vector<GeoBlock::UpdateTuple> InCellBatch(size_t count,
                                                 uint64_t seed) {
    std::mt19937_64 rng(seed);
    std::vector<GeoBlock::UpdateTuple> batch;
    for (size_t i = 0; i < count; ++i) {
      const size_t idx = rng() % block_.num_cells();
      // The center of a populated cell is guaranteed to map back into it.
      const geo::Point unit =
          cell::CellId(block_.cells()[idx]).CenterPoint();
      GeoBlock::UpdateTuple t;
      t.location = data_.projection().FromUnit(unit);
      t.values.assign(data_.num_columns(), 0.0);
      for (size_t c = 0; c < t.values.size(); ++c) {
        t.values[c] = static_cast<double>((rng() % 1000)) / 10.0;
      }
      batch.push_back(std::move(t));
    }
    return batch;
  }

  storage::PointTable raw_;
  storage::SortedDataset data_;
  GeoBlock block_;
};

TEST_F(UpdateTest, AppliedTuplesUpdateCountsAndGlobalHeader) {
  const uint64_t before = block_.header().global.count;
  const auto batch = InCellBatch(100, 1);
  const auto result = block_.ApplyBatchUpdate(batch);
  EXPECT_EQ(result.applied, 100u);
  EXPECT_EQ(block_.header().global.count, before + 100);
}

TEST_F(UpdateTest, OffsetsStayPrefixSums) {
  const auto batch = InCellBatch(50, 2);
  block_.ApplyBatchUpdate(batch);
  uint32_t running = 0;
  for (size_t i = 0; i < block_.num_cells(); ++i) {
    ASSERT_EQ(block_.offsets()[i], running);
    running += block_.counts()[i];
  }
}

TEST_F(UpdateTest, CountQueriesSeeTheUpdates) {
  const auto polygons = workload::Neighborhoods(raw_, 5, 3);
  std::vector<uint64_t> before;
  for (const geo::Polygon& poly : polygons) {
    before.push_back(block_.Count(poly));
  }
  const auto batch = InCellBatch(200, 4);
  block_.ApplyBatchUpdate(batch);
  // Counts can only grow, and the total growth matches the batch size.
  uint64_t total_before = 0;
  uint64_t total_after = 0;
  for (size_t i = 0; i < polygons.size(); ++i) {
    const uint64_t after = block_.Count(polygons[i]);
    ASSERT_GE(after, before[i]);
    total_before += before[i];
    total_after += after;
  }
  EXPECT_LE(total_after - total_before, 200u);
  // A covering of everything sees all 200 new tuples.
  const std::vector<cell::CellId> all{cell::CellId::Root()};
  EXPECT_EQ(block_.CountCovering(all), data_.num_rows() + 200);
}

TEST_F(UpdateTest, ValuesAffectAggregates) {
  // Push a tuple with an outrageous fare into a known cell and watch the
  // max aggregate move.
  GeoBlock::UpdateTuple t;
  const geo::Point unit = cell::CellId(block_.cells()[0]).CenterPoint();
  t.location = data_.projection().FromUnit(unit);
  t.values.assign(data_.num_columns(), 1.0);
  t.values[0] = 99999.0;  // fare_amount
  const std::vector<GeoBlock::UpdateTuple> single{t};
  const auto result = block_.ApplyBatchUpdate(single);
  ASSERT_EQ(result.applied, 1u);
  EXPECT_EQ(block_.header().global.columns[0].max, 99999.0);
  EXPECT_EQ(block_.cell_columns(0)[0].max, 99999.0);
}

TEST_F(UpdateTest, RejectedTuplesHandledByRebuild) {
  // The paper's recommended path for new regions: rebuild the aggregate
  // layout (cheap, single pass). Simulate by extending the raw data.
  GeoBlock::UpdateTuple t;
  t.location = {-74.27, 40.49};
  t.values.assign(data_.num_columns(), 2.0);
  storage::PointTable extended = raw_;
  extended.AddRow(t.location, t.values);
  storage::ExtractOptions options;
  options.clean_bounds = workload::NycBounds();
  const auto new_data = storage::SortedDataset::Extract(extended, options);
  const GeoBlock rebuilt = GeoBlock::Build(new_data, BlockOptions{15, {}});
  EXPECT_EQ(rebuilt.header().global.count, data_.num_rows() + 1);
}

TEST_F(UpdateTest, AdaptiveVersionKeepsCacheConsistent) {
  // After updating block + cache, cached answers must still equal base
  // answers — the invariant behind the paper's depth-first cache patch.
  GeoBlockQC qc(&block_, GeoBlockQC::Options{0.25, 0});
  AggregateRequest req;
  req.Add(AggFn::kCount);
  req.Add(AggFn::kSum, 0);
  req.Add(AggFn::kMax, 0);
  const auto polygons = workload::Neighborhoods(raw_, 20, 5);
  for (int round = 0; round < 2; ++round) {
    for (const geo::Polygon& poly : polygons) qc.Select(poly, req);
    qc.RebuildCache();
  }
  ASSERT_GT(qc.trie_snapshot()->num_cached(), 0u);

  const auto batch = InCellBatch(300, 6);
  const auto result = qc.CommitBlockBatch(&block_, batch);
  ASSERT_EQ(result.applied, 300u);

  for (const geo::Polygon& poly : polygons) {
    const QueryResult base = block_.Select(poly, req);
    const QueryResult cached = qc.Select(poly, req);
    ASSERT_EQ(cached.count, base.count);
    for (size_t i = 0; i < base.values.size(); ++i) {
      ASSERT_NEAR(cached.values[i], base.values[i],
                  1e-9 * std::abs(base.values[i]) + 1e-9);
    }
  }
}

TEST_F(UpdateTest, InPlacePatchSharesUntouchedCellArray) {
  // Clone-patch-publish copies only the touched arrays: the cell-id array
  // is untouched by an in-place patch and must be shared, not copied.
  const auto before = block_.StateSnapshot();
  const auto batch = InCellBatch(20, 11);
  ASSERT_EQ(block_.ApplyBatchUpdate(batch).applied, 20u);
  const auto after = block_.StateSnapshot();
  ASSERT_NE(before.get(), after.get());
  EXPECT_EQ(before->cells.data(), after->cells.data())
      << "cell-id array was copied by an in-place patch";
  EXPECT_NE(before->counts.data(), after->counts.data());
  EXPECT_NE(before->column_aggs.data(), after->column_aggs.data());
  EXPECT_EQ(block_.retired_states(), 1u);  // the pre-batch version retired
}

TEST_F(UpdateTest, PinnedSnapshotIsBitwiseStableAcrossUpdates) {
  const auto pinned = block_.StateSnapshot();
  const std::vector<cell::CellId> all{cell::CellId::Root()};
  core::AggregateRequest req;
  req.Add(AggFn::kCount);
  req.Add(AggFn::kSum, 0);
  const QueryResult want = pinned->SelectCovering(all, req);
  const uint64_t want_count = pinned->CountCovering(all);

  for (int round = 0; round < 3; ++round) {
    block_.ApplyBatchUpdate(InCellBatch(50, 20 + round));
    const QueryResult got = pinned->SelectCovering(all, req);
    ASSERT_EQ(got.count, want.count);
    ASSERT_EQ(got.values, want.values) << "pinned snapshot drifted";
    ASSERT_EQ(pinned->CountCovering(all), want_count);
  }
  // The live block sees all three batches.
  EXPECT_EQ(block_.CountCovering(all), want_count + 150);
}

TEST_F(UpdateTest, NewRegionTuplesCreateCells) {
  GeoBlock::UpdateTuple t;
  t.location = {-74.27, 40.49};
  t.values.assign(data_.num_columns(), 5.0);
  const cell::CellId cell =
      cell::CellId::FromPoint(data_.projection().ToUnit(t.location))
          .Parent(block_.level());
  if (std::binary_search(block_.cells().begin(), block_.cells().end(),
                         cell.id())) {
    GTEST_SKIP() << "corner cell unexpectedly populated";
  }
  const uint64_t count_before = block_.header().global.count;
  const size_t cells_before = block_.num_cells();
  const std::vector<GeoBlock::UpdateTuple> batch{t, t};
  EXPECT_EQ(block_.ApplyBatchUpdate(batch).applied, 2u);
  EXPECT_EQ(block_.num_cells(), cells_before + 1);  // one new cell, 2 rows

  // The merged layout keeps every invariant: sorted cells, prefix-sum
  // offsets, updated header hull and global, and the new cell queryable.
  for (size_t i = 1; i < block_.num_cells(); ++i) {
    ASSERT_LT(block_.cells()[i - 1], block_.cells()[i]);
  }
  uint32_t running = 0;
  for (size_t i = 0; i < block_.num_cells(); ++i) {
    ASSERT_EQ(block_.offsets()[i], running);
    running += block_.counts()[i];
  }
  EXPECT_EQ(block_.header().global.count, count_before + 2);
  EXPECT_TRUE(block_.StateSnapshot()->MayOverlap(cell));
  const std::vector<cell::CellId> covering{cell};
  EXPECT_EQ(block_.CountCovering(covering), 2u);
  const std::vector<cell::CellId> all{cell::CellId::Root()};
  EXPECT_EQ(block_.CountCovering(all), count_before + 2);

  // The next commit finds the cell and folds in place (no new cell).
  EXPECT_EQ(block_.ApplyBatchUpdate(batch).applied, 2u);
  EXPECT_EQ(block_.num_cells(), cells_before + 1);
  EXPECT_EQ(block_.CountCovering(covering), 4u);
}

/// BlockSet-level update plane: routing, striped commits, new-region
/// commits.
class BlockSetUpdateTest : public ::testing::Test {
 protected:
  static constexpr int kLevel = 15;
  static constexpr size_t kShards = 4;

  void SetUp() override {
    raw_ = workload::GenTaxi(15000, 31);
    storage::ExtractOptions options;
    options.clean_bounds = workload::NycBounds();
    data_ = std::make_shared<storage::SortedDataset>(
        storage::SortedDataset::Extract(raw_, options));
    storage::ShardOptions shard_options;
    shard_options.num_shards = kShards;
    shard_options.align_level = kLevel;
    sharded_ = storage::ShardedDataset::Partition(data_, shard_options);
    set_ = BlockSet::Build(sharded_, BlockSetOptions{{kLevel, {}}});
    single_ = GeoBlock::Build(*data_, BlockOptions{kLevel, {}});
  }

  /// Tuples located inside already-populated cells, spread across shards.
  std::vector<GeoBlock::UpdateTuple> InCellBatch(size_t count,
                                                 uint64_t seed) const {
    std::mt19937_64 rng(seed);
    std::vector<GeoBlock::UpdateTuple> batch;
    for (size_t i = 0; i < count; ++i) {
      const size_t idx = rng() % single_.num_cells();
      const geo::Point unit =
          cell::CellId(single_.cells()[idx]).CenterPoint();
      GeoBlock::UpdateTuple t;
      t.location = data_->projection().FromUnit(unit);
      t.values.assign(data_->num_columns(), 0.0);
      for (size_t c = 0; c < t.values.size(); ++c) {
        t.values[c] = static_cast<double>((rng() % 1000)) / 10.0;
      }
      batch.push_back(std::move(t));
    }
    return batch;
  }

  /// Tuples in cells no block aggregates yet (new regions), each cell
  /// distinct.
  std::vector<GeoBlock::UpdateTuple> NewRegionBatch(size_t count,
                                                    uint64_t seed) const {
    std::mt19937_64 rng(seed);
    std::vector<GeoBlock::UpdateTuple> batch;
    std::vector<uint64_t> used;
    while (batch.size() < count) {
      const double x = (static_cast<double>(rng() % 100000) + 0.5) / 100000.0;
      const double y = (static_cast<double>(rng() % 100000) + 0.5) / 100000.0;
      const cell::CellId cell =
          cell::CellId::FromPoint({x, y}).Parent(kLevel);
      if (std::binary_search(single_.cells().begin(), single_.cells().end(),
                             cell.id())) {
        continue;
      }
      if (std::binary_search(used.begin(), used.end(), cell.id())) continue;
      used.insert(std::lower_bound(used.begin(), used.end(), cell.id()),
                  cell.id());
      GeoBlock::UpdateTuple t;
      t.location = data_->projection().FromUnit(cell.CenterPoint());
      t.values.assign(data_->num_columns(), 1.0);
      batch.push_back(std::move(t));
    }
    return batch;
  }

  /// In-cell tuples, each committed twice (a fold through a pre-summed
  /// partial would round differently from two Adds), interleaved with
  /// new-region tuples that all route to one shard, half of them sharing a
  /// cell: the single block takes the merge branch while the other shards
  /// take the all-in-cell one.
  std::vector<GeoBlock::UpdateTuple> MixedBatch(uint64_t seed) const {
    const auto in_cell = InCellBatch(200, seed);
    std::vector<GeoBlock::UpdateTuple> fresh;
    size_t target = kShards;
    std::mt19937_64 rng(seed);
    for (GeoBlock::UpdateTuple& t : NewRegionBatch(200, seed + 1)) {
      const uint64_t key =
          cell::CellId::FromPoint(data_->projection().ToUnit(t.location))
              .id();
      const size_t s = storage::ShardForKey(set_.boundaries(), key);
      if (target == kShards) target = s;
      if (s != target) continue;
      for (double& v : t.values) v = static_cast<double>(rng() % 1000) / 10.0;
      fresh.push_back(t);
      fresh.push_back(std::move(t));
      if (fresh.size() == 20) break;
    }
    std::vector<GeoBlock::UpdateTuple> batch;
    size_t next_fresh = 0;
    for (size_t pass = 0; pass < 2; ++pass) {
      for (size_t i = 0; i < in_cell.size(); ++i) {
        batch.push_back(in_cell[i]);
        if (i % 20 == pass && next_fresh < fresh.size()) {
          batch.push_back(fresh[next_fresh++]);
        }
      }
    }
    return batch;
  }

  storage::PointTable raw_;
  std::shared_ptr<storage::SortedDataset> data_;
  storage::ShardedDataset sharded_;
  BlockSet set_;
  GeoBlock single_;
};

TEST_F(BlockSetUpdateTest, RoutedUpdatesMatchSingleBlockBitwise) {
  // The PR 1 invariant — sharded answers bit-identical to one block over
  // the same data — must survive the update plane: routing a batch to
  // shards and applying it to the single block produce the same answers,
  // for an in-cell batch and for a mixed one that creates cells.
  AggregateRequest req;
  req.Add(AggFn::kCount);
  req.Add(AggFn::kSum, 0);
  req.Add(AggFn::kMin, 1);
  req.Add(AggFn::kMax, 2);
  const auto polygons = workload::Neighborhoods(raw_, 20, 9);
  const std::vector<cell::CellId> all{cell::CellId::Root()};
  const size_t cells_before = single_.num_cells();
  for (const auto& batch : {InCellBatch(400, 3), MixedBatch(13)}) {
    const auto set_result = set_.ApplyBatchUpdate(batch);
    const auto single_result = single_.ApplyBatchUpdate(batch);
    EXPECT_EQ(set_result.applied, single_result.applied);
    EXPECT_EQ(set_result.applied, batch.size());

    for (const geo::Polygon& poly : polygons) {
      const auto covering = set_.Cover(poly);
      const QueryResult want = single_.SelectCovering(covering, req);
      const QueryResult got = set_.SelectCovering(covering, req);
      ASSERT_EQ(got.count, want.count);
      ASSERT_EQ(got.values, want.values) << "sharded update diverged";
      ASSERT_EQ(set_.CountCovering(covering),
                single_.CountCovering(covering));
    }
    const QueryResult want = single_.SelectCovering(all, req);
    const QueryResult got = set_.SelectCovering(all, req);
    ASSERT_EQ(got.count, want.count);
    ASSERT_EQ(got.values, want.values) << "sharded update diverged";
  }
  EXPECT_EQ(single_.num_cells(), cells_before + 10);
  EXPECT_EQ(set_.num_cells(), single_.num_cells());
}

TEST_F(BlockSetUpdateTest, RoutedUpdatesCrossEmptyShardsBitwise) {
  // A coarse cut with more shards than cells repeats boundary keys: the
  // shards between two equal boundaries are empty, and so is shard 0,
  // which still owns every key below the first cell. Routing by
  // ShardForKey must skip the empty middle shards and let shard 0's block,
  // built over no rows, take new regions, with answers bit-identical to a
  // single block given the same batch.
  constexpr int kCoarse = 10;
  size_t cells = 0;
  for (size_t r = 0; r < data_->num_rows(); ++r) {
    cells += r == 0 || cell::CellId(data_->keys()[r]).Parent(kCoarse) !=
                           cell::CellId(data_->keys()[r - 1]).Parent(kCoarse);
  }
  storage::ShardOptions options;
  options.num_shards = 2 * cells + 1;
  options.align_level = kCoarse;
  BlockSet set = BlockSet::Build(
      storage::ShardedDataset::Partition(data_, options),
      BlockSetOptions{{kLevel, {}}});
  const std::vector<uint64_t> bounds = set.boundaries();
  std::vector<bool> was_empty;
  size_t repeated = 0;
  for (size_t s = 0; s < set.num_shards(); ++s) {
    was_empty.push_back(set.shard(s).num_cells() == 0);
    repeated += s > 0 && bounds[s] == bounds[s + 1];
  }
  ASSERT_TRUE(was_empty[0]);
  ASSERT_GT(repeated, 0u);

  auto batch = InCellBatch(300, 41);
  const auto fresh = NewRegionBatch(60, 42);
  batch.insert(batch.end(), fresh.begin(), fresh.end());
  size_t into_empty = 0;
  for (const GeoBlock::UpdateTuple& t : batch) {
    const uint64_t key =
        cell::CellId::FromPoint(data_->projection().ToUnit(t.location)).id();
    const size_t s = storage::ShardForKey(bounds, key);
    ASSERT_LT(bounds[s], bounds[s + 1]) << "routed to an empty key range";
    into_empty += was_empty[s];
  }
  ASSERT_GT(into_empty, 0u);

  const auto set_result = set.ApplyBatchUpdate(batch);
  const auto single_result = single_.ApplyBatchUpdate(batch);
  ASSERT_EQ(set_result.applied, batch.size());
  ASSERT_EQ(single_result.applied, batch.size());
  EXPECT_EQ(set.num_cells(), single_.num_cells());

  AggregateRequest req;
  req.Add(AggFn::kCount);
  req.Add(AggFn::kSum, 0);
  req.Add(AggFn::kMin, 1);
  req.Add(AggFn::kMax, 2);
  std::vector<std::vector<cell::CellId>> coverings{{cell::CellId::Root()}};
  for (const geo::Polygon& poly : workload::Neighborhoods(raw_, 20, 9)) {
    coverings.push_back(set.Cover(poly));
  }
  for (const GeoBlock::UpdateTuple& t : fresh) {
    coverings.push_back(
        {cell::CellId::FromPoint(data_->projection().ToUnit(t.location))
             .Parent(kLevel - 3)});
  }
  for (const auto& covering : coverings) {
    const QueryResult want = single_.SelectCovering(covering, req);
    const QueryResult got = set.SelectCovering(covering, req);
    ASSERT_EQ(got.count, want.count);
    ASSERT_EQ(got.values.size(), want.values.size());
    ASSERT_EQ(std::memcmp(got.values.data(), want.values.data(),
                          got.values.size() * sizeof(double)),
              0)
        << "update across empty shards diverged";
    ASSERT_EQ(set.CountCovering(covering), single_.CountCovering(covering));
  }
}

TEST_F(BlockSetUpdateTest, MixedBatchCommitsLikeItsTuplesOneAtATime) {
  // A batch folds every tuple into its cell in batch order, whether the
  // cell exists or the batch creates it: committing it whole and one
  // tuple per call persist the same bytes.
  GeoBlock batched = single_;
  GeoBlock one_by_one = single_;
  const auto batch = MixedBatch(21);
  ASSERT_EQ(batched.ApplyBatchUpdate(batch).applied, batch.size());
  for (size_t i = 0; i < batch.size(); ++i) {
    ASSERT_EQ(one_by_one.ApplyBatchUpdate({&batch[i], 1}).applied, 1u);
  }
  EXPECT_EQ(batched.num_cells(), single_.num_cells() + 10);
  std::ostringstream a(std::ios::binary);
  std::ostringstream b(std::ios::binary);
  batched.WriteTo(a);
  one_by_one.WriteTo(b);
  ASSERT_TRUE(a.str() == b.str()) << "batched commit diverged from per-tuple";
}

TEST_F(BlockSetUpdateTest, NewRegionTuplesAreQueryableOnReturn) {
  // Acked means visible: the commit that carries a new-region tuple creates
  // its cell, so every read path counts it as soon as the call returns.
  set_.EnableCache(GeoBlockQC::Options{0.25, 0});
  AggregateRequest req;
  req.Add(AggFn::kCount);
  const auto polygons = workload::Neighborhoods(raw_, 20, 8);
  for (const geo::Polygon& poly : polygons) set_.SelectCached(poly, req);
  set_.RebuildCaches();

  const geo::Polygon everything =
      geo::Polygon::FromRect(data_->projection().domain());
  const uint64_t base = data_->num_rows();
  ASSERT_EQ(set_.Count(everything), base);
  const auto fresh = NewRegionBatch(24, 5);
  const size_t cells_before = set_.num_cells();
  const auto result = set_.ApplyBatchUpdate(fresh);
  EXPECT_EQ(result.applied, 24u);
  EXPECT_EQ(set_.num_cells(), cells_before + 24);
  EXPECT_EQ(set_.Select(everything, req).count, base + 24);
  EXPECT_EQ(set_.Count(everything), base + 24);
  EXPECT_EQ(set_.SelectCached(everything, req).count, base + 24);
  for (const GeoBlock::UpdateTuple& t : fresh) {
    const std::vector<cell::CellId> one{
        cell::CellId::FromPoint(data_->projection().ToUnit(t.location))
            .Parent(kLevel)};
    ASSERT_EQ(set_.CountCovering(one), 1u);
    ASSERT_EQ(set_.SelectCoveringCached(one, req).count, 1u);
  }
}

TEST_F(BlockSetUpdateTest, CachedAnswersStayConsistentAfterCommits) {
  set_.EnableCache(GeoBlockQC::Options{0.25, 0});
  AggregateRequest req;
  req.Add(AggFn::kCount);
  req.Add(AggFn::kSum, 0);
  req.Add(AggFn::kMax, 0);
  const auto polygons = workload::Neighborhoods(raw_, 20, 8);
  std::vector<std::vector<cell::CellId>> coverings;
  for (const geo::Polygon& poly : polygons) {
    coverings.push_back(set_.Cover(poly));
  }
  for (int round = 0; round < 2; ++round) {
    for (const auto& covering : coverings) {
      set_.SelectCoveringCached(covering, req);
    }
    set_.RebuildCaches();
  }

  auto batch = InCellBatch(300, 10);
  const auto fresh = NewRegionBatch(16, 12);
  batch.insert(batch.end(), fresh.begin(), fresh.end());
  set_.ApplyBatchUpdate(batch);

  // Cache answers must equal base answers after the commits (the trie was
  // patched inside the same critical sections).
  for (const auto& covering : coverings) {
    const QueryResult base = set_.SelectCovering(covering, req);
    const QueryResult cached = set_.SelectCoveringCached(covering, req);
    ASSERT_EQ(cached.count, base.count);
    for (size_t i = 0; i < base.values.size(); ++i) {
      ASSERT_NEAR(cached.values[i], base.values[i],
                  1e-9 * std::abs(base.values[i]) + 1e-9);
    }
  }
}

TEST_F(BlockSetUpdateTest, LoadedSetAcceptsUpdatesAndReserializes) {
  // docs/FORMAT.md: a loaded (even detached) set accepts updates; its
  // re-serialization persists the updated aggregates, and the relaxed
  // row-count cross-check accepts the grown payloads.
  std::ostringstream out(std::ios::binary);
  set_.WriteTo(out);
  std::istringstream in(out.str(), std::ios::binary);
  BlockSet loaded = BlockSet::ReadFrom(in);
  ASSERT_FALSE(loaded.dataset_attached());

  const auto batch = InCellBatch(100, 13);
  EXPECT_EQ(loaded.ApplyBatchUpdate(batch).applied, 100u);
  const std::vector<cell::CellId> all{cell::CellId::Root()};
  EXPECT_EQ(loaded.CountCovering(all), data_->num_rows() + 100);

  std::ostringstream out2(std::ios::binary);
  loaded.WriteTo(out2);
  std::istringstream in2(out2.str(), std::ios::binary);
  const BlockSet reloaded = BlockSet::ReadFrom(in2);
  EXPECT_EQ(reloaded.CountCovering(all), data_->num_rows() + 100);

  // AttachDataset still validates against the *manifest* (original rows):
  // the updated view intentionally diverges from its base data.
  BlockSet attachable = std::move(loaded);
  attachable.AttachDataset(data_);
  EXPECT_TRUE(attachable.dataset_attached());
}

TEST_F(UpdateTest, TrieUpdateCountsPatchedAggregates) {
  GeoBlockQC qc(&block_, GeoBlockQC::Options{1.0, 0});
  AggregateRequest req;
  req.Add(AggFn::kCount);
  // Record every populated cell two levels coarser than the grid, the
  // finest cells the cache holds.
  std::vector<cell::CellId> coarse;
  for (const uint64_t id : block_.cells()) {
    const cell::CellId c = cell::CellId(id).Parent(block_.level() - 2);
    if (coarse.empty() || coarse.back() != c) coarse.push_back(c);
  }
  qc.SelectCovering(coarse, req);
  qc.RebuildCache();
  ASSERT_GT(qc.trie_snapshot()->num_cached(), 0u);

  // A tuple inside some cached cell updates at least one aggregate; a
  // tuple far outside the root updates none.
  const auto batch = InCellBatch(50, 8);
  const auto result = qc.CommitBlockBatch(&block_, batch);
  ASSERT_EQ(result.applied, 50u);

  // Published snapshots are immutable; patch a private copy, the way
  // the commit's copy-on-write path does.
  AggregateTrie trie = *qc.trie_snapshot();
  std::vector<double> values(data_.num_columns(), 1.0);
  EXPECT_EQ(trie.ApplyTupleUpdate(cell::CellId::FromPoint({0.01, 0.99}),
                                  values.data()),
            0u);
}

}  // namespace
}  // namespace geoblocks::core
