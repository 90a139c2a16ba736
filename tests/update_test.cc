#include <gtest/gtest.h>

#include <memory>
#include <random>
#include <sstream>

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
  EXPECT_TRUE(result.rejected.empty());
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

TEST_F(UpdateTest, NewRegionsAreRejected) {
  GeoBlock::UpdateTuple t;
  t.location = {-74.27, 40.49};  // far corner of the domain, surely empty
  t.values.assign(data_.num_columns(), 1.0);
  const uint64_t key =
      cell::CellId::FromPoint(data_.projection().ToUnit(t.location))
          .Parent(block_.level())
          .id();
  const bool cell_exists =
      std::binary_search(block_.cells().begin(), block_.cells().end(), key);
  const std::vector<GeoBlock::UpdateTuple> single{t};
  const auto result = block_.ApplyBatchUpdate(single);
  if (cell_exists) {
    EXPECT_EQ(result.applied, 1u);
  } else {
    EXPECT_EQ(result.applied, 0u);
    ASSERT_EQ(result.rejected.size(), 1u);
    EXPECT_EQ(result.rejected[0], 0u);
  }
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

TEST_F(UpdateTest, AllRejectedBatchLeavesStateBitIdentical) {
  // Regression for the early-exit: a batch in which every tuple lands in a
  // new region must publish nothing — not even a recomputed offsets array.
  // MVCC makes "bit-identical" checkable by identity: the state pointer is
  // unchanged.
  GeoBlock::UpdateTuple t;
  t.location = {-74.27, 40.49};  // far corner of the domain, surely empty
  t.values.assign(data_.num_columns(), 1.0);
  const uint64_t key =
      cell::CellId::FromPoint(data_.projection().ToUnit(t.location))
          .Parent(block_.level())
          .id();
  if (std::binary_search(block_.cells().begin(), block_.cells().end(), key)) {
    GTEST_SKIP() << "corner cell unexpectedly populated";
  }
  const auto before = block_.StateSnapshot();
  const uint64_t retired_before = block_.retired_states();
  const std::vector<GeoBlock::UpdateTuple> batch{t, t, t};
  const auto result = block_.ApplyBatchUpdate(batch);
  EXPECT_EQ(result.applied, 0u);
  EXPECT_EQ(result.rejected.size(), 3u);
  const auto after = block_.StateSnapshot();
  EXPECT_EQ(before.get(), after.get()) << "all-rejected batch published";
  EXPECT_EQ(block_.retired_states(), retired_before);
}

TEST_F(UpdateTest, InPlacePatchSharesUntouchedCellArray) {
  // Clone-patch-publish copies only the touched arrays: the cell-id array
  // is untouched by an in-place patch and must be shared, not copied.
  const auto before = block_.StateSnapshot();
  const auto batch = InCellBatch(20, 11);
  ASSERT_EQ(block_.ApplyBatchUpdate(batch).applied, 20u);
  const auto after = block_.StateSnapshot();
  ASSERT_NE(before.get(), after.get());
  EXPECT_EQ(before->cells.get(), after->cells.get())
      << "cell-id array was copied by an in-place patch";
  EXPECT_NE(before->counts.get(), after->counts.get());
  EXPECT_NE(before->column_aggs.get(), after->column_aggs.get());
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

TEST_F(UpdateTest, MergeNewRegionTuplesCreatesCells) {
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
  const std::vector<GeoBlock::UpdateTuple> batch{t, t};
  ASSERT_EQ(block_.ApplyBatchUpdate(batch).rejected.size(), 2u);
  EXPECT_EQ(block_.MergeNewRegionTuples(batch), 1u);  // one new cell, 2 rows

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
  EXPECT_TRUE(block_.MayOverlap(cell));
  const std::vector<cell::CellId> covering{cell};
  EXPECT_EQ(block_.CountCovering(covering), 2u);
  const std::vector<cell::CellId> all{cell::CellId::Root()};
  EXPECT_EQ(block_.CountCovering(all), count_before + 2);

  // A re-merge into the now-existing cell folds in place (no new cell).
  EXPECT_EQ(block_.MergeNewRegionTuples(batch), 0u);
  EXPECT_EQ(block_.CountCovering(covering), 4u);
}

/// BlockSet-level update plane: routing, striped commits, pending buffers,
/// threshold-triggered merge-rebuilds.
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

  storage::PointTable raw_;
  std::shared_ptr<storage::SortedDataset> data_;
  storage::ShardedDataset sharded_;
  BlockSet set_;
  GeoBlock single_;
};

TEST_F(BlockSetUpdateTest, RoutedUpdatesMatchSingleBlockBitwise) {
  // The PR 1 invariant — sharded answers bit-identical to one block over
  // the same data — must survive the update plane: routing a batch to
  // shards and applying it to the single block produce the same answers.
  const auto batch = InCellBatch(400, 3);
  const auto set_result = set_.ApplyBatchUpdate(batch);
  const auto single_result = single_.ApplyBatchUpdate(batch);
  EXPECT_EQ(set_result.applied, single_result.applied);
  EXPECT_EQ(set_result.buffered, single_result.rejected.size());
  EXPECT_EQ(set_result.applied, 400u);

  AggregateRequest req;
  req.Add(AggFn::kCount);
  req.Add(AggFn::kSum, 0);
  req.Add(AggFn::kMin, 1);
  req.Add(AggFn::kMax, 2);
  const auto polygons = workload::Neighborhoods(raw_, 20, 9);
  for (const geo::Polygon& poly : polygons) {
    const auto covering = set_.Cover(poly);
    const QueryResult want = single_.SelectCovering(covering, req);
    const QueryResult got = set_.SelectCovering(covering, req);
    ASSERT_EQ(got.count, want.count);
    ASSERT_EQ(got.values, want.values) << "sharded update diverged";
    ASSERT_EQ(set_.CountCovering(covering),
              single_.CountCovering(covering));
  }
}

TEST_F(BlockSetUpdateTest, NewRegionTuplesBufferUntilThreshold) {
  BlockSet::UpdateOptions options;
  options.pending_rebuild_threshold = 0;  // manual flush only
  set_.ConfigureUpdates(options);

  const auto fresh = NewRegionBatch(24, 5);
  const auto result = set_.ApplyBatchUpdate(fresh);
  EXPECT_EQ(result.applied, 0u);
  EXPECT_EQ(result.buffered, 24u);
  EXPECT_EQ(result.rebuilds, 0u);
  EXPECT_EQ(result.pending_after, 24u);
  EXPECT_EQ(set_.PendingUpdateCount(), 24u);

  // Buffered tuples are not queryable yet.
  const std::vector<cell::CellId> all{cell::CellId::Root()};
  const uint64_t base = data_->num_rows();
  EXPECT_EQ(set_.CountCovering(all), base);

  // The flush merges every buffer; the tuples become queryable.
  EXPECT_GT(set_.FlushPendingUpdates(), 0u);
  EXPECT_EQ(set_.PendingUpdateCount(), 0u);
  EXPECT_EQ(set_.CountCovering(all), base + 24);
}

TEST_F(BlockSetUpdateTest, ThresholdTriggersInlineMergeRebuild) {
  BlockSet::UpdateOptions options;
  options.pending_rebuild_threshold = 4;
  set_.ConfigureUpdates(options);

  const auto fresh = NewRegionBatch(40, 6);
  const auto result = set_.ApplyBatchUpdate(fresh);
  EXPECT_EQ(result.buffered, 40u);
  EXPECT_GT(result.rebuilds, 0u);
  // Every shard that crossed the threshold merged inline; only shards
  // below it may still buffer.
  EXPECT_LT(result.pending_after, 40u);
  const std::vector<cell::CellId> all{cell::CellId::Root()};
  EXPECT_EQ(set_.CountCovering(all),
            data_->num_rows() + 40 - result.pending_after);
  set_.FlushPendingUpdates();
  EXPECT_EQ(set_.CountCovering(all), data_->num_rows() + 40);
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

  BlockSet::UpdateOptions options;
  options.pending_rebuild_threshold = 8;
  set_.ConfigureUpdates(options);
  auto batch = InCellBatch(300, 10);
  const auto fresh = NewRegionBatch(16, 12);
  batch.insert(batch.end(), fresh.begin(), fresh.end());
  set_.ApplyBatchUpdate(batch);
  set_.FlushPendingUpdates();

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
  const auto polygons = workload::Neighborhoods(raw_, 10, 7);
  for (const geo::Polygon& poly : polygons) qc.Select(poly, req);
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
