#include <gtest/gtest.h>

#include <random>

#include "core/block_qc.h"
#include "workload/datagen.h"
#include "workload/polygen.h"
#include "workload/workload.h"

namespace geoblocks::core {
namespace {

class BlockQCTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    raw_ = new storage::PointTable(workload::GenTaxi(25000, 3));
    storage::ExtractOptions options;
    options.clean_bounds = workload::NycBounds();
    data_ = new storage::SortedDataset(
        storage::SortedDataset::Extract(*raw_, options));
    block_ = new GeoBlock(GeoBlock::Build(*data_, BlockOptions{15, {}}));
    polygons_ = new std::vector<geo::Polygon>(
        workload::Neighborhoods(*raw_, 40, 8));
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

  static AggregateRequest SomeRequest() {
    AggregateRequest req;
    req.Add(AggFn::kCount);
    req.Add(AggFn::kSum, 0);
    req.Add(AggFn::kMin, 1);
    req.Add(AggFn::kMax, 3);
    req.Add(AggFn::kAvg, 3);
    return req;
  }

  static void ExpectSameResult(const QueryResult& a, const QueryResult& b) {
    ASSERT_EQ(a.count, b.count);
    ASSERT_EQ(a.values.size(), b.values.size());
    for (size_t i = 0; i < a.values.size(); ++i) {
      ASSERT_NEAR(a.values[i], b.values[i],
                  1e-9 * std::abs(b.values[i]) + 1e-9);
    }
  }

  static storage::PointTable* raw_;
  static storage::SortedDataset* data_;
  static GeoBlock* block_;
  static std::vector<geo::Polygon>* polygons_;
};

storage::PointTable* BlockQCTest::raw_ = nullptr;
storage::SortedDataset* BlockQCTest::data_ = nullptr;
GeoBlock* BlockQCTest::block_ = nullptr;
std::vector<geo::Polygon>* BlockQCTest::polygons_ = nullptr;

TEST_F(BlockQCTest, ColdCacheMatchesBaseBlock) {
  GeoBlockQC qc(block_, GeoBlockQC::Options{0.05, 0});
  const AggregateRequest req = SomeRequest();
  for (const geo::Polygon& poly : *polygons_) {
    ExpectSameResult(qc.Select(poly, req), block_->Select(poly, req));
  }
  // Nothing cached: every probed cell is a miss.
  EXPECT_EQ(qc.counters().full_hits, 0u);
  EXPECT_EQ(qc.counters().partial_hits, 0u);
  EXPECT_GT(qc.counters().misses, 0u);
}

TEST_F(BlockQCTest, WarmCacheMatchesBaseBlock) {
  // The central correctness property of the adapted algorithm (Figure 8):
  // with any cache state, results are identical to the base algorithm.
  GeoBlockQC qc(block_, GeoBlockQC::Options{0.10, 0});
  const AggregateRequest req = SomeRequest();
  for (int round = 0; round < 3; ++round) {
    for (const geo::Polygon& poly : *polygons_) {
      qc.Select(poly, req);
    }
    qc.RebuildCache();
  }
  EXPECT_GT(qc.trie_snapshot()->num_cached(), 0u);
  qc.ResetCounters();
  for (const geo::Polygon& poly : *polygons_) {
    ExpectSameResult(qc.Select(poly, req), block_->Select(poly, req));
  }
  EXPECT_GT(qc.counters().full_hits, 0u);
}

TEST_F(BlockQCTest, RepeatedQueriesHitTheCache) {
  GeoBlockQC qc(block_, GeoBlockQC::Options{0.20, 0});
  const AggregateRequest req = SomeRequest();
  const geo::Polygon& hot = (*polygons_)[0];
  for (int i = 0; i < 10; ++i) qc.Select(hot, req);
  qc.RebuildCache();
  qc.ResetCounters();
  qc.Select(hot, req);
  // Every covering cell of the hot polygon should now be answerable from
  // the cache (full or partial hits), with enough budget.
  EXPECT_GT(qc.counters().full_hits, 0u);
  EXPECT_EQ(qc.counters().probes,
            qc.counters().full_hits + qc.counters().partial_hits +
                qc.counters().misses);
}

TEST_F(BlockQCTest, CountBypassesCache) {
  GeoBlockQC qc(block_, GeoBlockQC::Options{0.05, 0});
  for (const geo::Polygon& poly : *polygons_) {
    EXPECT_EQ(qc.Count(poly), block_->Count(poly));
  }
  EXPECT_EQ(qc.counters().probes, 0u);
}

TEST_F(BlockQCTest, ZeroThresholdNeverCaches) {
  GeoBlockQC qc(block_, GeoBlockQC::Options{0.0, 0});
  const AggregateRequest req = SomeRequest();
  for (const geo::Polygon& poly : *polygons_) qc.Select(poly, req);
  qc.RebuildCache();
  EXPECT_EQ(qc.trie_snapshot()->num_cached(), 0u);
  qc.ResetCounters();
  for (const geo::Polygon& poly : *polygons_) {
    ExpectSameResult(qc.Select(poly, req), block_->Select(poly, req));
  }
  EXPECT_EQ(qc.counters().full_hits, 0u);
}

TEST_F(BlockQCTest, LargerThresholdCachesMore) {
  const AggregateRequest req = SomeRequest();
  size_t prev_cached = 0;
  for (const double threshold : {0.01, 0.05, 0.25, 1.0}) {
    GeoBlockQC qc(block_, GeoBlockQC::Options{threshold, 0});
    for (const geo::Polygon& poly : *polygons_) qc.Select(poly, req);
    qc.RebuildCache();
    EXPECT_GE(qc.trie_snapshot()->num_cached(), prev_cached);
    EXPECT_LE(qc.trie_snapshot()->MemoryBytes(),
              static_cast<size_t>(threshold *
                                  block_->CellAggregateBytes()) +
                  1);
    prev_cached = qc.trie_snapshot()->num_cached();
  }
}

TEST_F(BlockQCTest, AutomaticRebuild) {
  GeoBlockQC qc(block_, GeoBlockQC::Options{0.10, /*rebuild_interval=*/5});
  const AggregateRequest req = SomeRequest();
  for (int i = 0; i < 12; ++i) {
    qc.Select((*polygons_)[i % 4], req);
  }
  // After >= 5 queries a rebuild has happened automatically.
  EXPECT_GT(qc.trie_snapshot()->num_cached(), 0u);
}

TEST_F(BlockQCTest, SkewedWorkloadGetsHighHitRate) {
  const auto skewed =
      workload::SkewedWorkload(*polygons_, 0.1, /*seed=*/2);
  GeoBlockQC qc(block_, GeoBlockQC::Options{0.10, 0});
  const AggregateRequest req = SomeRequest();
  for (int run = 0; run < 4; ++run) {
    for (const geo::Polygon* poly : skewed.queries) qc.Select(*poly, req);
  }
  qc.RebuildCache();
  qc.ResetCounters();
  for (const geo::Polygon* poly : skewed.queries) qc.Select(*poly, req);
  // The skewed cells fit in 10% budget and should be answered from cache.
  EXPECT_GT(qc.counters().HitRate(), 0.9);
}

TEST_F(BlockQCTest, StatsAreRecordedPerCoveringCell) {
  GeoBlockQC qc(block_, GeoBlockQC::Options{0.05, 0});
  const AggregateRequest req = SomeRequest();
  const geo::Polygon& poly = (*polygons_)[1];
  const auto covering = block_->Cover(poly);
  // Only overlapping cells coarser than the block level are recorded and
  // probed; block-level cells bypass the cache.
  size_t coarser = 0;
  for (const cell::CellId& c : covering) {
    if (c.level() < block_->level() && block_->MayOverlap(c)) ++coarser;
  }
  ASSERT_GT(coarser, 0u);
  ASSERT_LT(coarser, covering.size());
  qc.Select(poly, req);
  EXPECT_EQ(qc.stats().num_distinct_cells(), coarser);
  EXPECT_EQ(qc.counters().probes, coarser);
}

TEST_F(BlockQCTest, BlockLevelCellsBypassTheCache) {
  // Warm the cache first, so a probe would find a populated trie.
  GeoBlockQC qc(block_, GeoBlockQC::Options{0.25, 0});
  const AggregateRequest req = SomeRequest();
  for (const geo::Polygon& poly : *polygons_) qc.Select(poly, req);
  qc.RebuildCache();
  ASSERT_GT(qc.trie_snapshot()->num_cached(), 0u);
  // Block-level cells were never recorded, so recording one would add a
  // distinct cell (or a drop).
  const size_t distinct_before = qc.stats().num_distinct_cells();
  const uint64_t dropped_before = qc.stats().dropped();
  qc.ResetCounters();
  // A covering of block-level cells only, with finer cells mixed in that
  // clamp to their block-level parents: every cell bypasses the cache.
  std::vector<cell::CellId> covering;
  const auto& cells = block_->cells();
  for (size_t i = 0; i < cells.size(); i += 7) {
    const cell::CellId c(cells[i]);
    covering.push_back(i % 3 == 0 ? c.Child(2) : c);
  }
  ASSERT_GT(covering.size(), 100u);
  const QueryResult got = qc.SelectCovering(covering, req);
  EXPECT_EQ(qc.stats().num_distinct_cells(), distinct_before);
  EXPECT_EQ(qc.stats().dropped(), dropped_before);
  EXPECT_EQ(qc.counters().probes, 0u);
  const QueryResult want = block_->SelectCovering(covering, req);
  ASSERT_EQ(got.count, want.count);
  ASSERT_EQ(got.values, want.values);
}

TEST_F(BlockQCTest, MemoryIncludesTrie) {
  GeoBlockQC qc(block_, GeoBlockQC::Options{0.10, 0});
  const AggregateRequest req = SomeRequest();
  for (const geo::Polygon& poly : *polygons_) qc.Select(poly, req);
  qc.RebuildCache();
  EXPECT_EQ(qc.MemoryBytes(),
            block_->MemoryBytes() + qc.trie_snapshot()->MemoryBytes());
}

}  // namespace
}  // namespace geoblocks::core
