#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstring>
#include <map>
#include <memory>
#include <random>
#include <thread>
#include <vector>

#include "core/block_qc.h"
#include "core/block_set.h"
#include "storage/sharded_dataset.h"
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

TEST_F(BlockQCTest, PartialHitsMatchBaseBlock) {
  // Warm the cache on the children of the coarser covering cells only: a
  // parent's trie node then exists uncached, so its probe answers some
  // children from the trie and folds the others from the block state with
  // the fold's aggregate cursor.
  GeoBlockQC qc(block_, GeoBlockQC::Options{0.10, 0});
  const AggregateRequest req = SomeRequest();
  std::vector<std::vector<cell::CellId>> coverings;
  std::vector<std::vector<cell::CellId>> split;
  for (const geo::Polygon& poly : *polygons_) {
    coverings.push_back(block_->Cover(poly));
    std::vector<cell::CellId> children;
    for (const cell::CellId c : coverings.back()) {
      if (c.level() >= block_->level()) {
        children.push_back(c);
        continue;
      }
      for (int k = 0; k < 4; ++k) children.push_back(c.Child(k));
    }
    split.push_back(std::move(children));
  }
  for (int round = 0; round < 3; ++round) {
    for (const auto& covering : split) qc.SelectCovering(covering, req);
  }
  qc.RebuildCache();
  qc.ResetCounters();
  for (const auto& covering : coverings) {
    ExpectSameResult(qc.SelectCovering(covering, req),
                     block_->SelectCovering(covering, req));
  }
  EXPECT_GT(qc.counters().partial_hits, 0u);
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
  const std::shared_ptr<const BlockState> state = block_->StateSnapshot();
  size_t coarser = 0;
  for (const cell::CellId& c : covering) {
    if (c.level() < block_->level() && state->MayOverlap(c)) ++coarser;
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

/// True when two caches hold the same root and bit-identical arrays.
bool SameCache(const AggregateTrie& a, const AggregateTrie& b) {
  const auto aggs_a = a.column_aggs();
  const auto aggs_b = b.column_aggs();
  return a.root_cell() == b.root_cell() &&
         std::ranges::equal(a.ids(), b.ids()) &&
         std::ranges::equal(a.counts(), b.counts()) &&
         aggs_a.size() == aggs_b.size() &&
         (aggs_a.empty() ||
          std::memcmp(aggs_a.data(), aggs_b.data(), aggs_a.size_bytes()) == 0);
}

/// A seeded Zipf stream over polygon indices: the polygon at position r of
/// `order` is drawn with weight 1 / (r + 1)^1.1.
class ZipfStream {
 public:
  ZipfStream(std::vector<size_t> order, uint64_t seed)
      : order_(std::move(order)), rng_(seed) {
    std::vector<double> weights;
    for (size_t r = 0; r < order_.size(); ++r) {
      weights.push_back(1.0 / std::pow(static_cast<double>(r + 1), 1.1));
    }
    dist_ = std::discrete_distribution<size_t>(weights.begin(), weights.end());
  }
  size_t Next() { return order_[dist_(rng_)]; }

 private:
  std::vector<size_t> order_;
  std::mt19937_64 rng_;
  std::discrete_distribution<size_t> dist_;
};

/// `count` tuples at the centers of block-level cells the block does not
/// hold yet, inside the unit-space rect from `lo` to `hi`.
std::vector<GeoBlock::UpdateTuple> NewCellBatch(const GeoBlock& block,
                                                size_t num_columns,
                                                geo::Point lo, geo::Point hi,
                                                size_t count, uint64_t seed) {
  std::mt19937_64 rng(seed);
  std::uniform_real_distribution<double> x(lo.x, hi.x);
  std::uniform_real_distribution<double> y(lo.y, hi.y);
  std::vector<GeoBlock::UpdateTuple> batch;
  std::vector<uint64_t> used;
  while (batch.size() < count) {
    const cell::CellId c = cell::CellId::FromPoint({x(rng), y(rng)})
                               .Parent(block.level());
    if (std::binary_search(block.cells().begin(), block.cells().end(),
                           c.id()) ||
        std::find(used.begin(), used.end(), c.id()) != used.end()) {
      continue;
    }
    used.push_back(c.id());
    GeoBlock::UpdateTuple t;
    t.location = block.projection().FromUnit(c.CenterPoint());
    t.values.assign(num_columns, 3.0);
    batch.push_back(std::move(t));
  }
  return batch;
}

TEST_F(BlockQCTest, SkippedRebuildMatchesFullBuild) {
  // The skip test of RebuildCache must be exact: after every interval
  // crossing the published cache equals, array for array, one built from
  // the current ranking, budget and state with the pre-crossing cache as
  // the payload source — whether the crossing rebuilt or skipped.
  GeoBlock block = GeoBlock::Build(*data_, BlockOptions{15, {}});
  constexpr size_t kInterval = 8;
  GeoBlockQC qc(&block, GeoBlockQC::Options{0.02, kInterval});
  const AggregateRequest req = SomeRequest();
  std::vector<std::vector<cell::CellId>> coverings;
  for (const geo::Polygon& poly : *polygons_) {
    coverings.push_back(block.Cover(poly));
  }

  struct Tally {
    size_t skipped = 0;
    size_t rebuilt = 0;
  };
  Tally total;
  // Runs `n` queries whose coverings `next` returns; returns what their
  // crossings did.
  const auto run = [&](auto&& next, size_t n) -> Tally {
    Tally t;
    for (size_t q = 0; q < n; ++q) {
      const std::shared_ptr<const AggregateTrie> prev = qc.trie_snapshot();
      const CacheCounters before = qc.counters();
      const std::vector<cell::CellId>& covering = next();
      ExpectSameResult(qc.SelectCovering(covering, req),
                       block.SelectCovering(covering, req));
      const CacheCounters after = qc.counters();
      const std::shared_ptr<const AggregateTrie> got = qc.trie_snapshot();
      if (after.rebuilds_skipped != before.rebuilds_skipped) {
        ++t.skipped;
        EXPECT_EQ(got, prev) << "a skipped crossing published a trie";
      } else if (after.rebuilds != before.rebuilds) {
        ++t.rebuilt;
      } else {
        EXPECT_EQ(got, prev) << "a query between crossings published a trie";
        continue;
      }
      AggregateTrie want;
      want.Build(*block.StateSnapshot(), qc.stats().RankedCells(),
                 qc.CacheBudgetBytes(), prev.get());
      if (!SameCache(*got, want)) {
        ADD_FAILURE() << "crossing at query " << q
                      << " diverged from a full build";
        return t;
      }
    }
    total.skipped += t.skipped;
    total.rebuilt += t.rebuilt;
    return t;
  };

  std::vector<size_t> order(polygons_->size());
  for (size_t i = 0; i < order.size(); ++i) order[i] = i;
  // Every fourth stationary query covers the root's parent: a recorded
  // cell that is never a candidate, however well it ranks.
  const cell::CellId root = AggregateTrie::RootFor(*block.StateSnapshot());
  ASSERT_GT(root.level(), 0);
  const std::vector<cell::CellId> above_root{root.Parent()};
  ZipfStream stationary_stream(order, 11);
  size_t stationary_queries = 0;
  const auto stationary = [&]() -> const std::vector<cell::CellId>& {
    if (++stationary_queries % 4 == 0) return above_root;
    return coverings[stationary_stream.Next()];
  };
  const Tally steady = run(stationary, 800);
  EXPECT_GT(steady.skipped, steady.rebuilt)
      << "a stationary stream should mostly skip";

  // The hot set moves to the other end of the polygon list.
  std::reverse(order.begin(), order.end());
  ZipfStream shifted_stream(order, 12);
  const auto shifted = [&]() -> const std::vector<cell::CellId>& {
    return coverings[shifted_stream.Next()];
  };
  EXPECT_GT(run(shifted, 400).rebuilt, 0u);

  // In-cell commits patch payloads only: crossings may keep skipping, and
  // a kept trie must carry the patched payloads.
  std::mt19937_64 rng(13);
  std::vector<GeoBlock::UpdateTuple> in_cell;
  for (int k = 0; k < 64; ++k) {
    GeoBlock::UpdateTuple t;
    t.location = block.projection().FromUnit(
        cell::CellId(block.cells()[rng() % block.num_cells()]).CenterPoint());
    t.values.assign(data_->num_columns(), 7.5);
    in_cell.push_back(std::move(t));
  }
  ASSERT_EQ(qc.CommitBlockBatch(&block, in_cell).applied, in_cell.size());
  run(shifted, 200);

  // New cells inside the root grow the budget: the next crossing rebuilds.
  ASSERT_EQ(AggregateTrie::RootFor(*block.StateSnapshot()), root);
  const geo::Rect root_rect = root.ToRect();
  const size_t budget_before = qc.CacheBudgetBytes();
  const auto inside = NewCellBatch(
      block, data_->num_columns(), root_rect.min, root_rect.max, 8, 14);
  ASSERT_EQ(qc.CommitBlockBatch(&block, inside).applied, inside.size());
  ASSERT_EQ(AggregateTrie::RootFor(*block.StateSnapshot()), root);
  ASSERT_GT(qc.CacheBudgetBytes(), budget_before);
  {
    const Tally t = run(shifted, kInterval);
    EXPECT_EQ(t.rebuilt, 1u);
    EXPECT_EQ(t.skipped, 0u);
  }
  run(shifted, 200);

  // A new cell outside the root grows the root.
  const geo::Point far_lo{root_rect.max.x + 0.01, root_rect.max.y + 0.01};
  const geo::Point far_hi{std::min(far_lo.x + 0.05, 0.999),
                          std::min(far_lo.y + 0.05, 0.999)};
  ASSERT_LT(far_lo.x, far_hi.x);
  const auto outside = NewCellBatch(block, data_->num_columns(), far_lo,
                                    far_hi, 1, 15);
  ASSERT_EQ(qc.CommitBlockBatch(&block, outside).applied, 1u);
  ASSERT_NE(AggregateTrie::RootFor(*block.StateSnapshot()), root);
  {
    const Tally t = run(shifted, kInterval);
    EXPECT_EQ(t.rebuilt, 1u);
    EXPECT_EQ(t.skipped, 0u);
  }
  run(shifted, 200);

  // A dropped trie is rebuilt at the next crossing.
  ASSERT_GT(qc.DropTrie(), 0u);
  {
    const Tally t = run(shifted, kInterval);
    EXPECT_EQ(t.rebuilt, 1u);
  }
  run(stationary, 200);

  // Cleared statistics: the check reads only the current table. No
  // production path clears a cache's statistics; the test reaches the
  // table through the const accessor of a non-const cache. Recording only
  // the cell the last build stopped at must bring it in.
  const std::shared_ptr<const AggregateTrie> kept = qc.trie_snapshot();
  const std::vector<cell::CellId> ranked = qc.stats().RankedCells();
  const auto break_cell = std::find_if(
      ranked.begin(), ranked.end(), [&](const cell::CellId& c) {
        return kept->root_cell().Contains(c) && !kept->IsCached(c);
      });
  ASSERT_NE(break_cell, ranked.end());
  ASSERT_GT(kept->num_cached(), 0u);
  const std::vector<cell::CellId> only_break{*break_cell};
  const_cast<QueryStats&>(qc.stats()).Clear();
  {
    const Tally t = run(
        [&]() -> const std::vector<cell::CellId>& { return only_break; },
        kInterval);
    EXPECT_EQ(t.rebuilt, 1u);
    EXPECT_TRUE(qc.trie_snapshot()->IsCached(only_break[0]));
  }
  run(stationary, 400);

  // The best outsider changes identity while the set stays full and
  // outranks it: both crossings must skip. Fresh statistics make the
  // scores exact: K disjoint cells hit 8 times each fill the cache, then
  // outsiders hit once and twice follow. A block-level cell is never
  // recorded: its queries only count towards the interval.
  const std::vector<cell::CellId> nothing{cell::CellId(block.cells()[0])};
  const auto repeat = [&](const std::vector<cell::CellId>& covering) {
    return [&covering]() -> const std::vector<cell::CellId>& {
      return covering;
    };
  };
  const size_t capacity = qc.CacheBudgetBytes() /
                          AggregateTrie::CellBytes(data_->num_columns());
  ASSERT_GT(capacity, 0u);
  std::vector<cell::CellId> disjoint;
  for (const uint64_t id : block.cells()) {
    const cell::CellId c = cell::CellId(id).Parent(block.level() - 1);
    if (disjoint.empty() || disjoint.back() != c) disjoint.push_back(c);
  }
  ASSERT_GE(disjoint.size(), capacity + 2);
  const std::vector<cell::CellId> members(disjoint.begin(),
                                          disjoint.begin() + capacity);
  const std::vector<cell::CellId> first_outsider{disjoint[capacity]};
  const std::vector<cell::CellId> second_outsider{disjoint[capacity + 1]};
  const_cast<QueryStats&>(qc.stats()).Clear();
  while (true) {  // align to the interval
    const Tally t = run(repeat(nothing), 1);
    if (t.skipped + t.rebuilt > 0) break;
  }
  EXPECT_EQ(run(repeat(members), kInterval).rebuilt, 1u);
  ASSERT_EQ(qc.trie_snapshot()->num_cached(), capacity);
  run(repeat(first_outsider), 1);
  {
    const Tally t = run(repeat(nothing), kInterval - 1);
    EXPECT_EQ(t.skipped, 1u) << "a new best outsider forced a rebuild";
  }
  run(repeat(second_outsider), 2);
  {
    const Tally t = run(repeat(nothing), kInterval - 2);
    EXPECT_EQ(t.skipped, 1u) << "a changed best outsider forced a rebuild";
  }
  EXPECT_FALSE(qc.trie_snapshot()->IsCached(second_outsider[0]));

  EXPECT_GT(total.skipped, 0u);
  EXPECT_GT(total.rebuilt, 0u);
  const CacheCounters c = qc.counters();
  EXPECT_EQ(c.rebuilds, total.rebuilt);
  EXPECT_EQ(c.rebuilds_skipped, total.skipped);
}

TEST_F(BlockQCTest, RootGrowthAloneRebuilds) {
  // With a zero budget nothing is ever cached and no commit moves the
  // budget, yet a commit that grows the root must still republish: the
  // skip test compares the published cache's root with the state's.
  GeoBlock block = GeoBlock::Build(*data_, BlockOptions{15, {}});
  constexpr size_t kInterval = 4;
  GeoBlockQC qc(&block, GeoBlockQC::Options{0.0, kInterval});
  const AggregateRequest req = SomeRequest();
  const std::vector<cell::CellId> covering = block.Cover((*polygons_)[0]);
  const auto cross = [&] {
    for (size_t q = 0; q < kInterval; ++q) qc.SelectCovering(covering, req);
  };
  cross();
  cross();
  const cell::CellId root = qc.trie_snapshot()->root_cell();
  ASSERT_EQ(root, AggregateTrie::RootFor(*block.StateSnapshot()));
  EXPECT_EQ(qc.counters().rebuilds, 1u);
  EXPECT_EQ(qc.counters().rebuilds_skipped, 1u);

  const geo::Rect r = root.ToRect();
  const geo::Point far_lo{r.max.x + 0.01, r.max.y + 0.01};
  const auto outside = NewCellBatch(
      block, data_->num_columns(), far_lo,
      {std::min(far_lo.x + 0.05, 0.999), std::min(far_lo.y + 0.05, 0.999)},
      1, 16);
  ASSERT_EQ(qc.CommitBlockBatch(&block, outside).applied, 1u);
  ASSERT_EQ(qc.CacheBudgetBytes(), 0u);
  cross();
  EXPECT_EQ(qc.counters().rebuilds, 2u);
  EXPECT_EQ(qc.trie_snapshot()->root_cell(),
            AggregateTrie::RootFor(*block.StateSnapshot()));
  EXPECT_NE(qc.trie_snapshot()->root_cell(), root);
}

TEST_F(BlockQCTest, ConcurrentClaimsDuringCrossings) {
  // Recorders keep claiming fresh stats slots (every thread queries its
  // own coarse cells) while their interval crossings and a writer thread
  // run the skip test, RebuildCache and RankedCells: race-free under TSan,
  // answers exact, and the quiesced ranking whole.
  GeoBlockQC qc(block_, GeoBlockQC::Options{0.05, 16});
  constexpr size_t kRecorders = 4;
  std::vector<cell::CellId> coarse;
  for (size_t i = 0; i < block_->num_cells(); i += 5) {
    const cell::CellId c(block_->cells()[i]);
    coarse.push_back(c.Parent(block_->level() - 1 - static_cast<int>(i % 4)));
  }
  std::sort(coarse.begin(), coarse.end());
  coarse.erase(std::unique(coarse.begin(), coarse.end()), coarse.end());
  ASSERT_GT(coarse.size(), 200u);
  AggregateRequest req;
  req.Add(AggFn::kCount);
  std::vector<uint64_t> want;
  for (const cell::CellId& c : coarse) {
    want.push_back(block_->SelectCovering({&c, 1}, req).count);
  }

  std::atomic<size_t> done{0};
  std::atomic<uint64_t> mismatches{0};
  std::vector<std::thread> recorders;
  for (size_t t = 0; t < kRecorders; ++t) {
    recorders.emplace_back([&, t] {
      for (int round = 0; round < 3; ++round) {
        for (size_t i = t; i < coarse.size(); i += kRecorders) {
          if (qc.SelectCovering({&coarse[i], 1}, req).count != want[i]) {
            mismatches.fetch_add(1, std::memory_order_relaxed);
          }
        }
      }
      done.fetch_add(1, std::memory_order_release);
    });
  }
  size_t duplicate_rankings = 0;
  while (done.load(std::memory_order_acquire) < kRecorders) {
    qc.RebuildCache();
    std::vector<cell::CellId> ranked = qc.stats().RankedCells();
    std::sort(ranked.begin(), ranked.end());
    if (std::adjacent_find(ranked.begin(), ranked.end()) != ranked.end()) {
      ++duplicate_rankings;
    }
  }
  for (std::thread& t : recorders) t.join();
  EXPECT_EQ(mismatches.load(), 0u);
  EXPECT_EQ(duplicate_rankings, 0u);

  // Quiesced: every recorded cell is listed, and one more request either
  // skips or rebuilds to exactly the full build.
  EXPECT_EQ(qc.stats().num_distinct_cells(), coarse.size());
  EXPECT_EQ(qc.stats().RankedCells().size(), coarse.size());
  const std::shared_ptr<const AggregateTrie> prev = qc.trie_snapshot();
  qc.RebuildCache();
  AggregateTrie full;
  full.Build(*block_, qc.stats().RankedCells(), qc.CacheBudgetBytes(),
             prev.get());
  EXPECT_TRUE(SameCache(*qc.trie_snapshot(), full));
  const CacheCounters c = qc.counters();
  EXPECT_GT(c.rebuilds + c.rebuilds_skipped, 0u);
}

TEST_F(BlockQCTest, CacheCursorMatchesFigure8Reference) {
  // The cursor fold of CombineCovering against a per-cell Figure 8 fold
  // kept here: an ordered map of the published snapshot's cached ids,
  // an exact-cell lookup, then the four direct children. Both read the
  // same pinned state and cache snapshot of each of 8 shards; answers must
  // be bit-identical and the full/partial/miss counters equal.
  constexpr int kLevel = 15;
  storage::ExtractOptions options;
  options.clean_bounds = workload::NycBounds();
  const auto data = std::make_shared<storage::SortedDataset>(
      storage::SortedDataset::Extract(*raw_, options));
  storage::ShardOptions shard_options;
  shard_options.num_shards = 8;
  shard_options.align_level = kLevel;
  BlockSet set = BlockSet::Build(
      storage::ShardedDataset::Partition(data, shard_options),
      BlockSetOptions{{kLevel, {}}});
  set.EnableCache(GeoBlockQC::Options{0.05, 0});

  // Seeded mixed-level coverings: cells from the root's level down to one
  // level finer than the grid, made disjoint by keeping the coarser of two
  // overlapping cells.
  const cell::CellId root = AggregateTrie::RootFor(*block_->StateSnapshot());
  std::mt19937_64 rng(31);
  std::vector<std::vector<cell::CellId>> coverings;
  while (coverings.size() < 320) {
    std::vector<cell::CellId> cells;
    const size_t n = 4 + rng() % 40;
    for (size_t i = 0; i < n; ++i) {
      const cell::CellId grid(block_->cells()[rng() % block_->num_cells()]);
      const int level =
          root.level() + static_cast<int>(rng() % static_cast<uint64_t>(
                                              kLevel - root.level() + 2));
      cells.push_back(level > kLevel
                          ? grid.Child(static_cast<int>(rng() % 4))
                          : grid.Parent(level));
    }
    std::sort(cells.begin(), cells.end(), [](cell::CellId a, cell::CellId b) {
      return a.RangeMin() != b.RangeMin() ? a.RangeMin() < b.RangeMin()
                                          : a.level() < b.level();
    });
    std::vector<cell::CellId> covering;
    for (const cell::CellId c : cells) {
      if (covering.empty() || covering.back().RangeMax() < c.RangeMin()) {
        covering.push_back(c);
      }
    }
    coverings.push_back(std::move(covering));
  }
  // Warm: record every covering once, a third of them split into their
  // children and a third into their grandchildren (partial hits where
  // those are cached but the parent is not), the first ones more often.
  const auto split = [&](const std::vector<cell::CellId>& covering,
                         int depth) {
    std::vector<cell::CellId> out;
    for (const cell::CellId c : covering) {
      const int to = std::min(c.level() + depth, kLevel);
      if (to <= c.level()) {
        out.push_back(c);
        continue;
      }
      for (cell::CellId d = c.ChildBegin(to);; d = d.Next()) {
        out.push_back(d);
        if (d == c.ChildLast(to)) break;
      }
    }
    return out;
  };
  const AggregateRequest req = SomeRequest();
  for (size_t i = 0; i < coverings.size(); ++i) {
    const std::vector<cell::CellId> warm = split(coverings[i], i % 3);
    for (size_t r = 0; r < 1 + 8 / (1 + i / 40); ++r) {
      (void)set.SelectCoveringCached(warm, req);
    }
  }
  set.RebuildCaches();

  const int grid_level = set.shard(0).level();
  CacheCounters want_total;
  CacheCounters got_total;
  for (size_t s = 0; s < set.num_shards(); ++s) {
    const GeoBlockQC& qc = set.cached_shard(s);
    const std::shared_ptr<const BlockState> state =
        set.shard(s).StateSnapshot();
    const std::shared_ptr<const AggregateTrie> cache = qc.trie_snapshot();
    std::map<uint64_t, size_t> cached;  // id -> index into the arrays
    for (size_t i = 0; i < cache->num_cached(); ++i) {
      cached.emplace(cache->ids()[i], i);
    }
    const auto fold_cached = [&](cell::CellId c, Accumulator* acc) {
      const size_t i = cached.at(c.id());
      acc->AddAggregate(cache->counts()[i],
                        cache->column_aggs().data() + i * cache->num_columns());
    };
    const auto fold_state = [&](cell::CellId c, Accumulator* acc) {
      state->CombineCovering({&c, 1}, acc);
    };
    for (const std::vector<cell::CellId>& covering : coverings) {
      Accumulator want_acc(&req);
      cell::CellId previous;
      for (cell::CellId c : covering) {
        if (c.level() > grid_level) c = c.Parent(grid_level);
        if (c == previous) continue;  // a grid cell folds once
        previous = c;
        if (!state->MayOverlap(c)) continue;
        if (c.level() == grid_level) {
          fold_state(c, &want_acc);
          continue;
        }
        if (cached.count(c.id()) != 0) {
          ++want_total.full_hits;
          fold_cached(c, &want_acc);
          continue;
        }
        bool any_child = false;
        for (int k = 0; k < 4; ++k) {
          any_child |= cached.count(c.Child(k).id()) != 0;
        }
        if (!any_child) {
          ++want_total.misses;
          fold_state(c, &want_acc);
          continue;
        }
        ++want_total.partial_hits;
        for (int k = 0; k < 4; ++k) {
          if (cached.count(c.Child(k).id()) != 0) {
            fold_cached(c.Child(k), &want_acc);
          } else {
            fold_state(c.Child(k), &want_acc);
          }
        }
      }
      const CacheCounters before = qc.counters();
      Accumulator got_acc(&req);
      qc.CombineCovering(*state, covering, &got_acc);
      ASSERT_EQ(qc.trie_snapshot(), cache) << "the fold published a cache";
      const CacheCounters after = qc.counters();
      got_total.full_hits += after.full_hits - before.full_hits;
      got_total.partial_hits += after.partial_hits - before.partial_hits;
      got_total.misses += after.misses - before.misses;
      const QueryResult want = want_acc.Finish();
      const QueryResult got = got_acc.Finish();
      ASSERT_EQ(got.count, want.count) << "shard " << s;
      ASSERT_EQ(got.values.size(), want.values.size());
      ASSERT_EQ(std::memcmp(got.values.data(), want.values.data(),
                            want.values.size() * sizeof(double)),
                0)
          << "shard " << s;

      // The cursor contract the fold relies on: one cache cursor over the
      // coarser cells in ascending order finds each cell's run and moves
      // to its end.
      size_t cursor = 0;
      for (const cell::CellId c : covering) {
        if (c.level() >= grid_level || !state->MayOverlap(c)) continue;
        size_t fresh = 0;
        const BlockState::CellRun want_run = cache->NextRun(c, &fresh);
        const BlockState::CellRun got_run = cache->NextRun(c, &cursor);
        ASSERT_EQ(got_run.begin, want_run.begin);
        ASSERT_EQ(got_run.end, want_run.end);
        ASSERT_EQ(cursor, got_run.end);
      }
    }
  }
  EXPECT_EQ(got_total.full_hits, want_total.full_hits);
  EXPECT_EQ(got_total.partial_hits, want_total.partial_hits);
  EXPECT_EQ(got_total.misses, want_total.misses);
  EXPECT_GT(want_total.full_hits, 0u);
  EXPECT_GT(want_total.partial_hits, 0u);
  EXPECT_GT(want_total.misses, 0u);
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
