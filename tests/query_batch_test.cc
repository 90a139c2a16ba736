#include <gtest/gtest.h>

#include <cmath>
#include <thread>
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
using core::CacheCounters;
using core::GeoBlock;
using core::QueryBatch;
using core::QueryResult;

/// Concurrency-facing behavior of the sharded engine: batched execution
/// must be deterministic under any scheduling, and the per-shard query
/// caches must keep exact counter accounting when hammered from many
/// threads.
class QueryBatchTest : public ::testing::Test {
 protected:
  static constexpr int kLevel = 15;
  static constexpr size_t kShards = 4;
  /// Grid level of the cached-path tests' private sets: two levels finer
  /// than kLevel, the shards' alignment.
  static constexpr int kCachedLevel = kLevel + 2;
  /// Least full hits a warm pass over the polygons must fold in those tests
  /// (a level-kLevel set folds 2).
  static constexpr uint64_t kMinWarmFullHits = 20;

  static void SetUpTestSuite() {
    raw_ = new storage::PointTable(workload::GenTaxi(30000, 31));
    storage::ExtractOptions options;
    options.clean_bounds = workload::NycBounds();
    data_ = new storage::SortedDataset(
        storage::SortedDataset::Extract(*raw_, options));
    storage::ShardOptions shard_options;
    shard_options.num_shards = kShards;
    shard_options.align_level = kLevel;
    sharded_ = new storage::ShardedDataset(
        storage::ShardedDataset::Partition(*data_, shard_options));
    set_ = new BlockSet(
        BlockSet::Build(*sharded_, BlockSetOptions{{kLevel, {}}}));
    polygons_ = new std::vector<geo::Polygon>(
        workload::Neighborhoods(*raw_, 24, 32));
  }
  static void TearDownTestSuite() {
    delete polygons_;
    delete set_;
    delete sharded_;
    delete data_;
    delete raw_;
    polygons_ = nullptr;
    set_ = nullptr;
    sharded_ = nullptr;
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
    return req;
  }

  static void ExpectNear(const QueryResult& got, const QueryResult& want,
                         const char* what) {
    ASSERT_EQ(got.count, want.count) << what;
    ASSERT_EQ(got.values.size(), want.values.size()) << what;
    for (size_t i = 0; i < got.values.size(); ++i) {
      ASSERT_NEAR(got.values[i], want.values[i],
                  1e-9 * std::abs(want.values[i]) + 1e-6)
          << what << " value " << i;
    }
  }

  static void ExpectExactlyEqual(const std::vector<QueryResult>& a,
                                 const std::vector<QueryResult>& b) {
    ASSERT_EQ(a.size(), b.size());
    for (size_t i = 0; i < a.size(); ++i) {
      ASSERT_EQ(a[i].count, b[i].count) << "query " << i;
      ASSERT_EQ(a[i].values, b[i].values) << "query " << i;
    }
  }

  static storage::PointTable* raw_;
  static storage::SortedDataset* data_;
  static storage::ShardedDataset* sharded_;
  static BlockSet* set_;
  static std::vector<geo::Polygon>* polygons_;
};

storage::PointTable* QueryBatchTest::raw_ = nullptr;
storage::SortedDataset* QueryBatchTest::data_ = nullptr;
storage::ShardedDataset* QueryBatchTest::sharded_ = nullptr;
BlockSet* QueryBatchTest::set_ = nullptr;
std::vector<geo::Polygon>* QueryBatchTest::polygons_ = nullptr;

TEST_F(QueryBatchTest, BatchMatchesSequentialSelect) {
  util::ThreadPool pool1(1);
  util::ThreadPool pool4(4);
  const AggregateRequest req = Request();
  const QueryBatch batch = QueryBatch::Of(*polygons_, &req);
  std::vector<QueryResult> want;
  for (const geo::Polygon& poly : *polygons_) {
    want.push_back(set_->Select(poly, req));
  }
  for (util::ThreadPool* pool : {static_cast<util::ThreadPool*>(nullptr),
                                 &pool1, &pool4}) {
    ExpectExactlyEqual(set_->ExecuteBatch(batch, pool), want);
  }
}

TEST_F(QueryBatchTest, BatchIsDeterministicAcrossRunsAndPoolSizes) {
  const AggregateRequest req = Request();
  const QueryBatch batch = QueryBatch::Of(*polygons_, &req);
  util::ThreadPool pool1(1);
  util::ThreadPool pool4(4);
  const auto inline_run = set_->ExecuteBatch(batch, nullptr);
  const auto run1 = set_->ExecuteBatch(batch, &pool1);
  const auto run4a = set_->ExecuteBatch(batch, &pool4);
  const auto run4b = set_->ExecuteBatch(batch, &pool4);
  // Every query folds exactly like Select, so results are bitwise
  // reproducible no matter how the tasks were scheduled.
  ExpectExactlyEqual(inline_run, run1);
  ExpectExactlyEqual(run1, run4a);
  ExpectExactlyEqual(run4a, run4b);
}

TEST_F(QueryBatchTest, ConcurrentMixedWorkloadIsDeterministic) {
  // Several client threads issue batched SELECTs and pooled COUNTs against
  // one BlockSet while sharing one pool; every thread must observe
  // identical results.
  util::ThreadPool pool(4);
  const AggregateRequest req = Request();
  const QueryBatch batch = QueryBatch::Of(*polygons_, &req);
  std::vector<const geo::Polygon*> polys;
  for (const geo::Polygon& p : *polygons_) polys.push_back(&p);

  const std::vector<QueryResult> want_select =
      set_->ExecuteBatch(batch, nullptr);
  std::vector<uint64_t> want_count;
  for (const geo::Polygon* p : polys) want_count.push_back(set_->Count(*p));

  constexpr size_t kClients = 4;
  constexpr size_t kRounds = 3;
  std::vector<std::vector<std::vector<QueryResult>>> selects(kClients);
  std::vector<std::vector<std::vector<uint64_t>>> counts(kClients);
  std::vector<std::thread> clients;
  for (size_t t = 0; t < kClients; ++t) {
    clients.emplace_back([&, t] {
      for (size_t r = 0; r < kRounds; ++r) {
        selects[t].push_back(set_->ExecuteBatch(batch, &pool));
        std::vector<uint64_t> round(polys.size());
        util::ParallelFor(&pool, polys.size(), [&](size_t i) {
          round[i] = set_->Count(*polys[i]);
        });
        counts[t].push_back(std::move(round));
      }
    });
  }
  for (std::thread& c : clients) c.join();

  for (size_t t = 0; t < kClients; ++t) {
    for (size_t r = 0; r < kRounds; ++r) {
      ExpectExactlyEqual(selects[t][r], want_select);
      ASSERT_EQ(counts[t][r], want_count) << "client " << t;
    }
  }
}

TEST_F(QueryBatchTest, CachedPathKeepsExactCounterAccounting) {
  // A private BlockSet so cache state does not leak across tests. Its grid
  // is two levels finer than the shards' alignment, so the coverings hold
  // cells two or more levels coarser than it: the cells the cache serves.
  BlockSet set =
      BlockSet::Build(*sharded_, BlockSetOptions{{kCachedLevel, {}}});
  set.EnableCache(core::GeoBlockQC::Options{0.05, 0});
  const AggregateRequest req = Request();

  std::vector<std::vector<cell::CellId>> coverings;
  for (const geo::Polygon& poly : *polygons_) {
    coverings.push_back(set.Cover(poly));
  }

  // Reference pass: cold tries, sequential. Every probe must miss.
  std::vector<QueryResult> want;
  for (const auto& covering : coverings) {
    want.push_back(set.SelectCoveringCached(covering, req));
  }
  const CacheCounters base = set.MergedCacheCounters();
  EXPECT_GT(base.probes, 0u);
  EXPECT_EQ(base.probes, base.misses);
  EXPECT_EQ(base.full_hits, 0u);
  EXPECT_EQ(base.partial_hits, 0u);

  // Stress pass: kClients threads re-run the same covering workload.
  // Tries are still cold (no rebuild yet), so the per-shard counters must
  // add up to exactly (kClients + 1) times the reference pass.
  constexpr size_t kClients = 4;
  std::vector<std::vector<QueryResult>> got(kClients);
  std::vector<std::thread> clients;
  for (size_t t = 0; t < kClients; ++t) {
    clients.emplace_back([&, t] {
      for (const auto& covering : coverings) {
        got[t].push_back(set.SelectCoveringCached(covering, req));
      }
    });
  }
  for (std::thread& c : clients) c.join();

  for (size_t t = 0; t < kClients; ++t) {
    ASSERT_EQ(got[t].size(), want.size());
    for (size_t i = 0; i < want.size(); ++i) {
      ASSERT_EQ(got[t][i].count, want[i].count) << "client " << t;
      ASSERT_EQ(got[t][i].values, want[i].values) << "client " << t;
    }
  }

  const CacheCounters after = set.MergedCacheCounters();
  EXPECT_EQ(after.probes, (kClients + 1) * base.probes);
  EXPECT_EQ(after.misses, after.probes);
  EXPECT_EQ(after.full_hits + after.partial_hits + after.misses,
            after.probes);

  // Warm the tries from the recorded statistics: hits must appear, results
  // must not change.
  set.RebuildCaches();
  set.ResetCacheCounters();
  for (size_t i = 0; i < coverings.size(); ++i) {
    const QueryResult warm = set.SelectCoveringCached(coverings[i], req);
    // Warm answers fold pre-merged trie aggregates, so floating-point
    // sums may differ in the last ulp from the cold path (same tolerance
    // integration_test.cc grants GeoBlockQC).
    ExpectNear(warm, want[i], "warm-cache");
  }
  const CacheCounters warm = set.MergedCacheCounters();
  EXPECT_EQ(warm.full_hits + warm.partial_hits + warm.misses, warm.probes);
  EXPECT_GT(warm.full_hits + warm.partial_hits, 0u)
      << "rebuilt caches never hit";
  EXPECT_GE(warm.full_hits, kMinWarmFullHits)
      << "the warm pass folded too few cache hits to test the cached path";
}

TEST_F(QueryBatchTest, SelectCachedWithoutEnableCacheFallsBack) {
  BlockSet set = BlockSet::Build(*sharded_, BlockSetOptions{{kLevel, {}}});
  ASSERT_FALSE(set.cache_enabled());
  const AggregateRequest req = Request();
  const geo::Polygon& poly = (*polygons_)[0];
  const QueryResult got = set.SelectCached(poly, req);
  const QueryResult want = set.Select(poly, req);
  EXPECT_EQ(got.count, want.count);
  EXPECT_EQ(got.values, want.values);
  EXPECT_EQ(set.MergedCacheCounters().probes, 0u);
}

TEST_F(QueryBatchTest, StatDropsSurfaceInMergedCounters) {
  // An undersized QueryStats table loses recordings silently at the stats
  // layer; the merged counters must make that loss observable so operators
  // can tell "cold cache" from "stats table too small". The grid is two
  // levels finer than the shards' alignment, so the coverings hold cells
  // two or more levels coarser than it: the cells the cache records.
  BlockSet set =
      BlockSet::Build(*sharded_, BlockSetOptions{{kLevel + 2, {}}});
  set.EnableCache(
      core::GeoBlockQC::Options{0.05, 0, /*stats_capacity=*/2});
  const AggregateRequest req = Request();
  for (const geo::Polygon& poly : *polygons_) {
    (void)set.SelectCoveringCached(set.Cover(poly), req);
  }
  EXPECT_GT(set.MergedCacheCounters().stat_drops, 0u)
      << "dropped stats recordings must be visible";
}

TEST_F(QueryBatchTest, CachedResultsMatchUncached) {
  // A grid two levels finer than the shards' alignment, as in
  // CachedPathKeepsExactCounterAccounting, so round 1 folds cache hits.
  BlockSet set =
      BlockSet::Build(*sharded_, BlockSetOptions{{kCachedLevel, {}}});
  set.EnableCache(core::GeoBlockQC::Options{0.05, 0});
  const AggregateRequest req = Request();
  for (int round = 0; round < 2; ++round) {
    for (const geo::Polygon& poly : *polygons_) {
      const auto covering = set.Cover(poly);
      const QueryResult cached = set.SelectCoveringCached(covering, req);
      const QueryResult plain = set.SelectCovering(covering, req);
      ASSERT_EQ(cached.count, plain.count);
      for (size_t i = 0; i < plain.values.size(); ++i) {
        ASSERT_NEAR(cached.values[i], plain.values[i],
                    1e-9 * std::abs(plain.values[i]) + 1e-6);
      }
    }
    if (round == 1) {
      EXPECT_GE(set.MergedCacheCounters().full_hits, kMinWarmFullHits)
          << "the rebuilt caches folded too few hits to test the cached path";
    }
    set.RebuildCaches();
  }
}

}  // namespace
}  // namespace geoblocks
