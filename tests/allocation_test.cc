#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <memory>
#include <new>
#include <random>
#include <vector>

#include "cell/coverer.h"
#include "core/block_set.h"
#include "core/geoblock.h"
#include "storage/sharded_dataset.h"
#include "workload/datagen.h"
#include "workload/polygen.h"

// Count every global heap allocation in this test binary so the serving hot
// paths' zero-allocation guarantees are checkable, not aspirational.
// Counting is always on; tests read the counter around a measured window.
namespace {
std::atomic<uint64_t> g_allocations{0};
}  // namespace

// The replacements stay out of line: inlined, the compiler pairs the
// std::malloc inside one with the std::free or operator delete inside
// another and warns of a mismatch (-Wmismatched-new-delete).
[[gnu::noinline]] void* operator new(std::size_t size) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size)) return p;
  throw std::bad_alloc();
}

[[gnu::noinline]] void* operator new[](std::size_t size) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size)) return p;
  throw std::bad_alloc();
}

[[gnu::noinline]] void operator delete(void* p) noexcept { std::free(p); }
[[gnu::noinline]] void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { operator delete(p); }
void operator delete[](void* p, std::size_t) noexcept { operator delete[](p); }

namespace geoblocks::core {
namespace {

/// Steady-state allocation behavior of the serving hot paths: the
/// unit-space coverer, the cached SELECT read path
/// (SelectCoveringCachedInto) and the MVCC commit fast path
/// (ApplyBatchUpdate routed through the per-shard clone-patch publish). Each
/// must reach zero heap allocations once its reusable scratch — the output
/// covering, thread-local routing/classify buffers, the block-state arena,
/// the recycled trie spare, and the caller's QueryResult — is warm.
class AllocationTest : public ::testing::Test {
 protected:
  static constexpr int kLevel = 15;
  static constexpr size_t kShards = 2;

  void SetUp() override {
    raw_ = workload::GenTaxi(8000, 17);
    storage::ExtractOptions options;
    options.clean_bounds = workload::NycBounds();
    data_ = std::make_shared<storage::SortedDataset>(
        storage::SortedDataset::Extract(raw_, options));
    storage::ShardOptions shard_options;
    shard_options.num_shards = kShards;
    shard_options.align_level = kLevel;
    sharded_ = storage::ShardedDataset::Partition(data_, shard_options);
    set_ = BlockSet::Build(sharded_, BlockSetOptions{{kLevel, {}}});
  }

  /// Enables the cache with interval rebuilds off (the measured windows
  /// must not race a trie rebuild) and publishes a non-empty trie built
  /// from a few recorded queries, so reads hit the cache and commits
  /// exercise the clone-patch path instead of the empty-trie early-out.
  void WarmCache(std::span<const cell::CellId> covering,
                 const AggregateRequest& request) {
    GeoBlockQC::Options copts;
    copts.threshold = 0.2;
    copts.rebuild_interval = 0;
    set_.EnableCache(copts);
    for (int i = 0; i < 32; ++i) {
      (void)set_.SelectCoveringCached(covering, request);
    }
    set_.RebuildCaches();
  }

  /// Tuples located inside already-populated cells of both shards: the
  /// commit fast path (no new cells, so the cell-id array is shared).
  std::vector<GeoBlock::UpdateTuple> InCellBatch(size_t count,
                                                 uint64_t seed) const {
    std::mt19937_64 rng(seed);
    std::vector<GeoBlock::UpdateTuple> batch;
    batch.reserve(count);
    for (size_t i = 0; i < count; ++i) {
      const GeoBlock& b = set_.shard(i % set_.num_shards());
      const size_t idx = rng() % b.num_cells();
      const geo::Point unit = cell::CellId(b.cells()[idx]).CenterPoint();
      GeoBlock::UpdateTuple t;
      t.location = data_->projection().FromUnit(unit);
      t.values.assign(data_->num_columns(), 0.0);
      for (size_t c = 0; c < t.values.size(); ++c) {
        t.values[c] = static_cast<double>(rng() % 1000) / 10.0;
      }
      batch.push_back(std::move(t));
    }
    return batch;
  }

  AggregateRequest InlineRequest() const {
    AggregateRequest req;
    req.Add(AggFn::kCount);
    req.Add(AggFn::kSum, 0);
    req.Add(AggFn::kMin, 1);
    req.Add(AggFn::kMax, 2);
    return req;
  }

  storage::PointTable raw_;
  std::shared_ptr<storage::SortedDataset> data_;
  storage::ShardedDataset sharded_;
  BlockSet set_;
};

TEST_F(AllocationTest, CachedSelectSteadyStateIsAllocationFree) {
  const AggregateRequest req = InlineRequest();
  ASSERT_LE(req.size(), Accumulator::kInlineSpecs);
  const auto polygons = workload::Neighborhoods(raw_, 4, 11);
  ASSERT_FALSE(polygons.empty());
  const std::vector<cell::CellId> covering = set_.Cover(polygons[0]);
  ASSERT_FALSE(covering.empty());
  WarmCache(covering, req);

  // Warm the thread-local scratches (shard routing, trie combine) and the
  // reused result's values capacity, and pin the expected answer.
  QueryResult result;
  for (int i = 0; i < 4; ++i) {
    set_.SelectCoveringCachedInto(covering, req, &result);
  }
  const QueryResult want = result;
  ASSERT_GT(want.count, 0u);

  const uint64_t before = g_allocations.load(std::memory_order_relaxed);
  for (int i = 0; i < 200; ++i) {
    set_.SelectCoveringCachedInto(covering, req, &result);
  }
  const uint64_t after = g_allocations.load(std::memory_order_relaxed);
  EXPECT_EQ(after - before, 0u)
      << "steady-state cached SELECT must not allocate";
  EXPECT_EQ(result.count, want.count);
  EXPECT_EQ(result.values, want.values);
}

TEST_F(AllocationTest, SkippedRebuildCrossingsAreAllocationFree) {
  // With interval rebuilds on, a crossing whose ranking leaves the cached
  // set as it is runs the skip test only: one walk of the recorded cells,
  // no ranking vector, no build, no publish.
  const AggregateRequest req = InlineRequest();
  const auto polygons = workload::Neighborhoods(raw_, 4, 11);
  ASSERT_FALSE(polygons.empty());
  const std::vector<cell::CellId> covering = set_.Cover(polygons[0]);
  ASSERT_FALSE(covering.empty());
  constexpr size_t kInterval = 16;
  GeoBlockQC::Options copts;
  copts.threshold = 0.2;
  copts.rebuild_interval = kInterval;
  set_.EnableCache(copts);

  // Warm: the first crossings build the trie, and the thread-local
  // scratches and the reused result reach capacity.
  QueryResult result;
  for (size_t i = 0; i < 4 * kInterval; ++i) {
    set_.SelectCoveringCachedInto(covering, req, &result);
  }
  const QueryResult want = result;
  const CacheCounters warm = set_.MergedCacheCounters();
  ASSERT_GT(warm.rebuilds, 0u);
  ASSERT_GT(warm.full_hits, 0u);

  constexpr size_t kQueries = 20 * kInterval;
  const uint64_t before = g_allocations.load(std::memory_order_relaxed);
  for (size_t i = 0; i < kQueries; ++i) {
    set_.SelectCoveringCachedInto(covering, req, &result);
  }
  const uint64_t after = g_allocations.load(std::memory_order_relaxed);
  EXPECT_EQ(after - before, 0u)
      << "a crossing that changes nothing must not allocate";
  const CacheCounters c = set_.MergedCacheCounters();
  EXPECT_EQ(c.rebuilds, warm.rebuilds);
  EXPECT_GE(c.rebuilds_skipped - warm.rebuilds_skipped, kQueries / kInterval);
  EXPECT_EQ(result.count, want.count);
  EXPECT_EQ(result.values, want.values);
}

TEST_F(AllocationTest, CovererIntoWarmVectorIsAllocationFree) {
  // The unit-space coverer recurses on the call stack and merges siblings
  // in place, so writing into a vector that already has the capacity makes
  // no heap allocation.
  const auto polygons = workload::Neighborhoods(raw_, 4, 11);
  ASSERT_FALSE(polygons.empty());
  std::vector<geo::Polygon> units;
  for (const geo::Polygon& p : polygons) {
    units.push_back(data_->projection().ToUnit(p));
  }
  std::vector<cell::CoveringCell> covering;
  for (const geo::Polygon& unit : units) {
    cell::GetCovering(unit, kLevel, &covering);
  }
  const std::vector<cell::CoveringCell> want = covering;
  ASSERT_FALSE(want.empty());

  const uint64_t before = g_allocations.load(std::memory_order_relaxed);
  for (int i = 0; i < 50; ++i) {
    for (const geo::Polygon& unit : units) {
      cell::GetCovering(unit, kLevel, &covering);
    }
  }
  const uint64_t after = g_allocations.load(std::memory_order_relaxed);
  EXPECT_EQ(after - before, 0u) << "steady-state covering must not allocate";
  EXPECT_EQ(covering, want);
}

TEST_F(AllocationTest, CoverIntoSteadyStateIsAllocationFree) {
  // BlockSet::CoverInto = Projection::ToUnit into a thread-local polygon +
  // the coverer into a thread-local scratch + a copy into the caller's
  // vector; once all three are warm nothing allocates.
  const auto polygons = workload::Neighborhoods(raw_, 4, 11);
  ASSERT_FALSE(polygons.empty());
  std::vector<cell::CellId> covering;
  for (const geo::Polygon& p : polygons) set_.CoverInto(p, &covering);
  const std::vector<cell::CellId> want = covering;
  ASSERT_FALSE(want.empty());

  const uint64_t before = g_allocations.load(std::memory_order_relaxed);
  for (int i = 0; i < 50; ++i) {
    for (const geo::Polygon& p : polygons) set_.CoverInto(p, &covering);
  }
  const uint64_t after = g_allocations.load(std::memory_order_relaxed);
  EXPECT_EQ(after - before, 0u) << "steady-state CoverInto must not allocate";
  EXPECT_EQ(covering, want);
}

TEST_F(AllocationTest, CommitFastPathSteadyStateIsAllocationFree) {
  const AggregateRequest req = InlineRequest();
  const auto polygons = workload::Neighborhoods(raw_, 2, 5);
  ASSERT_FALSE(polygons.empty());
  const std::vector<cell::CellId> covering = set_.Cover(polygons[0]);
  WarmCache(covering, req);

  const auto batch = InCellBatch(64, 7);
  const size_t cells = set_.num_cells();
  // Warm: the per-block state arenas and per-shard trie spares fill over
  // the first few commits (each publish retires the predecessor into its
  // recycler), and the routing/classify thread-locals reach capacity.
  for (int i = 0; i < 8; ++i) {
    (void)set_.ApplyBatchUpdate(batch);
  }
  ASSERT_EQ(set_.num_cells(), cells) << "batch must be in-cell only";

  const uint64_t before = g_allocations.load(std::memory_order_relaxed);
  size_t applied = 0;
  constexpr int kCommits = 32;
  for (int i = 0; i < kCommits; ++i) {
    applied += set_.ApplyBatchUpdate(batch).applied;
  }
  const uint64_t after = g_allocations.load(std::memory_order_relaxed);
  EXPECT_EQ(after - before, 0u) << "steady-state commit must not allocate";
  EXPECT_EQ(applied, kCommits * batch.size());

  // The commits really landed: the covering's count grew by the tuples the
  // measured (and warmup) commits dropped into covered cells.
  const QueryResult post = set_.SelectCoveringCached(covering, req);
  EXPECT_GE(post.count, 0u);
}

TEST_F(AllocationTest, UncachedCommitFastPathIsAllocationFreeToo) {
  // Without a cache the per-shard commit goes straight to
  // GeoBlock::ApplyBatchUpdate: the state arena alone must make the
  // clone-patch-publish loop allocation-free.
  const auto batch = InCellBatch(48, 13);
  const size_t cells = set_.num_cells();
  for (int i = 0; i < 8; ++i) {
    (void)set_.ApplyBatchUpdate(batch);
  }
  ASSERT_EQ(set_.num_cells(), cells) << "batch must be in-cell only";

  const uint64_t before = g_allocations.load(std::memory_order_relaxed);
  size_t applied = 0;
  constexpr int kCommits = 32;
  for (int i = 0; i < kCommits; ++i) {
    applied += set_.ApplyBatchUpdate(batch).applied;
  }
  const uint64_t after = g_allocations.load(std::memory_order_relaxed);
  EXPECT_EQ(after - before, 0u) << "uncached commit steady state allocated";
  EXPECT_EQ(applied, kCommits * batch.size());
}

}  // namespace
}  // namespace geoblocks::core
