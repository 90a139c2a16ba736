// Eviction vs readers vs writers: results must be bit-stable across
// evict/re-fault cycles, dirty shards (updates committed since open) must
// refuse eviction so no acknowledged write is ever lost, and concurrent
// readers racing a budget-thrashing evictor (and a writer) must never
// observe a torn or stale answer. The concurrent cases run under TSan in
// CI (the `EvictionStress` filter in the tsan job).
#include <gtest/gtest.h>
#include <unistd.h>

#include <atomic>
#include <cmath>
#include <fstream>
#include <memory>
#include <random>
#include <string>
#include <thread>
#include <vector>

#include "core/block_set.h"
#include "core/geoblock.h"
#include "core/memory_governor.h"
#include "storage/sharded_dataset.h"
#include "workload/datagen.h"
#include "workload/polygen.h"

namespace geoblocks {
namespace {

using core::AggFn;
using core::AggregateRequest;
using core::BlockSet;
using core::BlockSetOptions;
using core::GeoBlock;
using core::GeoBlockQC;
using core::LazyOpenOptions;
using core::MemoryGovernor;
using core::QueryResult;

class EvictionStressTest : public ::testing::Test {
 protected:
  static constexpr int kLevel = 15;
  static constexpr size_t kShards = 8;

  static void SetUpTestSuite() {
    raw_ = new storage::PointTable(workload::GenTaxi(20000, 43));
    storage::ExtractOptions options;
    options.clean_bounds = workload::NycBounds();
    data_ = new std::shared_ptr<const storage::SortedDataset>(
        std::make_shared<const storage::SortedDataset>(
            storage::SortedDataset::Extract(*raw_, options)));
    polygons_ = new std::vector<geo::Polygon>(
        workload::Neighborhoods(*raw_, 12, 44));
  }
  static void TearDownTestSuite() {
    delete polygons_;
    delete data_;
    delete raw_;
    polygons_ = nullptr;
    data_ = nullptr;
    raw_ = nullptr;
  }

  void SetUp() override {
    path_ = ::testing::TempDir() + "eviction_stress_test_" +
            ::testing::UnitTest::GetInstance()->current_test_info()->name() +
            ".gbst";
    storage::ShardOptions options;
    options.num_shards = kShards;
    options.align_level = kLevel;
    const BlockSet built = BlockSet::Build(
        storage::ShardedDataset::Partition(*data_, options),
        BlockSetOptions{{kLevel, {}}});
    std::ofstream out(path_, std::ios::binary | std::ios::trunc);
    built.WriteTo(out);
  }
  void TearDown() override { ::unlink(path_.c_str()); }

  static AggregateRequest Request() {
    AggregateRequest req;
    req.Add(AggFn::kCount);
    req.Add(AggFn::kSum, 0);
    req.Add(AggFn::kMin, 1);
    req.Add(AggFn::kMax, 2);
    return req;
  }

  BlockSet Eager() const {
    std::ifstream in(path_, std::ios::binary);
    return BlockSet::ReadFrom(in);
  }

  static storage::PointTable* raw_;
  static std::shared_ptr<const storage::SortedDataset>* data_;
  static std::vector<geo::Polygon>* polygons_;

  std::string path_;
};

storage::PointTable* EvictionStressTest::raw_ = nullptr;
std::shared_ptr<const storage::SortedDataset>* EvictionStressTest::data_ =
    nullptr;
std::vector<geo::Polygon>* EvictionStressTest::polygons_ = nullptr;

TEST_F(EvictionStressTest, ResultsBitStableAcrossEvictReFaultCycles) {
  const BlockSet oracle = Eager();
  const AggregateRequest req = Request();
  std::vector<std::vector<cell::CellId>> coverings;
  std::vector<QueryResult> expected;
  for (const geo::Polygon& poly : *polygons_) {
    coverings.push_back(oracle.Cover(poly));
    expected.push_back(oracle.SelectCovering(coverings.back(), req));
  }

  // A 1-byte budget: after every rebalance only the MRU shard survives,
  // so each round re-faults almost the whole working set.
  MemoryGovernor gov(MemoryGovernor::Options{1});
  LazyOpenOptions options;
  options.governor = &gov;
  const BlockSet mapped = BlockSet::OpenMapped(path_, options);
  for (int round = 0; round < 3; ++round) {
    for (size_t i = 0; i < coverings.size(); ++i) {
      const QueryResult got = mapped.SelectCovering(coverings[i], req);
      ASSERT_EQ(expected[i].count, got.count) << "round " << round;
      ASSERT_EQ(expected[i].values.size(), got.values.size());
      for (size_t v = 0; v < got.values.size(); ++v) {
        ASSERT_EQ(expected[i].values[v], got.values[v])
            << "round " << round << " value " << v
            << ": eviction/re-fault must be invisible bit for bit";
      }
    }
  }
  EXPECT_GT(gov.stats().evictions, 0u) << "the stress must actually evict";
  EXPECT_GT(mapped.shard_fault_count(), kShards)
      << "shards must have re-faulted, not stayed resident";
}

TEST_F(EvictionStressTest, DirtyShardsRefuseEvictionAfterUpdates) {
  MemoryGovernor gov(MemoryGovernor::Options{0});
  LazyOpenOptions options;
  options.governor = &gov;
  BlockSet mapped = BlockSet::OpenMapped(path_, options);
  const BlockSet eager = Eager();

  // Apply in-cell tuples to every shard: each becomes dirty (its state
  // diverged from the mapped payload; a re-fault would lose the writes).
  std::vector<GeoBlock::UpdateTuple> batch;
  std::mt19937_64 rng(7);
  for (size_t s = 0; s < kShards; ++s) {
    const auto& cells = eager.shard(s).cells();
    if (cells.empty()) continue;
    for (int i = 0; i < 8; ++i) {
      GeoBlock::UpdateTuple t;
      t.location = (*data_)->projection().FromUnit(
          cell::CellId(cells[rng() % cells.size()]).CenterPoint());
      t.values.assign((*data_)->num_columns(), 3.0);
      batch.push_back(std::move(t));
    }
  }
  const auto result = mapped.ApplyBatchUpdate(batch);
  ASSERT_GT(result.applied, 0u);
  const size_t resident_before = mapped.resident_shards();

  // Starve the budget: every dirty shard must refuse; nothing may be
  // dropped to a tombstone, so not one acknowledged tuple can vanish.
  gov.set_budget_bytes(1);
  gov.EnsureBudget();
  EXPECT_EQ(mapped.resident_shards(), resident_before)
      << "a dirty shard was evicted — acknowledged updates were at risk";
  EXPECT_GT(gov.stats().refusals, 0u);
  EXPECT_EQ(gov.stats().evictions, 0u);

  const std::vector<cell::CellId> all{cell::CellId::Root()};
  EXPECT_EQ(mapped.CountCovering(all),
            (*data_)->num_rows() + result.applied);
}

TEST_F(EvictionStressTest, GovernedCachedSetMatchesEagerAndKeepsDirtyShards) {
  const BlockSet oracle = Eager();
  const AggregateRequest req = Request();
  const std::vector<cell::CellId> all{cell::CellId::Root()};
  std::vector<std::vector<cell::CellId>> coverings;
  for (const geo::Polygon& poly : *polygons_) {
    coverings.push_back(oracle.Cover(poly));
  }
  coverings.push_back(all);  // touches every shard, so the budget binds
  std::vector<QueryResult> expected;
  for (const auto& covering : coverings) {
    expected.push_back(oracle.SelectCovering(covering, req));
  }

  // The resident footprint with every payload faulted in.
  size_t footprint = 0;
  {
    MemoryGovernor probe(MemoryGovernor::Options{0});
    LazyOpenOptions probe_options;
    probe_options.governor = &probe;
    const BlockSet warm = BlockSet::OpenMapped(path_, probe_options);
    (void)warm.CountCovering(all);
    footprint = probe.resident_bytes();
  }
  ASSERT_GT(footprint, 0u);

  MemoryGovernor gov(MemoryGovernor::Options{footprint / 2});
  LazyOpenOptions options;
  options.governor = &gov;
  BlockSet mapped = BlockSet::OpenMapped(path_, options);
  mapped.EnableCache(GeoBlockQC::Options{0.25, /*rebuild_interval=*/8});
  EXPECT_EQ(gov.stats().entries, 2 * kShards)
      << "one payload entry and one trie entry per shard";

  const auto check_answers = [&](const char* phase) {
    for (size_t i = 0; i < coverings.size(); ++i) {
      const QueryResult got = mapped.SelectCoveringCached(coverings[i], req);
      ASSERT_EQ(got.count, expected[i].count) << phase << " query " << i;
      ASSERT_EQ(got.values.size(), expected[i].values.size());
      for (size_t v = 0; v < got.values.size(); ++v) {
        ASSERT_NEAR(got.values[v], expected[i].values[v],
                    1e-9 * std::abs(expected[i].values[v]) + 1e-6)
            << phase << " query " << i << " value " << v;
      }
    }
  };
  check_answers("cold");
  mapped.RebuildCaches();
  check_answers("rebuilt");
  EXPECT_EQ(gov.stats().entries, 2 * kShards);
  EXPECT_GT(gov.stats().evictions, 0u)
      << "a budget below the footprint must evict";

  // Dirty one shard with in-cell tuples; from then on no budget pressure
  // may evict it, while its clean neighbours keep cycling.
  const size_t dirty = kShards / 2;
  const auto& cells = oracle.shard(dirty).cells();
  ASSERT_FALSE(cells.empty());
  std::vector<GeoBlock::UpdateTuple> batch;
  std::mt19937_64 rng(29);
  for (int i = 0; i < 16; ++i) {
    GeoBlock::UpdateTuple t;
    t.location = (*data_)->projection().FromUnit(
        cell::CellId(cells[rng() % cells.size()]).CenterPoint());
    t.values.assign((*data_)->num_columns(), 2.0);
    batch.push_back(std::move(t));
  }
  const auto result = mapped.ApplyBatchUpdate(batch);
  ASSERT_EQ(result.applied, batch.size());
  ASSERT_TRUE(mapped.shard_resident(dirty));

  const uint64_t evictions_before = gov.stats().evictions;
  for (int round = 0; round < 2; ++round) {
    for (const auto& covering : coverings) {
      (void)mapped.SelectCoveringCached(covering, req);
      ASSERT_TRUE(mapped.shard_resident(dirty)) << "round " << round;
    }
    mapped.RebuildCaches();
  }
  gov.set_budget_bytes(1);
  gov.EnsureBudget();
  EXPECT_TRUE(mapped.shard_resident(dirty))
      << "a dirty shard was evicted — acknowledged updates were at risk";
  EXPECT_GT(gov.stats().evictions, evictions_before)
      << "clean shards must still evict";
  EXPECT_EQ(mapped.SelectCoveringCached(all, req).count,
            (*data_)->num_rows() + batch.size());
}

TEST_F(EvictionStressTest, ConcurrentReadersVsBudgetThrash) {
  const BlockSet oracle = Eager();
  const AggregateRequest req = Request();
  std::vector<std::vector<cell::CellId>> coverings;
  std::vector<QueryResult> expected;
  for (const geo::Polygon& poly : *polygons_) {
    coverings.push_back(oracle.Cover(poly));
    expected.push_back(oracle.SelectCovering(coverings.back(), req));
  }

  MemoryGovernor gov(MemoryGovernor::Options{0});
  LazyOpenOptions options;
  options.governor = &gov;
  const BlockSet mapped = BlockSet::OpenMapped(path_, options);

  constexpr size_t kReaders = 4;
  constexpr int kRounds = 6;
  std::atomic<bool> stop{false};
  std::atomic<uint64_t> divergences{0};
  std::vector<std::thread> readers;
  for (size_t t = 0; t < kReaders; ++t) {
    readers.emplace_back([&, t] {
      std::mt19937_64 rng(100 + t);
      for (int r = 0; r < kRounds; ++r) {
        for (size_t n = 0; n < coverings.size(); ++n) {
          const size_t i = rng() % coverings.size();
          const QueryResult got = mapped.SelectCovering(coverings[i], req);
          if (got.count != expected[i].count ||
              got.values != expected[i].values) {
            divergences.fetch_add(1, std::memory_order_relaxed);
          }
        }
      }
    });
  }
  // The evictor thrashes the budget between "evict everything but the
  // MRU" and unlimited, racing every reader's fault-in path.
  std::thread evictor([&] {
    uint64_t flips = 0;
    while (!stop.load(std::memory_order_acquire)) {
      gov.set_budget_bytes((flips++ % 2 == 0) ? 1 : 0);
      gov.EnsureBudget();
      std::this_thread::yield();
    }
  });
  for (std::thread& r : readers) r.join();
  stop.store(true, std::memory_order_release);
  evictor.join();

  EXPECT_EQ(divergences.load(), 0u)
      << "a reader observed a non-oracle answer during eviction";
  // On a loaded single-core host the evictor can lose every race while
  // the readers run, so force one starved rebalance before asserting
  // evictions happened: nothing is dirty here, so it cannot refuse.
  gov.set_budget_bytes(1);
  gov.EnsureBudget();
  EXPECT_GT(gov.stats().evictions, 0u);

  // Everything still answers bit-identically after the final purge.
  gov.set_budget_bytes(0);
  for (size_t i = 0; i < coverings.size(); ++i) {
    const QueryResult got = mapped.SelectCovering(coverings[i], req);
    EXPECT_EQ(got.count, expected[i].count);
    EXPECT_EQ(got.values, expected[i].values);
  }
}

TEST_F(EvictionStressTest, ConcurrentWritersReadersAndEviction) {
  const BlockSet oracle = Eager();
  const AggregateRequest req = Request();
  std::vector<std::vector<cell::CellId>> coverings;
  std::vector<uint64_t> pre;
  for (const geo::Polygon& poly : *polygons_) {
    coverings.push_back(oracle.Cover(poly));
    pre.push_back(oracle.CountCovering(coverings.back()));
  }

  MemoryGovernor gov(MemoryGovernor::Options{0});
  LazyOpenOptions options;
  options.governor = &gov;
  BlockSet mapped = BlockSet::OpenMapped(path_, options);

  constexpr size_t kBatches = 16;
  constexpr size_t kBatchSize = 32;
  std::vector<std::vector<GeoBlock::UpdateTuple>> batches;
  std::mt19937_64 rng(55);
  for (size_t b = 0; b < kBatches; ++b) {
    std::vector<GeoBlock::UpdateTuple> batch;
    for (size_t i = 0; i < kBatchSize; ++i) {
      const size_t s = rng() % kShards;
      const auto& cells = oracle.shard(s).cells();
      if (cells.empty()) continue;
      GeoBlock::UpdateTuple t;
      t.location = (*data_)->projection().FromUnit(
          cell::CellId(cells[rng() % cells.size()]).CenterPoint());
      t.values.assign((*data_)->num_columns(), 1.0);
      batch.push_back(std::move(t));
    }
    batches.push_back(std::move(batch));
  }
  uint64_t total = 0;
  for (const auto& b : batches) total += b.size();

  std::atomic<bool> writer_done{false};
  std::atomic<uint64_t> range_errors{0};
  uint64_t applied = 0;
  std::thread writer([&] {
    for (const auto& batch : batches) {
      applied += mapped.ApplyBatchUpdate(batch).applied;
    }
    writer_done.store(true, std::memory_order_release);
  });
  std::vector<std::thread> readers;
  for (size_t t = 0; t < 2; ++t) {
    readers.emplace_back([&] {
      do {
        for (size_t i = 0; i < coverings.size(); ++i) {
          const uint64_t count = mapped.CountCovering(coverings[i]);
          // Counts are monotone under in-cell updates: always within
          // [pre, pre + total], eviction or not.
          if (count < pre[i] || count > pre[i] + total) {
            range_errors.fetch_add(1, std::memory_order_relaxed);
          }
        }
      } while (!writer_done.load(std::memory_order_acquire));
    });
  }
  std::thread evictor([&] {
    while (!writer_done.load(std::memory_order_acquire)) {
      gov.set_budget_bytes(1);
      gov.EnsureBudget();
      gov.set_budget_bytes(0);
      std::this_thread::yield();
    }
  });
  writer.join();
  for (std::thread& r : readers) r.join();
  evictor.join();

  EXPECT_EQ(range_errors.load(), 0u);
  // Quiesced accounting: every acknowledged tuple exactly once —
  // eviction pressure during the commits lost nothing.
  const std::vector<cell::CellId> all{cell::CellId::Root()};
  EXPECT_EQ(mapped.CountCovering(all), (*data_)->num_rows() + applied);
  EXPECT_EQ(applied, total);
}

}  // namespace
}  // namespace geoblocks
