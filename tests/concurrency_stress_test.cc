// Multithreaded stress suite for the lock-free cached read path: N reader
// threads hammer mixed SELECT/COUNT workloads against a BlockSet's per-shard
// GeoBlockQC caches while rebuilds publish new trie snapshots underneath
// them. Run under ThreadSanitizer in CI (GEOBLOCKS_TSAN).
//
// The correctness contract being pinned:
//  * For a *frozen* snapshot (no rebuild between queries), concurrent
//    cached SELECTs are bit-identical to a single-threaded pass — the read
//    path has no mode where scheduling can change an answer.
//  * Under concurrent rebuilds, every SELECT still sees exactly one
//    snapshot per shard probe, so counts are exact and values match the
//    uncached answer to last-ulp FP tolerance (cached cells fold
//    pre-merged sums); COUNT bypasses the cache and is always exact.
//  * Counter accounting is exact after quiescing; merged counters are
//    monotone between resets even when sampled mid-flight.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <memory>
#include <random>
#include <thread>
#include <vector>

#include "core/block_set.h"
#include "workload/datagen.h"
#include "workload/polygen.h"

namespace geoblocks {
namespace {

using core::AggFn;
using core::AggregateRequest;
using core::BlockSet;
using core::BlockSetOptions;
using core::BlockState;
using core::CacheCounters;
using core::GeoBlock;
using core::GeoBlockQC;
using core::QueryResult;

class ConcurrencyStressTest : public ::testing::Test {
 protected:
  static constexpr int kLevel = 15;
  static constexpr size_t kShards = 4;
  static constexpr size_t kReaders = 4;

  static void SetUpTestSuite() {
    raw_ = new storage::PointTable(workload::GenTaxi(20000, 77));
    storage::ExtractOptions options;
    options.clean_bounds = workload::NycBounds();
    data_ = new storage::SortedDataset(
        storage::SortedDataset::Extract(*raw_, options));
    storage::ShardOptions shard_options;
    shard_options.num_shards = kShards;
    shard_options.align_level = kLevel;
    sharded_ = new storage::ShardedDataset(
        storage::ShardedDataset::Partition(*data_, shard_options));
    polygons_ = new std::vector<geo::Polygon>(
        workload::Neighborhoods(*raw_, 24, 5));
  }
  static void TearDownTestSuite() {
    delete polygons_;
    delete sharded_;
    delete data_;
    delete raw_;
    polygons_ = nullptr;
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

  static std::vector<std::vector<cell::CellId>> CoverAll(
      const BlockSet& set) {
    std::vector<std::vector<cell::CellId>> coverings;
    for (const geo::Polygon& poly : *polygons_) {
      coverings.push_back(set.Cover(poly));
    }
    return coverings;
  }

  static storage::PointTable* raw_;
  static storage::SortedDataset* data_;
  static storage::ShardedDataset* sharded_;
  static std::vector<geo::Polygon>* polygons_;
};

storage::PointTable* ConcurrencyStressTest::raw_ = nullptr;
storage::SortedDataset* ConcurrencyStressTest::data_ = nullptr;
storage::ShardedDataset* ConcurrencyStressTest::sharded_ = nullptr;
std::vector<geo::Polygon>* ConcurrencyStressTest::polygons_ = nullptr;

TEST_F(ConcurrencyStressTest, FrozenSnapshotIsBitIdenticalAcrossThreads) {
  // Warm the caches deterministically, freeze them (no rebuild interval),
  // and require every concurrent reader to reproduce the single-threaded
  // pass bit for bit — SELECT values compared with ==, not tolerance.
  BlockSet set = BlockSet::Build(*sharded_, BlockSetOptions{{kLevel, {}}});
  set.EnableCache(GeoBlockQC::Options{0.10, /*rebuild_interval=*/0});
  const AggregateRequest req = Request();
  const auto coverings = CoverAll(set);

  for (int round = 0; round < 2; ++round) {
    for (const auto& covering : coverings) {
      set.SelectCoveringCached(covering, req);
    }
    set.RebuildCaches();
  }

  std::vector<QueryResult> want_select;
  std::vector<uint64_t> want_count;
  for (const auto& covering : coverings) {
    want_select.push_back(set.SelectCoveringCached(covering, req));
    want_count.push_back(set.CountCovering(covering));
  }

  constexpr size_t kRounds = 8;
  std::vector<std::vector<QueryResult>> got(kReaders);
  std::vector<std::vector<uint64_t>> got_counts(kReaders);
  std::vector<std::thread> readers;
  for (size_t t = 0; t < kReaders; ++t) {
    readers.emplace_back([&, t] {
      for (size_t r = 0; r < kRounds; ++r) {
        for (size_t i = 0; i < coverings.size(); ++i) {
          if ((i + r + t) % 3 == 0) {
            got_counts[t].push_back(set.CountCovering(coverings[i]));
          }
          got[t].push_back(set.SelectCoveringCached(coverings[i], req));
        }
      }
    });
  }
  for (std::thread& t : readers) t.join();

  for (size_t t = 0; t < kReaders; ++t) {
    size_t gi = 0;
    size_t ci = 0;
    for (size_t r = 0; r < kRounds; ++r) {
      for (size_t i = 0; i < coverings.size(); ++i) {
        if ((i + r + t) % 3 == 0) {
          ASSERT_EQ(got_counts[t][ci++], want_count[i])
              << "reader " << t << " covering " << i;
        }
        const QueryResult& g = got[t][gi++];
        ASSERT_EQ(g.count, want_select[i].count) << "reader " << t;
        ASSERT_EQ(g.values, want_select[i].values)
            << "reader " << t << " covering " << i
            << ": cached SELECT not bit-identical";
      }
    }
  }
}

TEST_F(ConcurrencyStressTest, MixedWorkloadWithConcurrentRebuilds) {
  // Readers run mixed SELECT/COUNT while a writer thread keeps publishing
  // fresh snapshots and interval-triggered rebuilds fire from the readers
  // themselves. Answers must stay correct throughout: counts exact,
  // values within last-ulp tolerance of the uncached reference.
  BlockSet set = BlockSet::Build(*sharded_, BlockSetOptions{{kLevel, {}}});
  set.EnableCache(GeoBlockQC::Options{0.10, /*rebuild_interval=*/16});
  const AggregateRequest req = Request();
  const auto coverings = CoverAll(set);

  std::vector<QueryResult> want_select;
  std::vector<uint64_t> want_count;
  for (const auto& covering : coverings) {
    want_select.push_back(set.SelectCovering(covering, req));
    want_count.push_back(set.CountCovering(covering));
  }

  std::atomic<bool> stop{false};
  std::atomic<uint64_t> checked{0};
  std::thread rebuilder([&] {
    while (!stop.load(std::memory_order_relaxed)) {
      set.RebuildCaches();
      set.MergedCacheCounters();  // concurrent merged reads must be safe
    }
  });

  constexpr size_t kRounds = 10;
  std::vector<std::thread> readers;
  for (size_t t = 0; t < kReaders; ++t) {
    readers.emplace_back([&, t] {
      for (size_t r = 0; r < kRounds; ++r) {
        for (size_t i = 0; i < coverings.size(); ++i) {
          if ((i + t) % 2 == 0) {
            const uint64_t count = set.CountCovering(coverings[i]);
            ASSERT_EQ(count, want_count[i]) << "reader " << t;
          }
          const QueryResult got =
              set.SelectCoveringCached(coverings[i], req);
          ASSERT_EQ(got.count, want_select[i].count)
              << "reader " << t << " covering " << i;
          for (size_t v = 0; v < got.values.size(); ++v) {
            ASSERT_NEAR(got.values[v], want_select[i].values[v],
                        1e-9 * std::abs(want_select[i].values[v]) + 1e-6)
                << "reader " << t << " covering " << i << " value " << v;
          }
          checked.fetch_add(1, std::memory_order_relaxed);
        }
      }
    });
  }
  for (std::thread& t : readers) t.join();
  stop.store(true, std::memory_order_relaxed);
  rebuilder.join();

  EXPECT_EQ(checked.load(), kReaders * kRounds * coverings.size());
  // Quiesced: the counter identity must hold exactly.
  const CacheCounters after = set.MergedCacheCounters();
  EXPECT_EQ(after.probes,
            after.full_hits + after.partial_hits + after.misses);
}

TEST_F(ConcurrencyStressTest, CounterAccountingExactAfterQuiescing) {
  // (kReaders + 1) identical passes over cold, frozen tries: every probe
  // is a miss and the relaxed counters must add up exactly — the lock-free
  // plane loses no increment.
  BlockSet set = BlockSet::Build(*sharded_, BlockSetOptions{{kLevel, {}}});
  set.EnableCache(GeoBlockQC::Options{0.05, 0});
  const AggregateRequest req = Request();
  const auto coverings = CoverAll(set);

  for (const auto& covering : coverings) {
    set.SelectCoveringCached(covering, req);
  }
  const CacheCounters base = set.MergedCacheCounters();
  ASSERT_GT(base.probes, 0u);
  ASSERT_EQ(base.probes, base.misses);

  std::vector<std::thread> readers;
  for (size_t t = 0; t < kReaders; ++t) {
    readers.emplace_back([&] {
      for (const auto& covering : coverings) {
        set.SelectCoveringCached(covering, req);
      }
    });
  }
  for (std::thread& t : readers) t.join();

  const CacheCounters after = set.MergedCacheCounters();
  EXPECT_EQ(after.probes, (kReaders + 1) * base.probes);
  EXPECT_EQ(after.misses, after.probes);

  // Stats plane: per-shard distinct cells are unchanged by re-running the
  // same workload concurrently, and nothing was dropped.
  for (size_t s = 0; s < set.num_shards(); ++s) {
    EXPECT_EQ(set.cached_shard(s).stats().dropped(), 0u) << "shard " << s;
  }
}

TEST_F(ConcurrencyStressTest, MergedCountersAreMonotoneUnderLoad) {
  BlockSet set = BlockSet::Build(*sharded_, BlockSetOptions{{kLevel, {}}});
  set.EnableCache(GeoBlockQC::Options{0.05, 0});
  const AggregateRequest req = Request();
  const auto coverings = CoverAll(set);

  std::atomic<bool> stop{false};
  std::thread sampler([&] {
    CacheCounters last;
    while (!stop.load(std::memory_order_relaxed)) {
      const CacheCounters now = set.MergedCacheCounters();
      // Each field is monotone between resets (and we never reset here).
      ASSERT_GE(now.probes, last.probes);
      ASSERT_GE(now.full_hits, last.full_hits);
      ASSERT_GE(now.partial_hits, last.partial_hits);
      ASSERT_GE(now.misses, last.misses);
      last = now;
    }
  });

  std::vector<std::thread> readers;
  for (size_t t = 0; t < 2; ++t) {
    readers.emplace_back([&] {
      for (size_t r = 0; r < 6; ++r) {
        for (const auto& covering : coverings) {
          set.SelectCoveringCached(covering, req);
        }
      }
    });
  }
  for (std::thread& t : readers) t.join();
  stop.store(true, std::memory_order_relaxed);
  sampler.join();
}

TEST_F(ConcurrencyStressTest, ConcurrentResetNeverCorruptsCounters) {
  // Reset racing with readers: fields may be sampled mid-reset, but once
  // everything quiesces a final reset + sequential pass must account
  // exactly (no stuck or corrupted counters).
  BlockSet set = BlockSet::Build(*sharded_, BlockSetOptions{{kLevel, {}}});
  set.EnableCache(GeoBlockQC::Options{0.05, 0});
  const AggregateRequest req = Request();
  const auto coverings = CoverAll(set);

  std::atomic<bool> stop{false};
  std::thread resetter([&] {
    while (!stop.load(std::memory_order_relaxed)) {
      set.ResetCacheCounters();
    }
  });
  std::vector<std::thread> readers;
  for (size_t t = 0; t < 2; ++t) {
    readers.emplace_back([&] {
      for (size_t r = 0; r < 8; ++r) {
        for (const auto& covering : coverings) {
          set.SelectCoveringCached(covering, req);
        }
      }
    });
  }
  for (std::thread& t : readers) t.join();
  stop.store(true, std::memory_order_relaxed);
  resetter.join();

  set.ResetCacheCounters();
  for (const auto& covering : coverings) {
    set.SelectCoveringCached(covering, req);
  }
  const CacheCounters last = set.MergedCacheCounters();
  EXPECT_GT(last.probes, 0u);
  EXPECT_EQ(last.probes,
            last.full_hits + last.partial_hits + last.misses);
}

// ---------------------------------------------------------------------------
// The MVCC update plane: BlockSet::ApplyBatchUpdate concurrent with the
// lock-free read paths, with no external serialization.
// ---------------------------------------------------------------------------

/// Builds update batches for the update-plane stress tests: in-cell tuples
/// (hit existing aggregates, spread across shards) and new-region tuples
/// (their commits merge new cells into the layout).
class UpdatePlaneStressTest : public ConcurrencyStressTest {
 protected:
  static std::vector<GeoBlock::UpdateTuple> InCellBatch(size_t count,
                                                        uint64_t seed) {
    std::mt19937_64 rng(seed);
    std::vector<GeoBlock::UpdateTuple> batch;
    // Sample populated cells across all shards via the sharded views'
    // parent keys (quiesced pre-test setup).
    const auto keys = data_->keys();
    for (size_t i = 0; i < count; ++i) {
      const uint64_t key = keys[rng() % keys.size()];
      const geo::Point unit =
          cell::CellId(key).Parent(kLevel).CenterPoint();
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

  static std::vector<GeoBlock::UpdateTuple> NewRegionBatch(
      const BlockSet& set, size_t count, uint64_t seed) {
    std::mt19937_64 rng(seed);
    std::vector<GeoBlock::UpdateTuple> batch;
    while (batch.size() < count) {
      const double x = (static_cast<double>(rng() % 100000) + 0.5) / 100000.0;
      const double y = (static_cast<double>(rng() % 100000) + 0.5) / 100000.0;
      const cell::CellId cell = cell::CellId::FromPoint({x, y}).Parent(kLevel);
      bool populated = false;
      for (size_t s = 0; s < set.num_shards(); ++s) {
        const auto& cells = set.shard(s).cells();
        if (std::binary_search(cells.begin(), cells.end(), cell.id())) {
          populated = true;
          break;
        }
      }
      if (populated) continue;
      GeoBlock::UpdateTuple t;
      t.location = data_->projection().FromUnit(cell.CenterPoint());
      t.values.assign(data_->num_columns(), 1.0);
      batch.push_back(std::move(t));
    }
    return batch;
  }
};

TEST_F(UpdatePlaneStressTest, CachedReadsStayInRangeDuringCommits) {
  // N readers run cached SELECT + COUNT while a writer thread commits
  // in-cell batches through BlockSet::ApplyBatchUpdate — no external
  // serialization anywhere. Updates only add tuples, so every concurrent
  // count must land in [pre, pre + total_updates]; after the writer joins,
  // answers must equal a serial re-application oracle bit for bit.
  BlockSet set = BlockSet::Build(*sharded_, BlockSetOptions{{kLevel, {}}});
  set.EnableCache(GeoBlockQC::Options{0.10, /*rebuild_interval=*/16});
  const AggregateRequest req = Request();
  const auto coverings = CoverAll(set);

  // Warm the cache so the stress exercises hits, partial hits, and misses.
  for (const auto& covering : coverings) {
    set.SelectCoveringCached(covering, req);
  }
  set.RebuildCaches();

  std::vector<uint64_t> pre_count;
  for (const auto& covering : coverings) {
    pre_count.push_back(set.CountCovering(covering));
  }

  constexpr size_t kBatches = 20;
  constexpr size_t kBatchSize = 64;
  std::vector<std::vector<GeoBlock::UpdateTuple>> batches;
  for (size_t j = 0; j < kBatches; ++j) {
    batches.push_back(InCellBatch(kBatchSize, 1000 + j));
  }
  const uint64_t total_updates = kBatches * kBatchSize;

  std::atomic<bool> writer_done{false};
  std::thread writer([&] {
    for (const auto& batch : batches) {
      const auto result = set.ApplyBatchUpdate(batch);
      ASSERT_EQ(result.applied, batch.size());  // in-cell by construction
    }
    writer_done.store(true, std::memory_order_release);
  });

  std::vector<std::thread> readers;
  for (size_t t = 0; t < kReaders; ++t) {
    readers.emplace_back([&, t] {
      size_t rounds = 0;
      do {
        for (size_t i = 0; i < coverings.size(); ++i) {
          const uint64_t count = set.CountCovering(coverings[i]);
          ASSERT_GE(count, pre_count[i]) << "reader " << t;
          ASSERT_LE(count, pre_count[i] + total_updates) << "reader " << t;
          const QueryResult got =
              set.SelectCoveringCached(coverings[i], req);
          ASSERT_GE(got.count, pre_count[i]) << "reader " << t;
          ASSERT_LE(got.count, pre_count[i] + total_updates)
              << "reader " << t;
        }
        ++rounds;
      } while (!writer_done.load(std::memory_order_acquire) || rounds < 3);
    });
  }
  writer.join();
  for (std::thread& t : readers) t.join();

  // Post-commit oracle: the same batches applied serially to an identical
  // set must answer bit-identically (per-shard commit order is batch
  // order in both executions).
  BlockSet oracle = BlockSet::Build(*sharded_, BlockSetOptions{{kLevel, {}}});
  for (const auto& batch : batches) {
    oracle.ApplyBatchUpdate(batch);
  }
  for (size_t i = 0; i < coverings.size(); ++i) {
    const QueryResult want = oracle.SelectCovering(coverings[i], req);
    const QueryResult got = set.SelectCovering(coverings[i], req);
    ASSERT_EQ(got.count, want.count) << "covering " << i;
    ASSERT_EQ(got.values, want.values)
        << "covering " << i << ": post-commit state != serial oracle";
    ASSERT_EQ(set.CountCovering(coverings[i]),
              oracle.CountCovering(coverings[i]));
  }
}

TEST_F(UpdatePlaneStressTest, PinnedSnapshotsBitwiseStableDuringCommits) {
  // A reader that pins per-shard BlockState versions must see bitwise
  // frozen answers for as long as it holds them, no matter how many
  // commits publish successors underneath.
  BlockSet set = BlockSet::Build(*sharded_, BlockSetOptions{{kLevel, {}}});
  const AggregateRequest req = Request();
  const auto coverings = CoverAll(set);

  std::vector<std::shared_ptr<const BlockState>> pinned;
  for (size_t s = 0; s < set.num_shards(); ++s) {
    pinned.push_back(set.shard(s).StateSnapshot());
  }
  const auto pinned_select = [&](const std::vector<cell::CellId>& covering) {
    core::Accumulator acc(&req);
    for (const auto& state : pinned) {
      state->CombineCovering(covering, &acc);
    }
    return acc.Finish();
  };
  std::vector<QueryResult> want;
  std::vector<uint64_t> want_counts;
  for (const auto& covering : coverings) {
    want.push_back(pinned_select(covering));
    uint64_t count = 0;
    for (const auto& state : pinned) count += state->CountCovering(covering);
    want_counts.push_back(count);
  }

  std::atomic<bool> stop{false};
  std::vector<std::thread> readers;
  for (size_t t = 0; t < kReaders; ++t) {
    readers.emplace_back([&, t] {
      while (!stop.load(std::memory_order_relaxed)) {
        for (size_t i = 0; i < coverings.size(); ++i) {
          const QueryResult got = pinned_select(coverings[i]);
          ASSERT_EQ(got.count, want[i].count) << "reader " << t;
          ASSERT_EQ(got.values, want[i].values)
              << "reader " << t << ": pinned snapshot drifted";
          uint64_t count = 0;
          for (const auto& state : pinned) {
            count += state->CountCovering(coverings[i]);
          }
          ASSERT_EQ(count, want_counts[i]) << "reader " << t;
        }
      }
    });
  }

  for (size_t j = 0; j < 16; ++j) {
    set.ApplyBatchUpdate(InCellBatch(128, 2000 + j));
  }
  stop.store(true, std::memory_order_relaxed);
  for (std::thread& t : readers) t.join();

  // The live set moved on; the pinned versions did not.
  uint64_t live = 0;
  uint64_t frozen = 0;
  const std::vector<cell::CellId> all{cell::CellId::Root()};
  live = set.CountCovering(all);
  for (const auto& state : pinned) frozen += state->CountCovering(all);
  EXPECT_EQ(frozen + 16 * 128, live);
}

TEST_F(UpdatePlaneStressTest, NewRegionMergesConcurrentWithReaders) {
  // Writers push batches mixing in-cell and new-region tuples, so every
  // commit merges new cells (shifting shard hulls) while readers hammer
  // the cached path. Readers assert nothing about mid-flight values
  // (routing may lag a merge by design) — the pin is race-freedom plus
  // exact post-quiesce accounting.
  BlockSet set = BlockSet::Build(*sharded_, BlockSetOptions{{kLevel, {}}});
  set.EnableCache(GeoBlockQC::Options{0.10, /*rebuild_interval=*/32});
  const AggregateRequest req = Request();
  const auto coverings = CoverAll(set);

  constexpr size_t kBatches = 12;
  std::vector<std::vector<GeoBlock::UpdateTuple>> batches;
  size_t total = 0;
  for (size_t j = 0; j < kBatches; ++j) {
    auto batch = InCellBatch(32, 3000 + j);
    const auto fresh = NewRegionBatch(set, 8, 4000 + j);
    batch.insert(batch.end(), fresh.begin(), fresh.end());
    total += batch.size();
    batches.push_back(std::move(batch));
  }

  std::atomic<bool> writer_done{false};
  std::thread writer([&] {
    for (const auto& batch : batches) {
      set.ApplyBatchUpdate(batch);
    }
    writer_done.store(true, std::memory_order_release);
  });
  std::vector<std::thread> readers;
  for (size_t t = 0; t < kReaders; ++t) {
    readers.emplace_back([&] {
      size_t rounds = 0;
      do {
        for (const auto& covering : coverings) {
          (void)set.SelectCoveringCached(covering, req);
          (void)set.CountCovering(covering);
        }
        ++rounds;
      } while (!writer_done.load(std::memory_order_acquire) || rounds < 3);
    });
  }
  writer.join();
  for (std::thread& t : readers) t.join();

  // Quiesce: the total must account for every tuple exactly once.
  const std::vector<cell::CellId> all{cell::CellId::Root()};
  EXPECT_EQ(set.CountCovering(all), data_->num_rows() + total);

  // And the cache must have stayed consistent with the merged states.
  for (const auto& covering : coverings) {
    const QueryResult base = set.SelectCovering(covering, req);
    const QueryResult cached = set.SelectCoveringCached(covering, req);
    ASSERT_EQ(cached.count, base.count);
    for (size_t v = 0; v < base.values.size(); ++v) {
      ASSERT_NEAR(cached.values[v], base.values[v],
                  1e-9 * std::abs(base.values[v]) + 1e-6);
    }
  }
}

TEST_F(UpdatePlaneStressTest, StripedWritersCommitConcurrently) {
  // Several writer threads call ApplyBatchUpdate at once (striped shard
  // locks, no coordination) while readers keep running. Counts are exact
  // after quiescing: every applied tuple lands exactly once.
  BlockSet set = BlockSet::Build(*sharded_, BlockSetOptions{{kLevel, {}}});
  set.EnableCache(GeoBlockQC::Options{0.10, /*rebuild_interval=*/16});
  const AggregateRequest req = Request();
  const auto coverings = CoverAll(set);

  constexpr size_t kWriters = 3;
  constexpr size_t kBatchesPerWriter = 6;
  constexpr size_t kBatchSize = 64;
  std::atomic<size_t> writers_done{0};
  std::vector<std::thread> writers;
  for (size_t w = 0; w < kWriters; ++w) {
    writers.emplace_back([&, w] {
      for (size_t j = 0; j < kBatchesPerWriter; ++j) {
        const auto batch = InCellBatch(kBatchSize, 5000 + w * 100 + j);
        const auto result = set.ApplyBatchUpdate(batch);
        ASSERT_EQ(result.applied, batch.size());
      }
      writers_done.fetch_add(1, std::memory_order_release);
    });
  }
  std::vector<std::thread> readers;
  for (size_t t = 0; t < 2; ++t) {
    readers.emplace_back([&] {
      size_t rounds = 0;
      do {
        for (const auto& covering : coverings) {
          (void)set.SelectCoveringCached(covering, req);
        }
        ++rounds;
      } while (writers_done.load(std::memory_order_acquire) < kWriters ||
               rounds < 2);
    });
  }
  for (std::thread& t : writers) t.join();
  for (std::thread& t : readers) t.join();

  const std::vector<cell::CellId> all{cell::CellId::Root()};
  EXPECT_EQ(set.CountCovering(all),
            data_->num_rows() + kWriters * kBatchesPerWriter * kBatchSize);
  // Cache/base agreement after the dust settles.
  for (const auto& covering : coverings) {
    ASSERT_EQ(set.SelectCoveringCached(covering, req).count,
              set.SelectCovering(covering, req).count);
  }
}

}  // namespace
}  // namespace geoblocks
