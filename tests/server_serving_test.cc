// End-to-end serving correctness: N concurrent in-process clients against
// a live QueryServer, with a serial BlockSet as the oracle.
//
//  1. Concurrent reads — every SELECT / COUNT response must be
//     bit-identical to the direct-engine answer (the wire carries raw
//     double bits, admission coalesces into QueryBatches, and sharded
//     batch execution is already pinned bit-for-bit by block_set_test).
//
//  2. Concurrent updates — in-cell tuples with exactly-representable
//     values (eighths), so floating-point sums are order-independent and
//     the served state after a storm of interleaved UPDATE batches must
//     match a serial oracle that applies the acknowledged batches in any
//     order — bit-identical sweeps, exact total count.
//
//  3. Crash + restart — the server runs over BlockSet::OpenLogged with a
//     WAL whose writes die mid-record (util::FaultShim). Clients push updates
//     until the log dies (Status::kInternal = NOT acknowledged), the
//     server Abort()s, and recovery must restore exactly the acknowledged
//     prefix: persist-first carried through the wire.

#include <gtest/gtest.h>

#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <cmath>
#include <fstream>
#include <map>
#include <memory>
#include <mutex>
#include <random>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "cell/cell_id.h"
#include "core/block_set.h"
#include "io/update_log.h"
#include "server/client.h"
#include "server/server.h"
#include "storage/sharded_dataset.h"
#include "util/io_shim.h"
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
using io::UpdateLog;
using server::Client;
using server::QueryServer;
using server::ServerOptions;
using server::Status;

using Batch = std::vector<GeoBlock::UpdateTuple>;

class ServerServingTest : public ::testing::Test {
 protected:
  static constexpr int kLevel = 15;
  static constexpr size_t kShards = 4;

  static void SetUpTestSuite() {
    storage::PointTable raw = workload::GenTaxi(30000, 21);
    storage::ExtractOptions extract;
    extract.clean_bounds = workload::NycBounds();
    data_ = new std::shared_ptr<const storage::SortedDataset>(
        std::make_shared<const storage::SortedDataset>(
            storage::SortedDataset::Extract(raw, extract)));
    storage::ShardOptions shard_options;
    shard_options.num_shards = kShards;
    shard_options.align_level = kLevel;
    sharded_ = new storage::ShardedDataset(
        storage::ShardedDataset::Partition(*data_, shard_options));
    pool_ = new util::ThreadPool(4);
    polygons_ = new std::vector<geo::Polygon>(
        workload::Neighborhoods(raw, 12, 21));
  }

  static void TearDownTestSuite() {
    delete polygons_;
    delete pool_;
    delete sharded_;
    delete data_;
    polygons_ = nullptr;
    pool_ = nullptr;
    sharded_ = nullptr;
    data_ = nullptr;
  }

  static BlockSet BuildSet() {
    return BlockSet::Build(*sharded_, BlockSetOptions{{kLevel, {}}}, pool_);
  }

  /// The aggregate mixes the suite queries with — multiple distinct
  /// signatures so the batcher actually forms several QueryBatch groups.
  static std::vector<AggregateRequest> Requests() {
    std::vector<AggregateRequest> reqs(3);
    reqs[0].Add(AggFn::kCount);
    reqs[1].Add(AggFn::kCount);
    reqs[1].Add(AggFn::kSum, 0);
    reqs[2].Add(AggFn::kSum, 0);
    reqs[2].Add(AggFn::kMin, 0);
    reqs[2].Add(AggFn::kMax, 0);
    return reqs;
  }

  /// Update tuples landing inside already-covered cells, with values that
  /// are exact multiples of 1/8 — sums of these are exact in binary
  /// floating point, so any application order yields bit-identical state.
  static Batch InCellBatch(const BlockSet& set, size_t count,
                           uint64_t seed) {
    std::mt19937_64 rng(seed);
    const auto& cells = set.shard(0).cells();
    Batch batch;
    for (size_t i = 0; i < count; ++i) {
      const geo::Point unit =
          cell::CellId(cells[rng() % cells.size()]).CenterPoint();
      GeoBlock::UpdateTuple t;
      t.location = (*data_)->projection().FromUnit(unit);
      t.values.assign((*data_)->num_columns(),
                      static_cast<double>(rng() % 1000) / 8.0);
      batch.push_back(std::move(t));
    }
    return batch;
  }

  /// Bit-identical sweep: every (polygon, request) answer of `got` equals
  /// `want`'s, including the raw double bits of the aggregates.
  static void ExpectSetsEquivalent(const BlockSet& got, const BlockSet& want,
                                   const char* what) {
    const std::vector<AggregateRequest> reqs = Requests();
    for (size_t p = 0; p < polygons_->size(); ++p) {
      for (size_t r = 0; r < reqs.size(); ++r) {
        const QueryResult a = got.Select((*polygons_)[p], reqs[r]);
        const QueryResult b = want.Select((*polygons_)[p], reqs[r]);
        ASSERT_EQ(a.count, b.count) << what << ": polygon " << p;
        ASSERT_EQ(a.values, b.values)
            << what << ": polygon " << p << " request " << r;
      }
      ASSERT_EQ(got.Count((*polygons_)[p]), want.Count((*polygons_)[p]))
          << what << ": polygon " << p;
    }
  }

  static std::shared_ptr<const storage::SortedDataset>* data_;
  static storage::ShardedDataset* sharded_;
  static util::ThreadPool* pool_;
  static std::vector<geo::Polygon>* polygons_;
};

std::shared_ptr<const storage::SortedDataset>* ServerServingTest::data_ =
    nullptr;
storage::ShardedDataset* ServerServingTest::sharded_ = nullptr;
util::ThreadPool* ServerServingTest::pool_ = nullptr;
std::vector<geo::Polygon>* ServerServingTest::polygons_ = nullptr;

TEST_F(ServerServingTest, ConcurrentReadsAreBitIdenticalToSerialOracle) {
  BlockSet set = BuildSet();
  BlockSet oracle = BuildSet();
  ServerOptions options;
  options.pool = pool_;
  QueryServer server(&set, options);
  server.Start();

  // Precompute every expected answer serially against the oracle. The
  // server's batched seam folds each query exactly like Select, so the
  // served answers must match sequential Select bit for bit.
  const std::vector<AggregateRequest> reqs = Requests();
  std::vector<std::vector<QueryResult>> expected(polygons_->size());
  std::vector<uint64_t> expected_counts(polygons_->size());
  for (size_t p = 0; p < polygons_->size(); ++p) {
    for (const AggregateRequest& req : reqs) {
      expected[p].push_back(oracle.Select((*polygons_)[p], req));
    }
    expected_counts[p] = oracle.Count((*polygons_)[p]);
  }

  constexpr size_t kThreads = 6;
  constexpr size_t kPerThread = 40;
  std::atomic<uint64_t> mismatches{0};
  std::vector<std::thread> workers;
  for (size_t t = 0; t < kThreads; ++t) {
    workers.emplace_back([&, t] {
      Client::Options copts;
      copts.tenant = static_cast<uint32_t>(t);
      Client client = Client::Connect(server.port(), copts);
      std::mt19937_64 rng(1000 + t);
      for (size_t i = 0; i < kPerThread; ++i) {
        const size_t p = rng() % polygons_->size();
        if (i % 4 == 3) {
          if (client.Count((*polygons_)[p]) != expected_counts[p]) {
            mismatches.fetch_add(1);
          }
        } else {
          const size_t r = rng() % reqs.size();
          const QueryResult got = client.Select((*polygons_)[p], reqs[r]);
          if (got.count != expected[p][r].count ||
              got.values != expected[p][r].values) {
            mismatches.fetch_add(1);
          }
        }
      }
    });
  }
  for (std::thread& w : workers) w.join();
  EXPECT_EQ(mismatches.load(), 0u)
      << "served answers diverged from the serial oracle";

  // The batcher really coalesced: fewer QueryBatches than SELECTs.
  const server::ServerStats stats = server.stats();
  EXPECT_GT(stats.selects_executed, 0u);
  EXPECT_LE(stats.select_groups, stats.selects_executed);
  server.Stop();
}

TEST_F(ServerServingTest, ConcurrentUpdateStormConvergesToSerialOracle) {
  BlockSet set = BuildSet();
  ServerOptions options;
  options.pool = pool_;
  QueryServer server(&set, options);
  server.Start();

  constexpr size_t kWriters = 4;
  constexpr size_t kBatchesPerWriter = 12;
  constexpr size_t kTuplesPerBatch = 16;
  std::mutex acked_mu;
  std::vector<Batch> acked;
  std::atomic<uint64_t> read_errors{0};

  std::vector<std::thread> workers;
  for (size_t t = 0; t < kWriters; ++t) {
    workers.emplace_back([&, t] {
      Client::Options copts;
      copts.tenant = static_cast<uint32_t>(t);
      Client client = Client::Connect(server.port(), copts);
      BlockSet probe = BuildSet();  // cheap source of cell ids
      for (size_t b = 0; b < kBatchesPerWriter; ++b) {
        Batch batch =
            InCellBatch(probe, kTuplesPerBatch, 7000 + t * 100 + b);
        const server::UpdateAck ack = client.Update(batch);
        ASSERT_EQ(ack.accepted, batch.size());
        EXPECT_GT(ack.change_number, 0u);
        std::lock_guard<std::mutex> lock(acked_mu);
        acked.push_back(std::move(batch));
      }
    });
  }
  // Interleaved readers: answers must stay well-formed while the state
  // moves underneath them (values monotonicity is checked by the oracle
  // sweep afterwards; here we only require OK responses).
  for (size_t t = 0; t < 2; ++t) {
    workers.emplace_back([&, t] {
      Client client = Client::Connect(server.port());
      std::mt19937_64 rng(50 + t);
      for (size_t i = 0; i < 60; ++i) {
        try {
          (void)client.Count((*polygons_)[rng() % polygons_->size()]);
        } catch (const std::exception&) {
          read_errors.fetch_add(1);
        }
      }
    });
  }
  for (std::thread& w : workers) w.join();
  server.Stop();
  EXPECT_EQ(read_errors.load(), 0u);
  ASSERT_EQ(acked.size(), kWriters * kBatchesPerWriter)
      << "every UPDATE should have been acknowledged";

  // Serial oracle: the same acknowledged batches, applied one by one.
  BlockSet oracle = BuildSet();
  uint64_t acked_tuples = 0;
  for (const Batch& batch : acked) {
    oracle.ApplyBatchUpdate(batch);
    acked_tuples += batch.size();
  }
  EXPECT_EQ(server.stats().update_tuples, acked_tuples);
  ExpectSetsEquivalent(set, oracle, "update storm");
}

TEST_F(ServerServingTest, AcknowledgedUpdatesSurviveCrashAndRestart) {
  const std::string stem = ::testing::TempDir() + "server_serving_crash";
  const std::string manifest_path = stem + ".gbst";
  const std::string wal_path = stem + ".wal";
  ::unlink(wal_path.c_str());
  const std::vector<cell::CellId> all{cell::CellId::Root()};
  uint64_t base_count = 0;
  {
    const BlockSet pristine = BuildSet();
    base_count = pristine.CountCovering(all);
    std::ofstream out(manifest_path, std::ios::binary | std::ios::trunc);
    pristine.WriteTo(out);
  }

  // Serve over an OpenLogged set whose WAL dies mid-stream.
  std::mutex acked_mu;
  std::vector<Batch> acked;
  {
    util::FaultShim shim;
    shim.ArmPwrite(4000, EIO);  // dies partway through the storm
    UpdateLog::Options log_options;
    log_options.shim = &shim;
    auto log = UpdateLog::Open(wal_path, log_options);
    BlockSet set = BlockSet::OpenLogged(manifest_path, log.get());
    ServerOptions options;
    options.pool = pool_;
    QueryServer server(&set, options);
    server.Start();

    constexpr size_t kWriters = 3;
    std::vector<std::thread> workers;
    for (size_t t = 0; t < kWriters; ++t) {
      workers.emplace_back([&, t] {
        Client::Options copts;
        copts.tenant = static_cast<uint32_t>(t);
        Client client = Client::Connect(server.port(), copts);
        BlockSet probe = BuildSet();
        for (size_t b = 0; b < 40; ++b) {
          Batch batch = InCellBatch(probe, 8, 9000 + t * 100 + b);
          try {
            const server::UpdateAck ack = client.Update(batch);
            ASSERT_EQ(ack.accepted, batch.size());
          } catch (const std::exception&) {
            return;  // kInternal (dead WAL) or dropped connection: NOT acked
          }
          std::lock_guard<std::mutex> lock(acked_mu);
          acked.push_back(std::move(batch));
        }
      });
    }
    for (std::thread& w : workers) w.join();
    server.Abort();  // simulated crash: backlog discarded unanswered
  }

  // Recovery: exactly the acknowledged batches survive (the pwrite budget
  // kills the WAL mid-record, so acked <=> durable, bit for bit).
  ASSERT_FALSE(acked.empty()) << "fault fired before any ack";
  auto log = UpdateLog::Open(wal_path);
  const BlockSet recovered = BlockSet::OpenLogged(manifest_path, log.get());

  uint64_t acked_tuples = 0;
  std::ifstream in(manifest_path, std::ios::binary);
  BlockSet oracle = BlockSet::ReadFrom(in);
  for (const Batch& batch : acked) {
    oracle.ApplyBatchUpdate(batch);
    acked_tuples += batch.size();
  }
  EXPECT_EQ(recovered.CountCovering(all), base_count + acked_tuples)
      << "recovered tuple count must be exactly base + acknowledged";
  ExpectSetsEquivalent(recovered, oracle, "crash recovery");

  ::unlink(manifest_path.c_str());
  ::unlink(wal_path.c_str());
}

TEST_F(ServerServingTest, MappedSetServesAndReportsMemoryStats) {
  // A lazily opened set behind the server: queries through the wire fault
  // shards in on the pool, answers match the eager oracle bit for bit,
  // and STATS surfaces the governor's memory.* keys (docs/PROTOCOL.md).
  const std::string path =
      ::testing::TempDir() + "server_serving_mapped.gbst";
  const BlockSet oracle = BuildSet();
  {
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    oracle.WriteTo(out);
  }
  // Bit-identical gating must compare against the same on-disk bytes the
  // mapped set serves from: the pre-serialization build differs in the
  // last ulp of some aggregates.
  std::ifstream back(path, std::ios::binary);
  const BlockSet eager = BlockSet::ReadFrom(back);

  core::MemoryGovernor governor(core::MemoryGovernor::Options{0});
  core::LazyOpenOptions lazy_options;
  lazy_options.governor = &governor;
  BlockSet set = BlockSet::OpenMapped(path, lazy_options);

  ServerOptions options;
  options.pool = pool_;
  QueryServer server(&set, options);
  server.Start();
  {
    Client client = Client::Connect(server.port());
    const std::vector<AggregateRequest> reqs = Requests();
    for (const geo::Polygon& poly : *polygons_) {
      const QueryResult got = client.Select(poly, reqs[2]);
      const QueryResult want = eager.Select(poly, reqs[2]);
      ASSERT_EQ(want.count, got.count);
      ASSERT_EQ(want.values.size(), got.values.size());
      for (size_t v = 0; v < want.values.size(); ++v) {
        ASSERT_EQ(want.values[v], got.values[v])
            << "served lazy answer diverged from the eager oracle";
      }
    }
    std::map<std::string, uint64_t> stats;
    for (const auto& [key, value] : client.Stats()) stats[key] = value;
    ASSERT_TRUE(stats.count("memory.resident_bytes"));
    ASSERT_TRUE(stats.count("memory.budget_bytes"));
    ASSERT_TRUE(stats.count("memory.evictions"));
    ASSERT_TRUE(stats.count("memory.faults"));
    ASSERT_TRUE(stats.count("memory.refusals"));
    ASSERT_TRUE(stats.count("memory.resident_shards"));
    EXPECT_GT(stats["memory.resident_bytes"], 0u);
    EXPECT_EQ(stats["memory.budget_bytes"], 0u);  // unlimited
    EXPECT_GT(stats["memory.faults"], 0u) << "queries must have faulted";
    EXPECT_EQ(stats["memory.resident_shards"], set.resident_shards());
    // STATS snapshots reconcile with the engine's own counters.
    EXPECT_EQ(stats["memory.faults"], governor.stats().faults);
  }
  server.Stop();
  ::unlink(path.c_str());
}

}  // namespace
}  // namespace geoblocks
