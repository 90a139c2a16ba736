// Fault-injection chaos suite (docs/ARCHITECTURE.md §Failure containment):
// syscall faults injected through util::FaultShim drive the engine and the
// server into their degraded modes, and every containment invariant is
// asserted against a serial oracle:
//
//  1. Engine level — a WAL fsync/pwrite failure flips the BlockSet into
//     sticky read-only mode: the failing batch never reaches memory,
//     later updates throw ReadOnlyError before touching anything, reads
//     keep answering from the last committed state.
//
//  2. Server level — updates against a degraded server are answered
//     Status::kReadOnly (the failing epoch itself gets kInternal: its
//     outcome is genuinely unknown), reads stay bit-identical to the
//     oracle, PING v2 reports degraded health, STATS exposes the mode.
//     A corrupt mapped shard turns the reads routed to it into kInternal
//     on a pooled server, while every other read — even one executed in
//     the same epoch — and PING keep serving.
//
//  3. Chaos matrix — {pwrite ENOSPC, pwrite EIO, fsync EIO} × concurrent
//     retrying writers: after the WAL dies and the server crashes,
//     recovery must be bitwise-identical to a serial oracle that applies
//     exactly the acknowledged batches (plus, possibly, the single
//     unacknowledged boundary epoch — whose record is all-or-nothing on
//     disk because the batcher coalesces each epoch into one record).
//     Zero acknowledged batches lost, zero double-applies.
//
//  4. Connection deadlines — a stalled half-written frame is reaped by
//     the read deadline without affecting other connections; an idle
//     connection is reaped by the idle deadline; a queued request whose
//     v2 deadline expires (fake clock — no real sleeps) is answered
//     kTimeout, never executed.

#include <gtest/gtest.h>

#include <unistd.h>

#include <atomic>
#include <cerrno>
#include <condition_variable>
#include <fstream>
#include <memory>
#include <mutex>
#include <random>
#include <span>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "cell/cell_id.h"
#include "core/block_set.h"
#include "core/serialize.h"
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
using util::FaultShim;

using Batch = std::vector<GeoBlock::UpdateTuple>;

class FaultInjectionTest : public ::testing::Test {
 protected:
  static constexpr int kLevel = 15;

  static void SetUpTestSuite() {
    storage::PointTable raw = workload::GenTaxi(15000, 33);
    storage::ExtractOptions extract;
    extract.clean_bounds = workload::NycBounds();
    data_ = new std::shared_ptr<const storage::SortedDataset>(
        std::make_shared<const storage::SortedDataset>(
            storage::SortedDataset::Extract(raw, extract)));
    storage::ShardOptions shard_options;
    shard_options.num_shards = 4;
    shard_options.align_level = kLevel;
    sharded_ = new storage::ShardedDataset(
        storage::ShardedDataset::Partition(*data_, shard_options));
    pool_ = new util::ThreadPool(4);
    polygons_ = new std::vector<geo::Polygon>(
        workload::Neighborhoods(raw, 10, 33));
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

  /// In-cell tuples with exact-eighth values: sums are order-independent
  /// in binary floating point, so oracle comparisons are bitwise.
  ///
  /// Takes the cell list by value (snapshot it from shard(0).cells()
  /// BEFORE the server starts): GeoBlock accessors use the writer-side
  /// state peek, which must not race the server's batcher thread.
  static Batch InCellBatch(std::span<const uint64_t> cells, size_t count,
                           uint64_t seed) {
    std::mt19937_64 rng(seed);
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

  /// Bitwise sweep equality over every polygon.
  static void ExpectSetsEquivalent(const BlockSet& got, const BlockSet& want,
                                   const char* what) {
    AggregateRequest req;
    req.Add(AggFn::kCount);
    req.Add(AggFn::kSum, 0);
    for (size_t p = 0; p < polygons_->size(); ++p) {
      const QueryResult a = got.Select((*polygons_)[p], req);
      const QueryResult b = want.Select((*polygons_)[p], req);
      ASSERT_EQ(a.count, b.count) << what << ": polygon " << p;
      ASSERT_EQ(a.values, b.values) << what << ": polygon " << p;
      ASSERT_EQ(got.Count((*polygons_)[p]), want.Count((*polygons_)[p]))
          << what << ": polygon " << p;
    }
  }

  /// Writes the pristine build to `manifest_path` and returns its total
  /// tuple count.
  static uint64_t WriteManifest(const std::string& manifest_path) {
    const BlockSet pristine = BuildSet();
    std::ofstream out(manifest_path, std::ios::binary | std::ios::trunc);
    pristine.WriteTo(out);
    return pristine.CountCovering(kAll);
  }

  /// Writes the pristine build to `path` with one byte of `shard`'s
  /// payload flipped: the manifest stays intact, so OpenMapped succeeds and
  /// the damage surfaces when a read faults the shard in.
  static void WriteCorruptManifest(const std::string& path, size_t shard) {
    (void)WriteManifest(path);
    std::ifstream in(path, std::ios::binary);
    std::ostringstream buf;
    buf << in.rdbuf();
    std::string bytes = std::move(buf).str();
    std::istringstream manifest(bytes, std::ios::binary);
    const core::serialize::SetManifest m =
        core::serialize::ReadSetManifest(manifest);
    ASSERT_GT(m.payload_sizes[shard], 0u);
    bytes[m.manifest_bytes + m.payload_offsets[shard] +
          m.payload_sizes[shard] / 2] ^= 0x5A;
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  }

  /// One polygon strictly inside a cell of each shard of `set`: it covers
  /// that cell alone, so it routes to that shard only, even by manifest
  /// boundaries.
  static std::vector<geo::Polygon> ShardInteriorPolygons(const BlockSet& set) {
    std::vector<geo::Polygon> by_shard;
    for (size_t s = 0; s < set.num_shards(); ++s) {
      const auto& cells = set.shard(s).cells();
      if (cells.empty()) {
        ADD_FAILURE() << "shard " << s << " has no cells";
        return {};
      }
      const geo::Rect r = cell::CellId(cells[cells.size() / 2]).ToRect();
      const double dx = (r.max.x - r.min.x) / 4;
      const double dy = (r.max.y - r.min.y) / 4;
      by_shard.push_back(geo::Polygon::FromRect(set.projection().FromUnit(
          geo::Rect{{r.min.x + dx, r.min.y + dy},
                    {r.max.x - dx, r.max.y - dy}})));
    }
    return by_shard;
  }

  /// A batch_hook that parks the batcher on one epoch while held, so the
  /// requests queued behind it execute together as the next epoch.
  struct BatcherPark {
    std::mutex mu;
    std::condition_variable cv;
    bool hold = false;
    std::atomic<int> parked{0};

    void Hook() {
      std::unique_lock<std::mutex> lock(mu);
      if (!hold) return;
      parked.fetch_add(1);
      cv.wait(lock, [&] { return !hold; });
    }
    void Hold() {
      std::lock_guard<std::mutex> lock(mu);
      hold = true;
    }
    void AwaitParked() {
      while (parked.load() == 0) std::this_thread::yield();
    }
    void Release() {
      {
        std::lock_guard<std::mutex> lock(mu);
        hold = false;
      }
      cv.notify_all();
    }
  };

  static uint64_t StatsValue(
      const std::vector<std::pair<std::string, uint64_t>>& stats,
      const std::string& key) {
    for (const auto& [k, v] : stats) {
      if (k == key) return v;
    }
    ADD_FAILURE() << "stats key missing: " << key;
    return 0;
  }

  static const std::vector<cell::CellId> kAll;
  static std::shared_ptr<const storage::SortedDataset>* data_;
  static storage::ShardedDataset* sharded_;
  static util::ThreadPool* pool_;
  static std::vector<geo::Polygon>* polygons_;
};

const std::vector<cell::CellId> FaultInjectionTest::kAll{
    cell::CellId::Root()};
std::shared_ptr<const storage::SortedDataset>* FaultInjectionTest::data_ =
    nullptr;
storage::ShardedDataset* FaultInjectionTest::sharded_ = nullptr;
util::ThreadPool* FaultInjectionTest::pool_ = nullptr;
std::vector<geo::Polygon>* FaultInjectionTest::polygons_ = nullptr;

// ---------------------------------------------------------------------------
// 1. Engine-level degraded mode
// ---------------------------------------------------------------------------

TEST_F(FaultInjectionTest, BlockSetEntersStickyReadOnlyOnWalFailure) {
  const std::string stem = ::testing::TempDir() + "fault_engine";
  const std::string manifest_path = stem + ".gbst";
  const std::string wal_path = stem + ".wal";
  ::unlink(wal_path.c_str());
  const uint64_t base_count = WriteManifest(manifest_path);

  FaultShim shim;
  UpdateLog::Options log_options;
  log_options.shim = &shim;
  auto log = UpdateLog::Open(wal_path, log_options);
  BlockSet set = BlockSet::OpenLogged(manifest_path, log.get());
  ASSERT_FALSE(set.read_only());
  const core::CellArray<uint64_t> cells = set.shard(0).cells();

  // Two updates commit, then the device dies on fsync.
  const Batch b1 = InCellBatch(cells, 8, 1);
  const Batch b2 = InCellBatch(cells, 8, 2);
  set.ApplyBatchUpdate(b1);
  set.ApplyBatchUpdate(b2);
  shim.ArmFsync(/*after_calls=*/0, EIO);

  const Batch doomed = InCellBatch(cells, 8, 3);
  try {
    set.ApplyBatchUpdate(doomed);
    FAIL() << "expected the WAL failure to surface";
  } catch (const core::ReadOnlyError&) {
    FAIL() << "the first failure must surface the original error, not "
              "ReadOnlyError";
  } catch (const std::runtime_error&) {
  }
  EXPECT_TRUE(set.read_only()) << "a dead WAL must flip the set read-only";
  EXPECT_TRUE(log->failed());

  // Later updates are refused before touching anything; the failing batch
  // never reached memory.
  EXPECT_THROW(set.ApplyBatchUpdate(InCellBatch(cells, 4, 4)),
               core::ReadOnlyError);
  EXPECT_EQ(set.CountCovering(kAll), base_count + b1.size() + b2.size());

  // Reads keep answering from the last committed state, bitwise.
  BlockSet oracle = BuildSet();
  oracle.ApplyBatchUpdate(b1);
  oracle.ApplyBatchUpdate(b2);
  ExpectSetsEquivalent(set, oracle, "degraded engine reads");

  ::unlink(manifest_path.c_str());
  ::unlink(wal_path.c_str());
}

// ---------------------------------------------------------------------------
// 2. Server-level degraded mode
// ---------------------------------------------------------------------------

TEST_F(FaultInjectionTest, DegradedServerServesReadsAndReportsHealth) {
  const std::string stem = ::testing::TempDir() + "fault_server";
  const std::string manifest_path = stem + ".gbst";
  const std::string wal_path = stem + ".wal";
  ::unlink(wal_path.c_str());
  (void)WriteManifest(manifest_path);

  FaultShim shim;
  UpdateLog::Options log_options;
  log_options.shim = &shim;
  auto log = UpdateLog::Open(wal_path, log_options);
  BlockSet set = BlockSet::OpenLogged(manifest_path, log.get());
  const core::CellArray<uint64_t> cells = set.shard(0).cells();
  ServerOptions options;
  options.pool = pool_;
  QueryServer server(&set, options);
  server.Start();
  Client client = Client::Connect(server.port());

  EXPECT_EQ(client.PingHealth("up").health, server::kHealthOk);

  // Three updates land; the fourth hits the dead device. Sequential
  // single-client traffic means one epoch (= one commit group) each.
  std::vector<Batch> acked;
  for (uint64_t b = 0; b < 3; ++b) {
    Batch batch = InCellBatch(cells, 8, 100 + b);
    const server::UpdateAck ack = client.Update(batch);
    ASSERT_EQ(ack.accepted, batch.size());
    acked.push_back(std::move(batch));
  }
  shim.ArmFsync(0, EIO);
  try {
    (void)client.Update(InCellBatch(cells, 8, 200));
    FAIL() << "expected kInternal";
  } catch (const server::ServerError& e) {
    // The failing epoch's outcome is unknown: NOT acknowledged, NOT
    // "definitely rejected" — kInternal, per the durability contract.
    EXPECT_EQ(e.status, Status::kInternal);
  }

  // From now on updates are refused with the typed read-only status...
  try {
    (void)client.Update(InCellBatch(cells, 8, 201));
    FAIL() << "expected kReadOnly";
  } catch (const server::ServerError& e) {
    EXPECT_EQ(e.status, Status::kReadOnly);
  }

  // ...while reads keep serving, bit-identical to the acknowledged state.
  BlockSet oracle = BuildSet();
  for (const Batch& b : acked) oracle.ApplyBatchUpdate(b);
  AggregateRequest req;
  req.Add(AggFn::kCount);
  req.Add(AggFn::kSum, 0);
  for (size_t p = 0; p < polygons_->size(); ++p) {
    const QueryResult got = client.Select((*polygons_)[p], req);
    const QueryResult want = oracle.Select((*polygons_)[p], req);
    ASSERT_EQ(got.count, want.count) << "polygon " << p;
    ASSERT_EQ(got.values, want.values) << "polygon " << p;
    ASSERT_EQ(client.Count((*polygons_)[p]), oracle.Count((*polygons_)[p]));
  }

  // Health is observable on every plane: PING v2 and STATS.
  EXPECT_EQ(client.PingHealth("still-up").health, server::kHealthDegraded);
  const auto stats = client.Stats();
  EXPECT_EQ(StatsValue(stats, "server.health"), 1u);
  EXPECT_GE(StatsValue(stats, "server.read_only_rejected"), 1u);

  server.Stop();
  ::unlink(manifest_path.c_str());
  ::unlink(wal_path.c_str());
}

TEST_F(FaultInjectionTest, CorruptMappedShardAnswersInternalAndStaysContained) {
  const std::string path = ::testing::TempDir() + "fault_corrupt.gbst";
  ASSERT_NO_FATAL_FAILURE(WriteCorruptManifest(path, 2));
  const BlockSet eager = BuildSet();
  const std::vector<geo::Polygon> by_shard = ShardInteriorPolygons(eager);
  ASSERT_EQ(by_shard.size(), eager.num_shards());

  BlockSet mapped = BlockSet::OpenMapped(path);
  ServerOptions options;
  options.pool = pool_;
  BatcherPark park;
  options.batch_hook = [&park] { park.Hook(); };
  QueryServer server(&mapped, options);
  server.Start();
  Client client = Client::Connect(server.port());
  AggregateRequest req;
  req.Add(AggFn::kCount);
  req.Add(AggFn::kSum, 0);
  req.Add(AggFn::kAvg, 1);

  for (int round = 0; round < 2; ++round) {
    for (size_t s = 0; s < by_shard.size(); ++s) {
      const geo::Polygon& poly = by_shard[s];
      if (s == 2) {
        try {
          (void)client.Select(poly, req);
          FAIL() << "a SELECT over the corrupt shard must fail";
        } catch (const server::ServerError& e) {
          EXPECT_EQ(e.status, Status::kInternal);
        }
        try {
          (void)client.Count(poly);
          FAIL() << "a COUNT over the corrupt shard must fail";
        } catch (const server::ServerError& e) {
          EXPECT_EQ(e.status, Status::kInternal);
        }
        continue;
      }
      const QueryResult got = client.Select(poly, req);
      const QueryResult want = eager.Select(poly, req);
      EXPECT_GT(want.count, 0u) << "shard " << s;
      EXPECT_EQ(got.count, want.count) << "shard " << s;
      EXPECT_EQ(got.values, want.values) << "shard " << s;
      EXPECT_EQ(client.Count(poly), eager.Count(poly)) << "shard " << s;
    }
    EXPECT_EQ(client.Ping("alive"), "alive");
  }

  // A burst of shard-2 reads queued behind a parked epoch executes as one
  // pooled epoch, so the faults are thrown on pool workers: every burst
  // request still answers kInternal.
  constexpr uint64_t kBurst = 4;
  park.Hold();
  client.SendBytes(server::EncodeCount(0, /*cookie=*/1, by_shard[0]));
  park.AwaitParked();
  for (uint64_t j = 0; j < kBurst; ++j) {
    client.SendBytes(server::EncodeSelect(0, 2 + 2 * j, by_shard[2], req));
    client.SendBytes(server::EncodeCount(0, 3 + 2 * j, by_shard[2]));
  }
  while (server.stats().queue_depth < 2 * kBurst) std::this_thread::yield();
  park.Release();
  for (uint64_t j = 0; j < 1 + 2 * kBurst; ++j) {
    server::Response resp;
    ASSERT_TRUE(client.ReadResponse(&resp));
    EXPECT_EQ(resp.status, resp.cookie == 1 ? Status::kOk : Status::kInternal)
        << "cookie " << resp.cookie;
  }
  EXPECT_EQ(client.Ping("still-alive"), "still-alive");

  server.Stop();
  EXPECT_FALSE(mapped.shard_resident(2));
  ::unlink(path.c_str());
}

TEST_F(FaultInjectionTest, FaultingReadFailsOnlyItselfInItsEpoch) {
  const std::string path = ::testing::TempDir() + "fault_mixed_epoch.gbst";
  ASSERT_NO_FATAL_FAILURE(WriteCorruptManifest(path, 2));
  const BlockSet eager = BuildSet();
  const std::vector<geo::Polygon> by_shard = ShardInteriorPolygons(eager);
  ASSERT_EQ(by_shard.size(), eager.num_shards());

  BlockSet mapped = BlockSet::OpenMapped(path);
  ServerOptions options;
  options.pool = pool_;
  BatcherPark park;
  options.batch_hook = [&park] { park.Hook(); };
  QueryServer server(&mapped, options);
  server.Start();
  Client client = Client::Connect(server.port());
  AggregateRequest req;
  req.Add(AggFn::kCount);
  req.Add(AggFn::kSum, 0);

  // A SELECT and a COUNT for healthy shard 0 and the same pair for corrupt
  // shard 2, all under one aggregate request, queued behind a parked epoch
  // so the four reads execute as one epoch. The shard-2 faults must fail
  // only the shard-2 pair.
  park.Hold();
  client.SendBytes(server::EncodeCount(0, /*cookie=*/1, by_shard[0]));
  park.AwaitParked();
  client.SendBytes(server::EncodeSelect(0, 2, by_shard[0], req));
  client.SendBytes(server::EncodeCount(0, 3, by_shard[0]));
  client.SendBytes(server::EncodeSelect(0, 4, by_shard[2], req));
  client.SendBytes(server::EncodeCount(0, 5, by_shard[2]));
  while (server.stats().queue_depth < 4) std::this_thread::yield();
  park.Release();

  const QueryResult want = eager.Select(by_shard[0], req);
  const uint64_t want_count = eager.Count(by_shard[0]);
  EXPECT_GT(want.count, 0u);
  for (int j = 0; j < 5; ++j) {
    server::Response resp;
    ASSERT_TRUE(client.ReadResponse(&resp));
    if (resp.cookie == 2) {
      ASSERT_EQ(resp.status, Status::kOk);
      const server::SelectResult got =
          server::DecodeSelectResult(resp.payload);
      EXPECT_EQ(got.count, want.count);
      EXPECT_EQ(got.values, want.values);
    } else if (resp.cookie == 1 || resp.cookie == 3) {
      ASSERT_EQ(resp.status, Status::kOk) << "cookie " << resp.cookie;
      EXPECT_EQ(server::DecodeCountResult(resp.payload), want_count);
    } else {
      EXPECT_EQ(resp.status, Status::kInternal) << "cookie " << resp.cookie;
    }
  }

  server.Stop();
  // The parked COUNT, then the four reads together: two epochs.
  EXPECT_EQ(server.stats().batches_executed, 2u);
  ::unlink(path.c_str());
}

// ---------------------------------------------------------------------------
// 3. Chaos matrix: concurrent retrying writers × fault kinds × recovery
// ---------------------------------------------------------------------------

struct FaultCase {
  const char* name;
  bool fsync_fault;  ///< false: pwrite fault
  int err;
  uint64_t budget;  ///< bytes (pwrite) or calls (fsync) before the fault
};

TEST_F(FaultInjectionTest, ChaosMatrixRecoveryMatchesSerialOracle) {
  const FaultCase cases[] = {
      {"pwrite-enospc", false, ENOSPC, 6000},
      {"pwrite-eio", false, EIO, 9000},
      {"fsync-eio", true, EIO, 12},
  };
  for (const FaultCase& fc : cases) {
    SCOPED_TRACE(fc.name);
    const std::string stem =
        ::testing::TempDir() + "fault_matrix_" + fc.name;
    const std::string manifest_path = stem + ".gbst";
    const std::string wal_path = stem + ".wal";
    ::unlink(wal_path.c_str());
    const uint64_t base_count = WriteManifest(manifest_path);

    std::mutex acked_mu;
    std::vector<Batch> acked;
    std::vector<Batch> boundary;  ///< kInternal epoch: unknown durability
    std::atomic<uint64_t> degraded_read_errors{0};
    std::atomic<uint64_t> degraded_reads_ok{0};
    {
      FaultShim shim;
      UpdateLog::Options log_options;
      log_options.shim = &shim;
      if (fc.fsync_fault) {
        shim.ArmFsync(fc.budget, fc.err);
      } else {
        shim.ArmPwrite(fc.budget, fc.err);
      }
      auto log = UpdateLog::Open(wal_path, log_options);
      BlockSet set = BlockSet::OpenLogged(manifest_path, log.get());
      const core::CellArray<uint64_t> cells = set.shard(0).cells();
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
          copts.retry.max_attempts = 3;  // absorb kBusy; fences make the
          copts.retry.sleep = [](int64_t) {};  // resends safe
          Client client = Client::Connect(server.port(), copts);
          for (size_t b = 0; b < 60; ++b) {
            Batch batch = InCellBatch(cells, 8, 5000 + t * 100 + b);
            try {
              const server::UpdateAck ack = client.Update(batch);
              ASSERT_EQ(ack.accepted, batch.size());
              std::lock_guard<std::mutex> lock(acked_mu);
              acked.push_back(std::move(batch));
            } catch (const server::ServerError& e) {
              if (e.status == Status::kInternal) {
                // The failing epoch: durability unknown until recovery.
                std::lock_guard<std::mutex> lock(acked_mu);
                boundary.push_back(std::move(batch));
              } else {
                EXPECT_EQ(e.status, Status::kReadOnly);
              }
              return;
            } catch (const std::exception&) {
              return;  // transport loss: NOT acked
            }
          }
        });
      }
      for (std::thread& w : workers) w.join();
      EXPECT_TRUE(set.read_only()) << "the fault should have fired";

      // The degraded server must still answer reads — and they must be
      // internally consistent (the acked state, which reads can observe
      // while degraded, is checked bitwise after recovery).
      Client reader = Client::Connect(server.port());
      for (size_t p = 0; p < 4; ++p) {
        try {
          (void)reader.Count((*polygons_)[p]);
          degraded_reads_ok.fetch_add(1);
        } catch (const std::exception&) {
          degraded_read_errors.fetch_add(1);
        }
      }
      server.Abort();  // simulated crash
    }
    EXPECT_EQ(degraded_read_errors.load(), 0u);
    EXPECT_EQ(degraded_reads_ok.load(), 4u);
    ASSERT_FALSE(acked.empty()) << "fault fired before any ack";

    // Recovery. The batcher coalesces every epoch into ONE log record, so
    // the kInternal boundary epoch is all-or-nothing on disk: recovered
    // state must equal base + acked, or base + acked + boundary — nothing
    // else. Either way no acknowledged batch is lost and nothing is
    // applied twice.
    auto log = UpdateLog::Open(wal_path);
    const BlockSet recovered =
        BlockSet::OpenLogged(manifest_path, log.get());
    uint64_t acked_tuples = 0;
    for (const Batch& b : acked) acked_tuples += b.size();
    uint64_t boundary_tuples = 0;
    for (const Batch& b : boundary) boundary_tuples += b.size();

    const uint64_t got_count = recovered.CountCovering(kAll);
    std::ifstream in(manifest_path, std::ios::binary);
    BlockSet oracle = BlockSet::ReadFrom(in);
    for (const Batch& b : acked) oracle.ApplyBatchUpdate(b);
    if (got_count == base_count + acked_tuples + boundary_tuples &&
        boundary_tuples > 0) {
      // The boundary record was durable after all (fsync-failure case:
      // written but unsynced bytes survive an in-process "crash").
      for (const Batch& b : boundary) oracle.ApplyBatchUpdate(b);
    } else {
      ASSERT_EQ(got_count, base_count + acked_tuples)
          << "recovered count must be acked-only or acked+boundary";
    }
    ExpectSetsEquivalent(recovered, oracle, fc.name);

    ::unlink(manifest_path.c_str());
    ::unlink(wal_path.c_str());
  }
}

// ---------------------------------------------------------------------------
// 4. Connection deadlines and request expiry
// ---------------------------------------------------------------------------

TEST_F(FaultInjectionTest, QueuedRequestPastDeadlineIsAnsweredTimeout) {
  BlockSet set = BuildSet();
  std::atomic<int64_t> fake_ms{1000};
  std::mutex hook_mu;
  std::condition_variable hook_cv;
  bool hook_release = false;
  std::atomic<int> hook_calls{0};

  ServerOptions options;
  options.pool = pool_;
  options.clock = [&fake_ms] { return fake_ms.load(); };
  // Park the batcher on its first epoch so later requests sit in the
  // queue while the (fake) clock advances past their deadline.
  options.batch_hook = [&] {
    if (hook_calls.fetch_add(1) == 0) {
      std::unique_lock<std::mutex> lock(hook_mu);
      hook_cv.wait(lock, [&] { return hook_release; });
    }
  };
  QueryServer server(&set, options);
  server.Start();

  Client client = Client::Connect(server.port());
  const geo::Polygon& poly = polygons_->front();
  // Request 1 (no deadline) occupies the parked epoch.
  client.SendBytes(server::EncodeCount(0, /*cookie=*/1, poly));
  while (hook_calls.load() == 0) std::this_thread::yield();
  // Request 2 carries a 50 ms deadline; wait until it is dispatched (its
  // deadline is stamped against the fake clock at 1000) and queued behind
  // the parked epoch before advancing time past its expiry.
  client.SendBytes(
      server::EncodeCount(0, /*cookie=*/2, poly, /*deadline_ms=*/50));
  while (server.stats().queue_depth == 0) std::this_thread::yield();
  fake_ms.store(2000);  // way past 1000 + 50 — no real sleeping
  {
    std::lock_guard<std::mutex> lock(hook_mu);
    hook_release = true;
  }
  hook_cv.notify_all();

  Status by_cookie[3] = {Status::kOk, Status::kInternal, Status::kInternal};
  for (int i = 0; i < 2; ++i) {
    server::Response resp;
    ASSERT_TRUE(client.ReadResponse(&resp));
    ASSERT_LE(resp.cookie, 2u);
    by_cookie[resp.cookie] = resp.status;
  }
  EXPECT_EQ(by_cookie[1], Status::kOk);
  EXPECT_EQ(by_cookie[2], Status::kTimeout)
      << "an expired queued request must be dropped as kTimeout";
  EXPECT_EQ(server.stats().requests_timed_out, 1u);
  server.Stop();
}

TEST_F(FaultInjectionTest, StalledHalfFrameIsReapedWithoutBlockingOthers) {
  BlockSet set = BuildSet();
  ServerOptions options;
  options.pool = pool_;
  options.read_timeout_ms = 150;  // tight: this test really waits it out
  QueryServer server(&set, options);
  server.Start();

  // The slow-loris: a full length prefix, then a stalled half body.
  Client loris = Client::Connect(server.port());
  const std::string frame =
      server::EncodeCount(0, 7, polygons_->front());
  loris.SendBytes(frame.substr(0, frame.size() - 5));

  // Other connections are not affected while the loris stalls.
  Client busy = Client::Connect(server.port());
  const uint64_t want = set.Count(polygons_->front());
  for (int i = 0; i < 5; ++i) {
    EXPECT_EQ(busy.Count(polygons_->front()), want);
  }

  // The loris is reaped by the read deadline: its connection closes with
  // no response (the frame never completed, so there is nothing to answer).
  server::Response resp;
  EXPECT_FALSE(loris.ReadResponse(&resp));
  EXPECT_GE(server.stats().connections_reaped, 1u);

  // The server remains fully healthy for new connections.
  Client fresh = Client::Connect(server.port());
  EXPECT_EQ(fresh.Count(polygons_->front()), want);
  server.Stop();
}

TEST_F(FaultInjectionTest, IdleConnectionIsReaped) {
  BlockSet set = BuildSet();
  ServerOptions options;
  options.pool = pool_;
  options.idle_timeout_ms = 100;
  QueryServer server(&set, options);
  server.Start();

  Client idle = Client::Connect(server.port());
  // Send nothing: the idle deadline reaps the connection (EOF, no frame).
  server::Response resp;
  EXPECT_FALSE(idle.ReadResponse(&resp));
  EXPECT_GE(server.stats().connections_reaped, 1u);

  // An active connection with the same settings is untouched as long as
  // it keeps sending frames.
  Client active = Client::Connect(server.port());
  for (int i = 0; i < 3; ++i) {
    EXPECT_EQ(active.Ping("beat"), "beat");
  }
  server.Stop();
}

}  // namespace
}  // namespace geoblocks
