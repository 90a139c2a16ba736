// Crash-recovery matrix for the durable update plane: checkpoint + WAL +
// replay must reconstruct, at every injected crash point, a state that is
// bit-identical to a serial oracle (manifest + the durable batch prefix
// re-applied in order), with zero acknowledged batches lost.
//
// Crashes are injected through util::FaultShim: a pwrite byte budget
// tears the log at an exact offset, a refused fsync leaves a written but
// unacknowledged group. Crash modes covered: torn tail records at byte-granular offsets, a flipped CRC in the
// tail, a truncated multi-record group under concurrent appenders, a crash
// between the fsync and the acknowledgment, a torn WAL header after a
// checkpoint, and idempotent replay across a mid-stream checkpoint.
#include <gtest/gtest.h>

#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <cstring>
#include <fstream>
#include <memory>
#include <random>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "core/block_set.h"
#include "core/geoblock.h"
#include "core/serialize.h"
#include "io/update_log.h"
#include "storage/sharded_dataset.h"
#include "util/io_shim.h"
#include "workload/datagen.h"

namespace geoblocks {
namespace {

using core::BlockSet;
using core::BlockSetOptions;
using core::GeoBlock;
using io::UpdateLog;

using Batch = std::vector<GeoBlock::UpdateTuple>;

class RecoveryTest : public ::testing::Test {
 protected:
  static constexpr int kLevel = 15;
  static constexpr size_t kShards = 4;
  static constexpr size_t kBatches = 6;

  static void SetUpTestSuite() {
    storage::PointTable raw = workload::GenTaxi(8000, 33);
    storage::ExtractOptions options;
    options.clean_bounds = workload::NycBounds();
    data_ = new std::shared_ptr<const storage::SortedDataset>(
        std::make_shared<const storage::SortedDataset>(
            storage::SortedDataset::Extract(raw, options)));
    storage::ShardOptions shard_options;
    shard_options.num_shards = kShards;
    shard_options.align_level = kLevel;
    const BlockSet pristine =
        BlockSet::Build(storage::ShardedDataset::Partition(*data_,
                                                           shard_options),
                        BlockSetOptions{{kLevel, {}}});
    std::ostringstream out(std::ios::binary);
    pristine.WriteTo(out);
    manifest_bytes_ = new std::string(std::move(out).str());
    batches_ = new std::vector<Batch>(MakeBatches(pristine));
  }

  static void TearDownTestSuite() {
    delete batches_;
    delete manifest_bytes_;
    delete data_;
    batches_ = nullptr;
    manifest_bytes_ = nullptr;
    data_ = nullptr;
  }

  void SetUp() override {
    const std::string stem =
        ::testing::TempDir() + "recovery_test_" +
        ::testing::UnitTest::GetInstance()->current_test_info()->name();
    manifest_path_ = stem + ".gbst";
    wal_path_ = stem + ".wal";
    ResetFiles();
  }

  void TearDown() override {
    ::unlink(manifest_path_.c_str());
    ::unlink(wal_path_.c_str());
  }

  /// Fresh pristine manifest (change number 0) and no WAL file.
  void ResetFiles() const {
    std::ofstream out(manifest_path_, std::ios::binary | std::ios::trunc);
    out.write(manifest_bytes_->data(),
              static_cast<std::streamsize>(manifest_bytes_->size()));
    out.close();
    ::unlink(wal_path_.c_str());
  }

  /// The deterministic workload: a mix of in-cell updates (commit straight
  /// into cell aggregates) and new-region tuples (their commits create
  /// cells), so recovery must reproduce both kinds of commit.
  static std::vector<Batch> MakeBatches(const BlockSet& set) {
    std::vector<Batch> batches;
    for (size_t i = 0; i < kBatches; ++i) {
      if (i % 3 == 2) {
        batches.push_back(NewRegionBatch(set, 6, 100 + i));
      } else {
        batches.push_back(InCellBatch(set, 8, 100 + i));
      }
    }
    return batches;
  }

  static Batch InCellBatch(const BlockSet& set, size_t count, uint64_t seed) {
    std::mt19937_64 rng(seed);
    const auto& cells = set.shard(0).cells();
    Batch batch;
    for (size_t i = 0; i < count; ++i) {
      const geo::Point unit =
          cell::CellId(cells[rng() % cells.size()]).CenterPoint();
      GeoBlock::UpdateTuple t;
      t.location = (*data_)->projection().FromUnit(unit);
      t.values.assign((*data_)->num_columns(),
                      static_cast<double>((rng() % 1000)) / 8.0);
      batch.push_back(std::move(t));
    }
    return batch;
  }

  static Batch NewRegionBatch(const BlockSet& set, size_t count,
                              uint64_t seed) {
    std::vector<uint64_t> covered;
    for (size_t s = 0; s < set.num_shards(); ++s) {
      const auto& cells = set.shard(s).cells();
      covered.insert(covered.end(), cells.begin(), cells.end());
    }
    std::sort(covered.begin(), covered.end());
    std::mt19937_64 rng(seed);
    Batch batch;
    std::set<uint64_t> used;
    while (batch.size() < count) {
      const double x = (static_cast<double>(rng() % 100000) + 0.5) / 100000.0;
      const double y = (static_cast<double>(rng() % 100000) + 0.5) / 100000.0;
      const cell::CellId cell =
          cell::CellId::FromPoint({x, y}).Parent(set.level());
      if (std::binary_search(covered.begin(), covered.end(), cell.id())) {
        continue;
      }
      if (!used.insert(cell.id()).second) continue;
      GeoBlock::UpdateTuple t;
      t.location = (*data_)->projection().FromUnit(cell.CenterPoint());
      t.values.assign((*data_)->num_columns(), 1.0);
      batch.push_back(std::move(t));
    }
    return batch;
  }

  static std::string Serialized(const BlockSet& set) {
    std::ostringstream out(std::ios::binary);
    set.WriteTo(out);
    return std::move(out).str();
  }

  static BlockSet FromFile(const std::string& path) {
    std::ifstream in(path, std::ios::binary);
    return BlockSet::ReadFrom(in);
  }

  /// Opens the set on the current manifest+WAL and applies batches serially
  /// until one crashes (or all land). Returns how many were acknowledged.
  size_t ApplyUntilCrash(util::FaultShim* shim,
                         const std::vector<Batch>& batches) const {
    UpdateLog::Options options;
    options.shim = shim;
    auto log = UpdateLog::Open(wal_path_, options);
    BlockSet set = BlockSet::OpenLogged(manifest_path_, log.get());
    size_t acked = 0;
    for (const Batch& batch : batches) {
      try {
        set.ApplyBatchUpdate(batch);
      } catch (const std::runtime_error&) {
        return acked;  // crash: this batch was never acknowledged
      }
      ++acked;
    }
    return acked;
  }

  /// Recovers from the on-disk manifest+WAL and checks the two invariants:
  /// no acknowledged batch is lost (replayed >= acked), and the recovered
  /// state is bit-identical to a serial oracle that applies the replayed
  /// prefix of `batches` to the manifest without any log.
  void ExpectRecoveredMatchesOracle(size_t acked,
                                    const std::vector<Batch>& batches,
                                    const char* what) const {
    auto log = UpdateLog::Open(wal_path_);
    const BlockSet recovered = BlockSet::OpenLogged(manifest_path_,
                                                    log.get());
    const BlockSet manifest_state = FromFile(manifest_path_);
    const uint64_t base = manifest_state.change_number();
    ASSERT_GE(recovered.change_number(), base) << what;
    const uint64_t replayed = recovered.change_number() - base;
    EXPECT_GE(replayed, acked) << what << ": acknowledged batches lost";
    ASSERT_LE(replayed, batches.size()) << what;

    BlockSet oracle = FromFile(manifest_path_);
    for (size_t i = 0; i < replayed; ++i) {
      oracle.ApplyBatchUpdate(batches[i]);
    }
    EXPECT_EQ(Serialized(recovered), Serialized(oracle))
        << what << ": recovered state diverges from the serial oracle after "
        << replayed << " replayed batches (" << acked << " acknowledged)";
  }

  uint64_t WalSize() const {
    struct stat st {};
    if (::stat(wal_path_.c_str(), &st) != 0) return 0;
    return static_cast<uint64_t>(st.st_size);
  }

  std::string manifest_path_;
  std::string wal_path_;

  static std::shared_ptr<const storage::SortedDataset>* data_;
  static std::string* manifest_bytes_;
  static std::vector<Batch>* batches_;
};

std::shared_ptr<const storage::SortedDataset>* RecoveryTest::data_ = nullptr;
std::string* RecoveryTest::manifest_bytes_ = nullptr;
std::vector<Batch>* RecoveryTest::batches_ = nullptr;

// --------------------------------------------------------------------------
// The byte-granular crash matrix
// --------------------------------------------------------------------------

TEST_F(RecoveryTest, ByteGranularCrashMatrixRecoversBitIdentical) {
  // Dry run (no fault armed) to learn where each record ends on disk.
  const size_t all = ApplyUntilCrash(nullptr, *batches_);
  ASSERT_EQ(all, batches_->size());
  std::vector<uint64_t> record_ends;  // offsets in record space (post-header)
  {
    std::ifstream in(wal_path_, std::ios::binary);
    std::string bytes((std::istreambuf_iterator<char>(in)),
                      std::istreambuf_iterator<char>());
    uint64_t pos = core::serialize::kWalHeaderBytes;
    while (pos + core::serialize::kWalRecordHeaderBytes <= bytes.size()) {
      uint32_t payload_size = 0;
      std::memcpy(&payload_size, bytes.data() + pos + 12, 4);
      pos += core::serialize::kWalRecordHeaderBytes + payload_size;
      ASSERT_LE(pos, bytes.size());
      record_ends.push_back(pos - core::serialize::kWalHeaderBytes);
    }
  }
  ASSERT_EQ(record_ends.size(), batches_->size());
  const uint64_t total = record_ends.back();

  // Crash points: the very first bytes, every record boundary +/- 1, the
  // middle of each record header and payload, and "no crash at all".
  std::set<uint64_t> crash_points{0, 1, 12, total};
  for (const uint64_t end : record_ends) {
    crash_points.insert(end > 0 ? end - 1 : 0);
    crash_points.insert(end);
    if (end + 1 < total) crash_points.insert(end + 1);
    if (end + 12 < total) crash_points.insert(end + 12);  // mid next header
    if (end + 36 < total) crash_points.insert(end + 36);  // mid next payload
  }

  for (const uint64_t budget : crash_points) {
    SCOPED_TRACE("crash after " + std::to_string(budget) + " record bytes");
    ResetFiles();
    util::FaultShim shim;
    shim.ArmPwrite(budget, EIO);
    const size_t acked = ApplyUntilCrash(&shim, *batches_);
    if (budget < total) {
      EXPECT_GT(shim.pwrite_counters().errors, 0u);
      EXPECT_LT(acked, batches_->size());
    } else {
      EXPECT_EQ(acked, batches_->size());
    }
    ExpectRecoveredMatchesOracle(acked, *batches_, "byte matrix");
  }
}

// --------------------------------------------------------------------------
// The other injected crash modes
// --------------------------------------------------------------------------

TEST_F(RecoveryTest, CrashBetweenFsyncAndAckReplaysTheUnackedBatch) {
  for (const uint64_t syncs : {uint64_t{0}, uint64_t{2}}) {
    SCOPED_TRACE("crash after " + std::to_string(syncs) + " acked syncs");
    ResetFiles();
    util::FaultShim shim;
    shim.ArmFsync(syncs, EIO);
    const size_t acked = ApplyUntilCrash(&shim, *batches_);
    EXPECT_EQ(shim.fsync_counters().errors, 1u);
    ASSERT_LT(acked, batches_->size());
    // The crashing batch reached the file (only its fsync was refused) but
    // was never acknowledged: recovery replays it — at-least-once, the
    // safe side of the acknowledged-write contract.
    ExpectRecoveredMatchesOracle(acked, *batches_, "post-fsync crash");
  }
}

TEST_F(RecoveryTest, FlippedCrcInTheTailRecoversTheValidPrefix) {
  const size_t acked = ApplyUntilCrash(nullptr, *batches_);
  ASSERT_EQ(acked, batches_->size());
  // Flip one byte in the last record's payload: the scan must stop there,
  // and recovery serves the longest valid prefix.
  {
    std::fstream file(wal_path_,
                      std::ios::binary | std::ios::in | std::ios::out);
    file.seekg(0, std::ios::end);
    const std::streamoff size = file.tellg();
    file.seekg(size - 4);
    char byte = 0;
    file.read(&byte, 1);
    byte ^= 0x01;
    file.seekp(size - 4);
    file.write(&byte, 1);
  }
  // Bit rot is not a crash: the last batch WAS acknowledged, so this is
  // detected loss (the torn-tail cut), not silent loss. The recovered
  // state must still equal the oracle over the surviving prefix.
  ExpectRecoveredMatchesOracle(batches_->size() - 1, *batches_,
                               "flipped tail CRC");
}

TEST_F(RecoveryTest, TruncatedGroupUnderConcurrentAppenders) {
  // Concurrent appenders coalesce into multi-record groups; a mid-group
  // crash truncates the group and every record in it is unacknowledged
  // (the group's fsync never completed). All threads append the SAME
  // batch, so the recovered state is byte-deterministic no matter which
  // interleaving won: it only depends on how many records replay.
  const Batch batch = InCellBatch(FromFile(manifest_path_), 8, 77);
  constexpr size_t kThreads = 4;
  constexpr size_t kPerThread = 4;

  // Budget from a dry run: cut roughly mid-stream.
  ASSERT_EQ(ApplyUntilCrash(nullptr, {batch}), 1u);
  const uint64_t one_record = WalSize() - core::serialize::kWalHeaderBytes;
  const uint64_t budget = one_record * (kThreads * kPerThread / 2) + 17;
  ResetFiles();

  util::FaultShim shim;
  shim.ArmPwrite(budget, EIO);
  std::atomic<size_t> acked{0};
  {
    UpdateLog::Options options;
    options.shim = &shim;
    auto log = UpdateLog::Open(wal_path_, options);
    BlockSet set = BlockSet::OpenLogged(manifest_path_, log.get());
    std::vector<std::thread> threads;
    for (size_t t = 0; t < kThreads; ++t) {
      threads.emplace_back([&] {
        for (size_t i = 0; i < kPerThread; ++i) {
          try {
            set.ApplyBatchUpdate(batch);
          } catch (const std::runtime_error&) {
            return;
          }
          acked.fetch_add(1, std::memory_order_relaxed);
        }
      });
    }
    for (std::thread& th : threads) th.join();
  }
  EXPECT_GT(shim.pwrite_counters().errors, 0u);
  EXPECT_LT(acked.load(), kThreads * kPerThread);

  const std::vector<Batch> same(kThreads * kPerThread, batch);
  ExpectRecoveredMatchesOracle(acked.load(), same, "truncated group");
}

TEST_F(RecoveryTest, CheckpointTruncatesLogAndReplayStaysIdempotent) {
  {
    auto log = UpdateLog::Open(wal_path_);
    BlockSet set = BlockSet::OpenLogged(manifest_path_, log.get());
    for (size_t i = 0; i < 3; ++i) set.ApplyBatchUpdate((*batches_)[i]);
    EXPECT_EQ(set.Checkpoint(manifest_path_), 3u);
    EXPECT_EQ(log->base_change_number(), 3u);
    EXPECT_EQ(WalSize(), core::serialize::kWalHeaderBytes);
    for (size_t i = 3; i < 5; ++i) set.ApplyBatchUpdate((*batches_)[i]);
  }
  // Recovery: the manifest carries batches 1..3, the log records 4..5.
  // The oracle inside the check applies batches 4..5 to the manifest.
  const std::vector<Batch> tail((*batches_).begin() + 3,
                                (*batches_).begin() + 5);
  ExpectRecoveredMatchesOracle(2, tail, "post-checkpoint recovery");
}

TEST_F(RecoveryTest, ManifestWithoutTruncationSkipsReplayedRecords) {
  // A manifest written mid-stream WITHOUT truncating the log (e.g. a crash
  // between Checkpoint's manifest rename and its log truncation): the log
  // still holds records 1..5, the manifest absorbs 1..3, and replay must
  // skip exactly the absorbed prefix — never double-applying it.
  {
    auto log = UpdateLog::Open(wal_path_);
    BlockSet set = BlockSet::OpenLogged(manifest_path_, log.get());
    for (size_t i = 0; i < 3; ++i) set.ApplyBatchUpdate((*batches_)[i]);
    io::AtomicWriteFile(manifest_path_, Serialized(set));
    for (size_t i = 3; i < 5; ++i) set.ApplyBatchUpdate((*batches_)[i]);
  }
  const std::vector<Batch> tail((*batches_).begin() + 3,
                                (*batches_).begin() + 5);
  ExpectRecoveredMatchesOracle(2, tail, "idempotent replay");

  // And the skip really happened: a full replay scan sees all 5 records.
  auto log = UpdateLog::Open(wal_path_);
  const UpdateLog::ReplayResult result = log->Replay(
      3, [](uint64_t, std::vector<GeoBlock::UpdateTuple>&&) {});
  EXPECT_EQ(result.records_skipped, 3u);
  EXPECT_EQ(result.records_applied, 2u);
}

TEST_F(RecoveryTest, TornWalHeaderAfterCheckpointRebasesToTheManifest) {
  // Crash while Truncate rewrites the WAL header: the checkpoint manifest
  // is durable, the WAL is a sub-header stub. Recovery must serve the
  // manifest state AND rebase the re-initialized log to the manifest's
  // change number so new records never reuse replay-skipped numbers.
  {
    auto log = UpdateLog::Open(wal_path_);
    BlockSet set = BlockSet::OpenLogged(manifest_path_, log.get());
    for (size_t i = 0; i < 3; ++i) set.ApplyBatchUpdate((*batches_)[i]);
    set.Checkpoint(manifest_path_);
  }
  {
    std::ofstream out(wal_path_, std::ios::binary | std::ios::trunc);
    out.write("torn hdr", 8);  // partial header: crash during the rewrite
  }
  auto log = UpdateLog::Open(wal_path_);
  BlockSet recovered = BlockSet::OpenLogged(manifest_path_, log.get());
  EXPECT_EQ(recovered.change_number(), 3u);
  EXPECT_EQ(log->base_change_number(), 3u) << "log rebased to the manifest";
  EXPECT_EQ(Serialized(recovered), Serialized(FromFile(manifest_path_)));
  // New writes continue above the checkpoint, durably.
  const auto result = recovered.ApplyBatchUpdate((*batches_)[3]);
  EXPECT_EQ(result.change_number, 4u);
}

}  // namespace
}  // namespace geoblocks
