// The durable update log in isolation: record round trips, change-number
// monotonicity across reopen, torn-tail truncation, corruption rejection,
// group commit under concurrency, checkpoint truncation, and the crash
// modes injected through util::FaultShim (a pwrite byte budget and a
// refused fsync).
#include <gtest/gtest.h>

#include <sys/stat.h>
#include <unistd.h>

#include <atomic>
#include <cerrno>
#include <cstdio>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

#include "core/geoblock.h"
#include "core/serialize.h"
#include "io/update_log.h"
#include "util/io_shim.h"

namespace geoblocks {
namespace {

using core::GeoBlock;
using io::UpdateLog;

class UpdateLogTest : public ::testing::Test {
 protected:
  void SetUp() override {
    path_ = ::testing::TempDir() + "update_log_test_" +
            ::testing::UnitTest::GetInstance()->current_test_info()->name() +
            ".wal";
    ::unlink(path_.c_str());
  }
  void TearDown() override { ::unlink(path_.c_str()); }

  /// A deterministic batch; `seed` varies the contents.
  static std::vector<GeoBlock::UpdateTuple> MakeBatch(size_t count,
                                                      uint64_t seed) {
    std::vector<GeoBlock::UpdateTuple> batch(count);
    for (size_t i = 0; i < count; ++i) {
      batch[i].location = {0.001 * static_cast<double>(seed + i),
                           0.002 * static_cast<double>(seed + 2 * i)};
      batch[i].values = {static_cast<double>(seed), static_cast<double>(i)};
    }
    return batch;
  }

  uint64_t FileSize() const {
    struct stat st {};
    EXPECT_EQ(::stat(path_.c_str(), &st), 0);
    return static_cast<uint64_t>(st.st_size);
  }

  std::string ReadFileBytes() const {
    std::ifstream in(path_, std::ios::binary);
    return std::string(std::istreambuf_iterator<char>(in),
                       std::istreambuf_iterator<char>());
  }

  void WriteFileBytes(const std::string& bytes) const {
    std::ofstream out(path_, std::ios::binary | std::ios::trunc);
    out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  }

  /// Replays everything above `after` into a vector of (cn, batch).
  static std::vector<std::pair<uint64_t, std::vector<GeoBlock::UpdateTuple>>>
  Collect(UpdateLog& log, uint64_t after = 0) {
    std::vector<std::pair<uint64_t, std::vector<GeoBlock::UpdateTuple>>> out;
    log.Replay(after, [&](uint64_t cn,
                          std::vector<GeoBlock::UpdateTuple>&& tuples) {
      out.emplace_back(cn, std::move(tuples));
    });
    return out;
  }

  std::string path_;
};

TEST_F(UpdateLogTest, AppendAssignsMonotoneChangeNumbers) {
  auto log = UpdateLog::Open(path_);
  EXPECT_EQ(log->base_change_number(), 0u);
  for (uint64_t i = 1; i <= 5; ++i) {
    EXPECT_EQ(log->Append(MakeBatch(3, i)), i);
  }
  EXPECT_EQ(log->last_change_number(), 5u);
  EXPECT_EQ(log->durable_change_number(), 5u);
  const UpdateLog::Stats stats = log->stats();
  EXPECT_EQ(stats.records_appended, 5u);
  EXPECT_GE(stats.groups_committed, 1u);
  EXPECT_LE(stats.groups_committed, 5u);
}

TEST_F(UpdateLogTest, ReplayReturnsEveryRecordVerbatim) {
  {
    auto log = UpdateLog::Open(path_);
    for (uint64_t i = 1; i <= 4; ++i) log->Append(MakeBatch(i, 10 * i));
  }
  auto log = UpdateLog::Open(path_);
  const auto records = Collect(*log);
  ASSERT_EQ(records.size(), 4u);
  for (uint64_t i = 1; i <= 4; ++i) {
    EXPECT_EQ(records[i - 1].first, i);
    const auto want = MakeBatch(i, 10 * i);
    const auto& got = records[i - 1].second;
    ASSERT_EQ(got.size(), want.size());
    for (size_t t = 0; t < want.size(); ++t) {
      EXPECT_EQ(got[t].location.x, want[t].location.x);
      EXPECT_EQ(got[t].location.y, want[t].location.y);
      EXPECT_EQ(got[t].values, want[t].values);
    }
  }
}

TEST_F(UpdateLogTest, ReplaySkipsRecordsAtOrBelowTheFloor) {
  {
    auto log = UpdateLog::Open(path_);
    for (uint64_t i = 1; i <= 5; ++i) log->Append(MakeBatch(2, i));
  }
  auto log = UpdateLog::Open(path_);
  UpdateLog::ReplayResult result =
      log->Replay(3, [](uint64_t cn, std::vector<GeoBlock::UpdateTuple>&&) {
        EXPECT_GT(cn, 3u);
      });
  EXPECT_EQ(result.records_applied, 2u);
  EXPECT_EQ(result.records_skipped, 3u);
  EXPECT_EQ(result.last_change_number, 5u);
  EXPECT_FALSE(result.torn_tail);
}

TEST_F(UpdateLogTest, ReplayAfterAppendIsALogicError) {
  auto log = UpdateLog::Open(path_);
  log->Append(MakeBatch(1, 1));
  EXPECT_THROW(
      log->Replay(0, [](uint64_t, std::vector<GeoBlock::UpdateTuple>&&) {}),
      std::logic_error);
}

TEST_F(UpdateLogTest, ReopenContinuesChangeNumbers) {
  {
    auto log = UpdateLog::Open(path_);
    for (uint64_t i = 1; i <= 3; ++i) log->Append(MakeBatch(1, i));
  }
  auto log = UpdateLog::Open(path_);
  EXPECT_EQ(log->last_change_number(), 3u);
  EXPECT_EQ(log->Append(MakeBatch(1, 99)), 4u);
}

TEST_F(UpdateLogTest, EmptyBatchMakesAValidRecord) {
  {
    auto log = UpdateLog::Open(path_);
    EXPECT_EQ(log->Append({}), 1u);
  }
  auto log = UpdateLog::Open(path_);
  const auto records = Collect(*log);
  ASSERT_EQ(records.size(), 1u);
  EXPECT_TRUE(records[0].second.empty());
}

TEST_F(UpdateLogTest, TornTailBytesAreTruncatedOnOpen) {
  {
    auto log = UpdateLog::Open(path_);
    for (uint64_t i = 1; i <= 3; ++i) log->Append(MakeBatch(2, i));
  }
  // A crash mid-append leaves a partial record header at the tail.
  const uint64_t intact = FileSize();
  {
    std::ofstream out(path_, std::ios::binary | std::ios::app);
    out.write("torn record", 11);
  }
  auto log = UpdateLog::Open(path_);
  EXPECT_EQ(FileSize(), intact);
  const auto records = Collect(*log);
  EXPECT_EQ(records.size(), 3u);
  EXPECT_EQ(log->Append(MakeBatch(1, 9)), 4u);
}

TEST_F(UpdateLogTest, TruncatedRecordIsDroppedOnOpen) {
  uint64_t two_records = 0;
  {
    auto log = UpdateLog::Open(path_);
    log->Append(MakeBatch(2, 1));
    log->Append(MakeBatch(2, 2));
    two_records = FileSize();
    log->Append(MakeBatch(2, 3));
  }
  // Cut the last record a few bytes short: power loss mid-write.
  std::string bytes = ReadFileBytes();
  bytes.resize(bytes.size() - 3);
  WriteFileBytes(bytes);
  auto log = UpdateLog::Open(path_);
  EXPECT_EQ(FileSize(), two_records);
  const auto records = Collect(*log);
  ASSERT_EQ(records.size(), 2u);
  EXPECT_EQ(log->last_change_number(), 2u);
}

TEST_F(UpdateLogTest, FlippedPayloadCrcEndsTheLogAtThatRecord) {
  std::vector<uint64_t> ends;
  {
    auto log = UpdateLog::Open(path_);
    for (uint64_t i = 1; i <= 3; ++i) {
      log->Append(MakeBatch(2, i));
      ends.push_back(FileSize());
    }
  }
  // Flip one payload byte of the middle record: the scan must stop there,
  // dropping it and everything after (the log's prefix-validity contract).
  std::string bytes = ReadFileBytes();
  bytes[ends[0] + core::serialize::kWalRecordHeaderBytes + 4] ^= 0x01;
  WriteFileBytes(bytes);
  auto log = UpdateLog::Open(path_);
  EXPECT_EQ(FileSize(), ends[0]);
  const auto records = Collect(*log);
  ASSERT_EQ(records.size(), 1u);
  EXPECT_EQ(records[0].first, 1u);
}

TEST_F(UpdateLogTest, CorruptFileHeaderIsRejectedNotTruncated) {
  {
    auto log = UpdateLog::Open(path_);
    log->Append(MakeBatch(1, 1));
  }
  std::string bytes = ReadFileBytes();
  bytes[0] ^= 0x5A;  // magic
  WriteFileBytes(bytes);
  EXPECT_THROW(UpdateLog::Open(path_), std::runtime_error);
}

TEST_F(UpdateLogTest, ShortFileIsReinitialized) {
  WriteFileBytes("tiny");
  auto log = UpdateLog::Open(path_);
  EXPECT_EQ(log->base_change_number(), 0u);
  EXPECT_EQ(FileSize(), core::serialize::kWalHeaderBytes);
  EXPECT_EQ(log->Append(MakeBatch(1, 1)), 1u);
}

TEST_F(UpdateLogTest, TruncateDiscardsRecordsAndRebases) {
  auto log = UpdateLog::Open(path_);
  for (uint64_t i = 1; i <= 3; ++i) log->Append(MakeBatch(2, i));
  log->Truncate(3);
  EXPECT_EQ(log->base_change_number(), 3u);
  EXPECT_EQ(FileSize(), core::serialize::kWalHeaderBytes);
  EXPECT_EQ(log->Append(MakeBatch(1, 7)), 4u);
  log.reset();

  auto reopened = UpdateLog::Open(path_);
  EXPECT_EQ(reopened->base_change_number(), 3u);
  const auto records = Collect(*reopened, 3);
  ASSERT_EQ(records.size(), 1u);
  EXPECT_EQ(records[0].first, 4u);
}

TEST_F(UpdateLogTest, TruncateBelowLastRecordIsALogicError) {
  auto log = UpdateLog::Open(path_);
  for (uint64_t i = 1; i <= 3; ++i) log->Append(MakeBatch(1, i));
  EXPECT_THROW(log->Truncate(2), std::logic_error);
}

TEST_F(UpdateLogTest, ConcurrentAppendersGetUniqueDurableRecords) {
  constexpr size_t kThreads = 8;
  constexpr size_t kPerThread = 40;
  {
    UpdateLog::Options options;
    options.max_pending_bytes = 512;  // force backpressure + many groups
    auto log = UpdateLog::Open(path_, options);
    std::vector<std::thread> threads;
    std::atomic<size_t> appended{0};
    for (size_t t = 0; t < kThreads; ++t) {
      threads.emplace_back([&, t] {
        for (size_t i = 0; i < kPerThread; ++i) {
          log->Append(MakeBatch(3, t * 1000 + i));
          appended.fetch_add(1, std::memory_order_relaxed);
        }
      });
    }
    for (std::thread& th : threads) th.join();
    EXPECT_EQ(appended.load(), kThreads * kPerThread);
    const UpdateLog::Stats stats = log->stats();
    EXPECT_EQ(stats.records_appended, kThreads * kPerThread);
    EXPECT_LE(stats.groups_committed, stats.records_appended);
    EXPECT_EQ(log->durable_change_number(), kThreads * kPerThread);
  }
  auto log = UpdateLog::Open(path_);
  const auto records = Collect(*log);
  ASSERT_EQ(records.size(), kThreads * kPerThread);
  for (size_t i = 0; i < records.size(); ++i) {
    EXPECT_EQ(records[i].first, i + 1) << "change numbers must be dense";
  }
}

TEST_F(UpdateLogTest, InjectedWriteCrashFailsTheLogPermanently) {
  util::FaultShim shim;
  UpdateLog::Options options;
  options.shim = &shim;
  auto log = UpdateLog::Open(path_, options);
  log->Append(MakeBatch(2, 1));
  shim.ArmPwrite(5, EIO);  // the next record tears after 5 bytes
  EXPECT_THROW(log->Append(MakeBatch(2, 2)), std::runtime_error);
  EXPECT_GT(shim.pwrite_counters().errors, 0u);
  EXPECT_TRUE(log->failed());
  // Dead like a crashed process: later appends throw too.
  EXPECT_THROW(log->Append(MakeBatch(1, 3)), std::runtime_error);
  log.reset();

  // Recovery: the torn second record is cut; the first survives.
  auto reopened = UpdateLog::Open(path_);
  const auto records = Collect(*reopened);
  ASSERT_EQ(records.size(), 1u);
  EXPECT_EQ(reopened->last_change_number(), 1u);
}

TEST_F(UpdateLogTest, CrashBetweenFsyncAndAckLeavesADurableUnackedRecord) {
  util::FaultShim shim;
  UpdateLog::Options options;
  options.shim = &shim;
  auto log = UpdateLog::Open(path_, options);
  log->Append(MakeBatch(2, 1));
  shim.ArmFsync(0, EIO);
  // The record reaches the file but its fsync is refused, so the writer
  // dies before acknowledging and Append must throw.
  EXPECT_THROW(log->Append(MakeBatch(2, 2)), std::runtime_error);
  EXPECT_EQ(shim.fsync_counters().errors, 1u);
  EXPECT_EQ(log->durable_change_number(), 1u) << "never acknowledged";
  log.reset();

  // Recovery finds BOTH records: at-least-once, never silent loss.
  auto reopened = UpdateLog::Open(path_);
  const auto records = Collect(*reopened);
  ASSERT_EQ(records.size(), 2u);
  EXPECT_EQ(records[1].first, 2u);
}

}  // namespace
}  // namespace geoblocks
