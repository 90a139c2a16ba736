// Lazy loading (BlockSet::OpenMapped): parity with the eager loader,
// fault-in on first route, typed containment of corrupt payloads and
// injected I/O errors, rejecting a non-empty pending section, updates
// against a mapped set, and WAL crash recovery from a mapped checkpoint.
#include <fcntl.h>
#include <gtest/gtest.h>
#include <unistd.h>

#include <cmath>
#include <cstdint>
#include <cstring>
#include <fstream>
#include <memory>
#include <random>
#include <sstream>
#include <string>
#include <string_view>
#include <vector>

#include "core/block_set.h"
#include "core/geoblock.h"
#include "core/memory_governor.h"
#include "core/serialize.h"
#include "io/update_log.h"
#include "payload_layout.h"
#include "storage/sharded_dataset.h"
#include "util/io_shim.h"
#include "util/thread_pool.h"
#include "workload/datagen.h"
#include "workload/polygen.h"

namespace geoblocks {
namespace core {

/// Reads BlockSet internals for these tests; BlockSet befriends it.
class BlockSetTestPeer {
 public:
  /// Shard `s`'s payload bytes inside the mapping of a lazily opened set
  /// (the bytes a faulted shard's arrays are views of); empty on an eager
  /// set.
  static std::string_view MappedPayload(const BlockSet& set, size_t s) {
    if (set.source_ == nullptr) return {};
    const serialize::SetManifest& m = set.source_->manifest;
    return set.source_->file.View(m.manifest_bytes + m.payload_offsets[s],
                                  m.payload_sizes[s]);
  }
};

}  // namespace core

namespace {

using core::AggFn;
using core::AggregateRequest;
using core::BlockSet;
using core::BlockSetOptions;
using core::BlockSetTestPeer;
using core::GeoBlock;
using core::LazyOpenOptions;
using core::MemoryGovernor;
using core::QueryResult;
using core::ShardFaultError;

class LazyLoadTest : public ::testing::Test {
 protected:
  static constexpr int kLevel = 15;
  static constexpr size_t kShards = 4;

  static void SetUpTestSuite() {
    raw_ = new storage::PointTable(workload::GenTaxi(30000, 21));
    storage::ExtractOptions options;
    options.clean_bounds = workload::NycBounds();
    data_ = new std::shared_ptr<const storage::SortedDataset>(
        std::make_shared<const storage::SortedDataset>(
            storage::SortedDataset::Extract(*raw_, options)));
    polygons_ = new std::vector<geo::Polygon>(
        workload::Neighborhoods(*raw_, 20, 22));
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
    path_ = ::testing::TempDir() + "lazy_load_test_" +
            ::testing::UnitTest::GetInstance()->current_test_info()->name() +
            ".gbst";
    wal_path_ = path_ + ".wal";
  }
  void TearDown() override {
    ::unlink(path_.c_str());
    ::unlink(wal_path_.c_str());
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

  static BlockSet BuildSet(size_t k) {
    storage::ShardOptions options;
    options.num_shards = k;
    options.align_level = kLevel;
    return BlockSet::Build(storage::ShardedDataset::Partition(*data_, options),
                           BlockSetOptions{{kLevel, {}}});
  }

  void WriteFile(const BlockSet& set) const {
    std::ofstream out(path_, std::ios::binary | std::ios::trunc);
    set.WriteTo(out);
  }

  void WriteBytes(const std::string& bytes) const {
    std::ofstream out(path_, std::ios::binary | std::ios::trunc);
    out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  }

  BlockSet Eager() const {
    std::ifstream in(path_, std::ios::binary);
    return BlockSet::ReadFrom(in);
  }

  /// Asserts `lazy` answers every polygon bit-identically to `want`
  /// through the uncached SELECT and COUNT paths (which fold shards in
  /// the same deterministic order on both loaders).
  static void ExpectBitIdentical(const BlockSet& lazy, const BlockSet& want) {
    const AggregateRequest req = Request();
    for (const geo::Polygon& poly : *polygons_) {
      const auto covering = want.Cover(poly);
      const QueryResult a = want.SelectCovering(covering, req);
      const QueryResult b = lazy.SelectCovering(covering, req);
      ASSERT_EQ(a.count, b.count);
      ASSERT_EQ(a.values.size(), b.values.size());
      for (size_t i = 0; i < a.values.size(); ++i) {
        ASSERT_EQ(a.values[i], b.values[i]) << "value " << i;
      }
      ASSERT_EQ(want.CountCovering(covering), lazy.CountCovering(covering));
    }
  }

  std::string ReadFileBytes() const {
    std::ifstream in(path_, std::ios::binary);
    std::ostringstream buf;
    buf << in.rdbuf();
    return std::move(buf).str();
  }

  /// A one-cell covering lying inside shard `s` (taken from the eager
  /// twin, whose blocks are always materialized).
  static std::vector<cell::CellId> ShardCovering(const BlockSet& eager,
                                                 size_t s) {
    const auto& cells = eager.shard(s).cells();
    EXPECT_FALSE(cells.empty());
    return {cell::CellId(cells[cells.size() / 2])};
  }

  /// A polygon strictly inside shard `s`'s middle cell (the cell of
  /// ShardCovering), so it covers that cell alone and routes to shard `s`
  /// only — even by manifest boundaries, before any hull is known.
  static geo::Polygon ShardPolygon(const BlockSet& eager, size_t s) {
    const geo::Rect r = ShardCovering(eager, s).front().ToRect();
    const double dx = (r.max.x - r.min.x) / 4;
    const double dy = (r.max.y - r.min.y) / 4;
    return geo::Polygon::FromRect(eager.projection().FromUnit(geo::Rect{
        {r.min.x + dx, r.min.y + dy}, {r.max.x - dx, r.max.y - dy}}));
  }

  /// Flips one byte in the middle of shard `s`'s payload in the file at
  /// path_; the manifest stays intact, so OpenMapped still succeeds.
  void CorruptShardPayload(size_t s) const {
    std::string bytes = ReadFileBytes();
    core::serialize::SetManifest m;
    {
      std::istringstream in(bytes, std::ios::binary);
      m = core::serialize::ReadSetManifest(in);
    }
    ASSERT_GT(m.payload_sizes[s], 0u);
    bytes[m.manifest_bytes + m.payload_offsets[s] + m.payload_sizes[s] / 2] ^=
        0x5A;
    std::ofstream out(path_, std::ios::binary | std::ios::trunc);
    out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  }

  /// Flips one byte of the file at path_ in place (no truncation), so a
  /// live mapping of the file sees the change.
  void FlipFileByte(size_t at) const {
    const int fd = ::open(path_.c_str(), O_RDWR);
    ASSERT_GE(fd, 0);
    char c = 0;
    ASSERT_EQ(::pread(fd, &c, 1, static_cast<off_t>(at)), 1);
    c ^= 0x5A;
    ASSERT_EQ(::pwrite(fd, &c, 1, static_cast<off_t>(at)), 1);
    ::close(fd);
  }

  /// Asserts every byte of `array` lies inside `payload`.
  template <typename T>
  static void ExpectInside(const core::CellArray<T>& array,
                           std::string_view payload, size_t shard) {
    const char* begin = reinterpret_cast<const char*>(array.begin());
    const char* end = reinterpret_cast<const char*>(array.end());
    EXPECT_GE(begin, payload.data()) << "shard " << shard;
    EXPECT_LE(end, payload.data() + payload.size()) << "shard " << shard;
    EXPECT_EQ(reinterpret_cast<uintptr_t>(begin) % alignof(T), 0u);
  }

  /// Asserts every cell array of `state` owns its bytes.
  static void ExpectAllOwned(const core::BlockState& state) {
    EXPECT_TRUE(state.cells.owned());
    EXPECT_TRUE(state.offsets.owned());
    EXPECT_TRUE(state.counts.owned());
    EXPECT_TRUE(state.min_keys.owned());
    EXPECT_TRUE(state.max_keys.owned());
    EXPECT_TRUE(state.column_aggs.owned());
  }

  /// Asserts no byte of `array` lies inside `payload`.
  template <typename T>
  static void ExpectOutside(const core::CellArray<T>& array,
                            std::string_view payload) {
    const char* begin = reinterpret_cast<const char*>(array.begin());
    const char* end = reinterpret_cast<const char*>(array.end());
    EXPECT_TRUE(end <= payload.data() ||
                begin >= payload.data() + payload.size());
  }

  static storage::PointTable* raw_;
  static std::shared_ptr<const storage::SortedDataset>* data_;
  static std::vector<geo::Polygon>* polygons_;

  std::string path_;
  std::string wal_path_;
};

storage::PointTable* LazyLoadTest::raw_ = nullptr;
std::shared_ptr<const storage::SortedDataset>* LazyLoadTest::data_ = nullptr;
std::vector<geo::Polygon>* LazyLoadTest::polygons_ = nullptr;

TEST_F(LazyLoadTest, MappedAnswersBitIdenticalToEagerAcrossShardCounts) {
  for (const size_t k : {size_t{1}, size_t{4}, size_t{7}}) {
    WriteFile(BuildSet(k));
    const BlockSet eager = Eager();
    const BlockSet mapped = BlockSet::OpenMapped(path_);
    ASSERT_TRUE(mapped.lazy());
    ASSERT_EQ(mapped.num_shards(), k);
    EXPECT_EQ(mapped.level(), eager.level());
    EXPECT_EQ(mapped.align_level(), eager.align_level());
    EXPECT_EQ(mapped.total_rows(), eager.total_rows());
    EXPECT_EQ(mapped.boundaries(), eager.boundaries());
    ExpectBitIdentical(mapped, eager);
    EXPECT_EQ(mapped.num_cells(), eager.num_cells());
    // WriteTo hydrates every cold shard and reproduces the mapped file.
    const BlockSet remapped = BlockSet::OpenMapped(path_);
    std::ostringstream out(std::ios::binary);
    remapped.WriteTo(out);
    EXPECT_EQ(out.str(), ReadFileBytes()) << "k=" << k;
    EXPECT_EQ(remapped.resident_shards(), k);
  }
}

TEST_F(LazyLoadTest, ShardsFaultInOnFirstRouteOnly) {
  WriteFile(BuildSet(kShards));
  const BlockSet eager = Eager();
  const BlockSet mapped = BlockSet::OpenMapped(path_);
  // Only shard 0 (the configuration donor) is materialized at open.
  EXPECT_EQ(mapped.resident_shards(), 1u);
  EXPECT_TRUE(mapped.shard_resident(0));
  for (size_t s = 1; s < kShards; ++s) {
    EXPECT_FALSE(mapped.shard_resident(s)) << "shard " << s;
  }
  const AggregateRequest req = Request();
  // Touch one cold shard: exactly that shard materializes.
  const auto covering = ShardCovering(eager, 2);
  const QueryResult want = eager.SelectCovering(covering, req);
  const QueryResult got = mapped.SelectCovering(covering, req);
  EXPECT_EQ(want.count, got.count);
  EXPECT_TRUE(mapped.shard_resident(2));
  EXPECT_FALSE(mapped.shard_resident(1));
  EXPECT_FALSE(mapped.shard_resident(3));
  // A root covering routes through everything.
  const std::vector<cell::CellId> all{cell::CellId::Root()};
  EXPECT_EQ(mapped.CountCovering(all), eager.CountCovering(all));
  EXPECT_EQ(mapped.resident_shards(), kShards);
  EXPECT_GE(mapped.shard_fault_count(), kShards);
}

TEST_F(LazyLoadTest, CachedQueriesServeFromMappedSet) {
  WriteFile(BuildSet(kShards));
  const BlockSet eager = Eager();
  BlockSet mapped = BlockSet::OpenMapped(path_);
  mapped.EnableCache(core::GeoBlockQC::Options{0.10, 0});
  const AggregateRequest req = Request();
  for (const geo::Polygon& poly : *polygons_) {
    const auto covering = eager.Cover(poly);
    const QueryResult want = eager.SelectCovering(covering, req);
    const QueryResult got = mapped.SelectCoveringCached(covering, req);
    ASSERT_EQ(want.count, got.count);
    ASSERT_EQ(want.values.size(), got.values.size());
    for (size_t i = 0; i < want.values.size(); ++i) {
      ASSERT_NEAR(want.values[i], got.values[i],
                  1e-9 * std::abs(want.values[i]) + 1e-9);
    }
  }
  mapped.RebuildCaches();
  for (const geo::Polygon& poly : *polygons_) {
    const auto covering = eager.Cover(poly);
    ASSERT_EQ(eager.CountCovering(covering),
              mapped.SelectCoveringCached(covering, req).count);
  }
}

TEST_F(LazyLoadTest, CorruptShardPayloadFaultsTypedAndStaysContained) {
  WriteFile(BuildSet(kShards));
  const BlockSet eager = Eager();

  // The damage must surface at fault time, typed.
  CorruptShardPayload(2);
  const BlockSet mapped = BlockSet::OpenMapped(path_);
  const AggregateRequest req = Request();
  const auto bad = ShardCovering(eager, 2);
  try {
    (void)mapped.SelectCovering(bad, req);
    FAIL() << "faulting a corrupt payload must throw";
  } catch (const ShardFaultError& e) {
    EXPECT_EQ(e.shard, 2u);
    EXPECT_NE(std::string(e.what()).find("shard 2"), std::string::npos);
  }
  // The set stays healthy: the damaged shard throws the same way again,
  // every other shard keeps answering bit-identically.
  EXPECT_THROW((void)mapped.SelectCovering(bad, req), ShardFaultError);
  EXPECT_FALSE(mapped.shard_resident(2));
  for (const size_t s : {size_t{0}, size_t{1}, size_t{3}}) {
    const auto good = ShardCovering(eager, s);
    EXPECT_EQ(mapped.SelectCovering(good, req).count,
              eager.SelectCovering(good, req).count)
        << "shard " << s;
  }
}

TEST_F(LazyLoadTest, PooledBatchesOverCorruptShardThrowTypedAndStayContained) {
  WriteFile(BuildSet(kShards));
  const BlockSet eager = Eager();
  CorruptShardPayload(2);
  const BlockSet mapped = BlockSet::OpenMapped(path_);
  std::vector<geo::Polygon> polys;
  for (size_t s = 0; s < kShards; ++s) polys.push_back(ShardPolygon(eager, s));
  std::vector<const geo::Polygon*> all;
  for (const geo::Polygon& p : polys) all.push_back(&p);
  const std::vector<const geo::Polygon*> good = {&polys[0], &polys[1],
                                                 &polys[3]};
  const AggregateRequest req = Request();

  // A query fault on a pool worker reaches the caller as the typed error.
  util::ThreadPool pool(4);
  for (int round = 0; round < 2; ++round) {
    try {
      (void)mapped.ExecuteBatch(core::QueryBatch{all, &req}, &pool);
      FAIL() << "a pooled SELECT over the corrupt shard must throw";
    } catch (const ShardFaultError& e) {
      EXPECT_EQ(e.shard, 2u);
    }
    try {
      util::ParallelFor(&pool, all.size(),
                        [&](size_t i) { (void)mapped.Count(*all[i]); });
      FAIL() << "a pooled COUNT over the corrupt shard must throw";
    } catch (const ShardFaultError& e) {
      EXPECT_EQ(e.shard, 2u);
    }
  }
  EXPECT_FALSE(mapped.shard_resident(2));

  // Shards 0, 1 and 3 keep answering, bit-identically to the eager set.
  const std::vector<QueryResult> selects =
      mapped.ExecuteBatch(core::QueryBatch{good, &req}, &pool);
  std::vector<uint64_t> counts(good.size());
  util::ParallelFor(&pool, good.size(),
                    [&](size_t i) { counts[i] = mapped.Count(*good[i]); });
  for (size_t j = 0; j < good.size(); ++j) {
    const QueryResult want = eager.Select(*good[j], req);
    EXPECT_GT(want.count, 0u) << "query " << j;
    EXPECT_EQ(selects[j].count, want.count) << "query " << j;
    EXPECT_EQ(selects[j].values, want.values) << "query " << j;
    EXPECT_EQ(counts[j], eager.Count(*good[j])) << "query " << j;
  }
}

TEST_F(LazyLoadTest, InjectedPreadErrorsAreContainedAndRetryable) {
  WriteFile(BuildSet(kShards));
  const BlockSet eager = Eager();
  util::FaultShim shim;
  LazyOpenOptions options;
  options.shim = &shim;
  const BlockSet mapped = BlockSet::OpenMapped(path_, options);

  shim.ArmPread(0, EIO);
  const auto covering = ShardCovering(eager, 1);
  const AggregateRequest req = Request();
  try {
    (void)mapped.SelectCovering(covering, req);
    FAIL() << "an injected EIO at fault time must throw";
  } catch (const ShardFaultError& e) {
    EXPECT_EQ(e.shard, 1u);
  }
  EXPECT_FALSE(mapped.shard_resident(1));

  // The device recovers; the same shard faults in cleanly.
  shim.Disarm();
  EXPECT_EQ(mapped.SelectCovering(covering, req).count,
            eager.SelectCovering(covering, req).count);
  EXPECT_TRUE(mapped.shard_resident(1));
  EXPECT_GT(shim.pread_counters().errors, 0u);
}

TEST_F(LazyLoadTest, RejectsNonEmptyPendingSection) {
  // Shard 0's pending count becomes 1, and pending_crc and the manifest
  // CRC are fixed up, so only the empty-section check can fire; both
  // loaders commit nothing and reject the file.
  std::ostringstream saved(std::ios::binary);
  BuildSet(kShards).WriteTo(saved);
  std::string bytes = std::move(saved).str();
  const size_t manifest = core::serialize::ManifestBytes(kShards);
  const size_t section = bytes.size() - 8 * kShards;
  const uint64_t one = 1;
  std::memcpy(bytes.data() + section, &one, 8);
  const uint32_t pending_crc =
      core::serialize::Crc32(std::string_view(bytes).substr(section));
  std::memcpy(bytes.data() + manifest - 8, &pending_crc, 4);
  const uint32_t manifest_crc =
      core::serialize::Crc32(std::string_view(bytes).substr(0, manifest - 4));
  std::memcpy(bytes.data() + manifest - 4, &manifest_crc, 4);
  WriteBytes(bytes);
  const auto expect_rejected = [](const auto& open, const char* loader) {
    try {
      (void)open();
      ADD_FAILURE() << loader << " accepted a non-empty pending section";
    } catch (const std::runtime_error& e) {
      EXPECT_NE(std::string(e.what()).find("pending section not empty"),
                std::string::npos)
          << loader << ": " << e.what();
    }
  };
  expect_rejected([&] { return Eager(); }, "ReadFrom");
  expect_rejected([&] { return BlockSet::OpenMapped(path_); }, "OpenMapped");
}

TEST_F(LazyLoadTest, UpdatesAgainstMappedSetMatchEager) {
  WriteFile(BuildSet(kShards));
  BlockSet eager = Eager();
  BlockSet mapped = BlockSet::OpenMapped(path_);

  // In-cell tuples spread over every shard, applied to both twins.
  std::vector<GeoBlock::UpdateTuple> batch;
  std::mt19937_64 rng(17);
  for (size_t i = 0; i < 200; ++i) {
    const size_t s = rng() % kShards;
    const auto& cells = eager.shard(s).cells();
    const geo::Point unit =
        cell::CellId(cells[rng() % cells.size()]).CenterPoint();
    GeoBlock::UpdateTuple t;
    t.location = (*data_)->projection().FromUnit(unit);
    t.values.assign((*data_)->num_columns(), 0.0);
    for (size_t c = 0; c < t.values.size(); ++c) {
      t.values[c] = static_cast<double>(rng() % 1000) / 10.0;
    }
    batch.push_back(std::move(t));
  }
  const auto want = eager.ApplyBatchUpdate(batch);
  const auto got = mapped.ApplyBatchUpdate(batch);
  EXPECT_EQ(want.applied, got.applied);
  ExpectBitIdentical(mapped, eager);
}

TEST_F(LazyLoadTest, AcknowledgedUpdatesSurviveCrashRecovery) {
  // A mapped set serving with a WAL attached: after a crash (set and log
  // dropped with no checkpoint), OpenLogged over the original manifest
  // replays every acknowledged batch.
  WriteFile(BuildSet(kShards));
  BlockSet eager = Eager();

  std::vector<GeoBlock::UpdateTuple> batch;
  std::mt19937_64 rng(23);
  for (size_t i = 0; i < 100; ++i) {
    const size_t s = rng() % kShards;
    const auto& cells = eager.shard(s).cells();
    const geo::Point unit =
        cell::CellId(cells[rng() % cells.size()]).CenterPoint();
    GeoBlock::UpdateTuple t;
    t.location = (*data_)->projection().FromUnit(unit);
    t.values.assign((*data_)->num_columns(), 2.0);
    batch.push_back(std::move(t));
  }

  uint64_t expected_count = 0;
  const std::vector<cell::CellId> all{cell::CellId::Root()};
  {
    auto log = io::UpdateLog::Open(wal_path_);
    BlockSet mapped = BlockSet::OpenMapped(path_);
    mapped.AttachLog(log.get());
    (void)mapped.ApplyBatchUpdate(batch);
    expected_count = mapped.CountCovering(all);
    mapped.AttachLog(nullptr);
    // Crash: mapped and log die here without a checkpoint.
  }
  auto log = io::UpdateLog::Open(wal_path_);
  const BlockSet recovered = BlockSet::OpenLogged(path_, log.get());
  EXPECT_EQ(recovered.CountCovering(all), expected_count);
  EXPECT_EQ(recovered.CountCovering(all),
            (*data_)->num_rows() + batch.size());
}

// --------------------------------------------------------------------------
// Faults decode from the mapping: a resident shard's arrays are views of its
// CRC-verified payload bytes (docs/ARCHITECTURE.md §Memory governance)
// --------------------------------------------------------------------------

TEST_F(LazyLoadTest, FaultedArraysAliasTheMapping) {
  WriteFile(BuildSet(kShards));
  const BlockSet eager = Eager();
  const BlockSet mapped = BlockSet::OpenMapped(path_);
  const std::vector<cell::CellId> all{cell::CellId::Root()};
  EXPECT_EQ(mapped.CountCovering(all), eager.CountCovering(all));
  for (size_t s = 0; s < kShards; ++s) {
    ASSERT_TRUE(mapped.shard_resident(s)) << "shard " << s;
    const std::string_view payload =
        BlockSetTestPeer::MappedPayload(mapped, s);
    ASSERT_FALSE(payload.empty());
    const std::shared_ptr<const core::BlockState> state =
        mapped.shard(s).StateSnapshot();
    ASSERT_GT(state->num_cells(), 0u);
    ExpectInside(state->cells, payload, s);
    ExpectInside(state->offsets, payload, s);
    ExpectInside(state->counts, payload, s);
    ExpectInside(state->min_keys, payload, s);
    ExpectInside(state->max_keys, payload, s);
    ExpectInside(state->column_aggs, payload, s);
  }
  EXPECT_TRUE(BlockSetTestPeer::MappedPayload(eager, 0).empty());
  ExpectBitIdentical(mapped, eager);
}

TEST_F(LazyLoadTest, FlippedArrayOrPadByteFaultsOnEveryFault) {
  WriteFile(BuildSet(kShards));
  const BlockSet eager = Eager();
  constexpr size_t kShard = 2;
  const std::string good = ReadFileBytes();
  core::serialize::SetManifest m;
  {
    std::istringstream in(good, std::ios::binary);
    m = core::serialize::ReadSetManifest(in);
  }
  const size_t start = m.manifest_bytes + m.payload_offsets[kShard];
  const core::testing::PayloadLayout layout = core::testing::WalkPayloadV3(
      std::string_view(good).substr(start, m.payload_sizes[kShard]));
  const auto covering = ShardCovering(eager, kShard);
  const AggregateRequest req = Request();
  const uint64_t want = eager.SelectCovering(covering, req).count;

  // A byte of the counts array, and the header pad byte at offset 12.
  for (const size_t at : {start + layout.array_offsets[3] + 1,
                          start + layout.pad_offsets.front()}) {
    SCOPED_TRACE("file byte " + std::to_string(at));
    // First fault.
    FlipFileByte(at);
    {
      const BlockSet mapped = BlockSet::OpenMapped(path_);
      EXPECT_THROW((void)mapped.SelectCovering(covering, req),
                   ShardFaultError);
      EXPECT_FALSE(mapped.shard_resident(kShard));
    }
    FlipFileByte(at);

    // Re-fault after eviction: the bytes are verified again, every time.
    MemoryGovernor gov(MemoryGovernor::Options{0});
    LazyOpenOptions options;
    options.governor = &gov;
    const BlockSet mapped = BlockSet::OpenMapped(path_, options);
    EXPECT_EQ(mapped.SelectCovering(covering, req).count, want);
    // Touch shard 0 last: the governor never evicts the most recently
    // used entry.
    (void)mapped.SelectCovering(ShardCovering(eager, 0), req);
    gov.set_budget_bytes(1);
    gov.EnsureBudget();
    ASSERT_FALSE(mapped.shard_resident(kShard));
    FlipFileByte(at);
    EXPECT_THROW((void)mapped.SelectCovering(covering, req), ShardFaultError);
    EXPECT_FALSE(mapped.shard_resident(kShard));
    FlipFileByte(at);
    gov.set_budget_bytes(0);
    EXPECT_EQ(mapped.SelectCovering(covering, req).count, want);
    EXPECT_TRUE(mapped.shard_resident(kShard));
  }
}

TEST_F(LazyLoadTest, UpdateToMappedShardOwnsCommittedArrays) {
  WriteFile(BuildSet(kShards));
  BlockSet eager = Eager();
  BlockSet mapped = BlockSet::OpenMapped(path_);
  constexpr size_t kShard = 1;

  // In-cell tuples for one shard: the commit rewrites every aggregate
  // array and leaves the cell ids alone.
  std::vector<GeoBlock::UpdateTuple> batch;
  std::mt19937_64 rng(29);
  const auto& cells = eager.shard(kShard).cells();
  for (size_t i = 0; i < 50; ++i) {
    GeoBlock::UpdateTuple t;
    t.location = (*data_)->projection().FromUnit(
        cell::CellId(cells[rng() % cells.size()]).CenterPoint());
    t.values.assign((*data_)->num_columns(), 0.0);
    for (size_t c = 0; c < t.values.size(); ++c) {
      t.values[c] = static_cast<double>(rng() % 1000) / 8.0;
    }
    batch.push_back(std::move(t));
  }
  // The eager shard's arrays are views of its load buffer until its first
  // commit.
  ASSERT_FALSE(eager.shard(kShard).StateSnapshot()->cells.owned());
  const size_t cells_before = eager.shard(kShard).num_cells();
  EXPECT_EQ(eager.ApplyBatchUpdate(batch).applied, batch.size());
  EXPECT_EQ(mapped.ApplyBatchUpdate(batch).applied, batch.size());
  EXPECT_EQ(eager.shard(kShard).num_cells(), cells_before);

  // Every committed array is owned, the unchanged cell ids included: the
  // first commit copies them out of the mapping, or the eager load buffer,
  // so neither stays pinned by the updated shard.
  ExpectAllOwned(*eager.shard(kShard).StateSnapshot());
  const std::string_view payload =
      BlockSetTestPeer::MappedPayload(mapped, kShard);
  const std::shared_ptr<const core::BlockState> state =
      mapped.shard(kShard).StateSnapshot();
  ExpectAllOwned(*state);
  ExpectOutside(state->cells, payload);
  ExpectOutside(state->counts, payload);
  ExpectOutside(state->column_aggs, payload);
  ExpectBitIdentical(mapped, eager);

  // WriteTo of the updated set round-trips.
  std::stringstream out(std::ios::in | std::ios::out | std::ios::binary);
  mapped.WriteTo(out);
  const BlockSet reloaded = BlockSet::ReadFrom(out);
  ExpectBitIdentical(reloaded, eager);
}

TEST_F(LazyLoadTest, PinnedStateOutlivesTheSet) {
  WriteFile(BuildSet(kShards));
  const BlockSet eager = Eager();
  constexpr size_t kShard = 3;
  const auto covering = ShardCovering(eager, kShard);
  const AggregateRequest req = Request();
  std::shared_ptr<const core::BlockState> pinned;
  {
    const BlockSet mapped = BlockSet::OpenMapped(path_);
    (void)mapped.SelectCovering(covering, req);
    pinned = mapped.shard(kShard).StateSnapshot();
    ASSERT_FALSE(pinned->evicted);
  }
  // The set and its file are gone; the pinned state's arrays co-own the
  // mapping, so it still answers, bit-identically.
  ::unlink(path_.c_str());
  const QueryResult want =
      eager.shard(kShard).StateSnapshot()->SelectCovering(covering, req);
  const QueryResult got = pinned->SelectCovering(covering, req);
  EXPECT_GT(want.count, 0u);
  EXPECT_EQ(got.count, want.count);
  EXPECT_EQ(got.values, want.values);
  EXPECT_EQ(pinned->CountCovering(covering),
            eager.shard(kShard).StateSnapshot()->CountCovering(covering));
}

}  // namespace
}  // namespace geoblocks
