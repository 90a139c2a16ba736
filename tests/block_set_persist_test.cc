// Persistence of the sharded engine: BlockSet::WriteTo/ReadFrom round
// trips, the byte-level manifest contract (docs/FORMAT.md), corruption
// handling, and the AttachDataset/DetachDataset state machine.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <memory>
#include <random>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/block_set.h"
#include "core/geoblock.h"
#include "core/serialize.h"
#include "payload_layout.h"
#include "pending_splice.h"
#include "storage/sharded_dataset.h"
#include "workload/datagen.h"
#include "workload/polygen.h"

namespace geoblocks {
namespace {

using core::AggFn;
using core::AggregateRequest;
using core::BlockSet;
using core::BlockSetOptions;
using core::QueryResult;

class BlockSetPersistTest : public ::testing::Test {
 protected:
  static constexpr int kLevel = 15;

  static void SetUpTestSuite() {
    raw_ = new storage::PointTable(workload::GenTaxi(30000, 21));
    storage::ExtractOptions options;
    options.clean_bounds = workload::NycBounds();
    data_ = new std::shared_ptr<const storage::SortedDataset>(
        std::make_shared<const storage::SortedDataset>(
            storage::SortedDataset::Extract(*raw_, options)));
    polygons_ = new std::vector<geo::Polygon>(
        workload::Neighborhoods(*raw_, 25, 22));
  }
  static void TearDownTestSuite() {
    delete polygons_;
    delete data_;
    delete raw_;
    polygons_ = nullptr;
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

  /// Checks a K-shard WriteTo image byte for byte against the manifest
  /// layout documented in docs/FORMAT.md.
  void ExpectDocumentedManifest(size_t kShards);

  static storage::ShardedDataset Shard(size_t k, int align_level = kLevel) {
    storage::ShardOptions options;
    options.num_shards = k;
    options.align_level = align_level;
    return storage::ShardedDataset::Partition(*data_, options);
  }

  static BlockSet BuildSet(size_t k, int align_level = kLevel,
                           storage::Filter filter = {}) {
    return BlockSet::Build(Shard(k, align_level),
                           BlockSetOptions{{kLevel, std::move(filter)}});
  }

  static std::string Serialized(const BlockSet& set) {
    std::ostringstream out(std::ios::binary);
    set.WriteTo(out);
    return std::move(out).str();
  }

  static BlockSet Deserialized(const std::string& bytes) {
    std::istringstream in(bytes, std::ios::binary);
    return BlockSet::ReadFrom(in);
  }

  static void ExpectBitIdenticalAnswers(const BlockSet& loaded,
                                        const BlockSet& original,
                                        const char* what) {
    const AggregateRequest req = Request();
    for (const geo::Polygon& poly : *polygons_) {
      const QueryResult a = original.Select(poly, req);
      const QueryResult b = loaded.Select(poly, req);
      ASSERT_EQ(a.count, b.count) << what;
      ASSERT_EQ(a.values.size(), b.values.size()) << what;
      for (size_t i = 0; i < a.values.size(); ++i) {
        ASSERT_EQ(a.values[i], b.values[i]) << what << " value " << i;
      }
      ASSERT_EQ(original.Count(poly), loaded.Count(poly)) << what;
    }
  }

  static storage::PointTable* raw_;
  static std::shared_ptr<const storage::SortedDataset>* data_;
  static std::vector<geo::Polygon>* polygons_;
};

storage::PointTable* BlockSetPersistTest::raw_ = nullptr;
std::shared_ptr<const storage::SortedDataset>* BlockSetPersistTest::data_ =
    nullptr;
std::vector<geo::Polygon>* BlockSetPersistTest::polygons_ = nullptr;

// --------------------------------------------------------------------------
// Round trips
// --------------------------------------------------------------------------

TEST_F(BlockSetPersistTest, RoundTripBitIdenticalAcrossShardCounts) {
  for (const size_t k : {size_t{1}, size_t{4}, size_t{7}, size_t{16}}) {
    const BlockSet set = BuildSet(k);
    const BlockSet loaded = Deserialized(Serialized(set));
    ASSERT_EQ(loaded.num_shards(), k);
    EXPECT_EQ(loaded.level(), set.level());
    EXPECT_EQ(loaded.align_level(), kLevel);
    EXPECT_EQ(loaded.total_rows(), (*data_)->num_rows());
    EXPECT_EQ(loaded.boundaries(), set.boundaries());
    EXPECT_EQ(loaded.num_cells(), set.num_cells());
    EXPECT_FALSE(loaded.dataset_attached());
    ExpectBitIdenticalAnswers(loaded, set, "round trip");
    // Built and eagerly loaded sets keep residency records like a mapped
    // set, but every shard is resident and none was ever faulted in.
    for (const BlockSet* s : {&set, &loaded}) {
      EXPECT_FALSE(s->lazy());
      EXPECT_EQ(s->resident_shards(), s->num_shards());
      for (size_t i = 0; i < s->num_shards(); ++i) {
        EXPECT_TRUE(s->shard_resident(i)) << "k=" << k << " shard " << i;
      }
      EXPECT_EQ(s->shard_fault_count(), 0u);
    }
  }
}

TEST_F(BlockSetPersistTest, RoundTripWithEmptyShards) {
  // Coarse alignment snaps several boundaries onto the same cell start,
  // leaving later shards empty; the manifest must preserve them.
  const storage::ShardedDataset sharded = Shard(6, 6);
  size_t empty = 0;
  for (size_t s = 0; s < sharded.num_shards(); ++s) {
    if (sharded.shard(s).num_rows() == 0) ++empty;
  }
  ASSERT_GT(empty, 0u) << "expected coarse alignment to yield empty shards";
  const BlockSet set = BlockSet::Build(sharded, BlockSetOptions{{kLevel, {}}});
  const BlockSet loaded = Deserialized(Serialized(set));
  ASSERT_EQ(loaded.num_shards(), set.num_shards());
  for (size_t s = 0; s < loaded.num_shards(); ++s) {
    EXPECT_EQ(loaded.shard(s).num_cells(), set.shard(s).num_cells());
  }
  ExpectBitIdenticalAnswers(loaded, set, "empty shards");
}

TEST_F(BlockSetPersistTest, RoundTripPreservesFilter) {
  storage::Filter filter;
  filter.Add({0, storage::CompareOp::kGe, 10.0});
  filter.Add({2, storage::CompareOp::kLt, 4.0});
  const BlockSet set = BuildSet(4, kLevel, filter);
  const BlockSet loaded = Deserialized(Serialized(set));
  for (size_t s = 0; s < loaded.num_shards(); ++s) {
    const auto& predicates = loaded.shard(s).filter().predicates();
    ASSERT_EQ(predicates.size(), 2u);
    EXPECT_EQ(predicates[0].column, 0);
    EXPECT_EQ(predicates[0].op, storage::CompareOp::kGe);
    EXPECT_EQ(predicates[0].value, 10.0);
    EXPECT_EQ(predicates[1].column, 2);
    EXPECT_EQ(predicates[1].op, storage::CompareOp::kLt);
    EXPECT_EQ(predicates[1].value, 4.0);
  }
  ExpectBitIdenticalAnswers(loaded, set, "filtered set");
}

TEST_F(BlockSetPersistTest, ReserializationIsByteIdentical) {
  const BlockSet set = BuildSet(4);
  const std::string first = Serialized(set);
  const BlockSet loaded = Deserialized(first);
  // Persisting is deterministic, so save -> load -> save reproduces the
  // exact bytes — the strongest round-trip statement available.
  EXPECT_EQ(Serialized(loaded), first);
}

TEST_F(BlockSetPersistTest, LoadedSetSupportsBatchAndCachePaths) {
  // Each execution path must answer bit-identically to the same path on
  // the pre-save set.
  BlockSet set = BuildSet(4);
  BlockSet loaded = Deserialized(Serialized(set));
  const AggregateRequest req = Request();
  const core::QueryBatch batch = core::QueryBatch::Of(*polygons_, &req);
  const auto want_batch = set.ExecuteBatch(batch, nullptr);
  const auto got_batch = loaded.ExecuteBatch(batch, nullptr);
  set.EnableCache({});
  loaded.EnableCache({});
  for (size_t i = 0; i < polygons_->size(); ++i) {
    ASSERT_EQ(got_batch[i].count, want_batch[i].count);
    ASSERT_EQ(got_batch[i].values, want_batch[i].values);
    const QueryResult want_cached = set.SelectCached((*polygons_)[i], req);
    const QueryResult got_cached = loaded.SelectCached((*polygons_)[i], req);
    ASSERT_EQ(got_cached.count, want_cached.count);
    ASSERT_EQ(got_cached.values, want_cached.values);
  }
}

// --------------------------------------------------------------------------
// Attach/detach state machine
// --------------------------------------------------------------------------

TEST_F(BlockSetPersistTest, DetachedRefinementThrowsUntilAttach) {
  BlockSet loaded = Deserialized(Serialized(BuildSet(4)));
  ASSERT_FALSE(loaded.dataset_attached());
  // Coarsening works off the aggregates alone; refining needs base rows.
  EXPECT_NO_THROW(loaded.shard(0).CoarsenTo(kLevel - 3));
  EXPECT_THROW(loaded.shard(0).CoarsenTo(kLevel + 2), std::logic_error);

  loaded.AttachDataset(*data_);
  EXPECT_TRUE(loaded.dataset_attached());
  const core::GeoBlock refined = loaded.shard(0).CoarsenTo(kLevel + 2);
  EXPECT_EQ(refined.header().global.count,
            loaded.shard(0).header().global.count);

  loaded.DetachDataset();
  EXPECT_FALSE(loaded.dataset_attached());
  EXPECT_THROW(loaded.shard(0).CoarsenTo(kLevel + 2), std::logic_error);
}

TEST_F(BlockSetPersistTest, AttachedRefinementMatchesDirectBuild) {
  const int fine = kLevel + 2;
  BlockSet loaded = Deserialized(Serialized(BuildSet(4)));
  loaded.AttachDataset(*data_);
  const core::GeoBlock direct = core::GeoBlock::Build(
      storage::DatasetView::Window(*data_, loaded.shard(1).dataset().offset(),
                                   loaded.shard(1).dataset().offset() +
                                       loaded.shard(1).dataset().num_rows()),
      core::BlockOptions{fine, {}});
  const core::GeoBlock refined = loaded.shard(1).CoarsenTo(fine);
  EXPECT_EQ(refined.cells(), direct.cells());
  EXPECT_EQ(refined.counts(), direct.counts());
}

TEST_F(BlockSetPersistTest, AttachValidatesDatasetAgainstManifest) {
  BlockSet loaded = Deserialized(Serialized(BuildSet(4)));
  // Null dataset.
  EXPECT_THROW(loaded.AttachDataset(nullptr), std::invalid_argument);
  // Wrong row count.
  const auto truncated = std::make_shared<const storage::SortedDataset>(
      (*data_)->Slice(0, (*data_)->num_rows() / 2));
  EXPECT_THROW(loaded.AttachDataset(truncated), std::runtime_error);
  // A different dataset with a different key distribution.
  const storage::PointTable other_raw = workload::GenTaxi(30000, 99);
  storage::ExtractOptions options;
  options.clean_bounds = workload::NycBounds();
  const auto other = std::make_shared<const storage::SortedDataset>(
      storage::SortedDataset::Extract(other_raw, options));
  EXPECT_THROW(loaded.AttachDataset(other), std::runtime_error);
  // The original dataset attaches fine — and a second attach is an error.
  loaded.AttachDataset(*data_);
  EXPECT_THROW(loaded.AttachDataset(*data_), std::logic_error);
  // A freshly built set is already attached.
  BlockSet built = BuildSet(2);
  EXPECT_THROW(built.AttachDataset(*data_), std::logic_error);
}

TEST_F(BlockSetPersistTest, EmptySetCannotBePersistedOrAttached) {
  const BlockSet empty;
  std::ostringstream out(std::ios::binary);
  EXPECT_THROW(empty.WriteTo(out), std::logic_error);
  BlockSet empty2;
  EXPECT_THROW(empty2.AttachDataset(*data_), std::logic_error);
}

// --------------------------------------------------------------------------
// Corruption: every malformed input throws, never UB
// --------------------------------------------------------------------------

TEST_F(BlockSetPersistTest, RejectsBadMagic) {
  std::string bytes = Serialized(BuildSet(4));
  bytes[0] ^= 0x5A;
  EXPECT_THROW(Deserialized(bytes), std::runtime_error);
}

TEST_F(BlockSetPersistTest, RejectsNonzeroFlags) {
  // All flag bits are reserved; a reader that does not implement the
  // capability a bit announces must reject, not ignore (docs/FORMAT.md).
  std::string bytes = Serialized(BuildSet(4));
  bytes[8] = 0x01;
  EXPECT_THROW(Deserialized(bytes), std::runtime_error);
}

TEST_F(BlockSetPersistTest, RejectsWrongVersion) {
  std::string bytes = Serialized(BuildSet(4));
  bytes[4] = 99;
  EXPECT_THROW(Deserialized(bytes), std::runtime_error);
}

TEST_F(BlockSetPersistTest, RejectsFlippedManifestChecksumByte) {
  const BlockSet set = BuildSet(4);
  std::string bytes = Serialized(set);
  const size_t manifest_size = core::testing::ManifestBytes(set.num_shards());
  // Flip one byte of the stored manifest CRC.
  bytes[manifest_size - 1] ^= 0x01;
  EXPECT_THROW(Deserialized(bytes), std::runtime_error);
  // ...and one byte of a checksummed manifest field (a boundary key).
  std::string bytes2 = Serialized(set);
  bytes2[40] ^= 0x01;
  EXPECT_THROW(Deserialized(bytes2), std::runtime_error);
}

TEST_F(BlockSetPersistTest, RejectsCorruptShardPayload) {
  const BlockSet set = BuildSet(4);
  std::string bytes = Serialized(set);
  const size_t manifest_size = core::testing::ManifestBytes(set.num_shards());
  // Flip a byte in the middle of the payload area: the per-shard CRC check
  // must catch it before the payload is parsed.
  bytes[manifest_size + (bytes.size() - manifest_size) / 2] ^= 0x01;
  EXPECT_THROW(Deserialized(bytes), std::runtime_error);
}

TEST_F(BlockSetPersistTest, RejectsTruncation) {
  const std::string bytes = Serialized(BuildSet(4));
  // Truncations everywhere: inside the fixed prefix, inside the manifest
  // arrays, at the payload boundary, and mid-payload.
  for (const size_t keep :
       {size_t{10}, size_t{40}, core::testing::ManifestBytes(4) - 2,
        core::testing::ManifestBytes(4),
        bytes.size() / 2, bytes.size() - 1}) {
    ASSERT_LT(keep, bytes.size());
    EXPECT_THROW(Deserialized(bytes.substr(0, keep)), std::runtime_error)
        << "kept " << keep << " of " << bytes.size() << " bytes";
  }
}

TEST_F(BlockSetPersistTest, RejectsImplausibleShardCount) {
  std::string bytes = Serialized(BuildSet(4));
  const uint64_t absurd = uint64_t{1} << 40;
  std::memcpy(bytes.data() + 16, &absurd, 8);
  EXPECT_THROW(Deserialized(bytes), std::runtime_error);
}

TEST_F(BlockSetPersistTest, RejectsGarbage) {
  std::istringstream garbage("definitely not a block set", std::ios::binary);
  EXPECT_THROW(BlockSet::ReadFrom(garbage), std::runtime_error);
}

// --------------------------------------------------------------------------
// v2 additions: pending section, change number, exact state-row cross-check
// --------------------------------------------------------------------------

/// Tuples located inside cells shard 0 already aggregates.
std::vector<core::GeoBlock::UpdateTuple> InCellBatchFor(
    const BlockSet& set, const storage::SortedDataset& data, size_t count,
    uint64_t seed) {
  std::mt19937_64 rng(seed);
  const auto& cells = set.shard(0).cells();
  std::vector<core::GeoBlock::UpdateTuple> batch;
  for (size_t i = 0; i < count; ++i) {
    const geo::Point unit =
        cell::CellId(cells[rng() % cells.size()]).CenterPoint();
    core::GeoBlock::UpdateTuple t;
    t.location = data.projection().FromUnit(unit);
    t.values.assign(data.num_columns(), 1.5);
    batch.push_back(std::move(t));
  }
  return batch;
}

/// Tuples in distinct cells no shard aggregates yet (new regions): each
/// commit creates their cell aggregates.
std::vector<core::GeoBlock::UpdateTuple> NewRegionBatchFor(
    const BlockSet& set, const storage::SortedDataset& data, size_t count,
    uint64_t seed) {
  std::vector<uint64_t> covered;
  for (size_t s = 0; s < set.num_shards(); ++s) {
    const auto& cells = set.shard(s).cells();
    covered.insert(covered.end(), cells.begin(), cells.end());
  }
  std::sort(covered.begin(), covered.end());
  std::mt19937_64 rng(seed);
  std::vector<core::GeoBlock::UpdateTuple> batch;
  std::vector<uint64_t> used;
  while (batch.size() < count) {
    const double x = (static_cast<double>(rng() % 100000) + 0.5) / 100000.0;
    const double y = (static_cast<double>(rng() % 100000) + 0.5) / 100000.0;
    const cell::CellId cell =
        cell::CellId::FromPoint({x, y}).Parent(set.level());
    if (std::binary_search(covered.begin(), covered.end(), cell.id())) {
      continue;
    }
    if (std::binary_search(used.begin(), used.end(), cell.id())) continue;
    used.insert(std::lower_bound(used.begin(), used.end(), cell.id()),
                cell.id());
    core::GeoBlock::UpdateTuple t;
    t.location = data.projection().FromUnit(cell.CenterPoint());
    t.values.assign(data.num_columns(), 1.0);
    batch.push_back(std::move(t));
  }
  return batch;
}

TEST_F(BlockSetPersistTest, PendingUpdatesSurviveSaveLoad) {
  // An older writer kept new-region tuples in the pending section; the
  // reader commits them at load. The file's change number is nonzero, as
  // any file holding pending tuples had: they came from update batches.
  BlockSet set = BuildSet(4);
  set.ApplyBatchUpdate(InCellBatchFor(set, **data_, 10, 4));
  const auto fresh = NewRegionBatchFor(set, **data_, 24, 5);
  const std::string bytes =
      core::testing::SplicePendingSection(Serialized(set), set, fresh);
  BlockSet loaded = Deserialized(bytes);

  // Committing the same tuples to the saved set gives the same answers,
  // bit for bit: each shard folds its tuples in their saved order.
  set.ApplyBatchUpdate(fresh);
  const std::vector<cell::CellId> all{cell::CellId::Root()};
  EXPECT_EQ(loaded.CountCovering(all),
            (*data_)->num_rows() + 10 + fresh.size());
  ExpectBitIdenticalAnswers(loaded, set, "committed pending");

  // The writer leaves the section empty, and the rewritten file reloads
  // to the same answers and reserializes byte-identically.
  const std::string again = Serialized(loaded);
  EXPECT_TRUE(core::testing::PendingSectionIsEmpty(again, 4));
  const BlockSet reloaded = Deserialized(again);
  ExpectBitIdenticalAnswers(reloaded, set, "rewritten pending");
  EXPECT_EQ(Serialized(reloaded), again);

  // The pending CRC still guards the section: flip one tuple byte.
  std::string corrupt = bytes;
  corrupt[corrupt.size() - 3] ^= 0x20;
  EXPECT_THROW(Deserialized(corrupt), std::runtime_error);
}

TEST_F(BlockSetPersistTest, ChangeNumberRoundTripsAndOrdersBatches) {
  BlockSet set = BuildSet(4);
  EXPECT_EQ(set.change_number(), 0u);
  for (uint64_t i = 1; i <= 3; ++i) {
    const auto result =
        set.ApplyBatchUpdate(InCellBatchFor(set, **data_, 10, i));
    EXPECT_EQ(result.change_number, i);
  }
  EXPECT_EQ(set.change_number(), 3u);
  const BlockSet loaded = Deserialized(Serialized(set));
  EXPECT_EQ(loaded.change_number(), 3u);
}

TEST_F(BlockSetPersistTest, UpdatedSetRoundTripsBitIdentically) {
  // The v1 reader relaxed the row cross-check to `>=` to admit post-update
  // sets; v2 records exact state rows instead, so an updated set must both
  // load cleanly and reproduce its bytes.
  BlockSet set = BuildSet(4);
  set.ApplyBatchUpdate(InCellBatchFor(set, **data_, 200, 17));
  const std::string bytes = Serialized(set);
  const BlockSet loaded = Deserialized(bytes);
  EXPECT_EQ(Serialized(loaded), bytes);
  ExpectBitIdenticalAnswers(loaded, set, "updated set");
}

TEST_F(BlockSetPersistTest, RejectsStateRowManifestMismatch) {
  const BlockSet set = BuildSet(4);
  std::string bytes = Serialized(set);
  const size_t k = set.num_shards();
  // Bump state_rows[0] by one and fix up the manifest CRC, so only the
  // exact manifest ↔ payload cross-check can catch the inconsistency
  // (the permissive `>=` of v1 would have let this through).
  const size_t state_rows_pos = 40 + (k + 1) * 8 + k * 16;
  uint64_t rows;
  std::memcpy(&rows, bytes.data() + state_rows_pos, 8);
  rows += 1;
  std::memcpy(bytes.data() + state_rows_pos, &rows, 8);
  const size_t manifest_size = core::testing::ManifestBytes(k);
  const uint32_t crc = core::serialize::Crc32(
      std::string_view(bytes).substr(0, manifest_size - 4));
  std::memcpy(bytes.data() + manifest_size - 4, &crc, 4);
  EXPECT_THROW(Deserialized(bytes), std::runtime_error);
}

// --------------------------------------------------------------------------
// The byte-level format contract (docs/FORMAT.md)
// --------------------------------------------------------------------------

TEST_F(BlockSetPersistTest, Crc32MatchesKnownAnswer) {
  // CRC-32/ISO-HDLC check value (docs/FORMAT.md §Checksum).
  EXPECT_EQ(core::serialize::Crc32("123456789"), 0xCBF43926u);
  EXPECT_EQ(core::serialize::Crc32(""), 0x00000000u);
}

TEST_F(BlockSetPersistTest, ManifestMatchesDocumentedOffsets) {
  // An even and an odd shard count: only the odd one needs the pad.
  for (const size_t k : {size_t{4}, size_t{5}}) {
    SCOPED_TRACE("K=" + std::to_string(k));
    ExpectDocumentedManifest(k);
  }
}

void BlockSetPersistTest::ExpectDocumentedManifest(size_t kShards) {
  const storage::ShardedDataset sharded = Shard(kShards);
  const BlockSet set =
      BlockSet::Build(sharded, BlockSetOptions{{kLevel, {}}});
  const std::string bytes = Serialized(set);

  const auto u32_at = [&](size_t offset) {
    uint32_t v;
    std::memcpy(&v, bytes.data() + offset, 4);
    return v;
  };
  const auto i32_at = [&](size_t offset) {
    int32_t v;
    std::memcpy(&v, bytes.data() + offset, 4);
    return v;
  };
  const auto u64_at = [&](size_t offset) {
    uint64_t v;
    std::memcpy(&v, bytes.data() + offset, 8);
    return v;
  };

  // Fixed prefix, exactly as documented in docs/FORMAT.md.
  EXPECT_EQ(u32_at(0), 0x54534247u);  // magic "GBST"
  EXPECT_EQ(u32_at(4), 3u);           // format version
  EXPECT_EQ(u32_at(8), 0u);           // flags (reserved)
  EXPECT_EQ(i32_at(12), kLevel);      // align_level
  EXPECT_EQ(u64_at(16), kShards);     // shard count
  EXPECT_EQ(u64_at(24), (*data_)->num_rows());  // total rows
  EXPECT_EQ(u64_at(32), 0u);          // change number (never updated)

  // Boundary array at offset 40: the partition's key boundaries verbatim.
  size_t pos = 40;
  ASSERT_EQ(sharded.boundaries().size(), kShards + 1);
  for (size_t i = 0; i <= kShards; ++i, pos += 8) {
    EXPECT_EQ(u64_at(pos), sharded.boundaries()[i]) << "boundary " << i;
  }
  // Shard windows: each view's (offset, num_rows).
  for (size_t i = 0; i < kShards; ++i, pos += 16) {
    EXPECT_EQ(u64_at(pos), sharded.shard(i).offset()) << "window " << i;
    EXPECT_EQ(u64_at(pos + 8), sharded.shard(i).num_rows()) << "window " << i;
  }
  // State rows: a never-updated unfiltered build aggregates exactly its
  // window, so state_rows mirrors the windows.
  for (size_t i = 0; i < kShards; ++i, pos += 8) {
    EXPECT_EQ(u64_at(pos), sharded.shard(i).num_rows())
        << "state rows " << i;
  }
  // Payload table: contiguous (byte_offset, byte_size) pairs that tile the
  // payload area exactly.
  const size_t manifest_size = (64 + 52 * kShards + 7) / 8 * 8;
  EXPECT_EQ(manifest_size % 8, 0u);
  uint64_t expected_offset = 0;
  std::vector<uint64_t> sizes(kShards);
  for (size_t i = 0; i < kShards; ++i, pos += 16) {
    EXPECT_EQ(u64_at(pos), expected_offset) << "payload offset " << i;
    sizes[i] = u64_at(pos + 8);
    expected_offset += sizes[i];
  }
  // Per-payload CRC-32s.
  uint64_t payload_start = manifest_size;
  for (size_t i = 0; i < kShards; ++i, pos += 4) {
    EXPECT_EQ(u32_at(pos),
              core::serialize::Crc32(
                  std::string_view(bytes).substr(payload_start, sizes[i])))
        << "payload crc " << i;
    EXPECT_EQ(sizes[i] % 8, 0u) << "payload size " << i;
    payload_start += sizes[i];
  }
  // Zero pad after the CRCs when K is odd, so pending_bytes (and the
  // manifest end) fall on a multiple of 8.
  if (kShards % 2 == 1) {
    EXPECT_EQ(u32_at(pos), 0u) << "manifest pad";
    pos += 4;
  }
  EXPECT_EQ(pos % 8, 0u);
  // Pending section descriptor: the writer always writes the section as
  // one u64 zero count per shard, appended after the payload area.
  const uint64_t pending_bytes = u64_at(pos);
  pos += 8;
  EXPECT_EQ(pending_bytes, 8 * kShards);
  EXPECT_EQ(manifest_size + expected_offset + pending_bytes, bytes.size());
  const std::string_view pending_section =
      std::string_view(bytes).substr(payload_start, pending_bytes);
  EXPECT_EQ(u32_at(pos), core::serialize::Crc32(pending_section));
  pos += 4;
  for (size_t i = 0; i < kShards; ++i) {
    EXPECT_EQ(u64_at(payload_start + 8 * i), 0u) << "pending count " << i;
  }
  // The manifest CRC-32 over everything before it closes the manifest.
  ASSERT_EQ(pos, manifest_size - 4);
  EXPECT_EQ(u32_at(pos), core::serialize::Crc32(
                             std::string_view(bytes).substr(0, pos)));
  // Each payload opens with the GeoBlock magic and current version.
  EXPECT_EQ(u32_at(manifest_size), 0x4B4C4247u);  // "GBLK"
  EXPECT_EQ(u32_at(manifest_size + 4), 3u);
}

TEST_F(BlockSetPersistTest, PayloadArraysAre8AlignedForEverySchema) {
  // GBLK v3 inside GBST v3: every array of every payload starts on an
  // 8-byte boundary of the file (so of a page-aligned mapping), for any
  // schema width, with and without a filter, and for odd and even K.
  for (size_t columns = 1; columns <= 7; ++columns) {
    storage::PointTable table(storage::Schema{
        std::vector<std::string>(columns, "c")});
    for (size_t row = 0; row < 4000; ++row) {
      std::vector<double> values(columns);
      for (size_t c = 0; c < columns; ++c) {
        values[c] = raw_->Value(row, c % raw_->num_columns());
      }
      table.AddRow(raw_->Location(row), values);
    }
    storage::ExtractOptions extract;
    extract.clean_bounds = workload::NycBounds();
    const auto data = std::make_shared<const storage::SortedDataset>(
        storage::SortedDataset::Extract(table, extract));
    for (const bool filtered : {false, true}) {
      storage::Filter filter;
      if (filtered) filter.Add({0, storage::CompareOp::kGt, 1.0});
      for (const size_t k : {size_t{4}, size_t{5}}) {
        SCOPED_TRACE("columns=" + std::to_string(columns) +
                     " filtered=" + std::to_string(filtered) +
                     " K=" + std::to_string(k));
        storage::ShardOptions options;
        options.num_shards = k;
        options.align_level = kLevel;
        const BlockSet set = BlockSet::Build(
            storage::ShardedDataset::Partition(data, options),
            BlockSetOptions{{kLevel, filter}});
        const std::string bytes = Serialized(set);
        std::istringstream in(bytes, std::ios::binary);
        const core::serialize::SetManifest m =
            core::serialize::ReadSetManifest(in);
        ASSERT_EQ(m.manifest_bytes % 8, 0u);
        for (size_t s = 0; s < k; ++s) {
          const size_t start = m.manifest_bytes + m.payload_offsets[s];
          const std::string_view payload =
              std::string_view(bytes).substr(start, m.payload_sizes[s]);
          const core::testing::PayloadLayout layout =
              core::testing::WalkPayloadV3(payload);
          ASSERT_EQ(layout.end, payload.size()) << "shard " << s;
          ASSERT_EQ(layout.array_counts[0], columns) << "shard " << s;
          for (const size_t at : layout.array_offsets) {
            EXPECT_EQ((start + at) % 8, 0u) << "shard " << s << " @" << at;
          }
          EXPECT_EQ((start + layout.filter_offset) % 8, 0u);
          for (const size_t at : layout.pad_offsets) {
            EXPECT_EQ(payload[at], '\0') << "shard " << s << " pad @" << at;
          }
        }
        // The loaders accept it and agree with the built set.
        const BlockSet loaded = Deserialized(bytes);
        EXPECT_EQ(loaded.num_cells(), set.num_cells());
      }
    }
  }
}

TEST_F(BlockSetPersistTest, RejectsVersion2Container) {
  // GBST accepts only its current version (docs/FORMAT.md §Versioning):
  // a v2 manifest has no pad and carries packed payloads.
  std::string bytes = Serialized(BuildSet(5));
  const uint32_t v2 = 2;
  std::memcpy(bytes.data() + 4, &v2, 4);
  try {
    (void)Deserialized(bytes);
    FAIL() << "a v2 container must be rejected";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("unsupported BlockSet version"),
              std::string::npos)
        << e.what();
  }
}

}  // namespace
}  // namespace geoblocks
