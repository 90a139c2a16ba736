#include <gtest/gtest.h>

#include <cstring>
#include <memory>
#include <sstream>
#include <string>
#include <string_view>
#include <vector>

#include "core/geoblock.h"
#include "core/serialize.h"
#include "payload_layout.h"
#include "workload/datagen.h"
#include "workload/polygen.h"

namespace geoblocks::core {
namespace {

class SerializeTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    raw_ = new storage::PointTable(workload::GenTaxi(15000, 61));
    storage::ExtractOptions options;
    options.clean_bounds = workload::NycBounds();
    data_ = new storage::SortedDataset(
        storage::SortedDataset::Extract(*raw_, options));
    block_ = new GeoBlock(GeoBlock::Build(*data_, BlockOptions{15, {}}));
  }
  static void TearDownTestSuite() {
    delete block_;
    delete data_;
    delete raw_;
    block_ = nullptr;
    data_ = nullptr;
    raw_ = nullptr;
  }

  /// The v3 payload WriteTo writes for `block`.
  static std::string Payload(const GeoBlock& block) {
    std::stringstream stream;
    block.WriteTo(stream);
    return stream.str();
  }

  /// Decodes `bytes` from an 8-aligned copy, as the set loaders do, and
  /// checks the payload spans all of them.
  static GeoBlock Decode(std::string_view bytes) {
    const std::shared_ptr<char> buffer =
        serialize::NewPayloadBuffer(bytes.size());
    std::memcpy(buffer.get(), bytes.data(), bytes.size());
    size_t consumed = 0;
    GeoBlock block = GeoBlock::ReadFrom(
        buffer, std::string_view(buffer.get(), bytes.size()), &consumed);
    EXPECT_EQ(consumed, bytes.size());
    return block;
  }

  /// Asserts `got` holds exactly `want`'s header and cell arrays, bit for
  /// bit.
  static void ExpectSameAggregates(const GeoBlock& got, const GeoBlock& want) {
    ASSERT_EQ(got.level(), want.level());
    ASSERT_EQ(got.num_columns(), want.num_columns());
    EXPECT_EQ(got.header().min_cell, want.header().min_cell);
    EXPECT_EQ(got.header().max_cell, want.header().max_cell);
    EXPECT_EQ(got.header().global.count, want.header().global.count);
    EXPECT_EQ(got.cells(), want.cells());
    EXPECT_EQ(got.offsets(), want.offsets());
    EXPECT_EQ(got.counts(), want.counts());
    ASSERT_EQ(got.num_cells(), want.num_cells());
    for (size_t i = 0; i < got.num_cells(); ++i) {
      ASSERT_EQ(got.cell_min_key(i), want.cell_min_key(i)) << i;
      ASSERT_EQ(got.cell_max_key(i), want.cell_max_key(i)) << i;
      ASSERT_EQ(std::memcmp(got.cell_columns(i), want.cell_columns(i),
                            got.num_columns() * sizeof(ColumnAggregate)),
                0)
          << i;
    }
  }

  static storage::PointTable* raw_;
  static storage::SortedDataset* data_;
  static GeoBlock* block_;
};

storage::PointTable* SerializeTest::raw_ = nullptr;
storage::SortedDataset* SerializeTest::data_ = nullptr;
GeoBlock* SerializeTest::block_ = nullptr;

TEST_F(SerializeTest, BlockRoundTripPreservesStructure) {
  const GeoBlock loaded = Decode(Payload(*block_));
  EXPECT_EQ(loaded.level(), block_->level());
  EXPECT_EQ(loaded.num_cells(), block_->num_cells());
  EXPECT_EQ(loaded.num_columns(), block_->num_columns());
  EXPECT_EQ(loaded.cells(), block_->cells());
  EXPECT_EQ(loaded.offsets(), block_->offsets());
  EXPECT_EQ(loaded.counts(), block_->counts());
  EXPECT_EQ(loaded.header().min_cell, block_->header().min_cell);
  EXPECT_EQ(loaded.header().max_cell, block_->header().max_cell);
  EXPECT_EQ(loaded.header().global.count, block_->header().global.count);
}

TEST_F(SerializeTest, LoadedBlockAnswersQueriesIdentically) {
  const GeoBlock loaded = Decode(Payload(*block_));
  AggregateRequest req;
  req.Add(AggFn::kCount);
  req.Add(AggFn::kSum, 0);
  req.Add(AggFn::kMin, 1);
  req.Add(AggFn::kMax, 2);
  const auto polygons = workload::Neighborhoods(*raw_, 15, 62);
  for (const geo::Polygon& poly : polygons) {
    const QueryResult a = block_->Select(poly, req);
    const QueryResult b = loaded.Select(poly, req);
    ASSERT_EQ(a.count, b.count);
    ASSERT_EQ(a.values, b.values);
    ASSERT_EQ(block_->Count(poly), loaded.Count(poly));
  }
}

TEST_F(SerializeTest, LoadedBlockSupportsUpdatesAndCoarsening) {
  GeoBlock loaded = Decode(Payload(*block_));
  // Coarsening works without base data.
  const GeoBlock coarse = loaded.CoarsenTo(12);
  EXPECT_EQ(coarse.header().global.count, loaded.header().global.count);
  // So do batch updates into existing cells.
  GeoBlock::UpdateTuple t;
  t.location =
      loaded.projection().FromUnit(cell::CellId(loaded.cells()[0]).CenterPoint());
  t.values.assign(loaded.num_columns(), 1.0);
  const std::vector<GeoBlock::UpdateTuple> batch{t};
  EXPECT_EQ(loaded.ApplyBatchUpdate(batch).applied, 1u);
}

TEST_F(SerializeTest, EmptyBlockRoundTrip) {
  const storage::PointTable empty(raw_->schema());
  const auto empty_data =
      storage::SortedDataset::Extract(empty, storage::ExtractOptions{});
  const GeoBlock block = GeoBlock::Build(empty_data, BlockOptions{17, {}});
  const GeoBlock loaded = Decode(Payload(block));
  EXPECT_EQ(loaded.num_cells(), 0u);
  EXPECT_EQ(loaded.level(), 17);
}

TEST_F(SerializeTest, FilterSurvivesRoundTrip) {
  // Payload v2 (docs/FORMAT.md) appends the build filter so refinement of a
  // re-attached block aggregates exactly the rows the original build did.
  storage::Filter filter;
  filter.Add({1, storage::CompareOp::kGt, 2.5});
  const GeoBlock block = GeoBlock::Build(*data_, BlockOptions{15, filter});
  const GeoBlock loaded = Decode(Payload(block));
  ASSERT_EQ(loaded.filter().predicates().size(), 1u);
  EXPECT_EQ(loaded.filter().predicates()[0].column, 1);
  EXPECT_EQ(loaded.filter().predicates()[0].op, storage::CompareOp::kGt);
  EXPECT_EQ(loaded.filter().predicates()[0].value, 2.5);
  EXPECT_EQ(loaded.header().global.count, block.header().global.count);
}

TEST_F(SerializeTest, ReadsVersion1PayloadsWithoutFilter) {
  // A v1 payload is the packed v2 layout minus the trailing filter field
  // (the filter was appended, docs/FORMAT.md §Versioning). Down-convert a
  // written stream and check it still loads, with an empty filter.
  const GeoBlock loaded =
      Decode(testing::PackedPayload(Payload(*block_), 1));
  EXPECT_TRUE(loaded.filter().IsTrue());
  EXPECT_EQ(loaded.num_cells(), block_->num_cells());
  EXPECT_EQ(loaded.header().global.count, block_->header().global.count);
  ExpectSameAggregates(loaded, *block_);
}

TEST_F(SerializeTest, ReadsVersion2PayloadsBitIdentically) {
  // v2 is v3 without the pad bytes; the decoder reads it, copying every
  // array the packing leaves misaligned.
  storage::Filter filter;
  filter.Add({2, storage::CompareOp::kLt, 30.0});
  const GeoBlock block = GeoBlock::Build(*data_, BlockOptions{15, filter});
  const GeoBlock loaded = Decode(testing::PackedPayload(Payload(block), 2));
  ExpectSameAggregates(loaded, block);
  ASSERT_EQ(loaded.filter().predicates().size(), 1u);
  EXPECT_EQ(loaded.filter().predicates()[0].value, 30.0);
}

TEST_F(SerializeTest, AliasedDecodeViewsAlignedBytesAndCopiesMisaligned) {
  const std::string bytes = Payload(*block_);
  // 8-aligned bytes: every array is a view of the buffer.
  const std::shared_ptr<char> buffer =
      serialize::NewPayloadBuffer(bytes.size() + 4);
  std::memcpy(buffer.get(), bytes.data(), bytes.size());
  size_t consumed = 0;
  {
    const GeoBlock block = GeoBlock::ReadFrom(
        buffer, std::string_view(buffer.get(), bytes.size()), &consumed);
    EXPECT_EQ(consumed, bytes.size());
    ExpectSameAggregates(block, *block_);
    const std::shared_ptr<const BlockState> state = block.StateSnapshot();
    const char* lo = buffer.get();
    const char* hi = lo + bytes.size();
    for (const void* p :
         {static_cast<const void*>(state->cells.data()),
          static_cast<const void*>(state->offsets.data()),
          static_cast<const void*>(state->counts.data()),
          static_cast<const void*>(state->min_keys.data()),
          static_cast<const void*>(state->max_keys.data()),
          static_cast<const void*>(state->column_aggs.data())}) {
      EXPECT_GE(static_cast<const char*>(p), lo);
      EXPECT_LT(static_cast<const char*>(p), hi);
    }
    EXPECT_FALSE(state->cells.owned());
  }
  // The same bytes 4 bytes off alignment: every 8-byte array is copied,
  // and the answers do not change.
  std::memmove(buffer.get() + 4, buffer.get(), bytes.size());
  const GeoBlock shifted = GeoBlock::ReadFrom(
      buffer, std::string_view(buffer.get() + 4, bytes.size()), &consumed);
  EXPECT_EQ(consumed, bytes.size());
  ExpectSameAggregates(shifted, *block_);
  const std::shared_ptr<const BlockState> state = shifted.StateSnapshot();
  EXPECT_TRUE(state->cells.owned());
  EXPECT_TRUE(state->min_keys.owned());
  EXPECT_TRUE(state->column_aggs.owned());
}

TEST_F(SerializeTest, InCellCommitReleasesTheDecodedBuffer) {
  // An update that touches no cell layout still owns every array it
  // commits, the unchanged cell ids included, so no version pins the bytes
  // the block was decoded from.
  const std::string bytes = Payload(*block_);
  std::shared_ptr<char> buffer = serialize::NewPayloadBuffer(bytes.size());
  std::memcpy(buffer.get(), bytes.data(), bytes.size());
  const std::weak_ptr<char> watch = buffer;
  size_t consumed = 0;
  GeoBlock loaded = GeoBlock::ReadFrom(
      buffer, std::string_view(buffer.get(), bytes.size()), &consumed);
  buffer.reset();
  ASSERT_FALSE(watch.expired());
  ASSERT_FALSE(loaded.StateSnapshot()->cells.owned());

  GeoBlock::UpdateTuple t;
  t.location = loaded.projection().FromUnit(
      cell::CellId(loaded.cells()[0]).CenterPoint());
  t.values.assign(loaded.num_columns(), 1.0);
  const std::vector<GeoBlock::UpdateTuple> batch{t};
  const size_t cells_before = loaded.num_cells();
  ASSERT_EQ(loaded.ApplyBatchUpdate(batch).applied, 1u);
  ASSERT_EQ(loaded.num_cells(), cells_before);

  const std::shared_ptr<const BlockState> state = loaded.StateSnapshot();
  EXPECT_TRUE(state->cells.owned());
  EXPECT_TRUE(state->offsets.owned());
  EXPECT_TRUE(state->counts.owned());
  EXPECT_TRUE(state->min_keys.owned());
  EXPECT_TRUE(state->max_keys.owned());
  EXPECT_TRUE(state->column_aggs.owned());
  EXPECT_TRUE(watch.expired());
  EXPECT_EQ(loaded.cells(), block_->cells());
  EXPECT_EQ(loaded.header().global.count, block_->header().global.count + 1);
}

TEST_F(SerializeTest, RejectsNonZeroPadBytes) {
  // A level whose block has an odd cell count, so the u32 arrays are
  // padded as well as the header.
  GeoBlock block;
  for (int level = 15; level > 8 && block.num_cells() % 2 == 0; --level) {
    block = GeoBlock::Build(*data_, BlockOptions{level, {}});
  }
  ASSERT_EQ(block.num_cells() % 2, 1u);
  const std::string bytes = Payload(block);
  const testing::PayloadLayout layout = testing::WalkPayloadV3(bytes);
  ASSERT_EQ(layout.end, bytes.size());
  ASSERT_EQ(layout.pad_offsets.size(), 4u + 4u + 4u);
  for (const size_t at : layout.pad_offsets) {
    std::string corrupt = bytes;
    corrupt[at] = 0x01;
    EXPECT_THROW((void)Decode(corrupt), std::runtime_error) << at;
  }
}

TEST_F(SerializeTest, RejectsFilterColumnOutOfRange) {
  // The filter field closes the payload; the last predicate record is the
  // final 16 bytes (i32 column, u32 op, f64 value). A column index beyond
  // the schema must be rejected at read time, or refinement would index
  // past the column arrays.
  storage::Filter filter;
  filter.Add({0, storage::CompareOp::kGe, 1.0});
  const GeoBlock block = GeoBlock::Build(*data_, BlockOptions{15, filter});
  std::string bytes = Payload(block);
  const int32_t bogus = 500;
  std::memcpy(bytes.data() + bytes.size() - 16, &bogus, 4);
  EXPECT_THROW((void)Decode(bytes), std::runtime_error);
  const int32_t negative = -1;
  std::memcpy(bytes.data() + bytes.size() - 16, &negative, 4);
  EXPECT_THROW((void)Decode(bytes), std::runtime_error);
}

TEST_F(SerializeTest, RejectsFutureVersion) {
  std::string bytes = Payload(*block_);
  const uint32_t future = 99;
  std::memcpy(bytes.data() + 4, &future, 4);
  EXPECT_THROW((void)Decode(bytes), std::runtime_error);
}

TEST_F(SerializeTest, RejectsLevelOutOfRange) {
  // The level is the i32 after the magic and the version. A payload whose
  // level no coverer can reach must not load, whatever its checksum says.
  std::string bytes = Payload(*block_);
  for (const int32_t level : {31, -1}) {
    std::memcpy(bytes.data() + 8, &level, 4);
    EXPECT_THROW((void)Decode(bytes), std::runtime_error) << level;
  }
}

TEST_F(SerializeTest, DeserializedBlockRefinesAfterAttach) {
  GeoBlock loaded = Decode(Payload(*block_));
  EXPECT_THROW(loaded.CoarsenTo(block_->level() + 1), std::logic_error);
  loaded.AttachData(storage::DatasetView::Unowned(*data_));
  const GeoBlock refined = loaded.CoarsenTo(block_->level() + 1);
  const GeoBlock direct =
      GeoBlock::Build(*data_, BlockOptions{block_->level() + 1, {}});
  EXPECT_EQ(refined.cells(), direct.cells());
  // Attach is a one-shot transition; a second attach must be rejected.
  EXPECT_THROW(loaded.AttachData(storage::DatasetView::Unowned(*data_)),
               std::logic_error);
  loaded.DetachData();
  EXPECT_THROW(loaded.CoarsenTo(block_->level() + 1), std::logic_error);
}

TEST_F(SerializeTest, RejectsGarbage) {
  EXPECT_THROW((void)Decode("not a geoblock at all"), std::runtime_error);
}

TEST_F(SerializeTest, RejectsTruncatedStream) {
  const std::string full = Payload(*block_);
  EXPECT_THROW((void)Decode(std::string_view(full).substr(0, full.size() / 2)),
               std::runtime_error);
}

}  // namespace
}  // namespace geoblocks::core
