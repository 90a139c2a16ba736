#include <gtest/gtest.h>

#include <cstring>
#include <sstream>
#include <string>

#include "core/geoblock.h"
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

  static storage::PointTable* raw_;
  static storage::SortedDataset* data_;
  static GeoBlock* block_;
};

storage::PointTable* SerializeTest::raw_ = nullptr;
storage::SortedDataset* SerializeTest::data_ = nullptr;
GeoBlock* SerializeTest::block_ = nullptr;

TEST_F(SerializeTest, BlockRoundTripPreservesStructure) {
  std::stringstream stream;
  block_->WriteTo(stream);
  const GeoBlock loaded = GeoBlock::ReadFrom(stream);
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
  std::stringstream stream;
  block_->WriteTo(stream);
  const GeoBlock loaded = GeoBlock::ReadFrom(stream);
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
  std::stringstream stream;
  block_->WriteTo(stream);
  GeoBlock loaded = GeoBlock::ReadFrom(stream);
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
  std::stringstream stream;
  block.WriteTo(stream);
  const GeoBlock loaded = GeoBlock::ReadFrom(stream);
  EXPECT_EQ(loaded.num_cells(), 0u);
  EXPECT_EQ(loaded.level(), 17);
}

TEST_F(SerializeTest, FilterSurvivesRoundTrip) {
  // Payload v2 (docs/FORMAT.md) appends the build filter so refinement of a
  // re-attached block aggregates exactly the rows the original build did.
  storage::Filter filter;
  filter.Add({1, storage::CompareOp::kGt, 2.5});
  const GeoBlock block = GeoBlock::Build(*data_, BlockOptions{15, filter});
  std::stringstream stream;
  block.WriteTo(stream);
  const GeoBlock loaded = GeoBlock::ReadFrom(stream);
  ASSERT_EQ(loaded.filter().predicates().size(), 1u);
  EXPECT_EQ(loaded.filter().predicates()[0].column, 1);
  EXPECT_EQ(loaded.filter().predicates()[0].op, storage::CompareOp::kGt);
  EXPECT_EQ(loaded.filter().predicates()[0].value, 2.5);
  EXPECT_EQ(loaded.header().global.count, block.header().global.count);
}

TEST_F(SerializeTest, ReadsVersion1PayloadsWithoutFilter) {
  // A v1 payload is exactly a v2 payload minus the trailing filter field
  // (the filter was appended, docs/FORMAT.md §Versioning). Down-convert a
  // written stream and check it still loads, with an empty filter.
  std::stringstream stream;
  block_->WriteTo(stream);
  std::string bytes = stream.str();
  const uint32_t v1 = 1;
  std::memcpy(bytes.data() + 4, &v1, 4);
  bytes.resize(bytes.size() - sizeof(uint64_t));  // drop the u64 zero-
                                                  // predicate filter field
  std::stringstream v1_stream(bytes);
  const GeoBlock loaded = GeoBlock::ReadFrom(v1_stream);
  EXPECT_TRUE(loaded.filter().IsTrue());
  EXPECT_EQ(loaded.num_cells(), block_->num_cells());
  EXPECT_EQ(loaded.header().global.count, block_->header().global.count);
}

TEST_F(SerializeTest, RejectsFilterColumnOutOfRange) {
  // The filter field closes the payload; the last predicate record is the
  // final 16 bytes (i32 column, u32 op, f64 value). A column index beyond
  // the schema must be rejected at read time, or refinement would index
  // past the column arrays.
  storage::Filter filter;
  filter.Add({0, storage::CompareOp::kGe, 1.0});
  const GeoBlock block = GeoBlock::Build(*data_, BlockOptions{15, filter});
  std::stringstream stream;
  block.WriteTo(stream);
  std::string bytes = stream.str();
  const int32_t bogus = 500;
  std::memcpy(bytes.data() + bytes.size() - 16, &bogus, 4);
  std::stringstream corrupt(bytes);
  EXPECT_THROW(GeoBlock::ReadFrom(corrupt), std::runtime_error);
  const int32_t negative = -1;
  std::memcpy(bytes.data() + bytes.size() - 16, &negative, 4);
  std::stringstream corrupt2(bytes);
  EXPECT_THROW(GeoBlock::ReadFrom(corrupt2), std::runtime_error);
}

TEST_F(SerializeTest, RejectsFutureVersion) {
  std::stringstream stream;
  block_->WriteTo(stream);
  std::string bytes = stream.str();
  const uint32_t future = 99;
  std::memcpy(bytes.data() + 4, &future, 4);
  std::stringstream future_stream(bytes);
  EXPECT_THROW(GeoBlock::ReadFrom(future_stream), std::runtime_error);
}

TEST_F(SerializeTest, RejectsLevelOutOfRange) {
  // The level is the i32 after the magic and the version. A payload whose
  // level no coverer can reach must not load, whatever its checksum says.
  std::stringstream stream;
  block_->WriteTo(stream);
  std::string bytes = stream.str();
  for (const int32_t level : {31, -1}) {
    std::memcpy(bytes.data() + 8, &level, 4);
    std::stringstream corrupt(bytes);
    EXPECT_THROW(GeoBlock::ReadFrom(corrupt), std::runtime_error) << level;
  }
}

TEST_F(SerializeTest, DeserializedBlockRefinesAfterAttach) {
  std::stringstream stream;
  block_->WriteTo(stream);
  GeoBlock loaded = GeoBlock::ReadFrom(stream);
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
  std::stringstream garbage("not a geoblock at all");
  EXPECT_THROW(GeoBlock::ReadFrom(garbage), std::runtime_error);
}

TEST_F(SerializeTest, RejectsTruncatedStream) {
  std::stringstream stream;
  block_->WriteTo(stream);
  const std::string full = stream.str();
  std::stringstream truncated(full.substr(0, full.size() / 2));
  EXPECT_THROW(GeoBlock::ReadFrom(truncated), std::runtime_error);
}

}  // namespace
}  // namespace geoblocks::core
