#include <gtest/gtest.h>

#include <random>
#include <stdexcept>

#include "core/geoblock.h"
#include "workload/datagen.h"
#include "workload/polygen.h"

namespace geoblocks::core {
namespace {

using storage::SortedDataset;

class GeoBlockTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    raw_ = new storage::PointTable(workload::GenTaxi(30000, 1));
    storage::ExtractOptions options;
    options.clean_bounds = workload::NycBounds();
    data_ = new SortedDataset(SortedDataset::Extract(*raw_, options));
  }
  static void TearDownTestSuite() {
    delete data_;
    delete raw_;
    data_ = nullptr;
    raw_ = nullptr;
  }

  /// Ground truth for a covering: fold every row whose leaf key falls into
  /// one of the covering cells.
  static QueryResult BruteForce(const std::vector<cell::CellId>& covering,
                                const AggregateRequest& request) {
    Accumulator acc(&request);
    for (size_t row = 0; row < data_->num_rows(); ++row) {
      const cell::CellId leaf(data_->keys()[row]);
      for (const cell::CellId& c : covering) {
        if (c.Contains(leaf)) {
          acc.AddRow([&](int col) { return data_->Value(row, col); });
          break;
        }
      }
    }
    return acc.Finish();
  }

  static AggregateRequest FullRequest() {
    AggregateRequest req;
    req.Add(AggFn::kCount);
    for (int c = 0; c < 7; ++c) {
      req.Add(AggFn::kSum, c);
      req.Add(AggFn::kMin, c);
      req.Add(AggFn::kMax, c);
    }
    return req;
  }

  static void ExpectResultsEqual(const QueryResult& a, const QueryResult& b) {
    ASSERT_EQ(a.count, b.count);
    ASSERT_EQ(a.values.size(), b.values.size());
    for (size_t i = 0; i < a.values.size(); ++i) {
      ASSERT_NEAR(a.values[i], b.values[i],
                  1e-9 * std::abs(a.values[i]) + 1e-6)
          << "value " << i;
    }
  }

  static storage::PointTable* raw_;
  static SortedDataset* data_;
};

storage::PointTable* GeoBlockTest::raw_ = nullptr;
SortedDataset* GeoBlockTest::data_ = nullptr;

TEST_F(GeoBlockTest, BuildBasics) {
  const GeoBlock block = GeoBlock::Build(*data_, BlockOptions{15, {}});
  EXPECT_EQ(block.level(), 15);
  EXPECT_GT(block.num_cells(), 0u);
  EXPECT_EQ(block.header().global.count, data_->num_rows());
  // Cells are sorted, at the block level, and counts sum to the total.
  uint64_t total = 0;
  for (size_t i = 0; i < block.num_cells(); ++i) {
    if (i > 0) {
      ASSERT_LT(block.cells()[i - 1], block.cells()[i]);
    }
    ASSERT_EQ(cell::CellId(block.cells()[i]).level(), 15);
    total += block.counts()[i];
  }
  EXPECT_EQ(total, data_->num_rows());
  EXPECT_EQ(block.header().min_cell, block.cells().front());
  EXPECT_EQ(block.header().max_cell, block.cells().back());
}

TEST_F(GeoBlockTest, BuildRejectsLevelOutOfRange) {
  // Past level 30 CellId::Child returns the leaf itself, so a block that
  // fine could never be covered.
  EXPECT_THROW(GeoBlock::Build(*data_, BlockOptions{31, {}}),
               std::invalid_argument);
  EXPECT_THROW(GeoBlock::Build(*data_, BlockOptions{-1, {}}),
               std::invalid_argument);
  EXPECT_EQ(GeoBlock::Build(*data_, BlockOptions{cell::CellId::kMaxLevel, {}})
                .level(),
            cell::CellId::kMaxLevel);
}

TEST_F(GeoBlockTest, OffsetsAreCumulativeCounts) {
  const GeoBlock block = GeoBlock::Build(*data_, BlockOptions{16, {}});
  uint32_t running = 0;
  for (size_t i = 0; i < block.num_cells(); ++i) {
    ASSERT_EQ(block.offsets()[i], running);
    running += block.counts()[i];
  }
}

TEST_F(GeoBlockTest, MinMaxKeysBoundCellContents) {
  const GeoBlock block = GeoBlock::Build(*data_, BlockOptions{14, {}});
  for (size_t i = 0; i < block.num_cells(); ++i) {
    const cell::CellId cell(block.cells()[i]);
    ASSERT_TRUE(cell.Contains(cell::CellId(block.cell_min_key(i))));
    ASSERT_TRUE(cell.Contains(cell::CellId(block.cell_max_key(i))));
    ASSERT_LE(block.cell_min_key(i), block.cell_max_key(i));
  }
}

TEST_F(GeoBlockTest, GlobalHeaderMatchesColumns) {
  const GeoBlock block = GeoBlock::Build(*data_, BlockOptions{15, {}});
  for (size_t c = 0; c < data_->num_columns(); ++c) {
    ColumnAggregate expected;
    for (size_t row = 0; row < data_->num_rows(); ++row) {
      expected.Add(data_->Value(row, c));
    }
    EXPECT_EQ(block.header().global.columns[c].min, expected.min);
    EXPECT_EQ(block.header().global.columns[c].max, expected.max);
    EXPECT_NEAR(block.header().global.columns[c].sum, expected.sum,
                1e-6 * std::abs(expected.sum));
  }
}

TEST_F(GeoBlockTest, SelectMatchesBruteForce) {
  const GeoBlock block = GeoBlock::Build(*data_, BlockOptions{15, {}});
  const auto polygons = workload::Neighborhoods(*raw_, 12, 21);
  const AggregateRequest req = FullRequest();
  for (const geo::Polygon& poly : polygons) {
    const auto covering = block.Cover(poly);
    ExpectResultsEqual(block.SelectCovering(covering, req),
                       BruteForce(covering, req));
  }
}

TEST_F(GeoBlockTest, CountMatchesSelect) {
  // The specialized COUNT algorithm (Listing 2) must agree with SELECT
  // count over the same covering.
  const GeoBlock block = GeoBlock::Build(*data_, BlockOptions{16, {}});
  AggregateRequest count_req;
  count_req.Add(AggFn::kCount);
  const auto polygons = workload::Neighborhoods(*raw_, 20, 33);
  for (const geo::Polygon& poly : polygons) {
    const auto covering = block.Cover(poly);
    ASSERT_EQ(block.CountCovering(covering),
              block.SelectCovering(covering, count_req).count);
  }
}

TEST_F(GeoBlockTest, CountFoldsFinerCellsOnce) {
  // Covering cells finer than the block level clamp to the grid cell that
  // holds them: the four children of one grid cell fold its tuples once,
  // in COUNT as in SELECT.
  const GeoBlock block = GeoBlock::Build(*data_, BlockOptions{12, {}});
  AggregateRequest count_req;
  count_req.Add(AggFn::kCount);
  ASSERT_GT(block.num_cells(), 0u);
  for (size_t i = 0; i < block.num_cells(); ++i) {
    const cell::CellId grid(block.cells()[i]);
    const std::vector<cell::CellId> children{grid.Child(0), grid.Child(1),
                                             grid.Child(2), grid.Child(3)};
    ASSERT_EQ(block.SelectCovering(children, count_req).count,
              block.counts()[i])
        << "cell " << i;
    ASSERT_EQ(block.CountCovering(children), block.counts()[i])
        << "cell " << i;
  }
}

TEST_F(GeoBlockTest, SelectWholeDomainEqualsGlobal) {
  const GeoBlock block = GeoBlock::Build(*data_, BlockOptions{15, {}});
  const std::vector<cell::CellId> all{cell::CellId::Root()};
  AggregateRequest req;
  req.Add(AggFn::kCount);
  const QueryResult r = block.SelectCovering(all, req);
  EXPECT_EQ(r.count, block.header().global.count);
  EXPECT_EQ(block.CountCovering(all), block.header().global.count);
}

TEST_F(GeoBlockTest, EmptyCoveringAndDisjointCells) {
  const GeoBlock block = GeoBlock::Build(*data_, BlockOptions{15, {}});
  AggregateRequest req;
  req.Add(AggFn::kCount);
  EXPECT_EQ(block.SelectCovering({}, req).count, 0u);
  // A cell far away from NYC (center of the Pacific).
  const cell::CellId far = cell::CellId::FromPoint({0.1, 0.5}).Parent(8);
  const std::vector<cell::CellId> covering{far};
  EXPECT_EQ(block.SelectCovering(covering, req).count, 0u);
  EXPECT_EQ(block.CountCovering(covering), 0u);
}

TEST_F(GeoBlockTest, EmptyDatasetBlock) {
  storage::PointTable empty(raw_->schema());
  const SortedDataset data =
      SortedDataset::Extract(empty, storage::ExtractOptions{});
  const GeoBlock block = GeoBlock::Build(data, BlockOptions{15, {}});
  EXPECT_EQ(block.num_cells(), 0u);
  AggregateRequest req;
  req.Add(AggFn::kCount);
  const std::vector<cell::CellId> covering{cell::CellId::Root()};
  EXPECT_EQ(block.SelectCovering(covering, req).count, 0u);
  EXPECT_EQ(block.CountCovering(covering), 0u);
}

TEST_F(GeoBlockTest, FilteredBuild) {
  storage::Filter filter;
  filter.Add({1, storage::CompareOp::kGe, 4.0});  // trip_distance >= 4
  const GeoBlock block = GeoBlock::Build(*data_, BlockOptions{15, filter});
  uint64_t expected = 0;
  for (size_t row = 0; row < data_->num_rows(); ++row) {
    if (data_->Value(row, 1) >= 4.0) ++expected;
  }
  EXPECT_EQ(block.header().global.count, expected);
  // ~16% selectivity by construction of the generator.
  const double sel = static_cast<double>(expected) /
                     static_cast<double>(data_->num_rows());
  EXPECT_GT(sel, 0.10);
  EXPECT_LT(sel, 0.25);
  // COUNT range-sums must be consistent on filtered blocks too.
  AggregateRequest req;
  req.Add(AggFn::kCount);
  const auto polygons = workload::Neighborhoods(*raw_, 10, 5);
  for (const geo::Polygon& poly : polygons) {
    const auto covering = block.Cover(poly);
    ASSERT_EQ(block.CountCovering(covering),
              block.SelectCovering(covering, req).count);
  }
}

TEST_F(GeoBlockTest, FilteredSelectMatchesFilteredScan) {
  storage::Filter filter;
  filter.Add({4, storage::CompareOp::kEq, 1.0});  // passenger_count == 1
  const GeoBlock block = GeoBlock::Build(*data_, BlockOptions{15, filter});
  const auto polygons = workload::Neighborhoods(*raw_, 6, 77);
  AggregateRequest req;
  req.Add(AggFn::kCount);
  req.Add(AggFn::kSum, 0);
  for (const geo::Polygon& poly : polygons) {
    const auto covering = block.Cover(poly);
    Accumulator acc(&req);
    for (size_t row = 0; row < data_->num_rows(); ++row) {
      if (data_->Value(row, 4) != 1.0) continue;
      const cell::CellId leaf(data_->keys()[row]);
      for (const cell::CellId& c : covering) {
        if (c.Contains(leaf)) {
          acc.AddRow([&](int col) { return data_->Value(row, col); });
          break;
        }
      }
    }
    const QueryResult expected = acc.Finish();
    const QueryResult actual = block.SelectCovering(covering, req);
    ASSERT_EQ(actual.count, expected.count);
    ASSERT_NEAR(actual.values[1], expected.values[1],
                1e-9 * std::abs(expected.values[1]) + 1e-6);
  }
}

TEST_F(GeoBlockTest, CoarsenMatchesRebuild) {
  const GeoBlock fine = GeoBlock::Build(*data_, BlockOptions{17, {}});
  const GeoBlock coarsened = fine.CoarsenTo(13);
  const GeoBlock rebuilt = GeoBlock::Build(*data_, BlockOptions{13, {}});
  ASSERT_EQ(coarsened.num_cells(), rebuilt.num_cells());
  ASSERT_EQ(coarsened.level(), 13);
  for (size_t i = 0; i < coarsened.num_cells(); ++i) {
    ASSERT_EQ(coarsened.cells()[i], rebuilt.cells()[i]);
    ASSERT_EQ(coarsened.counts()[i], rebuilt.counts()[i]);
    ASSERT_EQ(coarsened.offsets()[i], rebuilt.offsets()[i]);
    ASSERT_EQ(coarsened.cell_min_key(i), rebuilt.cell_min_key(i));
    ASSERT_EQ(coarsened.cell_max_key(i), rebuilt.cell_max_key(i));
    for (size_t c = 0; c < coarsened.num_columns(); ++c) {
      ASSERT_EQ(coarsened.cell_columns(i)[c].min,
                rebuilt.cell_columns(i)[c].min);
      ASSERT_EQ(coarsened.cell_columns(i)[c].max,
                rebuilt.cell_columns(i)[c].max);
      ASSERT_NEAR(coarsened.cell_columns(i)[c].sum,
                  rebuilt.cell_columns(i)[c].sum,
                  1e-9 * std::abs(rebuilt.cell_columns(i)[c].sum) + 1e-9);
    }
  }
}

TEST_F(GeoBlockTest, CoarsenToSameLevelIsIdentity) {
  const GeoBlock block = GeoBlock::Build(*data_, BlockOptions{14, {}});
  const GeoBlock same = block.CoarsenTo(14);
  EXPECT_EQ(same.num_cells(), block.num_cells());
  EXPECT_EQ(same.cells(), block.cells());
}

TEST_F(GeoBlockTest, RefineRebuildsFromBaseData) {
  const GeoBlock coarse = GeoBlock::Build(*data_, BlockOptions{12, {}});
  const GeoBlock refined = coarse.CoarsenTo(15);
  const GeoBlock rebuilt = GeoBlock::Build(*data_, BlockOptions{15, {}});
  EXPECT_EQ(refined.num_cells(), rebuilt.num_cells());
  EXPECT_EQ(refined.cells(), rebuilt.cells());
}

TEST_F(GeoBlockTest, AggregateForCellMatchesSelect) {
  const GeoBlock block = GeoBlock::Build(*data_, BlockOptions{15, {}});
  const AggregateRequest req = FullRequest();
  std::mt19937_64 rng(5);
  for (int t = 0; t < 30; ++t) {
    const size_t idx = rng() % block.num_cells();
    const cell::CellId cell =
        cell::CellId(block.cells()[idx]).Parent(10 + t % 6);
    const AggregateVector agg = block.AggregateForCell(cell);
    Accumulator acc(&req);
    acc.AddAggregate(agg.count, agg.columns.data());
    const std::vector<cell::CellId> covering{cell};
    ExpectResultsEqual(acc.Finish(), block.SelectCovering(covering, req));
  }
}

TEST_F(GeoBlockTest, FinerLevelsHaveMoreCells) {
  size_t prev = 0;
  for (const int level : {11, 13, 15, 17}) {
    const GeoBlock block = GeoBlock::Build(*data_, BlockOptions{level, {}});
    EXPECT_GT(block.num_cells(), prev);
    prev = block.num_cells();
  }
}

TEST_F(GeoBlockTest, MemoryAccounting) {
  const GeoBlock block = GeoBlock::Build(*data_, BlockOptions{15, {}});
  EXPECT_GT(block.CellAggregateBytes(), 0u);
  EXPECT_GE(block.MemoryBytes(), block.CellAggregateBytes());
  // Size is per-cell, not per-row.
  const size_t per_cell = sizeof(uint64_t) * 3 + sizeof(uint32_t) * 2 +
                          block.num_columns() * sizeof(ColumnAggregate);
  EXPECT_EQ(block.CellAggregateBytes(), block.num_cells() * per_cell);
}

TEST_F(GeoBlockTest, SelectPolygonOverloadMatchesCovering) {
  const GeoBlock block = GeoBlock::Build(*data_, BlockOptions{15, {}});
  const auto polygons = workload::Neighborhoods(*raw_, 3, 55);
  AggregateRequest req;
  req.Add(AggFn::kCount);
  for (const geo::Polygon& poly : polygons) {
    const auto covering = block.Cover(poly);
    EXPECT_EQ(block.Select(poly, req).count,
              block.SelectCovering(covering, req).count);
    EXPECT_EQ(block.Count(poly), block.CountCovering(covering));
  }
}

}  // namespace
}  // namespace geoblocks::core
