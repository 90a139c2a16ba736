#include <gtest/gtest.h>

#include <random>

#include "cell/coverer.h"
#include "core/geoblock.h"
#include "workload/datagen.h"
#include "workload/exact.h"
#include "workload/polygen.h"

namespace geoblocks {
namespace {

/// Direct verification of the paper's headline guarantee (Section 3.2):
/// "any point on the cell covering is within a distance sqrt(e1^2 + e2^2)
/// from the polygon outline, where e1, e2 are the side lengths of the
/// cell". We sample points from covering cells that lie *outside* the
/// polygon (the false positives) and check their distance to the outline
/// against the diagonal of the cell that admitted them.
class ErrorBoundPropertyTest : public ::testing::TestWithParam<int> {};

TEST_P(ErrorBoundPropertyTest, FalsePositivesAreWithinCellDiagonal) {
  std::mt19937_64 rng(GetParam() * 104729);
  std::uniform_real_distribution<double> uni(0.0, 1.0);
  const geo::Polygon poly = geo::Polygon::RegularNGon(
      {0.35 + 0.3 * uni(rng), 0.35 + 0.3 * uni(rng)}, 0.08 + 0.18 * uni(rng),
      3 + static_cast<int>(uni(rng) * 9), uni(rng) * 6.28);
  std::vector<cell::CoveringCell> covering;
  cell::GetCovering(poly, 8 + GetParam() % 6, &covering);
  ASSERT_FALSE(covering.empty());

  for (const cell::CoveringCell& cc : covering) {
    const geo::Rect rect = cc.cell.ToRect();
    const double diagonal = rect.Diagonal();
    for (int s = 0; s < 30; ++s) {
      const geo::Point p{rect.min.x + uni(rng) * rect.Width(),
                         rect.min.y + uni(rng) * rect.Height()};
      if (poly.Contains(p)) continue;  // true positive, no error
      ASSERT_LE(poly.DistanceToOutline(p), diagonal * (1.0 + 1e-9))
          << "cell " << cc.cell << " point " << p;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ErrorBoundPropertyTest,
                         ::testing::Range(1, 13));

TEST(ErrorBoundTest, DistanceToOutlineBasics) {
  const geo::Polygon square{{0, 0}, {4, 0}, {4, 4}, {0, 4}};
  EXPECT_DOUBLE_EQ(square.DistanceToOutline({2, 2}), 2.0);   // center
  EXPECT_DOUBLE_EQ(square.DistanceToOutline({2, 0}), 0.0);   // on edge
  EXPECT_DOUBLE_EQ(square.DistanceToOutline({2, -3}), 3.0);  // outside
  EXPECT_DOUBLE_EQ(square.DistanceToOutline({6, 6}),
                   std::sqrt(8.0));  // past a corner
}

/// The end-to-end version of the bound: the count error of a GeoBlock
/// query can only come from points within one cell diagonal of the
/// outline.
TEST(ErrorBoundTest, BlockCountErrorOnlyFromBoundaryBand) {
  const storage::PointTable raw = workload::GenTaxi(30000, 42);
  storage::ExtractOptions options;
  options.clean_bounds = workload::NycBounds();
  const auto data = storage::SortedDataset::Extract(raw, options);
  const core::GeoBlock block =
      core::GeoBlock::Build(data, core::BlockOptions{16, {}});

  const auto polygons = workload::Neighborhoods(raw, 8, 7);
  for (const geo::Polygon& poly : polygons) {
    const uint64_t approx = block.Count(poly);
    const uint64_t exact = workload::ExactCount(data, poly);
    ASSERT_GE(approx, exact);  // only false positives
    // Count all points within one level-16 cell diagonal (in unit space)
    // of the outline; the error must not exceed that band population.
    const geo::Polygon unit_poly = data.projection().ToUnit(poly);
    const double diagonal =
        cell::CellId::FromPoint({0.5, 0.5}).Parent(16).ToRect().Diagonal();
    uint64_t band = 0;
    for (size_t row = 0; row < data.num_rows(); ++row) {
      const geo::Point p = data.projection().ToUnit(data.Location(row));
      if (!unit_poly.Contains(p) &&
          unit_poly.DistanceToOutline(p) <= diagonal) {
        ++band;
      }
    }
    ASSERT_LE(approx - exact, band);
  }
}

/// Halving the cell size (one level finer) must never increase the count
/// error; over several levels the error shrinks to (near) zero.
TEST(ErrorBoundTest, ErrorMonotoneInLevelForFixedPolygon) {
  const storage::PointTable raw = workload::GenTaxi(20000, 43);
  storage::ExtractOptions options;
  options.clean_bounds = workload::NycBounds();
  const auto data = storage::SortedDataset::Extract(raw, options);
  const auto polygons = workload::Neighborhoods(raw, 5, 11);
  for (const geo::Polygon& poly : polygons) {
    const uint64_t exact = workload::ExactCount(data, poly);
    uint64_t prev_error = UINT64_MAX;
    for (const int level : {12, 14, 16, 18, 20}) {
      const core::GeoBlock block =
          core::GeoBlock::Build(data, core::BlockOptions{level, {}});
      const uint64_t approx = block.Count(poly);
      ASSERT_GE(approx, exact);
      const uint64_t error = approx - exact;
      ASSERT_LE(error, prev_error) << "level " << level;
      prev_error = error;
    }
    // At level 20 (~30 m cells) the error should be a tiny fraction.
    if (exact > 500) {
      EXPECT_LT(static_cast<double>(prev_error),
                0.05 * static_cast<double>(exact));
    }
  }
}

}  // namespace
}  // namespace geoblocks
