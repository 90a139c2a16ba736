#include <gtest/gtest.h>

#include <random>
#include <utility>
#include <vector>

#include "cell/cell_id.h"

namespace geoblocks::cell {
namespace {

TEST(CellIdTest, RootProperties) {
  const CellId root = CellId::Root();
  EXPECT_TRUE(root.is_valid());
  EXPECT_EQ(root.level(), 0);
  EXPECT_FALSE(root.is_leaf());
  EXPECT_EQ(root.ToRect(), (geo::Rect{{0, 0}, {1, 1}}));
}

TEST(CellIdTest, InvalidDefault) {
  EXPECT_FALSE(CellId().is_valid());
}

TEST(CellIdTest, LeafFromPoint) {
  const CellId leaf = CellId::FromPoint({0.3, 0.7});
  EXPECT_TRUE(leaf.is_valid());
  EXPECT_TRUE(leaf.is_leaf());
  EXPECT_EQ(leaf.level(), CellId::kMaxLevel);
  const geo::Rect r = leaf.ToRect();
  EXPECT_TRUE(r.Contains(geo::Point{0.3, 0.7}));
}

TEST(CellIdTest, ParentContainsChild) {
  const CellId leaf = CellId::FromPoint({0.123, 0.456});
  CellId cell = leaf;
  for (int level = CellId::kMaxLevel - 1; level >= 0; --level) {
    const CellId parent = cell.Parent();
    EXPECT_EQ(parent.level(), level);
    EXPECT_TRUE(parent.Contains(cell));
    EXPECT_TRUE(parent.ToRect().Contains(cell.ToRect()));
    cell = parent;
  }
  EXPECT_EQ(cell, CellId::Root());
}

TEST(CellIdTest, ChildrenPartitionParent) {
  std::mt19937_64 rng(5);
  std::uniform_real_distribution<double> uni(0.0, 1.0);
  for (int t = 0; t < 50; ++t) {
    const CellId cell =
        CellId::FromPoint({uni(rng), uni(rng)}).Parent(5 + t % 20);
    const auto children = cell.Children();
    uint64_t expected_first = cell.RangeMin().id();
    double total_area = 0.0;
    for (int k = 0; k < 4; ++k) {
      const CellId child = children[k];
      ASSERT_TRUE(child.is_valid());
      ASSERT_EQ(child.level(), cell.level() + 1);
      ASSERT_TRUE(cell.Contains(child));
      ASSERT_EQ(child.Parent(), cell);
      ASSERT_EQ(child.ChildPosition(), k);
      // Children tile the id range contiguously in Hilbert order.
      ASSERT_EQ(child.RangeMin().id(), expected_first);
      expected_first = child.RangeMax().id() + 2;
      total_area += child.ToRect().Area();
      ASSERT_TRUE(cell.ToRect().Contains(child.ToRect()));
    }
    EXPECT_DOUBLE_EQ(total_area, cell.ToRect().Area());
  }
}

TEST(CellIdTest, RangeMinMax) {
  const CellId cell = CellId::FromPoint({0.5, 0.5}).Parent(10);
  const CellId lo = cell.RangeMin();
  const CellId hi = cell.RangeMax();
  EXPECT_TRUE(lo.is_leaf());
  EXPECT_TRUE(hi.is_leaf());
  EXPECT_TRUE(cell.Contains(lo));
  EXPECT_TRUE(cell.Contains(hi));
  // The number of leaves in the range is 4^(30-10).
  const uint64_t leaves = (hi.id() - lo.id()) / 2 + 1;
  EXPECT_EQ(leaves, uint64_t{1} << (2 * (CellId::kMaxLevel - 10)));
}

TEST(CellIdTest, ContainsIsRangeBased) {
  const CellId a = CellId::FromPoint({0.1, 0.1}).Parent(4);
  const CellId inside = CellId::FromPoint(a.CenterPoint());
  const CellId outside = CellId::FromPoint({0.9, 0.9});
  EXPECT_TRUE(a.Contains(inside));
  EXPECT_FALSE(a.Contains(outside));
  EXPECT_TRUE(a.Contains(a));
  EXPECT_TRUE(a.Intersects(inside));
  EXPECT_TRUE(inside.Intersects(a));
}

TEST(CellIdTest, ChildBeginLast) {
  const CellId cell = CellId::FromPoint({0.25, 0.75}).Parent(8);
  const CellId first = cell.ChildBegin(12);
  const CellId last = cell.ChildLast(12);
  EXPECT_EQ(first.level(), 12);
  EXPECT_EQ(last.level(), 12);
  EXPECT_TRUE(cell.Contains(first));
  EXPECT_TRUE(cell.Contains(last));
  EXPECT_LT(first.id(), last.id());
  // first/last descendants bound the full leaf range.
  EXPECT_EQ(first.RangeMin().id(), cell.RangeMin().id());
  EXPECT_EQ(last.RangeMax().id(), cell.RangeMax().id());
  // Walking Next() from first reaches last in 4^(12-8) - 1 steps.
  CellId c = first;
  uint64_t steps = 0;
  while (c != last) {
    c = c.Next();
    ++steps;
  }
  EXPECT_EQ(steps, (uint64_t{1} << (2 * 4)) - 1);
}

TEST(CellIdTest, NextPrev) {
  const CellId cell = CellId::FromPoint({0.6, 0.4}).Parent(9);
  EXPECT_EQ(cell.Next().Prev(), cell);
  EXPECT_EQ(cell.Next().level(), 9);
}

TEST(CellIdTest, AdjacentCellsShareEdge) {
  // Next() at a level moves to a Hilbert-adjacent square.
  const CellId cell = CellId::FromPoint({0.3, 0.3}).Parent(15);
  const geo::Rect a = cell.ToRect();
  const geo::Rect b = cell.Next().ToRect();
  EXPECT_TRUE(a.Intersects(b));     // closed rects: shared edge intersects
  EXPECT_FALSE(a.Contains(b));
}

TEST(CellIdTest, CommonAncestor) {
  const CellId a = CellId::FromPoint({0.1, 0.1});
  const CellId b = CellId::FromPoint({0.9, 0.9});
  const CellId anc = CellId::CommonAncestor(a, b);
  EXPECT_TRUE(anc.Contains(a));
  EXPECT_TRUE(anc.Contains(b));
  // Identical leaves: ancestor is the leaf itself.
  EXPECT_EQ(CellId::CommonAncestor(a, a), a);
  // Parent/child: ancestor is the parent.
  const CellId parent = a.Parent(10);
  EXPECT_EQ(CellId::CommonAncestor(parent, a), parent);
  EXPECT_EQ(CellId::CommonAncestor(a, parent), parent);
}

TEST(CellIdTest, CommonAncestorIsLowest) {
  std::mt19937_64 rng(11);
  std::uniform_real_distribution<double> uni(0.0, 1.0);
  for (int t = 0; t < 200; ++t) {
    const CellId a = CellId::FromPoint({uni(rng), uni(rng)});
    const CellId b = CellId::FromPoint({uni(rng), uni(rng)});
    const CellId anc = CellId::CommonAncestor(a, b);
    ASSERT_TRUE(anc.Contains(a));
    ASSERT_TRUE(anc.Contains(b));
    if (anc.level() < CellId::kMaxLevel && a != b) {
      // No strictly finer common ancestor exists.
      bool a_in_same_child = false;
      bool b_in_same_child = false;
      for (const CellId& child : anc.Children()) {
        if (child.Contains(a) && child.Contains(b)) {
          a_in_same_child = b_in_same_child = true;
        }
      }
      ASSERT_FALSE(a_in_same_child && b_in_same_child);
    }
  }
}

TEST(CellIdTest, FromIJLevelMatchesParent) {
  std::mt19937_64 rng(13);
  std::uniform_int_distribution<uint32_t> coord(0, (1u << 30) - 1);
  for (int t = 0; t < 200; ++t) {
    const uint32_t i = coord(rng);
    const uint32_t j = coord(rng);
    const int level = static_cast<int>(rng() % 31);
    ASSERT_EQ(CellId::FromIJLevel(i, j, level),
              CellId::FromIJ(i, j).Parent(level));
  }
}

TEST(CellIdTest, ToRectGeometry) {
  std::mt19937_64 rng(17);
  std::uniform_real_distribution<double> uni(0.0, 1.0);
  for (int t = 0; t < 200; ++t) {
    const geo::Point p{uni(rng), uni(rng)};
    const int level = static_cast<int>(rng() % 31);
    const CellId cell = CellId::FromPoint(p).Parent(level);
    const geo::Rect r = cell.ToRect();
    ASSERT_TRUE(r.Contains(p)) << cell << " " << r << " " << p.x << ","
                               << p.y;
    const double expected_side = 1.0 / static_cast<double>(1u << level);
    ASSERT_NEAR(r.Width(), expected_side, 1e-12);
    ASSERT_NEAR(r.Height(), expected_side, 1e-12);
  }
}

TEST(CellIdTest, OrderPreservation) {
  // Cell ids at the same level sort identically to their Hilbert curve
  // positions.
  const CellId a = CellId::FromPoint({0.2, 0.2}).Parent(12);
  CellId b = a.Next();
  for (int i = 0; i < 100; ++i) {
    ASSERT_LT(a, b);
    ASSERT_LT(a.pos(), b.pos());
    b = b.Next();
  }
}

TEST(CellIdTest, ToStringFormat) {
  EXPECT_EQ(CellId::Root().ToString(), "0/");
  const CellId cell = CellId::Root().Child(2).Child(0).Child(3);
  EXPECT_EQ(cell.ToString(), "3/203");
  EXPECT_EQ(CellId().ToString(), "(invalid)");
}

TEST(CellIdTest, LsbForLevel) {
  EXPECT_EQ(CellId::LsbForLevel(CellId::kMaxLevel), 1u);
  EXPECT_EQ(CellId::LsbForLevel(0), uint64_t{1} << 60);
}

::testing::AssertionResult SameRect(const geo::Rect& got,
                                    const geo::Rect& want) {
  // Bit-for-bit: the coverer's predicates see exactly ToRect's doubles.
  if (got.min.x == want.min.x && got.min.y == want.min.y &&
      got.max.x == want.max.x && got.max.y == want.max.y) {
    return ::testing::AssertionSuccess();
  }
  return ::testing::AssertionFailure() << got << " vs " << want;
}

TEST(CellIdTest, SquareChildMatchesToRectToLevel6) {
  // Every cell from the root to level 6, reached by stepping the square.
  std::vector<std::pair<CellId, CellSquare>> level{
      {CellId::Root(), CellSquare{}}};
  ASSERT_TRUE(SameRect(CellSquare{}.ToRect(), CellId::Root().ToRect()));
  for (int l = 1; l <= 6; ++l) {
    std::vector<std::pair<CellId, CellSquare>> next;
    for (const auto& [cell, square] : level) {
      for (int k = 0; k < 4; ++k) {
        const CellSquare child = square.Child(k);
        ASSERT_TRUE(SameRect(child.ToRect(), cell.Child(k).ToRect()))
            << cell.Child(k);
        next.push_back({cell.Child(k), child});
      }
    }
    level = std::move(next);
  }
  EXPECT_EQ(level.size(), size_t{1} << 12);
}

TEST(CellIdTest, SquareChildMatchesToRectOnRandomPaths) {
  std::mt19937_64 rng(30);
  for (int path = 0; path < 10000; ++path) {
    CellId cell = CellId::Root();
    CellSquare square;
    for (int l = 1; l <= CellId::kMaxLevel; ++l) {
      const int k = static_cast<int>(rng() % 4);
      cell = cell.Child(k);
      square = square.Child(k);
      ASSERT_TRUE(SameRect(square.ToRect(), cell.ToRect())) << cell;
    }
    // The seed walk reproduces the square of any cell on the path.
    const CellId seed = cell.Parent(static_cast<int>(rng() % 31));
    ASSERT_TRUE(SameRect(CellSquare::Of(seed).ToRect(), seed.ToRect()))
        << seed;
  }
}

/// kGrandchildOrder against two steps of CellSquare::Child from a square
/// of each orientation, and against the ids: on random cells, whose
/// orientations vary, Child(k).Child(m) decodes (ToIJ, 30 levels) to the
/// grid position the table gives inside the cell's square.
TEST(CellIdTest, GrandchildOrderMatchesTwoChildSteps) {
  for (uint32_t o = 0; o < 4; ++o) {
    const CellSquare square{0, 0, 4, o};
    uint32_t seen = 0;
    for (int k = 0; k < 4; ++k) {
      for (int m = 0; m < 4; ++m) {
        const CellSquare leaf = square.Child(k).Child(m);
        const int g = kGrandchildOrder[o][4 * k + m];
        EXPECT_EQ(leaf.i, static_cast<uint32_t>(g % 4)) << o << k << m;
        EXPECT_EQ(leaf.j, static_cast<uint32_t>(g / 4)) << o << k << m;
        seen |= 1u << g;
      }
    }
    EXPECT_EQ(seen, 0xFFFFu) << "orientation " << o;
  }

  std::mt19937_64 rng(1616);
  uint32_t orientations = 0;
  for (int t = 0; t < 2000; ++t) {
    CellId cell = CellId::FromIJ(rng() % (uint32_t{1} << 30),
                                 rng() % (uint32_t{1} << 30));
    cell = cell.Parent(static_cast<int>(rng() % (CellId::kMaxLevel - 1)));
    const CellSquare square = CellSquare::Of(cell);
    orientations |= 1u << square.orientation;
    const uint32_t quarter = square.size / 4;
    for (int k = 0; k < 4; ++k) {
      for (int m = 0; m < 4; ++m) {
        const int g = kGrandchildOrder[square.orientation][4 * k + m];
        uint32_t i = 0;
        uint32_t j = 0;
        uint32_t size = 0;
        cell.Child(k).Child(m).ToIJ(&i, &j, &size);
        ASSERT_EQ(size, quarter) << cell;
        ASSERT_EQ(i, square.i + (g % 4) * quarter) << cell << " " << k << m;
        ASSERT_EQ(j, square.j + (g / 4) * quarter) << cell << " " << k << m;
      }
    }
  }
  EXPECT_EQ(orientations, 0xFu) << "some orientation was never drawn";
}

class CellIdLevelTest : public ::testing::TestWithParam<int> {};

TEST_P(CellIdLevelTest, FromPointRoundTripsThroughRect) {
  const int level = GetParam();
  std::mt19937_64 rng(1000 + level);
  std::uniform_real_distribution<double> uni(0.0, 1.0);
  for (int t = 0; t < 100; ++t) {
    const geo::Point p{uni(rng), uni(rng)};
    const CellId cell = CellId::FromPoint(p).Parent(level);
    ASSERT_EQ(cell.level(), level);
    ASSERT_TRUE(cell.ToRect().Contains(p));
    // The center of the cell maps back to the same cell.
    ASSERT_EQ(CellId::FromPoint(cell.CenterPoint()).Parent(level), cell);
  }
}

INSTANTIATE_TEST_SUITE_P(Levels, CellIdLevelTest,
                         ::testing::Values(0, 1, 2, 5, 8, 11, 13, 15, 17, 19,
                                           21, 25, 30));

}  // namespace
}  // namespace geoblocks::cell
