#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cmath>
#include <queue>
#include <random>
#include <string>

#include "cell/coverer.h"
#include "cell/hilbert.h"
#include "storage/sorted_dataset.h"
#include "workload/datagen.h"
#include "workload/polygen.h"

namespace geoblocks::cell {
namespace {

std::vector<CoveringCell> Cover(const geo::Polygon& polygon, int max_level) {
  std::vector<CoveringCell> covering;
  GetCovering(polygon, max_level, &covering);
  return covering;
}

// ---------------------------------------------------------------------------
// Reference coverer: the S2RegionCoverer-style best-first expansion this
// library used before the depth-first coverer, fixed at min level 0 with no
// cell budget (the only configuration any caller used). GetCovering must
// reproduce its output exactly, cells and interior flags both.
// ---------------------------------------------------------------------------

struct Candidate {
  CellId cell;

  /// Expand coarser cells first; ties broken by id for determinism.
  friend bool operator<(const Candidate& a, const Candidate& b) {
    const int la = a.cell.level();
    const int lb = b.cell.level();
    if (la != lb) return la > lb;  // priority_queue: smaller level on top
    return a.cell > b.cell;
  }
};

CellId SmallestEnclosingCell(const geo::Rect& bounds) {
  CellId cell = CellId::FromPoint(bounds.min);
  while (cell.level() > 0 && !cell.ToRect().Contains(bounds)) {
    cell = cell.Parent();
  }
  if (!cell.ToRect().Contains(bounds)) return CellId::Root();
  return cell;
}

/// Merges complete sibling quadruples into their parent, bottom-up, marking
/// the merged cell interior only when all four children were interior.
void Canonicalize(std::vector<CoveringCell>* cells) {
  std::sort(cells->begin(), cells->end(),
            [](const CoveringCell& a, const CoveringCell& b) {
              return a.cell < b.cell;
            });
  bool merged = true;
  while (merged) {
    merged = false;
    std::vector<CoveringCell> out;
    out.reserve(cells->size());
    size_t i = 0;
    while (i < cells->size()) {
      const CellId c = (*cells)[i].cell;
      if (c.level() > 0 && i + 3 < cells->size()) {
        const CellId parent = c.Parent();
        bool all_siblings = c == parent.Child(0);
        bool all_interior = true;
        for (int k = 0; all_siblings && k < 4; ++k) {
          const CoveringCell& cc = (*cells)[i + k];
          if (cc.cell != parent.Child(k)) all_siblings = false;
          all_interior = all_interior && cc.interior;
        }
        if (all_siblings) {
          out.push_back({parent, all_interior});
          i += 4;
          merged = true;
          continue;
        }
      }
      out.push_back((*cells)[i]);
      ++i;
    }
    *cells = std::move(out);
  }
}

std::vector<CoveringCell> ReferenceCovering(const geo::Polygon& polygon,
                                            int max_level) {
  std::vector<CoveringCell> result;
  const geo::Rect bounds = polygon.Bounds();
  if (bounds.IsEmpty()) return result;

  std::priority_queue<Candidate> queue;
  CellId seed = SmallestEnclosingCell(bounds);
  if (seed.level() > max_level) seed = seed.Parent(max_level);
  queue.push({seed});

  while (!queue.empty()) {
    const CellId c = queue.top().cell;
    queue.pop();
    const bool contained = polygon.ContainsRect(c.ToRect());
    if (contained || c.level() >= max_level) {
      result.push_back({c, contained});
      continue;
    }
    for (const CellId& child : c.Children()) {
      if (polygon.IntersectsRect(child.ToRect())) {
        queue.push({child});
      }
    }
  }

  Canonicalize(&result);
  return result;
}

/// Covers `polygon` with both coverers, writing the production covering
/// into the reused `*scratch`, and reports the first difference.
::testing::AssertionResult MatchesReference(
    const geo::Polygon& polygon, int level,
    std::vector<CoveringCell>* scratch) {
  GetCovering(polygon, level, scratch);
  const std::vector<CoveringCell> want = ReferenceCovering(polygon, level);
  const size_t n = std::min(scratch->size(), want.size());
  for (size_t i = 0; i < n; ++i) {
    if ((*scratch)[i] != want[i]) {
      return ::testing::AssertionFailure()
             << "level " << level << ": cell " << i << " is "
             << (*scratch)[i].cell << (*scratch)[i].interior
             << ", reference has " << want[i].cell << want[i].interior;
    }
  }
  if (scratch->size() != want.size()) {
    return ::testing::AssertionFailure()
           << "level " << level << ": " << scratch->size()
           << " cells, reference has " << want.size();
  }
  return ::testing::AssertionSuccess();
}

/// Lat/lng query polygons from every workload generator, projected onto
/// the unit square the way the engine projects them, checked against the
/// reference at levels 8-21.
class CovererOracleTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    raw_ = new storage::PointTable(workload::GenTaxi(20000, 29));
    storage::ExtractOptions options;
    options.clean_bounds = workload::NycBounds();
    data_ = new storage::SortedDataset(
        storage::SortedDataset::Extract(*raw_, options));
  }
  static void TearDownTestSuite() {
    delete data_;
    delete raw_;
  }

  static void ExpectAllLevelsMatch(const std::vector<geo::Polygon>& polygons,
                                   const std::string& generator) {
    ASSERT_FALSE(polygons.empty());
    std::vector<CoveringCell> scratch;
    for (size_t i = 0; i < polygons.size(); ++i) {
      const geo::Polygon unit = data_->projection().ToUnit(polygons[i]);
      for (int level = 8; level <= 21; ++level) {
        ASSERT_TRUE(MatchesReference(unit, level, &scratch))
            << generator << " polygon " << i;
      }
    }
  }

  static storage::PointTable* raw_;
  static storage::SortedDataset* data_;
};

storage::PointTable* CovererOracleTest::raw_ = nullptr;
storage::SortedDataset* CovererOracleTest::data_ = nullptr;

TEST_F(CovererOracleTest, Neighborhoods) {
  ExpectAllLevelsMatch(workload::Neighborhoods(*raw_, 100, 5), "neighborhood");
}

TEST_F(CovererOracleTest, TilingPolygons) {
  ExpectAllLevelsMatch(
      workload::TilingPolygons(workload::NycBounds(), 8, 10, 0.3, 7), "tile");
}

TEST_F(CovererOracleTest, RandomRectangles) {
  ExpectAllLevelsMatch(
      workload::RandomRectangles(workload::NycBounds(), 100, 13), "rectangle");
}

TEST_F(CovererOracleTest, SelectivityPolygons) {
  std::vector<geo::Polygon> polygons;
  for (const double fraction : {0.001, 0.003, 0.01, 0.03, 0.1, 0.2, 0.3,
                                0.5, 0.7, 0.9}) {
    polygons.push_back(workload::SelectivityPolygon(*data_, fraction));
  }
  ExpectAllLevelsMatch(polygons, "32-gon");
}

/// Unit-space polygons chosen to land on the predicates' edge cases: edges
/// along cell borders, vertices on cell corners, holes, slivers and
/// self-intersecting rings, at levels 0-14. Apart from the unit square the
/// shapes are kept small, since a covering's cost grows with its perimeter
/// times 2^level.
TEST(CovererOracleAdversarialTest, MatchesReference) {
  std::vector<geo::Polygon> polygons;
  polygons.push_back(geo::Polygon::FromRect({{0, 0}, {1, 1}}));
  // Cell-exact rectangles: unions of whole cells at levels 2-8, plus one
  // reaching past the unit square.
  for (const auto& [lo, hi] : std::vector<std::pair<geo::Point, geo::Point>>{
           {{0.5, 0.5}, {0.75, 0.75}},
           {{0.25, 0.0}, {0.375, 0.125}},
           {{0.125, 0.375}, {0.3125, 0.4375}},
           {{3.0 / 64, 5.0 / 64}, {13.0 / 64, 9.0 / 64}},
           {{0.5, 0.25}, {0.5 + 1.0 / 256, 0.5}},
           {{-0.0625, -0.0625}, {0.0625, 0.125}}}) {
    polygons.push_back(geo::Polygon::FromRect({lo, hi}));
  }
  // Polygons with a hole: one with cell-aligned edges, one skewed.
  geo::Polygon aligned = geo::Polygon::FromRect({{0.5, 0.0}, {0.75, 0.25}});
  aligned.AddRing({{0.5625, 0.0625}, {0.6875, 0.0625}, {0.6875, 0.1875},
                   {0.5625, 0.1875}});
  polygons.push_back(aligned);
  geo::Polygon skewed{{0.1, 0.62}, {0.3, 0.64}, {0.28, 0.83}, {0.11, 0.8}};
  skewed.AddRing({{0.16, 0.68}, {0.23, 0.7}, {0.2, 0.76}});
  polygons.push_back(skewed);
  // Slivers: a near-degenerate triangle, one lying on a cell border, and a
  // zero-area triangle.
  polygons.push_back(
      geo::Polygon{{0.6, 0.3}, {0.8, 0.3 + 1e-9}, {0.8, 0.3}});
  polygons.push_back(
      geo::Polygon{{0.5, 0.5}, {0.7, 0.5}, {0.6, 0.5 + 1e-7}});
  polygons.push_back(geo::Polygon{{0.8, 0.8}, {0.85, 0.85}, {0.95, 0.95}});
  // Quads, most of them self-intersecting, with vertices on the 1/64 grid
  // (corners of level-6 cells) inside a 16x16 window of that grid.
  std::mt19937_64 rng(64);
  std::uniform_int_distribution<int> window(0, 48);
  std::uniform_int_distribution<int> step(0, 16);
  for (int q = 0; q < 16; ++q) {
    const int x0 = window(rng);
    const int y0 = window(rng);
    geo::Ring ring;
    for (int v = 0; v < 4; ++v) {
      ring.push_back({(x0 + step(rng)) / 64.0, (y0 + step(rng)) / 64.0});
    }
    polygons.emplace_back(std::move(ring));
  }

  std::vector<CoveringCell> scratch;
  for (size_t i = 0; i < polygons.size(); ++i) {
    for (int level = 0; level <= 14; ++level) {
      ASSERT_TRUE(MatchesReference(polygons[i], level, &scratch))
          << "adversarial polygon " << i;
    }
  }
}

/// Shapes where an edge-list coverer could part from the reference: many
/// edges per cell, several holes, edges passing within one ulp of the
/// dyadic corners and borders of cells at levels 15-20, and a polygon
/// reaching past the unit square, so the descent starts at Root().
TEST(CovererOracleAdversarialTest, EdgeListCornerCases) {
  std::vector<CoveringCell> scratch;
  const auto expect_levels = [&](const std::vector<geo::Polygon>& polygons,
                                 int lo, int hi, const std::string& what) {
    for (size_t i = 0; i < polygons.size(); ++i) {
      for (int level = lo; level <= hi; ++level) {
        ASSERT_TRUE(MatchesReference(polygons[i], level, &scratch))
            << what << " " << i;
      }
    }
  };

  expect_levels({geo::Polygon::RegularNGon({0.3, 0.7}, 0.01, 256, 0.1),
                 geo::Polygon::RegularNGon({0.625, 0.375}, 0.0625, 256)},
                0, 14, "256-gon");

  geo::Polygon holes = geo::Polygon::FromRect({{0.25, 0.25}, {0.3125, 0.3}});
  holes.AddRing({{0.26, 0.26}, {0.27, 0.26}, {0.27, 0.27}, {0.26, 0.27}});
  holes.AddRing({{0.28, 0.255}, {0.3, 0.26}, {0.29, 0.28}});
  holes.AddRing({{0.265, 0.28125}, {0.28125, 0.28125}, {0.28125, 0.296875},
                 {0.265, 0.29}});
  expect_levels({holes}, 0, 15, "three holes");

  // For each level L, a triangle with one edge through the level-L cell
  // corner c, exactly or with an endpoint moved one ulp either way, and a
  // triangle with one edge one ulp off the cell border through c.
  std::vector<geo::Polygon> near_corners;
  for (int level = 15; level <= 20; ++level) {
    const double h = std::ldexp(1.0, -level);
    // Odd multiples of h: a corner at level L and every finer level only.
    const geo::Point c{((411 << (level - 10)) + 1) * h,
                       ((733 << (level - 10)) + 1) * h};
    for (const double toward : {0.0, 2.0, -2.0}) {
      geo::Point q{c.x + 3 * h, c.y + 2 * h};
      if (toward != 0.0) q.x = std::nextafter(q.x, toward);
      near_corners.push_back(geo::Polygon{
          {c.x - 3 * h, c.y - 2 * h}, q, {c.x - 3 * h, c.y + 4 * h}});
      const double y = toward == 0.0 ? c.y : std::nextafter(c.y, toward);
      near_corners.push_back(geo::Polygon{
          {c.x - 2 * h, y}, {c.x + 5 * h, y}, {c.x + h, c.y - 3 * h}});
    }
  }
  expect_levels(near_corners, 15, 20, "near-corner triangle");

  // Raw vertices outside the unit square: a thin wedge across it.
  const geo::Polygon outside{{-0.3, 0.40}, {1.3, 0.42}, {1.3, 0.45}};
  GetCovering(outside, 0, &scratch);
  ASSERT_EQ(scratch.size(), 1u);
  EXPECT_EQ(scratch[0].cell, CellId::Root());
  expect_levels({outside}, 0, 12, "outside");
}

/// Seeded random triangles at levels 15-20, each with one edge through a
/// cell corner of that level, exactly or with an endpoint one ulp off in x
/// or y, so the coverer's one-corner decision meets edges at rounding
/// distance from the corner it tests.
TEST(CovererOracleAdversarialTest, SeededNearCornerFuzz) {
  std::mt19937_64 rng(1517);
  std::uniform_int_distribution<int> corner(1 << 10, (1 << 11) - 1);
  std::uniform_int_distribution<int> offset(-4, 4);
  std::uniform_int_distribution<int> stretch(1, 3);
  std::uniform_int_distribution<int> nudge(0, 4);
  std::vector<CoveringCell> scratch;
  for (int level = 15; level <= 20; ++level) {
    const double h = std::ldexp(1.0, -level);
    for (int t = 0; t < 40; ++t) {
      // A corner of a level-`level` cell (odd multiples of h, so of no
      // coarser cell), an edge p -> q through it and an apex r.
      const int ci = (corner(rng) << (level - 11)) | 1;
      const int cj = (corner(rng) << (level - 11)) | 1;
      const geo::Point c{ci * h, cj * h};
      int dx = offset(rng);
      const int dy = offset(rng);
      if (dx == 0 && dy == 0) dx = 1;
      const int m = stretch(rng);
      const geo::Point p{c.x + dx * h, c.y + dy * h};
      geo::Point q{c.x - m * dx * h, c.y - m * dy * h};
      switch (nudge(rng)) {
        case 1: q.x = std::nextafter(q.x, 2.0); break;
        case 2: q.x = std::nextafter(q.x, -1.0); break;
        case 3: q.y = std::nextafter(q.y, 2.0); break;
        case 4: q.y = std::nextafter(q.y, -1.0); break;
        default: break;
      }
      const geo::Point r{c.x + offset(rng) * h - dy * h,
                         c.y + offset(rng) * h + dx * h};
      const geo::Polygon triangle{p, q, r};
      for (int max_level = level - 1; max_level <= level + 2; ++max_level) {
        ASSERT_TRUE(MatchesReference(triangle, max_level, &scratch))
            << "level " << level << " triangle " << t;
      }
    }
  }
}

/// Seeded polygons with every vertex on the corner lattice of level-L
/// cells, L = 15-20, inside an 8x8 window of them aligned to a level L-3
/// cell, covered at levels L-2..L+2. Horizontal and vertical edges run
/// along cell sides, slope +-1 and +-2 edges pass through cell corners,
/// vertices sit on the window's corner, where the descent's seed cell often
/// starts, and rings have holes or cross themselves: every case the
/// coverer's row and nudged column parity rules have to get exactly right.
TEST(CovererOracleAdversarialTest, SeededLatticeFuzz) {
  std::mt19937_64 rng(2217);
  const auto draw = [&](int lo, int hi) {
    return std::uniform_int_distribution<int>(lo, hi)(rng);
  };
  std::vector<CoveringCell> scratch;
  for (int level = 15; level <= 20; ++level) {
    const double h = std::ldexp(1.0, -level);
    for (int t = 0; t < 24; ++t) {
      // Window origins: multiples of 8 cells, anywhere in the unit square.
      const int bi = 8 * draw(0, (1 << (level - 3)) - 2);
      const int bj = 8 * draw(0, (1 << (level - 3)) - 2);
      const auto at = [&](int x, int y) {
        return geo::Point{(bi + x) * h, (bj + y) * h};
      };
      // A random lattice point of [x_lo, x_hi] x [y_lo, y_hi], x drawn
      // first (function arguments have no evaluation order).
      const auto point = [&](int x_lo, int x_hi, int y_lo, int y_hi) {
        const int x = draw(x_lo, x_hi);
        return at(x, draw(y_lo, y_hi));
      };
      // Three distinct sorted lattice values in [0, 8].
      const auto three = [&]() {
        std::array<int, 3> v{};
        do {
          v = {draw(0, 8), draw(0, 8), draw(0, 8)};
          std::sort(v.begin(), v.end());
        } while (v[0] == v[1] || v[1] == v[2]);
        return v;
      };
      std::vector<geo::Polygon> polygons;
      // Rectilinear: an L shape.
      const auto xs = three();
      const auto ys = three();
      polygons.push_back(geo::Polygon{
          at(xs[0], ys[0]), at(xs[2], ys[0]), at(xs[2], ys[1]),
          at(xs[1], ys[1]), at(xs[1], ys[2]), at(xs[0], ys[2])});
      // Diagonals through cell corners: a diamond of slope +-1 edges and a
      // triangle with slope +-2 sides from the window's corner.
      const int r = draw(1, 4);
      const int cx = draw(r, 8 - r);
      const int cy = draw(r, 8 - r);
      polygons.push_back(geo::Polygon{at(cx - r, cy), at(cx, cy - r),
                                      at(cx + r, cy), at(cx, cy + r)});
      const int k = draw(1, 4);
      polygons.push_back(geo::Polygon{at(0, 0), at(k, 2 * k), at(2 * k, 0)});
      // A vertex on the window's corner with its neighbours above and to
      // the right, so the corner is the polygon's bounds minimum.
      polygons.push_back(
          geo::Polygon{at(0, 0), point(1, 8, 0, 7), point(0, 7, 1, 8)});
      // Random rings, mostly self-intersecting, and a bowtie.
      geo::Ring ring;
      for (int v = draw(3, 6); v > 0; --v) ring.push_back(point(0, 8, 0, 8));
      polygons.emplace_back(std::move(ring));
      polygons.push_back(geo::Polygon{at(xs[0], ys[0]), at(xs[2], ys[2]),
                                      at(xs[2], ys[0]), at(xs[0], ys[2])});
      // A rectangle with a lattice triangle hole that may touch its sides.
      geo::Polygon holed =
          geo::Polygon::FromRect({at(xs[0], ys[0]), at(xs[2], ys[2])});
      holed.AddRing({point(xs[0], xs[2], ys[0], ys[2]),
                     point(xs[0], xs[2], ys[0], ys[2]),
                     point(xs[0], xs[2], ys[0], ys[2])});
      polygons.push_back(holed);

      for (size_t i = 0; i < polygons.size(); ++i) {
        for (int max_level = level - 2; max_level <= level + 2; ++max_level) {
          ASSERT_TRUE(MatchesReference(polygons[i], max_level, &scratch))
              << "level " << level << " window " << t << " polygon " << i;
        }
      }
    }
  }
}

/// Seeded polygons at the scale of the coverer's last-two-levels pass: for
/// max_level L = 0-21, every vertex on the level-L corner lattice inside
/// one level-(L-2) cell and the two leaves around it, the cell drawn so
/// the curve runs through it in each of the four orientations (all that
/// occur at its level). Edges run along lattice lines or through lattice
/// corners, vertices sit on leaf corners and on the cell's own corners,
/// rings cross themselves or carry a hole: every leaf the pass decides
/// meets the row, column and touch rules at a corner.
TEST(CovererOracleAdversarialTest, SeededLastTwoLevelsFuzz) {
  std::mt19937_64 rng(2626);
  const auto draw = [&](int lo, int hi) {
    return std::uniform_int_distribution<int>(lo, hi)(rng);
  };
  std::vector<CoveringCell> scratch;
  for (int max_level = 0; max_level <= 21; ++max_level) {
    const int level = std::max(max_level - 2, 0);
    const double h = std::ldexp(1.0, -max_level);
    const int side = 1 << max_level;
    // Cells of `level` by orientation; levels 0 and 1 have fewer than four.
    std::array<std::vector<CellSquare>, 4> cells;
    for (int t = 0; t < 400; ++t) {
      const CellId cell =
          CellId::FromIJ(static_cast<uint32_t>(rng() % kHilbertSide),
                         static_cast<uint32_t>(rng() % kHilbertSide))
              .Parent(level);
      const CellSquare square = CellSquare::Of(cell);
      if (cells[square.orientation].size() < 6) {
        cells[square.orientation].push_back(square);
      }
    }
    if (max_level >= 4) {
      for (int o = 0; o < 4; ++o) {
        ASSERT_FALSE(cells[o].empty()) << "orientation " << o;
      }
    }
    for (int o = 0; o < 4; ++o) {
      for (const CellSquare& square : cells[o]) {
        // The cell's leaves span lattice [x0, x0 + n); the window adds two
        // leaves on every side, clipped to the unit square.
        const int n = 1 << (max_level - level);
        const int x0 = static_cast<int>(square.i >> (30 - max_level));
        const int y0 = static_cast<int>(square.j >> (30 - max_level));
        const int lo_x = std::max(x0 - 2, 0);
        const int hi_x = std::min(x0 + n + 2, side);
        const int lo_y = std::max(y0 - 2, 0);
        const int hi_y = std::min(y0 + n + 2, side);
        const auto at = [&](int x, int y) {
          return geo::Point{x * h, y * h};
        };
        // x drawn first (function arguments have no evaluation order).
        const auto point = [&]() {
          const int x = draw(lo_x, hi_x);
          return at(x, draw(lo_y, hi_y));
        };
        const auto two = [&](int lo, int hi) {
          int a = draw(lo, hi);
          int b = draw(lo, hi);
          if (a == b) b = a == hi ? lo : hi;
          return std::pair{std::min(a, b), std::max(a, b)};
        };
        std::vector<geo::Polygon> polygons;
        // Random rings, mostly self-intersecting.
        for (int r = 0; r < 2; ++r) {
          geo::Ring ring;
          for (int v = draw(3, 6); v > 0; --v) ring.push_back(point());
          polygons.emplace_back(std::move(ring));
        }
        // Rectilinear: a rectangle with an L notch, edges along lattice
        // lines, one corner on the cell's own corner.
        const auto [xa, xb] = two(lo_x, hi_x);
        const auto [ya, yb] = two(lo_y, hi_y);
        const int xm = draw(xa, xb);
        const int ym = draw(ya, yb);
        polygons.push_back(geo::Polygon{at(x0, y0), at(xb, y0), at(xb, ym),
                                        at(xm, ym), at(xm, yb), at(x0, yb)});
        // Slope +-1 and +-2 edges through lattice corners.
        const int cx = draw(lo_x, hi_x);
        const int cy = draw(lo_y, hi_y);
        const int k = draw(1, 2);
        polygons.push_back(geo::Polygon{at(cx - k, cy), at(cx, cy - k),
                                        at(cx + k, cy), at(cx, cy + k)});
        polygons.push_back(geo::Polygon{at(cx, cy), at(cx + k, cy + 2 * k),
                                        at(cx + 2 * k, cy)});
        // A rectangle with a lattice triangle hole that may touch it.
        geo::Polygon holed = geo::Polygon::FromRect({at(xa, ya), at(xb, yb)});
        holed.AddRing({at(draw(xa, xb), ya), at(xb, draw(ya, yb)),
                       at(draw(xa, xb), yb)});
        polygons.push_back(holed);

        for (size_t i = 0; i < polygons.size(); ++i) {
          ASSERT_TRUE(MatchesReference(polygons[i], max_level, &scratch))
              << "orientation " << o << " cell " << square.i << ","
              << square.j << " polygon " << i;
        }
      }
    }
  }
}

/// Seeded polygons whose descent starts at a drawn cell: for max_level
/// L = 0-21, cells at every level 0..L-1 (so both parities of the distance
/// L - level, one-level first steps and root seeds at odd distances
/// included), drawn in each of the four orientations the curve takes at
/// that level. Every polygon straddles both midlines of its cell, so the
/// cell is the smallest enclosing one and the seed, and keeps its vertices
/// on the level-L corner lattice within six leaves of the cell's centre,
/// so the covering stays small at any distance. Edges through the centre,
/// along the midlines and through lattice corners meet the row, column and
/// touch rules at every step of the descent.
TEST(CovererOracleAdversarialTest, SeededStepFuzz) {
  std::mt19937_64 rng(2929);
  const auto draw = [&](int lo, int hi) {
    return std::uniform_int_distribution<int>(lo, hi)(rng);
  };
  std::vector<CoveringCell> scratch;
  int seeds = 0;
  for (int max_level = 0; max_level <= 21; ++max_level) {
    const double h = std::ldexp(1.0, -max_level);
    for (int level = 0; level < max_level; ++level) {
      // Cells of `level` by orientation; levels 0 and 1 have fewer than
      // four.
      std::array<std::vector<CellId>, 4> cells;
      for (int t = 0; t < 200; ++t) {
        const CellId cell =
            CellId::FromIJ(static_cast<uint32_t>(rng() % kHilbertSide),
                           static_cast<uint32_t>(rng() % kHilbertSide))
                .Parent(level);
        const uint32_t o = CellSquare::Of(cell).orientation;
        if (cells[o].size() < 2) cells[o].push_back(cell);
      }
      if (level >= 2) {
        for (int o = 0; o < 4; ++o) {
          ASSERT_FALSE(cells[o].empty()) << "orientation " << o;
        }
      }
      for (int o = 0; o < 4; ++o) {
        for (const CellId& cell : cells[o]) {
          // The cell's centre on the level-L lattice, and how far from it
          // a vertex may go without leaving the cell.
          const CellSquare square = CellSquare::Of(cell);
          const int shift = CellId::kMaxLevel - max_level;
          const int cx = static_cast<int>((square.i >> shift) +
                                          (square.size >> shift) / 2);
          const int cy = static_cast<int>((square.j >> shift) +
                                          (square.size >> shift) / 2);
          const int w = std::min(static_cast<int>(square.size >> shift) / 2,
                                 6);
          const auto at = [&](int x, int y) {
            return geo::Point{(cx + x) * h, (cy + y) * h};
          };
          const auto near = [&]() { return draw(1, w); };
          std::vector<geo::Polygon> polygons;
          // Random rings, mostly self-intersecting, whose first two
          // vertices lie on opposite sides of both midlines.
          for (int r = 0; r < 2; ++r) {
            geo::Ring ring;
            ring.push_back(at(-near(), -near()));
            ring.push_back(at(near(), near()));
            for (int v = draw(1, 4); v > 0; --v) {
              const int x = draw(-w, w);
              ring.push_back(at(x, draw(-w, w)));
            }
            polygons.emplace_back(std::move(ring));
          }
          // A diamond and a bowtie through the centre.
          const int k = near();
          polygons.push_back(
              geo::Polygon{at(-k, 0), at(0, -k), at(k, 0), at(0, k)});
          const int a = near();
          const int b = near();
          polygons.push_back(
              geo::Polygon{at(-a, -b), at(a, b), at(a, -b), at(-a, b)});
          // A rectangle around the centre with a lattice triangle hole that
          // may touch its sides or the midlines.
          const int x0 = -near();
          const int x1 = near();
          const int y0 = -near();
          const int y1 = near();
          geo::Polygon holed = geo::Polygon::FromRect({at(x0, y0), at(x1, y1)});
          holed.AddRing({at(draw(x0, x1), y0), at(x1, draw(y0, y1)),
                         at(draw(x0, 0), draw(0, y1))});
          polygons.push_back(holed);
          // Slope +-2 sides through lattice corners.
          const int s = near();
          polygons.push_back(geo::Polygon{at(-s, -s), at(s, -s), at(0, s)});

          for (size_t i = 0; i < polygons.size(); ++i) {
            ASSERT_EQ(SmallestEnclosingCell(polygons[i].Bounds()), cell)
                << "level " << level << " polygon " << i;
            ASSERT_TRUE(MatchesReference(polygons[i], max_level, &scratch))
                << "level " << level << " orientation " << o << " cell "
                << cell << " polygon " << i;
            ++seeds;
          }
        }
      }
    }
  }
  EXPECT_GT(seeds, 4000);
}

TEST(CovererTest, LevelsPastTheLeafClampToLevel30) {
  // Child() of a leaf is the leaf, so an unclamped descent past level 30
  // would never end.
  const geo::Polygon tiny{{0.3, 0.3}, {0.3 + 1e-7, 0.3}, {0.3, 0.3 + 2e-7}};
  const auto leaf = Cover(tiny, CellId::kMaxLevel);
  ASSERT_FALSE(leaf.empty());
  EXPECT_EQ(Cover(tiny, 31), leaf);
  EXPECT_EQ(Cover(tiny, 40), leaf);
  EXPECT_EQ(Cover(tiny, -3), Cover(tiny, 0));
}

TEST(CovererTest, EmptyRegion) {
  std::vector<CoveringCell> covering = {{CellId::Root(), true}};
  GetCovering(geo::Polygon(), 10, &covering);
  EXPECT_TRUE(covering.empty());
}

TEST(CovererTest, WholeSquare) {
  // A polygon enclosing the unit square: ContainsRect is conservative for a
  // rectangle touching the polygon's boundary, so the polygon reaches past
  // the square on every side.
  const geo::Polygon around = geo::Polygon::FromRect({{-1, -1}, {2, 2}});
  const auto covering = Cover(around, 10);
  ASSERT_EQ(covering.size(), 1u);
  EXPECT_EQ(covering[0].cell, CellId::Root());
  EXPECT_TRUE(covering[0].interior);
}

TEST(CovererTest, CoveringContainsRegion) {
  const geo::Polygon poly{{0.2, 0.2}, {0.7, 0.3}, {0.6, 0.8}, {0.25, 0.6}};
  const auto covering = Cover(poly, 12);
  ASSERT_FALSE(covering.empty());

  // Every point of the region must be inside some covering cell.
  std::mt19937_64 rng(3);
  std::uniform_real_distribution<double> uni(0.0, 1.0);
  for (int t = 0; t < 2000; ++t) {
    const geo::Point p{uni(rng), uni(rng)};
    if (!poly.Contains(p)) continue;
    bool covered = false;
    for (const CoveringCell& cc : covering) {
      if (cc.cell.ToRect().Contains(p)) {
        covered = true;
        break;
      }
    }
    ASSERT_TRUE(covered) << "uncovered point " << p;
  }
}

TEST(CovererTest, CellsAreDisjointAndSorted) {
  const geo::Polygon poly{{0.1, 0.1}, {0.9, 0.15}, {0.5, 0.9}};
  const auto covering = Cover(poly, 11);
  for (size_t i = 1; i < covering.size(); ++i) {
    ASSERT_LT(covering[i - 1].cell, covering[i].cell);
    ASSERT_FALSE(covering[i - 1].cell.Intersects(covering[i].cell));
  }
}

TEST(CovererTest, InteriorCellsAreInsidePolygon) {
  const geo::Polygon poly{{0.1, 0.1}, {0.9, 0.1}, {0.9, 0.9}, {0.1, 0.9}};
  const auto covering = Cover(poly, 8);
  bool any_interior = false;
  for (const CoveringCell& cc : covering) {
    if (cc.interior) {
      any_interior = true;
      EXPECT_TRUE(poly.ContainsRect(cc.cell.ToRect()));
    }
  }
  EXPECT_TRUE(any_interior);
}

TEST(CovererTest, BoundaryCellsReachMaxLevel) {
  // Boundary (non-interior) cells are emitted at max_level — this is what
  // bounds the approximation error.
  const geo::Polygon poly{{0.21, 0.2}, {0.8, 0.31}, {0.52, 0.77}};
  const int max_level = 9;
  const auto covering = Cover(poly, max_level);
  for (const CoveringCell& cc : covering) {
    if (!cc.interior) {
      // The on-return merge may fold four boundary siblings only when all
      // four exist, which preserves the error bound; merged boundary cells
      // are still counted via their children. Assert level bound only.
      ASSERT_LE(cc.cell.level(), max_level);
    }
    ASSERT_LE(cc.cell.level(), max_level);
  }
}

TEST(CovererTest, FinerLevelReducesArea) {
  const geo::Polygon poly{{0.3, 0.3}, {0.7, 0.35}, {0.6, 0.7}};
  double prev_area = 10.0;
  for (const int level : {6, 8, 10, 12}) {
    const auto covering = Cover(poly, level);
    double area = 0.0;
    for (const CoveringCell& cc : covering) {
      area += cc.cell.ToRect().Area();
    }
    EXPECT_GE(area, poly.Area());
    EXPECT_LE(area, prev_area + 1e-12) << "level " << level;
    prev_area = area;
  }
}

TEST(CovererTest, DeterministicOutput) {
  const geo::Polygon poly{{0.2, 0.25}, {0.75, 0.3}, {0.55, 0.8}};
  const auto a = Cover(poly, 13);
  const auto b = Cover(poly, 13);
  EXPECT_EQ(a, b);
}

TEST(InteriorRectTest, ContainedInPolygon) {
  const geo::Polygon poly{{0.1, 0.1}, {0.9, 0.2}, {0.8, 0.9}, {0.15, 0.7}};
  const geo::Rect interior = GetInteriorRect(poly);
  ASSERT_FALSE(interior.IsEmpty());
  EXPECT_TRUE(poly.ContainsRect(interior));
  EXPECT_GT(interior.Area(), 0.1 * poly.Area());
}

TEST(InteriorRectTest, RectanglePolygonIsItself) {
  const geo::Rect r{{0.2, 0.3}, {0.7, 0.8}};
  const geo::Polygon poly = geo::Polygon::FromRect(r);
  const geo::Rect interior = GetInteriorRect(poly);
  EXPECT_NEAR(interior.Area(), r.Area(), 1e-9);
}

TEST(InteriorRectTest, EmptyPolygon) {
  EXPECT_TRUE(GetInteriorRect(geo::Polygon()).IsEmpty());
}

TEST(CellStatsTest, DiagonalHalvesPerLevel) {
  const double d13 = ApproxCellDiagonalMeters(13);
  const double d14 = ApproxCellDiagonalMeters(14);
  EXPECT_NEAR(d13 / d14, 2.0, 1e-9);
  // Level 17 is on the order of a few hundred meters (the paper's ~100 m
  // S2 diagonal; our equirectangular cells are slightly larger).
  const double d17 = ApproxCellDiagonalMeters(17);
  EXPECT_GT(d17, 50.0);
  EXPECT_LT(d17, 500.0);
}

class CovererPropertyTest : public ::testing::TestWithParam<int> {};

TEST_P(CovererPropertyTest, RandomPolygonsCoveredExactly) {
  std::mt19937_64 rng(GetParam() * 7919);
  std::uniform_real_distribution<double> uni(0.0, 1.0);
  const geo::Polygon poly = geo::Polygon::RegularNGon(
      {0.3 + 0.4 * uni(rng), 0.3 + 0.4 * uni(rng)}, 0.05 + 0.2 * uni(rng),
      3 + static_cast<int>(uni(rng) * 10), uni(rng) * 6.28);
  const auto covering = Cover(poly, 10 + GetParam() % 5);
  ASSERT_FALSE(covering.empty());
  // Superset: covered area >= polygon area, and every covering cell
  // actually intersects the polygon (no spurious cells).
  double area = 0.0;
  for (const CoveringCell& cc : covering) {
    area += cc.cell.ToRect().Area();
    ASSERT_TRUE(poly.IntersectsRect(cc.cell.ToRect()))
        << cc.cell << " does not intersect the polygon";
  }
  ASSERT_GE(area, poly.Area() * (1.0 - 1e-9));
}

TEST_P(CovererPropertyTest, CovererOutputIsAlreadyNormalized) {
  std::mt19937_64 rng(GetParam() * 9013);
  std::uniform_real_distribution<double> uni(0.0, 1.0);
  const geo::Polygon poly = geo::Polygon::RegularNGon(
      {0.3 + 0.4 * uni(rng), 0.3 + 0.4 * uni(rng)}, 0.05 + 0.15 * uni(rng),
      3 + static_cast<int>(rng() % 8), uni(rng));
  const auto covering = Cover(poly, 9 + GetParam() % 4);
  ASSERT_FALSE(covering.empty());
  // Normalized: sorted, disjoint, and no four complete siblings left that
  // could merge into their parent.
  for (size_t i = 1; i < covering.size(); ++i) {
    ASSERT_LT(covering[i - 1].cell, covering[i].cell);
    ASSERT_FALSE(covering[i - 1].cell.Intersects(covering[i].cell));
  }
  for (size_t i = 0; i + 3 < covering.size(); ++i) {
    const CellId c = covering[i].cell;
    if (c.level() == 0 || c != c.Parent().Child(0)) continue;
    bool complete = true;
    for (int k = 1; k < 4; ++k) {
      complete = complete && covering[i + k].cell == c.Parent().Child(k);
    }
    ASSERT_FALSE(complete) << "four children of " << c.Parent() << " remain";
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, CovererPropertyTest, ::testing::Range(1, 17));

}  // namespace
}  // namespace geoblocks::cell
