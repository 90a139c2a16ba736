// The exact predicates (geo::Orient and everything built on it) against an
// independent integer oracle. Every coordinate used here is a dyadic
// rational with at most 61 fractional bits and magnitude below 1, so scaling
// by 2^61 gives an int64 and the orientation determinant of scaled points
// fits in __int128 (differences < 2^62, products < 2^124).

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <random>
#include <vector>

#include "geo/point.h"
#include "geo/polygon.h"
#include "geo/rect.h"
#include "geo/segment.h"

namespace geoblocks::geo {
namespace {

using Int128 = __int128;

/// `v` * 2^61 as an integer; fails the test when `v` is not such a dyadic.
Int128 Scaled(double v) {
  const double s = std::ldexp(v, 61);
  EXPECT_EQ(s, std::trunc(s)) << v << " has more than 61 fractional bits";
  EXPECT_LT(std::abs(s), 0x1p62) << v;
  return static_cast<Int128>(static_cast<int64_t>(s));
}

int Sign(Int128 v) { return (v > 0) - (v < 0); }

/// Sign of (b - a) x (c - a), in integers.
int OracleOrient(const Point& a, const Point& b, const Point& c) {
  const Int128 ax = Scaled(a.x), ay = Scaled(a.y);
  return Sign((Scaled(b.x) - ax) * (Scaled(c.y) - ay) -
              (Scaled(b.y) - ay) * (Scaled(c.x) - ax));
}

/// Closed segment vs closed rect by separating axes, oracle orientation.
bool OracleTouches(const Point& a, const Point& b, const Rect& r) {
  if (!r.Intersects(Rect::FromPoints(a, b))) return false;
  int pos = 0;
  int neg = 0;
  for (const Point& c : r.Corners()) {
    const int o = OracleOrient(a, b, c);
    pos += o >= 0;
    neg += o <= 0;
  }
  return pos > 0 && neg > 0;
}

/// Even-odd containment of a point on no edge, oracle orientation.
bool OracleParity(const Polygon& polygon, const Point& p) {
  bool inside = false;
  for (const Ring& ring : polygon.rings()) {
    for (size_t i = 0, j = ring.size() - 1; i < ring.size(); j = i++) {
      const Point& a = ring[j];
      const Point& b = ring[i];
      const bool b_above = b.y > p.y;
      if (b_above == (a.y > p.y)) continue;
      const int o = OracleOrient(a, b, p);
      if (b_above ? o > 0 : o < 0) inside = !inside;
    }
  }
  return inside;
}

/// ContainsRect by the oracle: no edge touches the rect and one corner is
/// inside (then every point of the rect is).
bool OracleContainsRect(const Polygon& polygon, const Rect& r) {
  for (const Ring& ring : polygon.rings()) {
    for (size_t i = 0, j = ring.size() - 1; i < ring.size(); j = i++) {
      if (OracleTouches(ring[j], ring[i], r)) return false;
    }
  }
  return OracleParity(polygon, r.min);
}

/// A uniform double in [1/256, 1): at most 61 fractional bits.
double RandomCoordinate(std::mt19937_64& rng) {
  return std::uniform_real_distribution<double>(1.0 / 256, 1.0)(rng);
}

TEST(OrientTest, SignsOfPlainTriples) {
  EXPECT_EQ(Orient({0, 0}, {1, 0}, {0, 1}), 1);    // left turn
  EXPECT_EQ(Orient({0, 0}, {1, 0}, {0, -1}), -1);  // right turn
  EXPECT_EQ(Orient({0, 0}, {1, 1}, {2, 2}), 0);    // collinear
  EXPECT_EQ(Orient({0.5, 0.5}, {0.5, 0.5}, {0.25, 0.75}), 0);
}

/// Triples within a few ulps of a line: `c` is the rounded point a fraction
/// t along a -> b, nudged by up to two ulps per axis. The float determinant
/// gets many of these wrong or calls them 0; Orient must match the integer
/// oracle on all, and the sweep must reach the exact fallback.
TEST(OrientTest, MatchesInt128OnNearlyCollinearSweep) {
  std::mt19937_64 rng(2021);
  std::uniform_real_distribution<double> fraction(-0.5, 1.5);
  int float_wrong = 0;
  int float_zero = 0;
  for (int trial = 0; trial < 4000; ++trial) {
    const Point a{RandomCoordinate(rng), RandomCoordinate(rng)};
    const Point b{RandomCoordinate(rng), RandomCoordinate(rng)};
    const double t = fraction(rng);
    const Point on{a.x + t * (b.x - a.x), a.y + t * (b.y - a.y)};
    if (!(on.x >= 1.0 / 256 && on.x < 1.0 && on.y >= 1.0 / 256 && on.y < 1.0)) {
      continue;
    }
    for (int kx = -2; kx <= 2; ++kx) {
      for (int ky = -2; ky <= 2; ++ky) {
        Point c = on;
        for (int k = 0; k < std::abs(kx); ++k) {
          c.x = std::nextafter(c.x, kx > 0 ? 2.0 : 0.0);
        }
        for (int k = 0; k < std::abs(ky); ++k) {
          c.y = std::nextafter(c.y, ky > 0 ? 2.0 : 0.0);
        }
        const int want = OracleOrient(a, b, c);
        ASSERT_EQ(Orient(a, b, c), want)
            << a << " " << b << " " << c << " trial " << trial;
        // Antisymmetric in the segment, invariant under rotation.
        ASSERT_EQ(Orient(b, a, c), -want);
        ASSERT_EQ(Orient(b, c, a), want);
        ASSERT_EQ(Orient(c, a, b), want);
        const double det =
            (b.x - a.x) * (c.y - a.y) - (b.y - a.y) * (c.x - a.x);
        const int float_sign = (det > 0) - (det < 0);
        float_wrong += float_sign != 0 && float_sign != want;
        float_zero += float_sign == 0 && want != 0;
      }
    }
  }
  EXPECT_GT(float_wrong, 0) << "the sweep never beat the float determinant";
  EXPECT_GT(float_zero, 0) << "the sweep never hit a rounded-to-0 determinant";
}

TEST(OrientTest, ExactOnDyadicCollinearTriples) {
  // Points a + k * d on one line with dyadic steps, exactly collinear: the
  // float determinant is 0 with nonzero terms, so the fallback decides.
  std::mt19937_64 rng(7);
  std::uniform_int_distribution<int64_t> grid(int64_t{1} << 33,
                                              (int64_t{1} << 40) - 1);
  std::uniform_int_distribution<int> step(-64, 64);
  for (int trial = 0; trial < 2000; ++trial) {
    const Point a{std::ldexp(static_cast<double>(grid(rng)), -41),
                  std::ldexp(static_cast<double>(grid(rng)), -41)};
    const Point d{std::ldexp(step(rng), -45), std::ldexp(step(rng), -45)};
    const Point b{a.x + 3 * d.x, a.y + 3 * d.y};
    const Point c{a.x - 5 * d.x, a.y - 5 * d.y};
    ASSERT_EQ(OracleOrient(a, b, c), 0);
    ASSERT_EQ(Orient(a, b, c), 0) << a << " " << b << " " << c;
    const Point off{c.x, std::nextafter(c.y, 2.0)};
    ASSERT_EQ(Orient(a, b, off), OracleOrient(a, b, off));
  }
}

/// OrientLattice against the oracle on the corner lattices the coverer
/// asks about: a 3x3 lattice of dyadic cell corners at levels 12-20 and
/// segments through one of its points, exactly or with an endpoint nudged
/// up to two ulps, so many signs are 0 or decided by the exact fallback.
TEST(OrientTest, LatticeMatchesInt128AtCellCorners) {
  std::mt19937_64 rng(1990);
  std::uniform_int_distribution<int> level(12, 20);
  std::uniform_int_distribution<int> index(0, 2);
  std::uniform_int_distribution<int> offset(-4, 4);
  std::uniform_int_distribution<int> nudge(-2, 2);
  int zeros = 0;
  for (int trial = 0; trial < 3000; ++trial) {
    const int l = level(rng);
    const double h = std::ldexp(1.0, -l);
    std::uniform_int_distribution<int> cell(1 << (l - 7), (1 << l) - 8);
    const double x0 = cell(rng) * h;
    const double y0 = cell(rng) * h;
    const double xs[3] = {x0, x0 + h, x0 + 2 * h};
    const double ys[3] = {y0, y0 + h, y0 + 2 * h};
    const Point through{xs[index(rng)], ys[index(rng)]};
    const Point d{offset(rng) * h / 2, offset(rng) * h / 2};
    const Point a{through.x + d.x, through.y + d.y};
    Point b{through.x - 2 * d.x, through.y - 2 * d.y};
    for (int k = nudge(rng); k != 0; k += k > 0 ? -1 : 1) {
      b.x = std::nextafter(b.x, k > 0 ? 2.0 : 0.0);
    }
    uint32_t left = 0;
    uint32_t right = 0;
    OrientLattice(Segment{a, b}, xs, ys, &left, &right);
    ASSERT_EQ(left & right, 0u);
    ASSERT_EQ((left | right) >> 9, 0u);
    for (int j = 0; j < 3; ++j) {
      for (int i = 0; i < 3; ++i) {
        const int want = OracleOrient(a, b, {xs[i], ys[j]});
        const int bit = i + 3 * j;
        ASSERT_EQ(static_cast<int>(left >> bit & 1) -
                      static_cast<int>(right >> bit & 1),
                  want)
            << a << " " << b << " at " << i << "," << j << " trial " << trial;
        zeros += want == 0;
      }
    }
  }
  EXPECT_GT(zeros, 0) << "no segment passed exactly through a lattice point";
}

/// The 5x5 OrientLattice, which the coverer reads at the leaf corners of a
/// cell two levels above its finest level, against the oracle: lattices at
/// levels 12-20 and segments through one lattice point (so through the
/// corners of up to four leaves), along a lattice line, or with an
/// endpoint nudged up to two ulps.
TEST(OrientTest, Lattice5x5MatchesInt128AtLeafCorners) {
  std::mt19937_64 rng(2505);
  std::uniform_int_distribution<int> level(12, 20);
  std::uniform_int_distribution<int> index(0, 4);
  std::uniform_int_distribution<int> offset(-6, 6);
  std::uniform_int_distribution<int> nudge(-2, 2);
  std::uniform_int_distribution<int> shape(0, 3);
  int zeros = 0;
  for (int trial = 0; trial < 3000; ++trial) {
    const int l = level(rng);
    const double h = std::ldexp(1.0, -l);
    std::uniform_int_distribution<int> cell(1 << (l - 7), (1 << l) - 12);
    const double x0 = cell(rng) * h;
    const double y0 = cell(rng) * h;
    double xs[5];
    double ys[5];
    for (int k = 0; k < 5; ++k) {
      xs[k] = x0 + k * h;
      ys[k] = y0 + k * h;
    }
    const Point through{xs[index(rng)], ys[index(rng)]};
    Point d{offset(rng) * h / 2, offset(rng) * h / 2};
    // Along a row or a column of the lattice.
    if (shape(rng) == 0) d.y = 0;
    if (shape(rng) == 0) d.x = 0;
    if (d.x == 0 && d.y == 0) d.x = h;
    const Point a{through.x + d.x, through.y + d.y};
    Point b{through.x - 2 * d.x, through.y - 2 * d.y};
    for (int k = nudge(rng); k != 0; k += k > 0 ? -1 : 1) {
      b.y = std::nextafter(b.y, k > 0 ? 2.0 : 0.0);
    }
    uint32_t left = 0;
    uint32_t right = 0;
    OrientLattice(Segment{a, b}, xs, ys, &left, &right);
    ASSERT_EQ(left & right, 0u);
    ASSERT_EQ((left | right) >> 25, 0u);
    for (int j = 0; j < 5; ++j) {
      for (int i = 0; i < 5; ++i) {
        const int want = OracleOrient(a, b, {xs[i], ys[j]});
        const int bit = i + 5 * j;
        ASSERT_EQ(static_cast<int>(left >> bit & 1) -
                      static_cast<int>(right >> bit & 1),
                  want)
            << a << " " << b << " at " << i << "," << j << " trial " << trial;
        zeros += want == 0;
      }
    }
  }
  EXPECT_GT(zeros, 3000) << "too few segments through lattice points";
}

/// The "three holes" polygon of CovererOracleAdversarialTest: the level-12
/// cell below lies outside the third hole, with the hole's upper edge
/// passing within rounding distance of its lower-right corner. The float
/// predicates this library used before rejected it as an interior cell;
/// the integer oracle and the exact predicates accept it.
TEST(PolygonExactTest, ThreeHolesCellIsInterior) {
  Polygon holes = Polygon::FromRect({{0.25, 0.25}, {0.3125, 0.3}});
  holes.AddRing({{0.26, 0.26}, {0.27, 0.26}, {0.27, 0.27}, {0.26, 0.27}});
  holes.AddRing({{0.28, 0.255}, {0.3, 0.26}, {0.29, 0.28}});
  holes.AddRing({{0.265, 0.28125}, {0.28125, 0.28125}, {0.28125, 0.296875},
                 {0.265, 0.29}});
  const Rect cell{{0.274658203125, 0.294189453125},
                  {0.27490234375, 0.29443359375}};
  ASSERT_TRUE(OracleContainsRect(holes, cell));
  EXPECT_TRUE(holes.ContainsRect(cell));
  EXPECT_TRUE(holes.IntersectsRect(cell));
  for (const Point& corner : cell.Corners()) {
    EXPECT_TRUE(holes.Contains(corner)) << corner;
  }
}

/// Near-corner triangle 2 of CovererOracleAdversarialTest (level 15, second
/// vertex moved one ulp right): its level-15 cell below is interior, which the
/// float predicates rejected.
TEST(PolygonExactTest, NearCornerTriangleCellIsInterior) {
  const double h = std::ldexp(1.0, -15);
  const Point c{((411 << 5) + 1) * h, ((733 << 5) + 1) * h};
  const Point q{std::nextafter(c.x + 3 * h, 2.0), c.y + 2 * h};
  const Polygon triangle{{c.x - 3 * h, c.y - 2 * h}, q,
                         {c.x - 3 * h, c.y + 4 * h}};
  const Rect cell{{0.4013671875, 0.715850830078125},
                  {0.401397705078125, 0.71588134765625}};
  ASSERT_TRUE(OracleContainsRect(triangle, cell));
  EXPECT_TRUE(triangle.ContainsRect(cell));
}

/// Contains and SegmentIntersectsRect against the oracle on points and
/// rects within an ulp of random edges.
TEST(PolygonExactTest, ContainsAndTouchMatchInt128NearEdges) {
  std::mt19937_64 rng(404);
  std::uniform_real_distribution<double> fraction(0.0, 1.0);
  for (int trial = 0; trial < 300; ++trial) {
    Ring ring;
    for (int v = 0; v < 5; ++v) {
      ring.push_back({RandomCoordinate(rng), RandomCoordinate(rng)});
    }
    const Polygon polygon(ring);
    for (size_t i = 0, j = ring.size() - 1; i < ring.size(); j = i++) {
      const Point& a = ring[j];
      const Point& b = ring[i];
      const double t = fraction(rng);
      const Point on{a.x + t * (b.x - a.x), a.y + t * (b.y - a.y)};
      for (const Point& p :
           {on, a, Point{std::nextafter(on.x, 2.0), on.y},
            Point{std::nextafter(on.x, 0.0), on.y},
            Point{on.x, std::nextafter(on.y, 2.0)},
            Point{on.x, std::nextafter(on.y, 0.0)}}) {
        bool on_boundary = false;
        for (size_t m = 0, n = ring.size() - 1; m < ring.size(); n = m++) {
          on_boundary = on_boundary ||
                        (Rect::FromPoints(ring[n], ring[m]).Contains(p) &&
                         OracleOrient(ring[n], ring[m], p) == 0);
        }
        ASSERT_EQ(polygon.Contains(p),
                  on_boundary || OracleParity(polygon, p))
            << "trial " << trial << " point " << p;
        // Leaf-sized rects with `p` as their lower-left or upper-right
        // corner.
        const double side = std::ldexp(1.0, -30);
        for (const Rect& r : {Rect{p, {p.x + side, p.y + side}},
                              Rect{{p.x - side, p.y - side}, p}}) {
          ASSERT_EQ(SegmentIntersectsRect({a, b}, r), OracleTouches(a, b, r))
              << "trial " << trial << " rect " << r;
        }
      }
    }
  }
}

}  // namespace
}  // namespace geoblocks::geo
