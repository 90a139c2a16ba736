#include <gtest/gtest.h>

#include "geo/point.h"
#include "geo/projection.h"
#include "geo/rect.h"
#include "geo/segment.h"

namespace geoblocks::geo {
namespace {

TEST(PointTest, Distance) {
  EXPECT_DOUBLE_EQ((Point{0, 0}.DistanceTo({3, 4})), 5.0);
  EXPECT_DOUBLE_EQ((Point{1, 1}.DistanceTo({1, 1})), 0.0);
}

TEST(RectTest, EmptyBehaviour) {
  const Rect empty = Rect::Empty();
  EXPECT_TRUE(empty.IsEmpty());
  EXPECT_EQ(empty.Area(), 0.0);
  EXPECT_FALSE(empty.Contains(Point{0, 0}));
  const Rect r{{0, 0}, {1, 1}};
  EXPECT_FALSE(empty.Intersects(r));
  EXPECT_FALSE(r.Intersects(empty));
  EXPECT_TRUE(r.Contains(empty));
  EXPECT_FALSE(empty.Contains(r));
  EXPECT_EQ(empty.Union(r), r);
  EXPECT_EQ(r.Union(empty), r);
}

TEST(RectTest, ContainsPoint) {
  const Rect r{{0, 0}, {2, 1}};
  EXPECT_TRUE(r.Contains(Point{1, 0.5}));
  EXPECT_TRUE(r.Contains(Point{0, 0}));    // closed: corners included
  EXPECT_TRUE(r.Contains(Point{2, 1}));
  EXPECT_FALSE(r.Contains(Point{2.01, 0.5}));
  EXPECT_FALSE(r.Contains(Point{1, -0.01}));
}

TEST(RectTest, ContainsRect) {
  const Rect outer{{0, 0}, {10, 10}};
  EXPECT_TRUE(outer.Contains(Rect{{1, 1}, {9, 9}}));
  EXPECT_TRUE(outer.Contains(outer));
  EXPECT_FALSE(outer.Contains(Rect{{1, 1}, {11, 9}}));
}

TEST(RectTest, IntersectsAndIntersection) {
  const Rect a{{0, 0}, {2, 2}};
  const Rect b{{1, 1}, {3, 3}};
  const Rect c{{5, 5}, {6, 6}};
  EXPECT_TRUE(a.Intersects(b));
  EXPECT_FALSE(a.Intersects(c));
  EXPECT_EQ(a.Intersection(b), (Rect{{1, 1}, {2, 2}}));
  EXPECT_TRUE(a.Intersection(c).IsEmpty());
  // Touching edges count as intersecting (closed rectangles).
  EXPECT_TRUE(a.Intersects(Rect{{2, 0}, {3, 2}}));
}

TEST(RectTest, UnionAndAddPoint) {
  Rect r = Rect::Empty();
  r.AddPoint({1, 2});
  r.AddPoint({-1, 5});
  EXPECT_EQ(r, (Rect{{-1, 2}, {1, 5}}));
  EXPECT_EQ(r.Union(Rect{{0, 0}, {2, 2}}), (Rect{{-1, 0}, {2, 5}}));
}

TEST(RectTest, GeometryAccessors) {
  const Rect r{{0, 0}, {3, 4}};
  EXPECT_DOUBLE_EQ(r.Width(), 3.0);
  EXPECT_DOUBLE_EQ(r.Height(), 4.0);
  EXPECT_DOUBLE_EQ(r.Area(), 12.0);
  EXPECT_DOUBLE_EQ(r.Diagonal(), 5.0);
  EXPECT_EQ(r.Center(), (Point{1.5, 2.0}));
  const auto corners = r.Corners();
  EXPECT_EQ(corners[0], (Point{0, 0}));
  EXPECT_EQ(corners[2], (Point{3, 4}));
}

TEST(RectTest, Expanded) {
  const Rect r{{0, 0}, {2, 2}};
  EXPECT_EQ(r.Expanded(1.0), (Rect{{-1, -1}, {3, 3}}));
  EXPECT_EQ(r.Expanded(-0.5), (Rect{{0.5, 0.5}, {1.5, 1.5}}));
}

TEST(SegmentTest, OnSegment) {
  const Segment s{{0, 0}, {2, 2}};
  EXPECT_TRUE(OnSegment(s, {1, 1}));
  EXPECT_TRUE(OnSegment(s, {0, 0}));
  EXPECT_TRUE(OnSegment(s, {2, 2}));
  EXPECT_FALSE(OnSegment(s, {3, 3}));  // collinear but outside
  EXPECT_FALSE(OnSegment(s, {1, 0}));
}

TEST(SegmentTest, ProperIntersection) {
  EXPECT_TRUE(SegmentsIntersect({{0, 0}, {2, 2}}, {{0, 2}, {2, 0}}));
  EXPECT_FALSE(SegmentsIntersect({{0, 0}, {1, 1}}, {{2, 2}, {3, 3}}));
  EXPECT_FALSE(SegmentsIntersect({{0, 0}, {1, 0}}, {{0, 1}, {1, 1}}));
}

TEST(SegmentTest, TouchingEndpoints) {
  EXPECT_TRUE(SegmentsIntersect({{0, 0}, {1, 1}}, {{1, 1}, {2, 0}}));
  EXPECT_TRUE(SegmentsIntersect({{0, 0}, {2, 0}}, {{1, 0}, {1, 1}}));
}

TEST(SegmentTest, CollinearOverlap) {
  EXPECT_TRUE(SegmentsIntersect({{0, 0}, {2, 0}}, {{1, 0}, {3, 0}}));
  EXPECT_FALSE(SegmentsIntersect({{0, 0}, {1, 0}}, {{2, 0}, {3, 0}}));
}

TEST(SegmentTest, ZeroLengthSegments) {
  EXPECT_TRUE(SegmentsIntersect({{1, 1}, {1, 1}}, {{0, 0}, {2, 2}}));
  EXPECT_FALSE(SegmentsIntersect({{1, 2}, {1, 2}}, {{0, 0}, {2, 2}}));
}

TEST(SegmentTest, IntersectsRect) {
  const Rect r{{0, 0}, {2, 2}};
  EXPECT_TRUE(SegmentIntersectsRect({{1, 1}, {5, 5}}, r));   // one end inside
  EXPECT_TRUE(SegmentIntersectsRect({{-1, 1}, {3, 1}}, r));  // crosses
  EXPECT_TRUE(SegmentIntersectsRect({{-1, 0}, {3, 0}}, r));  // along an edge
  EXPECT_FALSE(SegmentIntersectsRect({{3, 3}, {5, 5}}, r));
  EXPECT_FALSE(SegmentIntersectsRect({{-1, 3}, {3, 7}}, r));
}

TEST(ProjectionTest, RoundTrip) {
  const Projection proj;
  const Point nyc{-73.98, 40.75};
  const Point unit = proj.ToUnit(nyc);
  EXPECT_GT(unit.x, 0.0);
  EXPECT_LT(unit.x, 1.0);
  const Point back = proj.FromUnit(unit);
  EXPECT_NEAR(back.x, nyc.x, 1e-9);
  EXPECT_NEAR(back.y, nyc.y, 1e-9);
}

TEST(ProjectionTest, ClampsToDomain) {
  const Projection proj(Rect{{0, 0}, {10, 10}});
  const Point below = proj.ToUnit(Point{-5, -5});
  EXPECT_EQ(below, (Point{0, 0}));
  const Point above = proj.ToUnit(Point{20, 20});
  EXPECT_LT(above.x, 1.0);
  EXPECT_LT(above.y, 1.0);
}

TEST(ProjectionTest, PolygonProjection) {
  const Projection proj(Rect{{0, 0}, {10, 10}});
  const Polygon poly{{1, 1}, {9, 1}, {5, 9}};
  const Polygon unit = proj.ToUnit(poly);
  EXPECT_EQ(unit.num_vertices(), 3u);
  EXPECT_TRUE(unit.Contains(Point{0.5, 0.3}));
  EXPECT_FALSE(unit.Contains(Point{0.05, 0.9}));
}

TEST(ProjectionTest, MetersScale) {
  const Projection proj;
  // One unit of y spans 180 degrees of latitude ~ 20,000 km.
  EXPECT_NEAR(proj.MetersPerUnitY(), 180.0 * 111320.0, 1.0);
  EXPECT_LT(proj.MetersPerUnitX(60.0), proj.MetersPerUnitX(0.0));
}

}  // namespace
}  // namespace geoblocks::geo
