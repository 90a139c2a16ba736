#pragma once

#include <initializer_list>
#include <vector>

#include "geo/point.h"
#include "geo/rect.h"

namespace geoblocks::geo {

/// A simple polygon ring given by its vertices (implicitly closed; the last
/// vertex connects back to the first). Orientation does not matter for any
/// of the predicates in this library.
using Ring = std::vector<Point>;

/// A polygon with an outer ring and zero or more hole rings, using the
/// even-odd rule for containment. This is the query-region type of the
/// problem statement (Section 2): an arbitrary polygon specified by its
/// vertex locations.
class Polygon {
 public:
  Polygon() = default;
  explicit Polygon(Ring outer) { AddRing(std::move(outer)); }
  Polygon(std::initializer_list<Point> outer) { AddRing(Ring(outer)); }

  /// Appends a ring. The first ring is the outer boundary; subsequent rings
  /// are holes (even-odd semantics make the distinction immaterial for
  /// containment).
  void AddRing(Ring ring);

  const std::vector<Ring>& rings() const { return rings_; }
  bool IsEmpty() const { return rings_.empty(); }
  size_t num_vertices() const { return num_vertices_; }

  /// Bounding rectangle of all rings.
  const Rect& Bounds() const { return bounds_; }

  /// Even-odd point containment, exact: every edge is decided by
  /// `geo::Orient`, so no rounding moves a point across an edge. Points
  /// exactly on the boundary count as inside.
  bool Contains(const Point& p) const;

  /// True when all four corners of the closed rectangle are contained and
  /// no polygon edge touches it (exact). A rectangle touching the boundary
  /// is therefore rejected even when it lies inside; one this accepts is
  /// always fully contained.
  bool ContainsRect(const Rect& r) const;

  /// True when polygon and closed rectangle share at least one point
  /// (exact).
  bool IntersectsRect(const Rect& r) const;

  /// Signed area of the outer ring minus hole areas (shoelace formula,
  /// absolute value).
  double Area() const;

  /// Euclidean distance from `p` to the nearest point on any ring edge
  /// (0 when `p` lies on an edge). Used to verify the covering's bounded
  /// error: every false-positive point of a covering is within the cell
  /// diagonal of the polygon outline (paper Section 3.2).
  double DistanceToOutline(const Point& p) const;

  /// Makes this polygon `source` with every vertex mapped through `f`,
  /// refilling the ring vectors it already holds: once it has held as many
  /// rings, each with at least as many vertices, the call does not allocate.
  template <typename F>
  void AssignMapped(const Polygon& source, F f) {
    rings_.resize(source.rings_.size());
    bounds_ = Rect::Empty();
    num_vertices_ = source.num_vertices_;
    for (size_t k = 0; k < rings_.size(); ++k) {
      Ring& ring = rings_[k];
      ring.clear();
      ring.reserve(source.rings_[k].size());
      for (const Point& p : source.rings_[k]) {
        ring.push_back(f(p));
        bounds_.AddPoint(ring.back());
      }
    }
  }

  /// Convenience: an axis-aligned rectangle as a 4-vertex polygon.
  static Polygon FromRect(const Rect& r);

  /// Convenience: a regular n-gon around `center` with circumradius `radius`.
  static Polygon RegularNGon(const Point& center, double radius, int n,
                             double phase = 0.0);

 private:
  bool AnyEdgeIntersectsRect(const Rect& r) const;

  std::vector<Ring> rings_;
  Rect bounds_ = Rect::Empty();
  size_t num_vertices_ = 0;
};

}  // namespace geoblocks::geo
