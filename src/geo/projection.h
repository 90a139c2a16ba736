#pragma once

#include "geo/point.h"
#include "geo/polygon.h"
#include "geo/rect.h"

namespace geoblocks::geo {

/// Equirectangular projection from a lat/lng domain rectangle onto the unit
/// square [0,1)^2 used by the cell decomposition.
///
/// This stands in for the spherical geometry of Google S2 (see DESIGN.md):
/// the GeoBlocks algorithms only need a bijective, monotone mapping from
/// geographic coordinates into the hierarchically decomposed square. By
/// default the domain is the whole earth so cell *levels* keep roughly the
/// physical meaning of the paper's S2 levels (a level-17 cell is on the
/// order of 100 m across mid-latitudes).
class Projection {
 public:
  /// Projection over the full lat/lng space.
  Projection()
      : Projection(Rect{{-180.0, -90.0}, {180.0, 90.0}}) {}

  /// Projection over a custom domain (must be non-empty).
  explicit Projection(const Rect& domain) : domain_(domain) {}

  const Rect& domain() const { return domain_; }

  /// Maps a lat/lng point into the unit square, clamping to the domain.
  Point ToUnit(const Point& p) const {
    const double u = Clamp01((p.x - domain_.min.x) / domain_.Width());
    const double v = Clamp01((p.y - domain_.min.y) / domain_.Height());
    return {u, v};
  }

  /// Maps a unit-square point back to lat/lng.
  Point FromUnit(const Point& p) const {
    return {domain_.min.x + p.x * domain_.Width(),
            domain_.min.y + p.y * domain_.Height()};
  }

  Rect ToUnit(const Rect& r) const {
    if (r.IsEmpty()) return Rect::Empty();
    return Rect{ToUnit(r.min), ToUnit(r.max)};
  }

  Rect FromUnit(const Rect& r) const {
    if (r.IsEmpty()) return Rect::Empty();
    return Rect{FromUnit(r.min), FromUnit(r.max)};
  }

  /// Projects every vertex of a polygon into the unit square.
  Polygon ToUnit(const Polygon& poly) const {
    Polygon out;
    ToUnit(poly, &out);
    return out;
  }

  /// As above, into `*out`, reusing its ring storage (see
  /// Polygon::AssignMapped): a warm `*out` makes this allocation-free.
  void ToUnit(const Polygon& poly, Polygon* out) const {
    out->AssignMapped(poly, [this](const Point& p) { return ToUnit(p); });
  }

  /// Approximate meters spanned by one unit of x at latitude `lat` (degrees)
  /// under the equirectangular model. Used only for reporting cell sizes in
  /// familiar units.
  double MetersPerUnitX(double lat) const {
    constexpr double kMetersPerDegree = 111320.0;
    return domain_.Width() * kMetersPerDegree *
           std::cos(lat * 0.017453292519943295);
  }

  double MetersPerUnitY() const {
    constexpr double kMetersPerDegree = 111320.0;
    return domain_.Height() * kMetersPerDegree;
  }

 private:
  static double Clamp01(double v) {
    if (v < 0.0) return 0.0;
    // Keep strictly below 1 so the leaf-cell integer coordinate stays in
    // range.
    if (v >= 1.0) return 0.9999999999999999;
    return v;
  }

  Rect domain_;
};

}  // namespace geoblocks::geo
