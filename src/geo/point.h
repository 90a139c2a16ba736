#pragma once

#include <cmath>
#include <compare>
#include <ostream>

namespace geoblocks::geo {

/// A point in the plane. Throughout this library the convention is
/// x = longitude (degrees east) and y = latitude (degrees north) for
/// geographic data, or unit-square coordinates after projection.
struct Point {
  double x = 0.0;
  double y = 0.0;

  friend constexpr bool operator==(const Point& a, const Point& b) = default;

  /// Euclidean distance to another point (in the coordinate units).
  double DistanceTo(const Point& o) const {
    const double dx = x - o.x;
    const double dy = y - o.y;
    return std::sqrt(dx * dx + dy * dy);
  }
};

inline std::ostream& operator<<(std::ostream& os, const Point& p) {
  return os << "(" << p.x << ", " << p.y << ")";
}

}  // namespace geoblocks::geo
