#include "cell/coverer.h"

#include <cmath>

namespace geoblocks::cell {

namespace {

/// Smallest single cell whose rectangle contains `bounds` (Root() if none
/// smaller does).
CellId SmallestEnclosingCell(const geo::Rect& bounds) {
  CellId cell = CellId::FromPoint(bounds.min);
  // Walk up until the cell rect contains the bounds.
  while (cell.level() > 0 && !cell.ToRect().Contains(bounds)) {
    cell = cell.Parent();
  }
  if (!cell.ToRect().Contains(bounds)) return CellId::Root();
  return cell;
}

/// Emits the covering of `polygon` within `cell` into `*out` in ascending
/// cell id order, merging four just-emitted children back into `cell`.
void CoverCell(const geo::Polygon& polygon, CellId cell, int max_level,
               std::vector<CoveringCell>* out) {
  const bool contained = polygon.ContainsRect(cell.ToRect());
  if (contained || cell.level() >= max_level) {
    out->push_back({cell, contained});
    return;
  }
  const size_t first = out->size();
  for (int k = 0; k < 4; ++k) {
    const CellId child = cell.Child(k);
    if (polygon.IntersectsRect(child.ToRect())) {
      CoverCell(polygon, child, max_level, out);
    }
  }
  if (out->size() != first + 4) return;
  bool interior = true;
  for (int k = 0; k < 4; ++k) {
    const CoveringCell& cc = (*out)[first + k];
    if (cc.cell != cell.Child(k)) return;
    interior = interior && cc.interior;
  }
  out->resize(first);
  out->push_back({cell, interior});
}

}  // namespace

void GetCovering(const geo::Polygon& polygon, int max_level,
                 std::vector<CoveringCell>* out) {
  out->clear();
  const geo::Rect& bounds = polygon.Bounds();
  if (bounds.IsEmpty()) return;
  CellId seed = SmallestEnclosingCell(bounds);
  if (seed.level() > max_level) seed = seed.Parent(max_level);
  CoverCell(polygon, seed, max_level, out);
}

geo::Rect GetInteriorRect(const geo::Polygon& polygon) {
  const geo::Rect bounds = polygon.Bounds();
  if (bounds.IsEmpty()) return geo::Rect::Empty();

  // Find an interior anchor: try the bbox center, then a deterministic grid
  // of sample points.
  geo::Point anchor = bounds.Center();
  if (!polygon.Contains(anchor)) {
    bool found = false;
    for (int gx = 1; gx < 8 && !found; ++gx) {
      for (int gy = 1; gy < 8 && !found; ++gy) {
        const geo::Point p{bounds.min.x + bounds.Width() * gx / 8.0,
                           bounds.min.y + bounds.Height() * gy / 8.0};
        if (polygon.Contains(p)) {
          anchor = p;
          found = true;
        }
      }
    }
    if (!found) return geo::Rect::Empty();
  }

  // Largest t in (0, 1] such that the bbox scaled by t around the anchor is
  // contained in the polygon, found by bisection.
  const auto rect_at = [&](double t) {
    return geo::Rect{
        {anchor.x - t * (anchor.x - bounds.min.x),
         anchor.y - t * (anchor.y - bounds.min.y)},
        {anchor.x + t * (bounds.max.x - anchor.x),
         anchor.y + t * (bounds.max.y - anchor.y)}};
  };
  double lo = 0.0;
  double hi = 1.0;
  if (polygon.ContainsRect(rect_at(1.0))) return rect_at(1.0);
  for (int iter = 0; iter < 40; ++iter) {
    const double mid = 0.5 * (lo + hi);
    if (polygon.ContainsRect(rect_at(mid))) {
      lo = mid;
    } else {
      hi = mid;
    }
  }
  return rect_at(lo);
}

double ApproxCellDiagonalMeters(int level, double lat) {
  constexpr double kMetersPerDegree = 111320.0;
  const double cells_per_side = std::pow(2.0, level);
  const double dx =
      360.0 / cells_per_side * kMetersPerDegree * std::cos(lat * M_PI / 180.0);
  const double dy = 180.0 / cells_per_side * kMetersPerDegree;
  return std::sqrt(dx * dx + dy * dy);
}

}  // namespace geoblocks::cell
