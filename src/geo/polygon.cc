#include "geo/polygon.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <numbers>

#include "geo/segment.h"

namespace geoblocks::geo {

void Polygon::AddRing(Ring ring) {
  if (ring.size() < 3) return;
  for (const Point& p : ring) bounds_.AddPoint(p);
  num_vertices_ += ring.size();
  rings_.push_back(std::move(ring));
}

bool Polygon::Contains(const Point& p) const {
  if (rings_.empty() || !bounds_.Contains(p)) return false;
  // Even-odd ray casting with a horizontal ray to +infinity, decided by the
  // exact Orient alone. An edge is crossed when it straddles the ray's line
  // half-open (one endpoint strictly above p) and p lies strictly left of
  // the edge directed upward. An Orient of 0 inside the edge's box puts p on
  // the boundary, which counts as inside.
  bool inside = false;
  for (const Ring& ring : rings_) {
    const size_t n = ring.size();
    for (size_t i = 0, j = n - 1; i < n; j = i++) {
      const Point& a = ring[j];
      const Point& b = ring[i];
      const bool b_above = b.y > p.y;
      if (b_above != (a.y > p.y)) {
        const int o = Orient(a, b, p);
        if (o == 0) return true;
        if (b_above ? o > 0 : o < 0) inside = !inside;
      } else if (OnSegment(Segment{a, b}, p)) {
        return true;
      }
    }
  }
  return inside;
}

bool Polygon::AnyEdgeIntersectsRect(const Rect& r) const {
  for (const Ring& ring : rings_) {
    const size_t n = ring.size();
    for (size_t i = 0, j = n - 1; i < n; j = i++) {
      if (SegmentIntersectsRect(Segment{ring[j], ring[i]}, r)) return true;
    }
  }
  return false;
}

bool Polygon::ContainsRect(const Rect& r) const {
  if (rings_.empty() || r.IsEmpty()) return false;
  if (!bounds_.Contains(r)) return false;
  for (const Point& c : r.Corners()) {
    if (!Contains(c)) return false;
  }
  // All corners inside: the rectangle can only escape the polygon if an edge
  // passes through it. With even-odd holes, an edge through the rectangle
  // also flips containment somewhere inside, so this test is exact for
  // simple rings.
  return !AnyEdgeIntersectsRect(r);
}

bool Polygon::IntersectsRect(const Rect& r) const {
  if (rings_.empty() || r.IsEmpty()) return false;
  if (!bounds_.Intersects(r)) return false;
  // Any polygon vertex inside the rectangle?
  for (const Ring& ring : rings_) {
    for (const Point& p : ring) {
      if (r.Contains(p)) return true;
    }
  }
  // Any rectangle corner inside the polygon?
  for (const Point& c : r.Corners()) {
    if (Contains(c)) return true;
  }
  // Any edge crossing?
  return AnyEdgeIntersectsRect(r);
}

double Polygon::Area() const {
  double total = 0.0;
  bool outer = true;
  for (const Ring& ring : rings_) {
    double twice = 0.0;
    const size_t n = ring.size();
    for (size_t i = 0, j = n - 1; i < n; j = i++) {
      twice += ring[j].x * ring[i].y - ring[i].x * ring[j].y;
    }
    const double area = std::abs(twice) / 2.0;
    total += outer ? area : -area;
    outer = false;
  }
  return std::max(total, 0.0);
}

double Polygon::DistanceToOutline(const Point& p) const {
  double best = std::numeric_limits<double>::infinity();
  for (const Ring& ring : rings_) {
    const size_t n = ring.size();
    for (size_t i = 0, j = n - 1; i < n; j = i++) {
      const Point& a = ring[j];
      const Point& b = ring[i];
      const double abx = b.x - a.x;
      const double aby = b.y - a.y;
      const double len_sq = abx * abx + aby * aby;
      double t = 0.0;
      if (len_sq > 0.0) {
        t = ((p.x - a.x) * abx + (p.y - a.y) * aby) / len_sq;
        t = std::clamp(t, 0.0, 1.0);
      }
      const Point closest{a.x + t * abx, a.y + t * aby};
      best = std::min(best, p.DistanceTo(closest));
    }
  }
  return best;
}

Polygon Polygon::FromRect(const Rect& r) {
  const auto c = r.Corners();
  return Polygon(Ring{c.begin(), c.end()});
}

Polygon Polygon::RegularNGon(const Point& center, double radius, int n,
                             double phase) {
  Ring ring;
  ring.reserve(static_cast<size_t>(n));
  for (int i = 0; i < n; ++i) {
    const double angle = phase + 2.0 * std::numbers::pi * i / n;
    ring.push_back(
        {center.x + radius * std::cos(angle), center.y + radius * std::sin(angle)});
  }
  return Polygon(std::move(ring));
}

}  // namespace geoblocks::geo
