#include "cell/coverer.h"

#include <algorithm>
#include <cmath>

#include "geo/segment.h"

namespace geoblocks::cell {

namespace {

/// Smallest single cell whose rectangle contains `bounds` (Root() if none
/// smaller does). The ancestors of one leaf share its grid corner up to
/// alignment, so the walk up decodes the id once.
CellId SmallestEnclosingCell(const geo::Rect& bounds) {
  const CellId leaf = CellId::FromPoint(bounds.min);
  uint32_t i = 0;
  uint32_t j = 0;
  uint32_t size = 0;
  leaf.ToIJ(&i, &j, &size);
  for (int level = CellId::kMaxLevel; level > 0; --level) {
    const uint32_t side = uint32_t{1} << (CellId::kMaxLevel - level);
    const CellSquare square{i & ~(side - 1), j & ~(side - 1), side};
    if (square.ToRect().Contains(bounds)) return leaf.Parent(level);
  }
  return CellId::Root();
}

/// Whether `e` counts in Polygon::Contains's ray parity of a point at
/// height `y` whose Orient against `e` is `sign`: the edge straddles the
/// line y half-open (one endpoint strictly above) and the point lies
/// strictly left of it directed upward.
inline bool RayCrosses(const geo::Segment& e, double y, int sign) {
  const bool b_above = e.b.y > y;
  return b_above != (e.a.y > y) && (b_above ? sign > 0 : sign < 0);
}

/// The side of `e`'s line (+1 left, -1 right) of a point whose Orient
/// against `e` is `sign`, nudged by (+d, +eps) with eps << d: on the line,
/// the nudge's cross product with the edge, dx * eps - dy * d, decides.
inline int NudgedSide(const geo::Segment& e, int sign) {
  if (sign != 0) return sign;
  if (e.b.y != e.a.y) return e.b.y > e.a.y ? -1 : 1;
  return e.b.x > e.a.x ? 1 : -1;
}

/// One entry of a cell's edge list: an edge index, and which of the cell's
/// four quadrants (bit qx + 2 qy) the edge touches, filled in when the cell
/// is split.
struct Entry {
  uint32_t edge;
  uint32_t quadrants;
};

/// Per-thread scratch, kept warm across calls: the polygon's edges, and one
/// stack holding the edge list of every cell on the current descent path,
/// each above its parent's and popped on return.
struct Scratch {
  std::vector<geo::Segment> edges;
  std::vector<Entry> stack;
};

class Coverer {
 public:
  Coverer(const geo::Polygon& polygon, int max_level, Scratch* scratch,
          std::vector<CoveringCell>* out)
      : polygon_(polygon),
        max_level_(max_level),
        edges_(scratch->edges),
        stack_(scratch->stack),
        out_(out) {}

  void Run(CellId seed) {
    // The same segments, in the same direction, as the polygon's own
    // predicates test.
    edges_.clear();
    stack_.clear();
    for (const geo::Ring& ring : polygon_.rings()) {
      for (size_t i = 0, j = ring.size() - 1; i < ring.size(); j = i++) {
        edges_.push_back(geo::Segment{ring[j], ring[i]});
      }
    }
    // The one full parity: the seed's min corner against every edge.
    const CellSquare square = CellSquare::Of(seed);
    const geo::Rect rect = square.ToRect();
    bool parity = false;
    for (uint32_t e = 0; e < edges_.size(); ++e) {
      const geo::Segment& edge = edges_[e];
      parity ^= RayCrosses(edge, rect.min.y,
                           geo::Orient(edge.a, edge.b, rect.min));
      if (geo::SegmentIntersectsRect(edge, rect)) stack_.push_back({e, 0});
    }
    Visit(seed, square, parity, 0, stack_.size());
  }

 private:
  /// Emits the covering of the polygon within `cell` (square `square`) in
  /// ascending cell id order. Stack entries [begin, end) list the edges
  /// touching the cell's closed rect, and `parity` is the ray parity P of
  /// its min corner. With no edge the boundary misses the cell, so its
  /// corner is off the boundary, where P is Polygon::Contains, and every
  /// point of the cell shares that containment. With edges the cell
  /// intersects the polygon and is not contained.
  void Visit(CellId cell, const CellSquare& square, bool parity, size_t begin,
             size_t end) {
    if (begin == end) {
      if (parity) out_->push_back({cell, true});
    } else if (cell.level() >= max_level_) {
      out_->push_back({cell, false});
    } else {
      Split(cell, square, parity, begin, end);
    }
  }

  /// Visits the four children of `cell`, then merges them back into `cell`
  /// when all four were emitted whole. One pass over the cell's edges reads
  /// the exact Orient signs at the 3x3 lattice of the children's corners,
  /// and from them both each child's edge list and each child's corner
  /// parity: only an edge touching this cell's closed rect can separate two
  /// points of it, so the edges listed here carry every flip of P.
  void Split(CellId cell, const CellSquare& square, bool parity, size_t begin,
             size_t end) {
    const geo::Rect rect = square.ToRect();
    const geo::Point mid =
        CellSquare{square.i, square.j, square.size >> 1}.ToRect().max;
    const double xs[3] = {rect.min.x, mid.x, rect.max.x};
    const double ys[3] = {rect.min.y, mid.y, rect.max.y};
    // Flips of P along the bottom row, up the left column and along the
    // middle row, between the children's min corners.
    bool row0 = false;
    bool column = false;
    bool row1 = false;
    for (size_t e = begin; e < end; ++e) {
      const geo::Segment& edge = edges_[stack_[e].edge];
      int8_t signs[3][3];
      geo::OrientLattice(edge, xs, ys, signs);
      // A row's points share the straddle test, so P flips where exactly
      // one of them is left of the edge.
      row0 ^= RayCrosses(edge, ys[0], signs[0][0]) !=
              RayCrosses(edge, ys[0], signs[0][1]);
      row1 ^= RayCrosses(edge, ys[1], signs[1][0]) !=
              RayCrosses(edge, ys[1], signs[1][1]);
      // Up the column, P is the parity of the points nudged by (+d, +eps):
      // it flips where the edge crosses the nudged column, its endpoints on
      // opposite sides of x = xs[0] + d and the nudged points on opposite
      // sides of its line.
      column ^= (edge.a.x <= xs[0]) != (edge.b.x <= xs[0]) &&
                NudgedSide(edge, signs[0][0]) != NudgedSide(edge, signs[1][0]);
      // SegmentIntersectsRect per quadrant: boxes overlap, and the four
      // corners are not all strictly on one side.
      const bool spans_x[2] = {std::min(edge.a.x, edge.b.x) <= xs[1],
                               std::max(edge.a.x, edge.b.x) >= xs[1]};
      const bool spans_y[2] = {std::min(edge.a.y, edge.b.y) <= ys[1],
                               std::max(edge.a.y, edge.b.y) >= ys[1]};
      uint32_t quadrants = 0;
      for (int qy = 0; qy < 2; ++qy) {
        for (int qx = 0; qx < 2; ++qx) {
          const int s = signs[qy][qx];
          if (spans_x[qx] && spans_y[qy] &&
              (s == 0 || signs[qy][qx + 1] != s || signs[qy + 1][qx] != s ||
               signs[qy + 1][qx + 1] != s)) {
            quadrants |= 1u << (qx + 2 * qy);
          }
        }
      }
      stack_[e].quadrants = quadrants;
    }
    const bool quadrant_parity[4] = {parity, parity != row0, parity != column,
                                     parity != (column != row1)};

    const size_t first = out_->size();
    for (int k = 0; k < 4; ++k) {
      const CellSquare child_square = square.Child(k);
      const int q = (child_square.i != square.i ? 1 : 0) +
                    (child_square.j != square.j ? 2 : 0);
      const size_t child_begin = stack_.size();
      for (size_t e = begin; e < end; ++e) {
        // push_back may reallocate the stack: read it by position.
        if (stack_[e].quadrants >> q & 1) {
          stack_.push_back({stack_[e].edge, 0});
        }
      }
      Visit(cell.Child(k), child_square, quadrant_parity[q], child_begin,
            stack_.size());
      stack_.resize(child_begin);
    }
    if (out_->size() != first + 4) return;
    bool interior = true;
    for (int k = 0; k < 4; ++k) {
      const CoveringCell& cc = (*out_)[first + k];
      if (cc.cell != cell.Child(k)) return;
      interior = interior && cc.interior;
    }
    out_->resize(first);
    out_->push_back({cell, interior});
  }

  const geo::Polygon& polygon_;
  const int max_level_;
  std::vector<geo::Segment>& edges_;
  std::vector<Entry>& stack_;
  std::vector<CoveringCell>* out_;
};

}  // namespace

void GetCovering(const geo::Polygon& polygon, int max_level,
                 std::vector<CoveringCell>* out) {
  out->clear();
  const geo::Rect& bounds = polygon.Bounds();
  if (bounds.IsEmpty()) return;
  // Past the leaf level Child() returns the cell itself; never descend there.
  max_level = std::clamp(max_level, 0, CellId::kMaxLevel);
  CellId seed = SmallestEnclosingCell(bounds);
  if (seed.level() > max_level) seed = seed.Parent(max_level);
  thread_local Scratch scratch;
  Coverer(polygon, max_level, &scratch, out).Run(seed);
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
