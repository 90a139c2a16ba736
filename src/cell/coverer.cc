#include "cell/coverer.h"

#include <algorithm>
#include <array>
#include <cmath>

#include "cell/hilbert.h"
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

/// In the 5x5 lattice of a cell's leaf corners, indexed x + 5 y: the min
/// corners of the four leaves in its left column. Times 0xF, a mask of
/// rows (bit 5 y each) spreads to every leaf of those rows.
constexpr uint32_t kLatticeColumn = 1 | 1 << 5 | 1 << 10 | 1 << 15;

/// A lattice leaf mask as bit x + 4 y, the grid index of
/// kGrandchildOrder.
inline uint32_t ToGrid(uint32_t lattice) {
  return (lattice & 0xF) | (lattice >> 1 & 0xF0) | (lattice >> 2 & 0xF00) |
         (lattice >> 3 & 0xF000);
}

/// kChildLeaves[orientation][k]: the grid bits of child k's four leaves.
constexpr std::array<std::array<uint32_t, 4>, 4> kChildLeaves = [] {
  std::array<std::array<uint32_t, 4>, 4> leaves{};
  for (int o = 0; o < 4; ++o) {
    for (int k = 0; k < 16; ++k) {
      leaves[o][k / 4] |= 1u << kGrandchildOrder[o][k];
    }
  }
  return leaves;
}();

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
    for (const geo::Ring& ring : polygon_.rings()) {
      for (size_t i = 0, j = ring.size() - 1; i < ring.size(); j = i++) {
        edges_.push_back(geo::Segment{ring[j], ring[i]});
      }
    }
    // The one full parity: the seed's min corner against every edge.
    const CellSquare square = CellSquare::Of(seed);
    const geo::Rect rect = square.ToRect();
    bool parity = false;
    top_ = 0;
    Reserve(edges_.size());
    for (uint32_t e = 0; e < edges_.size(); ++e) {
      const geo::Segment& edge = edges_[e];
      parity ^= RayCrosses(edge, rect.min.y,
                           geo::Orient(edge.a, edge.b, rect.min));
      if (geo::SegmentIntersectsRect(edge, rect)) stack_[top_++] = {e, 0};
    }
    Visit(seed, square, parity, 0, top_);
  }

 private:
  /// Emits the covering of the polygon within `cell` (square `square`) in
  /// ascending cell id order, and returns whether it emitted `cell` itself,
  /// as one cell. Stack entries [begin, end) list the edges touching the
  /// cell's closed rect, and `parity` is the ray parity P of its min
  /// corner. With no edge the boundary misses the cell, so its corner is
  /// off the boundary, where P is Polygon::Contains, and every point of the
  /// cell shares that containment. With edges the cell intersects the
  /// polygon and is not contained.
  bool Visit(CellId cell, const CellSquare& square, bool parity, size_t begin,
             size_t end) {
    if (begin == end) {
      if (parity) out_->push_back({cell, true});
      return parity;
    }
    const int level = cell.level();
    if (level >= max_level_) {
      out_->push_back({cell, false});
      return true;
    }
    if (level == max_level_ - 2) {
      return CoverLastTwoLevels(cell, square, parity, begin, end);
    }
    return Split(cell, square, parity, begin, end);
  }

  /// Visits the four children of `cell`, then merges them back into `cell`
  /// when all four were emitted whole. One pass over the cell's edges reads
  /// the exact Orient signs at the 3x3 lattice of the children's corners,
  /// and from them both each child's edge list and each child's corner
  /// parity: only an edge touching this cell's closed rect can separate two
  /// points of it, so the edges listed here carry every flip of P.
  bool Split(CellId cell, const CellSquare& square, bool parity, size_t begin,
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
      // corners are not all strictly on one side. Lattice bit x + 3 y; a
      // quadrant at its min corner's bit, then at bit qx + 2 qy.
      uint32_t left = 0;
      uint32_t right = 0;
      for (int y = 0; y < 3; ++y) {
        for (int x = 0; x < 3; ++x) {
          left |= uint32_t{signs[y][x] > 0} << (x + 3 * y);
          right |= uint32_t{signs[y][x] < 0} << (x + 3 * y);
        }
      }
      const uint32_t one_side = (left & left >> 1 & left >> 3 & left >> 4) |
                                (right & right >> 1 & right >> 3 & right >> 4);
      const uint32_t columns =
          (std::min(edge.a.x, edge.b.x) <= xs[1] ? 1u : 0) |
          (std::max(edge.a.x, edge.b.x) >= xs[1] ? 2u : 0);
      const uint32_t rows =
          (std::min(edge.a.y, edge.b.y) <= ys[1] ? 1u : 0) |
          (std::max(edge.a.y, edge.b.y) >= ys[1] ? 8u : 0);
      const uint32_t touched = rows * columns & ~one_side;
      stack_[e].quadrants = (touched & 3) | (touched >> 1 & 0xC);
    }
    const bool quadrant_parity[4] = {parity, parity != row0, parity != column,
                                     parity != (column != row1)};
    // A child's list is at most this one; a child's descent may grow the
    // stack, so its data is read again for each child.
    Reserve(end - begin);

    bool whole = true;
    for (int k = 0; k < 4; ++k) {
      const CellSquare child_square = square.Child(k);
      const int q = (child_square.i != square.i ? 1 : 0) +
                    (child_square.j != square.j ? 2 : 0);
      // Each entry is written, then kept if the edge touches the child.
      const size_t child_begin = top_;
      Entry* const stack = stack_.data();
      for (size_t e = begin; e < end; ++e) {
        stack[top_] = {stack[e].edge, 0};
        top_ += stack[e].quadrants >> q & 1;
      }
      whole = Visit(cell.Child(k), child_square, quadrant_parity[q],
                    child_begin, top_) &&
              whole;
      top_ = child_begin;
    }
    if (!whole) return false;
    // Each child emitted itself, so they are the last four cells.
    const size_t first = out_->size() - 4;
    bool interior = true;
    for (size_t c = first; c < first + 4; ++c) {
      interior = interior && (*out_)[c].interior;
    }
    out_->resize(first);
    out_->push_back({cell, interior});
    return true;
  }

  /// Split's decisions for `cell`, at level max_level_ - 2, and for its
  /// four children, made in one pass over the cell's edges instead of two
  /// levels of recursion. Each edge's exact Orient signs at the 5x5
  /// lattice of the 16 leaves' corners give, by Split's own rules, which
  /// leaves it touches (SegmentIntersectsRect per leaf) and its flips of P
  /// along the four rows and up the left column between the leaves' min
  /// corners. Leaf masks are indexed by the lattice point x + 5 y of the
  /// leaf's min corner while edges are read, and by x + 4 y after.
  bool CoverLastTwoLevels(CellId cell, const CellSquare& square, bool parity,
                          size_t begin, size_t end) {
    constexpr double kInv = 1.0 / static_cast<double>(kHilbertSide);
    const uint32_t quarter = square.size >> 2;
    double xs[5];
    double ys[5];
    for (uint32_t k = 0; k < 5; ++k) {
      xs[k] = (square.i + k * quarter) * kInv;
      ys[k] = (square.j + k * quarter) * kInv;
    }
    uint32_t touched = 0;
    // Bit x + 5 y: P flips between the min corners of leaves (0, y) and
    // (x, y). Bit 5 y: P flips between those of leaves (0, y) and
    // (0, y + 1).
    uint32_t row_flips = 0;
    uint32_t column_flips = 0;
    for (size_t e = begin; e < end; ++e) {
      const geo::Segment& edge = edges_[stack_[e].edge];
      int8_t signs[5][5];
      geo::OrientLattice(edge, xs, ys, signs);
      uint32_t left = 0;
      uint32_t right = 0;
      for (int y = 0; y < 5; ++y) {
        for (int x = 0; x < 5; ++x) {
          left |= uint32_t{signs[y][x] > 0} << (x + 5 * y);
          right |= uint32_t{signs[y][x] < 0} << (x + 5 * y);
        }
      }
      // Per row y, at bit 5 y: the leaf boxes overlapping the edge's, the
      // end point b above the row, and the edge straddling it half-open.
      const double x_lo = std::min(edge.a.x, edge.b.x);
      const double x_hi = std::max(edge.a.x, edge.b.x);
      const double y_lo = std::min(edge.a.y, edge.b.y);
      const double y_hi = std::max(edge.a.y, edge.b.y);
      uint32_t columns = 0;
      uint32_t rows = 0;
      uint32_t b_above = 0;
      uint32_t straddles = 0;
      for (int k = 0; k < 4; ++k) {
        const uint32_t row = 1u << (5 * k);
        columns |= x_lo <= xs[k + 1] && x_hi >= xs[k] ? 1u << k : 0;
        rows |= y_lo <= ys[k + 1] && y_hi >= ys[k] ? row : 0;
        b_above |= edge.b.y > ys[k] ? row : 0;
        straddles |= (edge.b.y > ys[k]) != (edge.a.y > ys[k]) ? row : 0;
      }
      // SegmentIntersectsRect per leaf: boxes overlap, and the four
      // corners are not all strictly on one side.
      const uint32_t one_side = (left & left >> 1 & left >> 5 & left >> 6) |
                                (right & right >> 1 & right >> 5 & right >> 6);
      touched |= rows * columns & ~one_side;
      // Along each row the edge straddles half-open, P flips where exactly
      // one of the two points is left of the edge directed upward.
      const uint32_t upward = b_above * 0x1F;
      const uint32_t crosses =
          ((left & upward) | (right & ~upward)) & straddles * 0xF;
      row_flips ^= crosses ^ (crosses & kLatticeColumn) * 0xF;
      // Up the column, as in Split: the edge crosses the nudged column.
      if ((edge.a.x <= xs[0]) != (edge.b.x <= xs[0])) {
        const uint32_t nudged_left = NudgedSide(edge, 0) > 0 ? ~right : left;
        column_flips ^= (nudged_left ^ nudged_left >> 5) & kLatticeColumn;
      }
    }
    // P up the left column, a prefix xor of its flips below each row
    // (the flip from row 3 to the top corner is not needed), then along
    // each row.
    uint32_t below = column_flips & (kLatticeColumn >> 5);
    below ^= below << 5;
    below ^= below << 10;
    const uint32_t column_parity =
        (below << 5 & kLatticeColumn) ^ (parity ? kLatticeColumn : 0);
    const uint32_t inside = row_flips ^ column_parity * 0xF;
    // A leaf is emitted when the boundary touches it or it lies inside,
    // interior in the second case only. Bit x + 4 y from here on.
    const uint32_t emitted = ToGrid(touched | inside);
    const uint32_t interior = ToGrid(inside & ~touched);
    if (emitted == 0xFFFF) {
      out_->push_back({cell, interior == 0xFFFF});
      return true;
    }
    const std::array<uint8_t, 16>& order =
        kGrandchildOrder[square.orientation];
    for (int k = 0; k < 4; ++k) {
      const uint32_t leaves = kChildLeaves[square.orientation][k];
      if ((emitted & leaves) == 0) continue;
      const CellId child = cell.Child(k);
      if ((emitted & leaves) == leaves) {
        out_->push_back({child, (interior & leaves) == leaves});
        continue;
      }
      for (int m = 0; m < 4; ++m) {
        const uint32_t leaf = 1u << order[4 * k + m];
        if (emitted & leaf) {
          out_->push_back({child.Child(m), (interior & leaf) != 0});
        }
      }
    }
    return false;
  }

  /// Makes room for `n` more entries above top_, plus the one slot a push
  /// writes before deciding whether to keep it. stack_'s size is its high
  /// water mark; [0, top_) is the descent path's lists.
  void Reserve(size_t n) {
    if (stack_.size() <= top_ + n) stack_.resize(top_ + n + 1);
  }

  const geo::Polygon& polygon_;
  const int max_level_;
  std::vector<geo::Segment>& edges_;
  std::vector<Entry>& stack_;
  size_t top_ = 0;
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
