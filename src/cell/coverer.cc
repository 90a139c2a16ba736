#include "cell/coverer.h"

#include <algorithm>
#include <array>
#include <bit>
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

/// A step decides the descendants of a cell D levels down (D = 1 or 2),
/// its S x S sub-cells, from one pass over its edges at the N x N lattice
/// of their corners. Lattice masks are indexed by the point x + N y, a
/// sub-cell by its min corner's point. Curve masks are indexed by a
/// sub-cell's rank t along the Hilbert curve inside the cell, which is its
/// rank by id, so child k's sub-cells are the bits of rank k 4^(D-1) on.
template <int D>
struct StepShape {
  static constexpr int S = 1 << D;
  static constexpr int N = S + 1;
  /// Every sub-cell, as a curve mask.
  static constexpr uint32_t kAll = (uint32_t{1} << S * S) - 1;
  /// The min corners of the sub-cells in the left column. Times kRow, a
  /// mask of rows (bit N y each) spreads to every sub-cell of those rows.
  static constexpr uint32_t kColumn = [] {
    uint32_t column = 0;
    for (int y = 0; y < S; ++y) column |= uint32_t{1} << N * y;
    return column;
  }();
  static constexpr uint32_t kRow = (uint32_t{1} << S) - 1;

  /// kOrder[orientation][t]: the grid position x + S y of the sub-cell of
  /// rank t.
  static constexpr std::array<std::array<uint8_t, S * S>, 4> kOrder = [] {
    if constexpr (D == 2) {
      return kGrandchildOrder;
    } else {
      std::array<std::array<uint8_t, 4>, 4> order{};
      for (uint32_t o = 0; o < 4; ++o) {
        for (int k = 0; k < 4; ++k) {
          const CellSquare child = CellSquare{0, 0, 2, o}.Child(k);
          order[o][k] = static_cast<uint8_t>(child.i + 2 * child.j);
        }
      }
      return order;
    }
  }();

  /// kCurve[orientation][y][row]: the curve mask of the sub-cells (x, y)
  /// for the bits x set in `row`.
  static constexpr std::array<std::array<std::array<uint16_t, 1 << S>, S>, 4>
      kCurve = [] {
        std::array<std::array<std::array<uint16_t, 1 << S>, S>, 4> curve{};
        for (int o = 0; o < 4; ++o) {
          for (int t = 0; t < S * S; ++t) {
            const int x = kOrder[o][t] % S;
            const int y = kOrder[o][t] / S;
            for (int row = 0; row < 1 << S; ++row) {
              if (row >> x & 1) curve[o][y][row] |= uint16_t(1u << t);
            }
          }
        }
        return curve;
      }();

  /// A lattice mask of sub-cells as a curve mask.
  static uint32_t ToCurve(uint32_t orientation, uint32_t lattice) {
    uint32_t mask = 0;
    for (int y = 0; y < S; ++y) {
      mask |= kCurve[orientation][y][lattice >> N * y & kRow];
    }
    return mask;
  }

  /// The lattice bit of the sub-cell of rank t.
  static int LatticeBit(uint32_t orientation, int t) {
    const int g = kOrder[orientation][t];
    return g + (g >> D);
  }
};

/// One entry of a cell's edge list: an edge index, and the lattice mask of
/// the cell's sub-cells the edge touches, filled in by the cell's step.
struct Entry {
  uint32_t edge;
  uint32_t touches;
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
    // With no edge the boundary misses the seed, so its corner is off the
    // boundary, where P is Polygon::Contains, and every point of the seed
    // shares that containment. With edges the seed intersects the polygon
    // and is not contained.
    const int distance = max_level_ - seed.level();
    if (top_ == 0) {
      if (parity) out_->push_back({seed, true});
    } else if (distance == 0) {
      out_->push_back({seed, false});
    } else if (distance % 2 == 1) {
      // One one-level step leaves an even distance to max_level.
      Step<1>(seed, square, parity, 0, top_);
    } else {
      Step<2>(seed, square, parity, 0, top_);
    }
  }

 private:
  /// Emits the covering of the polygon within `cell` (square `square`,
  /// whose descendants D levels down are no finer than max_level_) in
  /// ascending cell id order, and returns whether it emitted `cell` itself,
  /// as one cell. Stack entries [begin, end), not empty, list the edges
  /// touching the cell's closed rect, and `parity` is the ray parity P of
  /// its min corner.
  ///
  /// One pass over the edges reads each edge's exact Orient signs at the
  /// lattice of the sub-cells' corners and derives from them which
  /// sub-cells it touches (SegmentIntersectsRect per sub-cell) and its
  /// flips of P along the rows and up the left column between the
  /// sub-cells' min corners. Only an edge touching this cell's closed rect
  /// can separate two points of it, so the edges listed here carry every
  /// flip. A sub-cell no edge touches is emitted, as interior, if its P is
  /// set; one with edges is emitted as boundary at max_level_, or stepped
  /// into with the edges that touch it. On return four whole sibling
  /// sub-cells merge into their parent, and four whole children into the
  /// cell, interior only if all four were.
  template <int D>
  bool Step(CellId cell, const CellSquare& square, bool parity, size_t begin,
            size_t end) {
    using Shape = StepShape<D>;
    constexpr int S = Shape::S;
    constexpr int N = Shape::N;
    constexpr double kInv = 1.0 / static_cast<double>(kHilbertSide);
    const uint32_t side = square.size >> D;
    double xs[N];
    double ys[N];
    for (uint32_t k = 0; k < N; ++k) {
      xs[k] = (square.i + k * side) * kInv;
      ys[k] = (square.j + k * side) * kInv;
    }
    uint32_t touched = 0;
    // Bit x + N y: P flips between the min corners of sub-cells (0, y) and
    // (x, y). Bit N y: P flips between those of sub-cells (0, y) and
    // (0, y + 1).
    uint32_t row_flips = 0;
    uint32_t column_flips = 0;
    Entry* const stack = stack_.data();
    for (size_t e = begin; e < end; ++e) {
      const geo::Segment& edge = edges_[stack[e].edge];
      uint32_t left = 0;
      uint32_t right = 0;
      geo::OrientLattice(edge, xs, ys, &left, &right);
      // Per row y, at bit N y: the sub-cell boxes overlapping the edge's,
      // the end point b above the row, and the edge straddling it
      // half-open.
      const double x_lo = std::min(edge.a.x, edge.b.x);
      const double x_hi = std::max(edge.a.x, edge.b.x);
      const double y_lo = std::min(edge.a.y, edge.b.y);
      const double y_hi = std::max(edge.a.y, edge.b.y);
      uint32_t columns = 0;
      uint32_t rows = 0;
      uint32_t b_above = 0;
      uint32_t straddles = 0;
      for (int k = 0; k < S; ++k) {
        const uint32_t row = uint32_t{1} << N * k;
        columns |= (uint32_t{x_lo <= xs[k + 1]} & uint32_t{x_hi >= xs[k]}) << k;
        rows |= (uint32_t{y_lo <= ys[k + 1]} & uint32_t{y_hi >= ys[k]}) * row;
        b_above |= uint32_t{edge.b.y > ys[k]} * row;
        straddles |= uint32_t{(edge.b.y > ys[k]) != (edge.a.y > ys[k])} * row;
      }
      // SegmentIntersectsRect per sub-cell: boxes overlap, and the four
      // corners are not all strictly on one side.
      const uint32_t one_side =
          (left & left >> 1 & left >> N & left >> (N + 1)) |
          (right & right >> 1 & right >> N & right >> (N + 1));
      const uint32_t touches = rows * columns & ~one_side;
      stack[e].touches = touches;
      touched |= touches;
      // Along each row the edge straddles half-open, P flips where exactly
      // one of the two points is left of the edge directed upward.
      const uint32_t upward = b_above * ((uint32_t{1} << N) - 1);
      const uint32_t crosses =
          ((left & upward) | (right & ~upward)) & straddles * Shape::kRow;
      row_flips ^= crosses ^ (crosses & Shape::kColumn) * Shape::kRow;
      // Up the left column, P is the parity of the points nudged by
      // (+d, +eps): it flips where the edge crosses the nudged column, its
      // endpoints on opposite sides of x = xs[0] + d and the nudged points
      // on opposite sides of its line.
      if ((edge.a.x <= xs[0]) != (edge.b.x <= xs[0])) {
        const uint32_t nudged_left = NudgedSide(edge, 0) > 0 ? ~right : left;
        column_flips ^= (nudged_left ^ nudged_left >> N) & Shape::kColumn;
      }
    }
    // P up the left column, a prefix xor of its flips below each row
    // (the flip from the last row to the top corner is not needed), then
    // along each row.
    uint32_t below = column_flips & (Shape::kColumn >> N);
    below ^= below << N;
    below ^= below << 2 * N;
    const uint32_t column_parity =
        (below << N & Shape::kColumn) ^ (parity ? Shape::kColumn : 0);
    const uint32_t inside_lattice = row_flips ^ column_parity * Shape::kRow;
    // Curve masks from here on. A sub-cell at max_level_ is emitted when
    // the boundary touches it or it lies inside, interior in the second
    // case only; above max_level_ one the boundary touches is stepped into.
    const uint32_t orientation = square.orientation;
    const uint32_t inside = Shape::ToCurve(orientation, inside_lattice);
    const uint32_t boundary = Shape::ToCurve(orientation, touched);
    const uint32_t descend = cell.level() + D < max_level_ ? boundary : 0;
    uint32_t whole = (boundary | inside) & ~descend;
    uint32_t interior = inside & ~boundary;
    if (whole == Shape::kAll) {
      out_->push_back({cell, interior == Shape::kAll});
      return true;
    }
    // A sub-cell's list is at most this one; its step may grow the stack.
    Reserve(end - begin);
    // The sub-cell of rank t is the t-th cell of its level from `first`.
    const uint64_t sub_lsb = cell.lsb() >> 2 * D;
    const uint64_t first = cell.id() - cell.lsb() + sub_lsb;
    for (uint32_t todo = whole | descend; todo != 0;) {
      const int t = std::countr_zero(todo);
      if constexpr (D == 2) {
        // A child whose four sub-cells are whole, none stepped into.
        if ((t & 3) == 0 && (whole >> t & 0xF) == 0xF) {
          out_->push_back({cell.Child(t >> 2), (interior >> t & 0xF) == 0xF});
          todo &= ~(uint32_t{0xF} << t);
          continue;
        }
      }
      todo &= todo - 1;
      const uint32_t bit = uint32_t{1} << t;
      const CellId sub(first + 2 * static_cast<uint64_t>(t) * sub_lsb);
      if (descend & bit) {
        CellSquare sub_square = square.Child(t >> 2 * (D - 1));
        if constexpr (D == 2) sub_square = sub_square.Child(t & 3);
        if (Descend(sub, sub_square, Shape::LatticeBit(orientation, t),
                    (inside & bit) != 0, begin, end)) {
          whole |= bit;
          if (out_->back().interior) interior |= bit;
        }
      } else {
        out_->push_back({sub, (interior & bit) != 0});
      }
      if constexpr (D == 2) {
        // The last of four whole siblings.
        const int group = t & ~3;
        if ((t & 3) == 3 && (whole >> group & 0xF) == 0xF) {
          MergeLastFour(cell.Child(t >> 2), (interior >> group & 0xF) == 0xF);
        }
      }
    }
    if (whole != Shape::kAll) return false;
    MergeLastFour(cell, interior == Shape::kAll);
    return true;
  }

  /// Steps two levels into the sub-cell `sub` of a cell whose edge list is
  /// stack entries [begin, end), with the edges touching the sub-cell, the
  /// ones whose lattice mask has bit `bit`. Returns whether `sub` came out
  /// whole.
  bool Descend(CellId sub, const CellSquare& sub_square, int bit,
               bool parity, size_t begin, size_t end) {
    // Each entry is written, then kept if the edge touches the sub-cell.
    // A step below may have grown the stack, so its data is read again.
    const size_t sub_begin = top_;
    Entry* const stack = stack_.data();
    for (size_t e = begin; e < end; ++e) {
      stack[top_] = {stack[e].edge, 0};
      top_ += stack[e].touches >> bit & 1;
    }
    const bool whole = Step<2>(sub, sub_square, parity, sub_begin, top_);
    top_ = sub_begin;
    return whole;
  }

  /// Replaces the last four cells emitted, four whole siblings, with their
  /// parent.
  void MergeLastFour(CellId parent, bool interior) {
    out_->resize(out_->size() - 3);
    out_->back() = {parent, interior};
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
