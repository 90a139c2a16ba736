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

/// Per-thread scratch, kept warm across calls: the polygon's edges, and one
/// stack of edge indices holding the edge list of every cell on the current
/// descent path, each above its parent's and popped on return.
struct Scratch {
  std::vector<geo::Segment> edges;
  std::vector<uint32_t> stack;
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
    // predicates test. The seed's parent list is every edge.
    edges_.clear();
    stack_.clear();
    for (const geo::Ring& ring : polygon_.rings()) {
      for (size_t i = 0, j = ring.size() - 1; i < ring.size(); j = i++) {
        stack_.push_back(static_cast<uint32_t>(edges_.size()));
        edges_.push_back(geo::Segment{ring[j], ring[i]});
      }
    }
    const CellSquare square = CellSquare::Of(seed);
    bool contained = false;
    Clip(square.ToRect(), 0, edges_.size(), &contained);
    Cover(seed, square, contained, edges_.size(), stack_.size());
  }

 private:
  /// Pushes the edges of stack entries [begin, end) that touch the closed
  /// `rect`, and decides the cell as Polygon::IntersectsRect (returned) and
  /// ContainsRect (`*contained`) would. A touching edge makes both answers
  /// plain. With none, the polygon's boundary misses the cell, so every
  /// point of the cell has the same containment and one corner decides.
  bool Clip(const geo::Rect& rect, size_t begin, size_t end,
            bool* contained) {
    const size_t first = stack_.size();
    for (size_t e = begin; e < end; ++e) {
      // push_back may reallocate the stack: read it by position.
      const uint32_t edge = stack_[e];
      if (geo::SegmentIntersectsRect(edges_[edge], rect)) {
        stack_.push_back(edge);
      }
    }
    *contained = stack_.size() == first && polygon_.Contains(rect.min);
    return stack_.size() > first || *contained;
  }

  /// Emits the covering of the polygon within `cell` (square `square`,
  /// `contained` its ContainsRect) in ascending cell id order, merging four
  /// just-emitted children back into `cell`. Stack entries [begin, end) list
  /// the edges touching the cell's closed rect; a child tests only those.
  void Cover(CellId cell, const CellSquare& square, bool contained,
             size_t begin, size_t end) {
    if (contained || cell.level() >= max_level_) {
      out_->push_back({cell, contained});
      return;
    }
    const size_t first = out_->size();
    for (int k = 0; k < 4; ++k) {
      const CellSquare child_square = square.Child(k);
      const size_t child_begin = stack_.size();
      bool child_contained = false;
      if (Clip(child_square.ToRect(), begin, end, &child_contained)) {
        Cover(cell.Child(k), child_square, child_contained, child_begin,
              stack_.size());
      }
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
  std::vector<uint32_t>& stack_;
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
