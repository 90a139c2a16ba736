#pragma once

#include <vector>

#include "cell/cell_id.h"
#include "geo/polygon.h"
#include "geo/rect.h"

namespace geoblocks::cell {

/// One cell of a covering, flagged with whether it lies fully inside the
/// covered region (interior cells contribute *exact* aggregates; boundary
/// cells are the source of the bounded approximation error, Section 3.2).
struct CoveringCell {
  CellId cell;
  bool interior = false;

  friend bool operator==(const CoveringCell& a, const CoveringCell& b) =
      default;
};

/// Covers a unit-square polygon with disjoint cells no finer than
/// `max_level` — for GeoBlock queries the block level, which alone bounds
/// the spatial error ("the cell covering cannot contain any cells smaller
/// than the cells of the GeoBlock", Section 3.5).
///
/// Descends depth-first from the smallest cell enclosing the polygon's
/// bounds (capped at `max_level`) in steps of two levels. A step decides a
/// cell's 16 grandchildren at once, in Hilbert order, which is ascending
/// cell id: one the polygon contains is emitted as an interior cell, one
/// the boundary meets is emitted at `max_level` or stepped into, and one
/// the polygon misses is dropped. When `max_level` minus the seed's level
/// is odd, the seed takes one one-level step over its four children first,
/// so every later step lands on `max_level`; no step looks outside the
/// seed. When a step returns, four grandchildren emitted as single cells
/// are replaced by their parent, and four such children by the cell,
/// interior only if all four were.
///
/// Every decision equals `Polygon::IntersectsRect` / `ContainsRect` on the
/// cell's rect, reached more cheaply; all of them rest on the exact
/// `geo::Orient`, so the shortcuts below are exact too:
///  - Each stepped cell carries the list of ring edges that touch its
///    closed rect. The seed tests every edge (`geo::SegmentIntersectsRect`);
///    a step reads each listed edge's Orient signs at the 5x5 lattice of
///    its grandchildren's corners (3x3 for the one-level step) in one
///    `geo::OrientLattice` call, and a grandchild stepped into lists the
///    edges SegmentIntersectsRect would accept from those signs. A
///    non-empty list means the cell intersects the polygon and is not
///    contained.
///  - Each stepped cell also carries P, the even-odd ray parity of its min
///    corner under Polygon::Contains's rule without the on-boundary return.
///    A cell with an empty list does not meet the boundary, so its corner
///    is off it, P equals Contains there, and P decides both answers. A
///    grandchild's P is its cell's, flipped by the cell's listed edges:
///    along a row where the edge straddles it half-open and exactly one of
///    the two points is strictly left of it directed upward; up the left
///    column where the edge crosses the column nudged by (+d, +eps), eps
///    << d (endpoints on opposite sides of x, one on x counting as left;
///    nudged points on opposite sides of its line, a point on the line
///    taking side -sign(dy), or sign(dx) for a horizontal edge). An edge
///    missing the cell's closed rect cannot separate two of its points, so
///    no other edge flips P. Only the seed's P is a full parity over every
///    edge; the descent never calls Polygon::Contains.
///  - A step keeps its decisions as 16-bit masks indexed by Hilbert rank,
///    so grandchildren come out, and siblings merge, in id order from one
///    constexpr table per curve orientation (`kGrandchildOrder`).
///  - Each cell carries its leaf-grid square and the Hilbert orientation
///    inside it (`CellSquare`), so a grandchild's rect costs O(1) instead
///    of a 30-level id decode.
///
/// `*out` is cleared and refilled sorted by cell id and canonical (no four
/// complete siblings). `max_level` is clamped to [0, CellId::kMaxLevel].
/// Steps recurse on the call stack, merging happens in place, and the edge
/// lists live on one thread-local stack, so once `*out` has the capacity
/// for a covering and the thread has covered a polygon at least as large,
/// the call makes no heap allocation.
///
/// @param polygon   Query polygon in unit-square coordinates.
/// @param max_level Finest cell level the covering may use.
/// @param out       Receives the covering.
void GetCovering(const geo::Polygon& polygon, int max_level,
                 std::vector<CoveringCell>* out);

/// An axis-aligned rectangle contained in the polygon (the "interior
/// rectangle" used to query the PH-tree and aR-tree baselines, Section 4.1).
/// Found by shrinking the bounding box towards an interior anchor point;
/// returns an empty rect when no interior point is found.
geo::Rect GetInteriorRect(const geo::Polygon& polygon);

/// Approximate diagonal of a level-`level` cell in meters at latitude `lat`
/// under the whole-earth equirectangular projection (for reporting; mirrors
/// the S2 cell statistics table the paper references).
double ApproxCellDiagonalMeters(int level, double lat = 40.7);

}  // namespace geoblocks::cell
