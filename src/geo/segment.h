#pragma once

#include <cstdint>

#include "geo/point.h"
#include "geo/rect.h"

namespace geoblocks::geo {

/// A line segment between two endpoints.
struct Segment {
  Point a;
  Point b;

  Rect Bounds() const { return Rect::FromPoints(a, b); }
};

/// Exact sign of the orientation determinant (b - a) x (c - a): +1 when `c`
/// lies strictly left of the directed line a -> b, -1 when strictly right,
/// 0 when the three points are collinear. The float determinant decides
/// whenever its magnitude clears Shewchuk's static error bound (Shewchuk,
/// "Adaptive Precision Floating-Point Arithmetic and Fast Robust Geometric
/// Predicates", 1997); otherwise an exact TwoSum/TwoProduct expansion of
/// the determinant does. No input is rounded or snapped. Exact whenever
/// every nonzero coordinate has magnitude in [2^-400, 2^400] (about 4e-121
/// to 3e120), so that no product underflows or overflows.
int Orient(const Point& a, const Point& b, const Point& c);

/// Orient's float filter: with l = (b.x - a.x) * (c.y - a.y),
/// r = (b.y - a.y) * (c.x - a.x) and det = l - r, every difference,
/// product and the subtraction rounded once (no fused multiply-add), the
/// sign of det is exact when |det| >= kOrientErrBound * (|l| + |r|).
/// Shewchuk's ccwerrboundA, (3 + 16 eps) eps with eps = 2^-53.
inline constexpr double kOrientErrBound = (3.0 + 16.0 * 0x1p-53) * 0x1p-53;

/// True when `p` lies on the closed segment `s` (exact: Orient is 0 and `p`
/// lies in the segment's bounding box).
bool OnSegment(const Segment& s, const Point& p);

/// True when the two closed segments share at least one point. Exact, and
/// handles all degenerate cases (collinear overlap, shared endpoints,
/// zero-length segments).
bool SegmentsIntersect(const Segment& s1, const Segment& s2);

/// True when the closed segment intersects the closed rectangle: their
/// bounding boxes overlap and the rectangle's four corners are not all
/// strictly on one side of the segment's line (exact, by Orient).
bool SegmentIntersectsRect(const Segment& s, const Rect& r);

/// Orient(s.a, s.b, {xs[x], ys[y]}) on the N x N lattice xs x ys, as bit
/// masks: bit x + N y of `*left` is set where the sign is +1, of `*right`
/// where it is -1. The filter's differences and products are shared
/// across the lattice (2N products instead of 2N^2) and, on an x86-64 CPU
/// with AVX, its tests run on four lattice points at a time. Exact, as
/// Orient. Defined for N = 3 (a cell's children's corners) and N = 5 (its
/// grandchildren's).
template <int N>
void OrientLattice(const Segment& s, const double (&xs)[N],
                   const double (&ys)[N], uint32_t* left, uint32_t* right);

}  // namespace geoblocks::geo
