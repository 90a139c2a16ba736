#include "geo/segment.h"

#include <algorithm>
#include <bit>
#include <cmath>

#if (defined(__x86_64__) || defined(_M_X64)) && !defined(GEOBLOCKS_NO_SIMD)
#define GEOBLOCKS_SEGMENT_AVX 1
#include <immintrin.h>
#endif

// Built with -ffp-contract=off (CMakeLists.txt): the filter's error bound
// and TwoSum both assume every product and sum is rounded on its own.

namespace geoblocks::geo {

namespace {

/// x + y = sum + err exactly (Knuth's TwoSum).
inline void TwoSum(double x, double y, double* sum, double* err) {
  const double s = x + y;
  const double bv = s - x;
  const double av = s - bv;
  *sum = s;
  *err = (x - av) + (y - bv);
}

/// Adds `v` to the nonoverlapping expansion e[0..n), ordered by increasing
/// magnitude, in place; returns the new length. Shewchuk's Grow-Expansion
/// with zero elimination, so the last component carries the sum's sign.
inline int GrowExpansion(double* e, int n, double v) {
  int m = 0;
  for (int i = 0; i < n; ++i) {
    double err = 0.0;
    TwoSum(v, e[i], &v, &err);
    if (err != 0.0) e[m++] = err;
  }
  if (v != 0.0) e[m++] = v;
  return m;
}

/// Exact sign of a.x*b.y - a.y*b.x + b.x*c.y - b.y*c.x + c.x*a.y - c.y*a.x,
/// which expands (b - a) x (c - a), from six exact products (TwoProduct by
/// std::fma) summed into one expansion.
int OrientExact(const Point& a, const Point& b, const Point& c) {
  const double factors[6][2] = {{a.x, b.y},  {-a.y, b.x}, {b.x, c.y},
                                {-b.y, c.x}, {c.x, a.y},  {-c.y, a.x}};
  double e[12];
  int n = 0;
  for (const auto& [u, v] : factors) {
    const double p = u * v;
    n = GrowExpansion(e, n, std::fma(u, v, -p));
    n = GrowExpansion(e, n, p);
  }
  if (n == 0) return 0;
  return e[n - 1] > 0 ? 1 : -1;
}

/// Orient(a, b, c) from the filter's two products l = dx * ey and
/// r = dy * ex, where dx, dy span the segment a -> b and ex, ey run from
/// `a` to the tested point `c`.
inline int OrientFromProducts(const Point& a, const Point& b, const Point& c,
                              double l, double r) {
  const double det = l - r;
  if (std::abs(det) >= kOrientErrBound * (std::abs(l) + std::abs(r))) {
    return (det > 0) - (det < 0);
  }
  return OrientExact(a, b, c);
}

/// Orient with the differences from `a` already taken.
inline int OrientFrom(const Point& a, const Point& b, const Point& c,
                      double dx, double dy, double ex, double ey) {
  return OrientFromProducts(a, b, c, dx * ey, dy * ex);
}

}  // namespace

int Orient(const Point& a, const Point& b, const Point& c) {
  return OrientFrom(a, b, c, b.x - a.x, b.y - a.y, c.x - a.x, c.y - a.y);
}

bool OnSegment(const Segment& s, const Point& p) {
  return s.Bounds().Contains(p) && Orient(s.a, s.b, p) == 0;
}

bool SegmentsIntersect(const Segment& s1, const Segment& s2) {
  const int d1 = Orient(s2.a, s2.b, s1.a);
  const int d2 = Orient(s2.a, s2.b, s1.b);
  const int d3 = Orient(s1.a, s1.b, s2.a);
  const int d4 = Orient(s1.a, s1.b, s2.b);
  if (d1 * d2 < 0 && d3 * d4 < 0) return true;
  if (d1 == 0 && OnSegment(s2, s1.a)) return true;
  if (d2 == 0 && OnSegment(s2, s1.b)) return true;
  if (d3 == 0 && OnSegment(s1, s2.a)) return true;
  if (d4 == 0 && OnSegment(s1, s2.b)) return true;
  return false;
}

bool SegmentIntersectsRect(const Segment& s, const Rect& r) {
  // Separating axes: the two box axes, then the segment's normal, along
  // which the segment projects to one value and the rect to the spread of
  // its corners.
  if (!r.Intersects(s.Bounds())) return false;
  const Point& a = s.a;
  const double dx = s.b.x - a.x;
  const double dy = s.b.y - a.y;
  const double ex0 = r.min.x - a.x;
  const double ex1 = r.max.x - a.x;
  const double ey0 = r.min.y - a.y;
  const double ey1 = r.max.y - a.y;
  const int o0 = OrientFrom(a, s.b, r.min, dx, dy, ex0, ey0);
  if (o0 == 0) return true;
  const int o1 = OrientFrom(a, s.b, {r.max.x, r.min.y}, dx, dy, ex1, ey0);
  if (o1 != o0) return true;
  const int o2 = OrientFrom(a, s.b, r.max, dx, dy, ex1, ey1);
  if (o2 != o0) return true;
  return OrientFrom(a, s.b, {r.min.x, r.max.y}, dx, dy, ex0, ey1) != o0;
}

namespace {

/// OrientLattice on any target: the filter per point, the exact fallback
/// where it is unsure.
template <int N>
void OrientLatticeScalar(const Segment& s, const double (&xs)[N],
                         const double (&ys)[N], uint32_t* left,
                         uint32_t* right) {
  const Point& a = s.a;
  const double dx = s.b.x - a.x;
  const double dy = s.b.y - a.y;
  double r[N];
  for (int i = 0; i < N; ++i) r[i] = dy * (xs[i] - a.x);
  uint32_t lefts = 0;
  uint32_t rights = 0;
  for (int j = 0; j < N; ++j) {
    const double l = dx * (ys[j] - a.y);
    for (int i = 0; i < N; ++i) {
      const int sign = OrientFromProducts(a, s.b, {xs[i], ys[j]}, l, r[i]);
      lefts |= uint32_t{sign > 0} << (i + N * j);
      rights |= uint32_t{sign < 0} << (i + N * j);
    }
  }
  *left = lefts;
  *right = rights;
}

#ifdef GEOBLOCKS_SEGMENT_AVX

/// The filter on four points at once, lane k pairing the products l and r
/// of point k: every lane runs the scalar filter's operations in its
/// order, so it decides exactly as OrientFromProducts's filter does. Bit k
/// of the results: lane k is certainly left, certainly right, or unsure.
__attribute__((target("avx"))) inline void FilterLanes(
    __m256d l, __m256d r, uint32_t* left, uint32_t* right, uint32_t* unsure) {
  const __m256d sign_bit = _mm256_set1_pd(-0.0);
  const __m256d zero = _mm256_setzero_pd();
  const __m256d det = _mm256_sub_pd(l, r);
  const __m256d bound = _mm256_mul_pd(
      _mm256_set1_pd(kOrientErrBound),
      _mm256_add_pd(_mm256_andnot_pd(sign_bit, l),
                    _mm256_andnot_pd(sign_bit, r)));
  const __m256d sure =
      _mm256_cmp_pd(_mm256_andnot_pd(sign_bit, det), bound, _CMP_GE_OQ);
  *left = static_cast<uint32_t>(_mm256_movemask_pd(
      _mm256_and_pd(sure, _mm256_cmp_pd(det, zero, _CMP_GT_OQ))));
  *right = static_cast<uint32_t>(_mm256_movemask_pd(
      _mm256_and_pd(sure, _mm256_cmp_pd(det, zero, _CMP_LT_OQ))));
  *unsure = static_cast<uint32_t>(_mm256_movemask_pd(sure)) ^ 0xF;
}

/// OrientLattice four points at a time: each row's first four columns,
/// then, for N = 5, the fifth column's first four rows, then the last
/// corner alone.
template <int N>
__attribute__((target("avx"))) void OrientLatticeAvx(
    const Segment& s, const double (&xs)[N], const double (&ys)[N],
    uint32_t* left, uint32_t* right) {
  static_assert(N == 3 || N == 5);
  const Point& a = s.a;
  const double dx = s.b.x - a.x;
  const double dy = s.b.y - a.y;
  // Padding lanes (r for N = 3) are never read back.
  double r[N + 1] = {};
  double l[N + 1] = {};
  for (int i = 0; i < N; ++i) r[i] = dy * (xs[i] - a.x);
  for (int j = 0; j < N; ++j) l[j] = dx * (ys[j] - a.y);
  constexpr uint32_t kRow = N == 3 ? 0x7 : 0xF;
  const __m256d r_lanes = _mm256_loadu_pd(r);
  uint32_t lefts = 0;
  uint32_t rights = 0;
  uint32_t unsure = 0;
  uint32_t lane_left = 0;
  uint32_t lane_right = 0;
  uint32_t lane_unsure = 0;
  for (int j = 0; j < N; ++j) {
    FilterLanes(_mm256_set1_pd(l[j]), r_lanes, &lane_left, &lane_right,
                &lane_unsure);
    lefts |= (lane_left & kRow) << N * j;
    rights |= (lane_right & kRow) << N * j;
    unsure |= (lane_unsure & kRow) << N * j;
  }
  if constexpr (N == 5) {
    // Lane j is point (4, j); times 0x1111, masked, bit j moves to 5 j.
    FilterLanes(_mm256_loadu_pd(l), _mm256_set1_pd(r[4]), &lane_left,
                &lane_right, &lane_unsure);
    lefts |= (lane_left * 0x1111 & 0x8421) << 4;
    rights |= (lane_right * 0x1111 & 0x8421) << 4;
    unsure |= (lane_unsure * 0x1111 & 0x8421) << 4;
    const int sign = OrientFromProducts(a, s.b, {xs[4], ys[4]}, l[4], r[4]);
    lefts |= uint32_t{sign > 0} << 24;
    rights |= uint32_t{sign < 0} << 24;
  }
  for (; unsure != 0; unsure &= unsure - 1) {
    const int bit = std::countr_zero(unsure);
    const int sign = OrientExact(a, s.b, {xs[bit % N], ys[bit / N]});
    lefts |= uint32_t{sign > 0} << bit;
    rights |= uint32_t{sign < 0} << bit;
  }
  *left = lefts;
  *right = rights;
}

#endif  // GEOBLOCKS_SEGMENT_AVX

}  // namespace

template <int N>
void OrientLattice(const Segment& s, const double (&xs)[N],
                   const double (&ys)[N], uint32_t* left, uint32_t* right) {
#ifdef GEOBLOCKS_SEGMENT_AVX
  static const bool avx = __builtin_cpu_supports("avx");
  if (avx) {
    OrientLatticeAvx(s, xs, ys, left, right);
    return;
  }
#endif
  OrientLatticeScalar(s, xs, ys, left, right);
}

template void OrientLattice<3>(const Segment&, const double (&)[3],
                               const double (&)[3], uint32_t*, uint32_t*);
template void OrientLattice<5>(const Segment&, const double (&)[5],
                               const double (&)[5], uint32_t*, uint32_t*);

}  // namespace geoblocks::geo
