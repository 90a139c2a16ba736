#include "core/scan_kernels.h"

#include <algorithm>
#include <array>
#include <cstring>
#include <limits>

#include "geo/segment.h"

#if (defined(__x86_64__) || defined(_M_X64)) && !defined(GEOBLOCKS_NO_SIMD)
#define GEOBLOCKS_SCAN_SIMD 1
#include <immintrin.h>
#endif

namespace geoblocks::core::kernels {
namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

// Mirrors geo::Projection::Clamp01 exactly (strictly below 1.0).
inline double ClampUnit(double v) {
  if (v < 0.0) return 0.0;
  if (v >= 1.0) return 0.9999999999999999;
  return v;
}

// Lane reduction shared by every variant so the final combine is bit-identical
// by construction: min/max fold lane 0..3 in order, sums reduce as
// (l0 + l1) + (l2 + l3).
inline void FoldLanes(const double mn[4], const double mx[4],
                      const double sm[4], ColumnAggregate* out) {
  double lo = mn[0];
  if (mn[1] < lo) lo = mn[1];
  if (mn[2] < lo) lo = mn[2];
  if (mn[3] < lo) lo = mn[3];
  if (lo < out->min) out->min = lo;
  double hi = mx[0];
  if (mx[1] > hi) hi = mx[1];
  if (mx[2] > hi) hi = mx[2];
  if (mx[3] > hi) hi = mx[3];
  if (hi > out->max) out->max = hi;
  out->sum += (sm[0] + sm[1]) + (sm[2] + sm[3]);
}

// Per-point containment identical to
// polygon.Contains(projection.ToUnit(point)): same clamped projection, same
// bounds test, and the same exact geo::Orient deciding each edge that can
// matter, one the point straddles (a ray crossing) or lies in the box of (a
// boundary hit).
inline bool PointInPolygonScalar(double x, double y, const UnitTransform& t,
                                 const PreparedPolygon& poly) {
  const double px = ClampUnit((x - t.min_x) / t.width);
  const double py = ClampUnit((y - t.min_y) / t.height);
  if (!(px >= poly.bounds.min.x && px <= poly.bounds.max.x &&
        py >= poly.bounds.min.y && py <= poly.bounds.max.y)) {
    return false;
  }
  bool inside = false;
  const size_t num_edges = poly.ax.size();
  for (size_t e = 0; e < num_edges; ++e) {
    const bool b_above = poly.by[e] > py;
    const bool straddle = b_above != (poly.ay[e] > py);
    if (!straddle && !(px >= poly.lox[e] && px <= poly.hix[e] &&
                       py >= poly.loy[e] && py <= poly.hiy[e])) {
      continue;
    }
    const int o = geo::Orient({poly.ax[e], poly.ay[e]},
                              {poly.bx[e], poly.by[e]}, {px, py});
    if (o == 0) return true;
    if (straddle && (b_above ? o > 0 : o < 0)) inside = !inside;
  }
  return inside;
}

// ---------------------------------------------------------------------------
// Scalar reference kernels
// ---------------------------------------------------------------------------

void AggregateColumnScalar(const double* values, size_t n,
                           ColumnAggregate* out) {
  if (n == 0) return;
  double mn[4] = {kInf, kInf, kInf, kInf};
  double mx[4] = {-kInf, -kInf, -kInf, -kInf};
  double sm[4] = {0.0, 0.0, 0.0, 0.0};
  for (size_t i = 0; i < n; ++i) {
    const double x = values[i];
    const size_t k = i & 3;
    if (x < mn[k]) mn[k] = x;
    if (x > mx[k]) mx[k] = x;
    sm[k] += x;
  }
  FoldLanes(mn, mx, sm, out);
}

void AggregateColumnMaskedScalar(const double* values, const uint8_t* mask,
                                 size_t n, ColumnAggregate* out) {
  if (n == 0) return;
  double mn[4] = {kInf, kInf, kInf, kInf};
  double mx[4] = {-kInf, -kInf, -kInf, -kInf};
  double sm[4] = {0.0, 0.0, 0.0, 0.0};
  for (size_t i = 0; i < n; ++i) {
    const bool keep = mask[i] != 0;
    const size_t k = i & 3;
    const double lo = keep ? values[i] : kInf;
    const double hi = keep ? values[i] : -kInf;
    if (lo < mn[k]) mn[k] = lo;
    if (hi > mx[k]) mx[k] = hi;
    sm[k] += keep ? values[i] : 0.0;
  }
  FoldLanes(mn, mx, sm, out);
}

uint64_t CountPolygonHitsScalar(const double* xs, const double* ys, size_t n,
                                const UnitTransform& transform,
                                const PreparedPolygon& polygon) {
  if (polygon.empty()) return 0;
  uint64_t hits = 0;
  for (size_t i = 0; i < n; ++i) {
    hits += PointInPolygonScalar(xs[i], ys[i], transform, polygon) ? 1 : 0;
  }
  return hits;
}

// ---------------------------------------------------------------------------
// CRC-32/ISO-HDLC (reflected polynomial 0xEDB88320)
// ---------------------------------------------------------------------------

using Crc32Tables = std::array<std::array<uint32_t, 256>, 8>;

// Table 0 is the classic byte-at-a-time table; table k maps a byte to the
// register contribution it makes k bytes further on, so eight independent
// lookups advance the register by eight bytes at once (slicing-by-8).
constexpr Crc32Tables MakeCrc32Tables() {
  Crc32Tables t{};
  for (uint32_t b = 0; b < 256; ++b) {
    uint32_t c = b;
    for (int k = 0; k < 8; ++k) c = (c >> 1) ^ (0xEDB88320u & (0u - (c & 1u)));
    t[0][b] = c;
  }
  for (size_t k = 1; k < 8; ++k) {
    for (size_t b = 0; b < 256; ++b) {
      t[k][b] = (t[k - 1][b] >> 8) ^ t[0][t[k - 1][b] & 0xFFu];
    }
  }
  return t;
}

constexpr Crc32Tables kCrc32Tables = MakeCrc32Tables();

inline uint32_t LoadLe32(const uint8_t* p) {
  return uint32_t{p[0]} | uint32_t{p[1]} << 8 | uint32_t{p[2]} << 16 |
         uint32_t{p[3]} << 24;
}

// Advances the raw register (before the final XOR) over p[0..n).
inline uint32_t Crc32Slicing8(uint32_t state, const uint8_t* p, size_t n) {
  const Crc32Tables& t = kCrc32Tables;
  for (; n >= 8; p += 8, n -= 8) {
    const uint32_t lo = LoadLe32(p) ^ state;
    const uint32_t hi = LoadLe32(p + 4);
    state = t[7][lo & 0xFFu] ^ t[6][(lo >> 8) & 0xFFu] ^
            t[5][(lo >> 16) & 0xFFu] ^ t[4][lo >> 24] ^ t[3][hi & 0xFFu] ^
            t[2][(hi >> 8) & 0xFFu] ^ t[1][(hi >> 16) & 0xFFu] ^ t[0][hi >> 24];
  }
  for (; n > 0; ++p, --n) state = t[0][(state ^ *p) & 0xFFu] ^ (state >> 8);
  return state;
}

uint32_t Crc32UpdateScalar(uint32_t crc, const uint8_t* data, size_t n) {
  return ~Crc32Slicing8(~crc, data, n);
}

constexpr KernelTable kScalarTable = {
    AggregateColumnScalar,  AggregateColumnMaskedScalar,
    CountPolygonHitsScalar, Crc32UpdateScalar,
};

#if defined(GEOBLOCKS_SCAN_SIMD)

// ---------------------------------------------------------------------------
// SSE2 kernels (x86-64 baseline; lanes {0,1} and {2,3} in two __m128d)
// ---------------------------------------------------------------------------

// mask ? b : a for SSE2 (no blendv before SSE4.1).
inline __m128d Sse2Blend(__m128d a, __m128d b, __m128d mask) {
  return _mm_or_pd(_mm_and_pd(mask, b), _mm_andnot_pd(mask, a));
}

void AggregateColumnSse2(const double* values, size_t n, ColumnAggregate* out) {
  if (n == 0) return;
  double mn[4] = {kInf, kInf, kInf, kInf};
  double mx[4] = {-kInf, -kInf, -kInf, -kInf};
  double sm[4] = {0.0, 0.0, 0.0, 0.0};
  size_t i = 0;
  if (n >= 4) {
    __m128d mn01 = _mm_set1_pd(kInf), mn23 = _mm_set1_pd(kInf);
    __m128d mx01 = _mm_set1_pd(-kInf), mx23 = _mm_set1_pd(-kInf);
    __m128d sm01 = _mm_setzero_pd(), sm23 = _mm_setzero_pd();
    for (; i + 4 <= n; i += 4) {
      const __m128d x01 = _mm_loadu_pd(values + i);
      const __m128d x23 = _mm_loadu_pd(values + i + 2);
      mn01 = _mm_min_pd(x01, mn01);
      mn23 = _mm_min_pd(x23, mn23);
      mx01 = _mm_max_pd(x01, mx01);
      mx23 = _mm_max_pd(x23, mx23);
      sm01 = _mm_add_pd(sm01, x01);
      sm23 = _mm_add_pd(sm23, x23);
    }
    _mm_storeu_pd(mn, mn01);
    _mm_storeu_pd(mn + 2, mn23);
    _mm_storeu_pd(mx, mx01);
    _mm_storeu_pd(mx + 2, mx23);
    _mm_storeu_pd(sm, sm01);
    _mm_storeu_pd(sm + 2, sm23);
  }
  for (; i < n; ++i) {
    const double x = values[i];
    const size_t k = i & 3;
    if (x < mn[k]) mn[k] = x;
    if (x > mx[k]) mx[k] = x;
    sm[k] += x;
  }
  FoldLanes(mn, mx, sm, out);
}

void AggregateColumnMaskedSse2(const double* values, const uint8_t* mask,
                               size_t n, ColumnAggregate* out) {
  if (n == 0) return;
  double mn[4] = {kInf, kInf, kInf, kInf};
  double mx[4] = {-kInf, -kInf, -kInf, -kInf};
  double sm[4] = {0.0, 0.0, 0.0, 0.0};
  size_t i = 0;
  if (n >= 4) {
    const __m128d vinf = _mm_set1_pd(kInf);
    const __m128d vninf = _mm_set1_pd(-kInf);
    __m128d mn01 = vinf, mn23 = vinf;
    __m128d mx01 = vninf, mx23 = vninf;
    __m128d sm01 = _mm_setzero_pd(), sm23 = _mm_setzero_pd();
    for (; i + 4 <= n; i += 4) {
      const __m128d x01 = _mm_loadu_pd(values + i);
      const __m128d x23 = _mm_loadu_pd(values + i + 2);
      const __m128d drop01 = _mm_castsi128_pd(_mm_set_epi64x(
          mask[i + 1] ? 0 : -1, mask[i] ? 0 : -1));
      const __m128d drop23 = _mm_castsi128_pd(_mm_set_epi64x(
          mask[i + 3] ? 0 : -1, mask[i + 2] ? 0 : -1));
      mn01 = _mm_min_pd(Sse2Blend(x01, vinf, drop01), mn01);
      mn23 = _mm_min_pd(Sse2Blend(x23, vinf, drop23), mn23);
      mx01 = _mm_max_pd(Sse2Blend(x01, vninf, drop01), mx01);
      mx23 = _mm_max_pd(Sse2Blend(x23, vninf, drop23), mx23);
      sm01 = _mm_add_pd(sm01, _mm_andnot_pd(drop01, x01));
      sm23 = _mm_add_pd(sm23, _mm_andnot_pd(drop23, x23));
    }
    _mm_storeu_pd(mn, mn01);
    _mm_storeu_pd(mn + 2, mn23);
    _mm_storeu_pd(mx, mx01);
    _mm_storeu_pd(mx + 2, mx23);
    _mm_storeu_pd(sm, sm01);
    _mm_storeu_pd(sm + 2, sm23);
  }
  for (; i < n; ++i) {
    const bool keep = mask[i] != 0;
    const size_t k = i & 3;
    const double lo = keep ? values[i] : kInf;
    const double hi = keep ? values[i] : -kInf;
    if (lo < mn[k]) mn[k] = lo;
    if (hi > mx[k]) mx[k] = hi;
    sm[k] += keep ? values[i] : 0.0;
  }
  FoldLanes(mn, mx, sm, out);
}

uint64_t CountPolygonHitsSse2(const double* xs, const double* ys, size_t n,
                              const UnitTransform& transform,
                              const PreparedPolygon& polygon) {
  if (polygon.empty()) return 0;
  const size_t num_edges = polygon.ax.size();
  const __m128d vzero = _mm_setzero_pd();
  const __m128d vone = _mm_set1_pd(1.0);
  const __m128d vnear1 = _mm_set1_pd(0.9999999999999999);
  const __m128d vtminx = _mm_set1_pd(transform.min_x);
  const __m128d vtminy = _mm_set1_pd(transform.min_y);
  const __m128d vwx = _mm_set1_pd(transform.width);
  const __m128d vwy = _mm_set1_pd(transform.height);
  const __m128d vbminx = _mm_set1_pd(polygon.bounds.min.x);
  const __m128d vbmaxx = _mm_set1_pd(polygon.bounds.max.x);
  const __m128d vbminy = _mm_set1_pd(polygon.bounds.min.y);
  const __m128d vbmaxy = _mm_set1_pd(polygon.bounds.max.y);
  const __m128d vsign = _mm_set1_pd(-0.0);
  const __m128d vbound = _mm_set1_pd(geo::kOrientErrBound);
  uint64_t hits = 0;
  size_t i = 0;
  for (; i + 2 <= n; i += 2) {
    __m128d px = _mm_div_pd(_mm_sub_pd(_mm_loadu_pd(xs + i), vtminx), vwx);
    px = Sse2Blend(px, vzero, _mm_cmplt_pd(px, vzero));
    px = Sse2Blend(px, vnear1, _mm_cmpge_pd(px, vone));
    __m128d py = _mm_div_pd(_mm_sub_pd(_mm_loadu_pd(ys + i), vtminy), vwy);
    py = Sse2Blend(py, vzero, _mm_cmplt_pd(py, vzero));
    py = Sse2Blend(py, vnear1, _mm_cmpge_pd(py, vone));
    const __m128d inb = _mm_and_pd(
        _mm_and_pd(_mm_cmpge_pd(px, vbminx), _mm_cmple_pd(px, vbmaxx)),
        _mm_and_pd(_mm_cmpge_pd(py, vbminy), _mm_cmple_pd(py, vbmaxy)));
    if (_mm_movemask_pd(inb) == 0) continue;
    __m128d boundary = _mm_setzero_pd();
    __m128d inside = _mm_setzero_pd();
    __m128d unsure = _mm_setzero_pd();
    for (size_t e = 0; e < num_edges; ++e) {
      const __m128d eax = _mm_set1_pd(polygon.ax[e]);
      const __m128d eay = _mm_set1_pd(polygon.ay[e]);
      const __m128d ebx = _mm_set1_pd(polygon.bx[e]);
      const __m128d eby = _mm_set1_pd(polygon.by[e]);
      const __m128d l = _mm_mul_pd(_mm_sub_pd(ebx, eax), _mm_sub_pd(py, eay));
      const __m128d r = _mm_mul_pd(_mm_sub_pd(eby, eay), _mm_sub_pd(px, eax));
      const __m128d cross = _mm_sub_pd(l, r);
      // geo::Orient's float filter per lane (geo::kOrientErrBound); a lane
      // it cannot decide is recounted below by the scalar exact path.
      unsure = _mm_or_pd(
          unsure,
          _mm_cmplt_pd(_mm_andnot_pd(vsign, cross),
                       _mm_mul_pd(vbound, _mm_add_pd(_mm_andnot_pd(vsign, l),
                                                     _mm_andnot_pd(vsign, r)))));
      __m128d onseg = _mm_cmpeq_pd(cross, vzero);
      onseg = _mm_and_pd(onseg, _mm_cmpge_pd(px, _mm_set1_pd(polygon.lox[e])));
      onseg = _mm_and_pd(onseg, _mm_cmple_pd(px, _mm_set1_pd(polygon.hix[e])));
      onseg = _mm_and_pd(onseg, _mm_cmpge_pd(py, _mm_set1_pd(polygon.loy[e])));
      onseg = _mm_and_pd(onseg, _mm_cmple_pd(py, _mm_set1_pd(polygon.hiy[e])));
      boundary = _mm_or_pd(boundary, onseg);
      // A straddled edge is crossed when the point lies strictly left of it
      // directed upward: cross > 0 with b the upper end, cross < 0 with a.
      // `misses` marks the other lanes. A cross of 0 on a straddled edge is
      // a boundary hit, which wins whatever the parity.
      const __m128d b_above = _mm_cmpgt_pd(eby, py);
      const __m128d straddle = _mm_xor_pd(b_above, _mm_cmpgt_pd(eay, py));
      const __m128d misses = _mm_xor_pd(_mm_cmpgt_pd(cross, vzero), b_above);
      inside = _mm_xor_pd(inside, _mm_andnot_pd(misses, straddle));
    }
    const int in_mask =
        _mm_movemask_pd(_mm_and_pd(inb, _mm_or_pd(boundary, inside)));
    const int unsure_mask = _mm_movemask_pd(_mm_and_pd(inb, unsure));
    hits += static_cast<uint64_t>(
        __builtin_popcount(static_cast<unsigned>(in_mask & ~unsure_mask)));
    for (int k = 0; k < 2; ++k) {
      if ((unsure_mask >> k & 1) != 0) {
        hits += PointInPolygonScalar(xs[i + k], ys[i + k], transform, polygon)
                    ? 1
                    : 0;
      }
    }
  }
  for (; i < n; ++i) {
    hits += PointInPolygonScalar(xs[i], ys[i], transform, polygon) ? 1 : 0;
  }
  return hits;
}

constexpr KernelTable kSse2Table = {
    AggregateColumnSse2,  AggregateColumnMaskedSse2,
    CountPolygonHitsSse2, Crc32UpdateScalar,
};

// ---------------------------------------------------------------------------
// AVX2 kernels (one 4-lane __m256d; compiled with a target attribute so the
// baseline build still runs on SSE2-only machines)
// ---------------------------------------------------------------------------

__attribute__((target("avx2"))) void AggregateColumnAvx2(
    const double* values, size_t n, ColumnAggregate* out) {
  if (n == 0) return;
  double mn[4] = {kInf, kInf, kInf, kInf};
  double mx[4] = {-kInf, -kInf, -kInf, -kInf};
  double sm[4] = {0.0, 0.0, 0.0, 0.0};
  size_t i = 0;
  if (n >= 4) {
    __m256d vmn = _mm256_set1_pd(kInf);
    __m256d vmx = _mm256_set1_pd(-kInf);
    __m256d vsm = _mm256_setzero_pd();
    for (; i + 4 <= n; i += 4) {
      const __m256d x = _mm256_loadu_pd(values + i);
      vmn = _mm256_min_pd(x, vmn);
      vmx = _mm256_max_pd(x, vmx);
      vsm = _mm256_add_pd(vsm, x);
    }
    _mm256_storeu_pd(mn, vmn);
    _mm256_storeu_pd(mx, vmx);
    _mm256_storeu_pd(sm, vsm);
  }
  for (; i < n; ++i) {
    const double x = values[i];
    const size_t k = i & 3;
    if (x < mn[k]) mn[k] = x;
    if (x > mx[k]) mx[k] = x;
    sm[k] += x;
  }
  FoldLanes(mn, mx, sm, out);
}

__attribute__((target("avx2"))) void AggregateColumnMaskedAvx2(
    const double* values, const uint8_t* mask, size_t n, ColumnAggregate* out) {
  if (n == 0) return;
  double mn[4] = {kInf, kInf, kInf, kInf};
  double mx[4] = {-kInf, -kInf, -kInf, -kInf};
  double sm[4] = {0.0, 0.0, 0.0, 0.0};
  size_t i = 0;
  if (n >= 4) {
    const __m256d vinf = _mm256_set1_pd(kInf);
    const __m256d vninf = _mm256_set1_pd(-kInf);
    const __m256i izero = _mm256_setzero_si256();
    __m256d vmn = vinf;
    __m256d vmx = vninf;
    __m256d vsm = _mm256_setzero_pd();
    for (; i + 4 <= n; i += 4) {
      const __m256d x = _mm256_loadu_pd(values + i);
      uint32_t m4;
      std::memcpy(&m4, mask + i, sizeof(m4));
      const __m256i mb =
          _mm256_cvtepu8_epi64(_mm_cvtsi32_si128(static_cast<int>(m4)));
      const __m256d drop = _mm256_castsi256_pd(_mm256_cmpeq_epi64(mb, izero));
      vmn = _mm256_min_pd(_mm256_blendv_pd(x, vinf, drop), vmn);
      vmx = _mm256_max_pd(_mm256_blendv_pd(x, vninf, drop), vmx);
      vsm = _mm256_add_pd(vsm, _mm256_andnot_pd(drop, x));
    }
    _mm256_storeu_pd(mn, vmn);
    _mm256_storeu_pd(mx, vmx);
    _mm256_storeu_pd(sm, vsm);
  }
  for (; i < n; ++i) {
    const bool keep = mask[i] != 0;
    const size_t k = i & 3;
    const double lo = keep ? values[i] : kInf;
    const double hi = keep ? values[i] : -kInf;
    if (lo < mn[k]) mn[k] = lo;
    if (hi > mx[k]) mx[k] = hi;
    sm[k] += keep ? values[i] : 0.0;
  }
  FoldLanes(mn, mx, sm, out);
}

__attribute__((target("avx2"))) uint64_t CountPolygonHitsAvx2(
    const double* xs, const double* ys, size_t n,
    const UnitTransform& transform, const PreparedPolygon& polygon) {
  if (polygon.empty()) return 0;
  const size_t num_edges = polygon.ax.size();
  const __m256d vzero = _mm256_setzero_pd();
  const __m256d vone = _mm256_set1_pd(1.0);
  const __m256d vnear1 = _mm256_set1_pd(0.9999999999999999);
  const __m256d vtminx = _mm256_set1_pd(transform.min_x);
  const __m256d vtminy = _mm256_set1_pd(transform.min_y);
  const __m256d vwx = _mm256_set1_pd(transform.width);
  const __m256d vwy = _mm256_set1_pd(transform.height);
  const __m256d vbminx = _mm256_set1_pd(polygon.bounds.min.x);
  const __m256d vbmaxx = _mm256_set1_pd(polygon.bounds.max.x);
  const __m256d vbminy = _mm256_set1_pd(polygon.bounds.min.y);
  const __m256d vbmaxy = _mm256_set1_pd(polygon.bounds.max.y);
  const __m256d vsign = _mm256_set1_pd(-0.0);
  const __m256d vbound = _mm256_set1_pd(geo::kOrientErrBound);
  uint64_t hits = 0;
  size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    // px alone rejects most blocks (neighborhood bounds are narrow in x),
    // saving the second division on the reject path.
    __m256d px = _mm256_div_pd(_mm256_sub_pd(_mm256_loadu_pd(xs + i), vtminx), vwx);
    px = _mm256_blendv_pd(px, vzero, _mm256_cmp_pd(px, vzero, _CMP_LT_OQ));
    px = _mm256_blendv_pd(px, vnear1, _mm256_cmp_pd(px, vone, _CMP_GE_OQ));
    const __m256d inx =
        _mm256_and_pd(_mm256_cmp_pd(px, vbminx, _CMP_GE_OQ),
                      _mm256_cmp_pd(px, vbmaxx, _CMP_LE_OQ));
    if (_mm256_movemask_pd(inx) == 0) continue;
    __m256d py = _mm256_div_pd(_mm256_sub_pd(_mm256_loadu_pd(ys + i), vtminy), vwy);
    py = _mm256_blendv_pd(py, vzero, _mm256_cmp_pd(py, vzero, _CMP_LT_OQ));
    py = _mm256_blendv_pd(py, vnear1, _mm256_cmp_pd(py, vone, _CMP_GE_OQ));
    const __m256d inb = _mm256_and_pd(
        inx, _mm256_and_pd(_mm256_cmp_pd(py, vbminy, _CMP_GE_OQ),
                           _mm256_cmp_pd(py, vbmaxy, _CMP_LE_OQ)));
    if (_mm256_movemask_pd(inb) == 0) continue;
    __m256d boundary = _mm256_setzero_pd();
    __m256d inside = _mm256_setzero_pd();
    __m256d unsure = _mm256_setzero_pd();
    for (size_t e = 0; e < num_edges; ++e) {
      // An edge whose y-interval no lane's py touches contributes neither a
      // boundary hit (needs loy <= py <= hiy) nor a crossing-parity flip
      // (straddle needs min(ay,by) <= py < max(ay,by)), so skipping it
      // cannot change any lane's answer.
      const __m256d eloy = _mm256_set1_pd(polygon.loy[e]);
      const __m256d ehiy = _mm256_set1_pd(polygon.hiy[e]);
      const __m256d touches =
          _mm256_and_pd(_mm256_cmp_pd(py, eloy, _CMP_GE_OQ),
                        _mm256_cmp_pd(py, ehiy, _CMP_LE_OQ));
      if (_mm256_movemask_pd(touches) == 0) continue;
      const __m256d eax = _mm256_set1_pd(polygon.ax[e]);
      const __m256d eay = _mm256_set1_pd(polygon.ay[e]);
      const __m256d ebx = _mm256_set1_pd(polygon.bx[e]);
      const __m256d eby = _mm256_set1_pd(polygon.by[e]);
      const __m256d l =
          _mm256_mul_pd(_mm256_sub_pd(ebx, eax), _mm256_sub_pd(py, eay));
      const __m256d r =
          _mm256_mul_pd(_mm256_sub_pd(eby, eay), _mm256_sub_pd(px, eax));
      const __m256d cross = _mm256_sub_pd(l, r);
      // geo::Orient's float filter per lane (geo::kOrientErrBound); a lane
      // it cannot decide is recounted below by the scalar exact path.
      unsure = _mm256_or_pd(
          unsure,
          _mm256_cmp_pd(
              _mm256_andnot_pd(vsign, cross),
              _mm256_mul_pd(vbound,
                            _mm256_add_pd(_mm256_andnot_pd(vsign, l),
                                          _mm256_andnot_pd(vsign, r))),
              _CMP_LT_OQ));
      __m256d onseg = _mm256_cmp_pd(cross, vzero, _CMP_EQ_OQ);
      onseg = _mm256_and_pd(
          onseg, _mm256_cmp_pd(px, _mm256_set1_pd(polygon.lox[e]), _CMP_GE_OQ));
      onseg = _mm256_and_pd(
          onseg, _mm256_cmp_pd(px, _mm256_set1_pd(polygon.hix[e]), _CMP_LE_OQ));
      onseg = _mm256_and_pd(onseg, touches);
      boundary = _mm256_or_pd(boundary, onseg);
      // Crossed when strictly left of the upward edge, as in the SSE2 loop.
      const __m256d b_above = _mm256_cmp_pd(eby, py, _CMP_GT_OQ);
      const __m256d straddle =
          _mm256_xor_pd(b_above, _mm256_cmp_pd(eay, py, _CMP_GT_OQ));
      const __m256d misses =
          _mm256_xor_pd(_mm256_cmp_pd(cross, vzero, _CMP_GT_OQ), b_above);
      inside = _mm256_xor_pd(inside, _mm256_andnot_pd(misses, straddle));
    }
    const int in_mask =
        _mm256_movemask_pd(_mm256_and_pd(inb, _mm256_or_pd(boundary, inside)));
    const int unsure_mask = _mm256_movemask_pd(_mm256_and_pd(inb, unsure));
    hits += static_cast<uint64_t>(
        __builtin_popcount(static_cast<unsigned>(in_mask & ~unsure_mask)));
    for (int k = 0; k < 4; ++k) {
      if ((unsure_mask >> k & 1) != 0) {
        hits += PointInPolygonScalar(xs[i + k], ys[i + k], transform, polygon)
                    ? 1
                    : 0;
      }
    }
  }
  for (; i < n; ++i) {
    hits += PointInPolygonScalar(xs[i], ys[i], transform, polygon) ? 1 : 0;
  }
  return hits;
}

inline __m128i Load128(const uint8_t* p) {
  return _mm_loadu_si128(reinterpret_cast<const __m128i*>(p));
}

// a * x^128 folded onto the next 128 bits `next`, modulo P.
__attribute__((target("pclmul"))) inline __m128i ClmulFold(__m128i a,
                                                          __m128i k,
                                                          __m128i next) {
  return _mm_xor_si128(_mm_xor_si128(_mm_clmulepi64_si128(a, k, 0x00),
                                     _mm_clmulepi64_si128(a, k, 0x11)),
                       next);
}

// CRC-32 by carry-less multiplication: Gopal et al., "Fast CRC Computation
// for Generic Polynomials Using PCLMULQDQ Instruction" (Intel, 2009), in the
// bit-reflected domain (the same method as zlib and Linux). Four 128-bit
// accumulators fold 64 bytes per step, then fold into one accumulator that
// takes any further 16-byte blocks, then reduce 128 -> 64 bits and
// Barrett-reduce to 32. Takes and returns the raw register; n must be a
// multiple of 16 and at least 64.
__attribute__((target("pclmul,sse4.1"))) uint32_t Crc32FoldPclmul(
    uint32_t state, const uint8_t* p, size_t n) {
  // Folding constants x^k mod P for the reflected polynomial (low, high).
  const __m128i k1k2 = _mm_set_epi64x(0x1c6e41596, 0x154442bd4);
  const __m128i k3k4 = _mm_set_epi64x(0x0ccaa009e, 0x1751997d0);
  const __m128i k5 = _mm_set_epi64x(0, 0x163cd6124);
  // P(x) and the Barrett constant mu = floor(x^64 / P(x)), reflected.
  const __m128i poly_mu = _mm_set_epi64x(0x1f7011641, 0x1db710641);
  const __m128i low32 = _mm_setr_epi32(~0, 0, ~0, 0);

  __m128i x1 =
      _mm_xor_si128(Load128(p), _mm_cvtsi32_si128(static_cast<int>(state)));
  __m128i x2 = Load128(p + 16);
  __m128i x3 = Load128(p + 32);
  __m128i x4 = Load128(p + 48);
  p += 64;
  n -= 64;
  for (; n >= 64; p += 64, n -= 64) {
    x1 = ClmulFold(x1, k1k2, Load128(p));
    x2 = ClmulFold(x2, k1k2, Load128(p + 16));
    x3 = ClmulFold(x3, k1k2, Load128(p + 32));
    x4 = ClmulFold(x4, k1k2, Load128(p + 48));
  }
  x1 = ClmulFold(x1, k3k4, x2);
  x1 = ClmulFold(x1, k3k4, x3);
  x1 = ClmulFold(x1, k3k4, x4);
  for (; n >= 16; p += 16, n -= 16) x1 = ClmulFold(x1, k3k4, Load128(p));

  // 128 -> 64 bits, then 64 -> 32 via k5.
  x1 = _mm_xor_si128(_mm_srli_si128(x1, 8),
                     _mm_clmulepi64_si128(x1, k3k4, 0x10));
  x1 = _mm_xor_si128(_mm_srli_si128(x1, 4),
                     _mm_clmulepi64_si128(_mm_and_si128(x1, low32), k5, 0x00));
  // Barrett reduction: q = (low32(x) * mu) mod x^32, x ^= q * P.
  const __m128i q = _mm_and_si128(
      _mm_clmulepi64_si128(_mm_and_si128(x1, low32), poly_mu, 0x10), low32);
  x1 = _mm_xor_si128(x1, _mm_clmulepi64_si128(q, poly_mu, 0x00));
  return static_cast<uint32_t>(_mm_extract_epi32(x1, 1));
}

// Folds every whole 16-byte block when there are at least 64 bytes, then
// finishes the tail (< 16 bytes) with slicing-by-8.
__attribute__((target("pclmul,sse4.1"))) uint32_t Crc32UpdatePclmul(
    uint32_t crc, const uint8_t* data, size_t n) {
  uint32_t state = ~crc;
  if (n >= 64) {
    const size_t folded = n & ~size_t{15};
    state = Crc32FoldPclmul(state, data, folded);
    data += folded;
    n -= folded;
  }
  return ~Crc32Slicing8(state, data, n);
}

constexpr KernelTable kAvx2Table = {
    AggregateColumnAvx2,  AggregateColumnMaskedAvx2,
    CountPolygonHitsAvx2, Crc32UpdatePclmul,
};

#endif  // GEOBLOCKS_SCAN_SIMD

DispatchLevel DetectBestLevel() {
#if defined(GEOBLOCKS_SCAN_SIMD)
  if (Supported(DispatchLevel::kAVX2)) return DispatchLevel::kAVX2;
  return DispatchLevel::kSSE2;
#else
  return DispatchLevel::kScalar;
#endif
}

}  // namespace

// ---------------------------------------------------------------------------
// Plain kernels: one implementation at every level (SIMD variants of the
// filter mask and count sum measured under 1.2x faster than these)
// ---------------------------------------------------------------------------

void FilterMask(const storage::Predicate* predicates, size_t num_predicates,
                const double* const* columns, size_t n, uint8_t* mask) {
  for (size_t i = 0; i < n; ++i) mask[i] = 1;
  for (size_t p = 0; p < num_predicates; ++p) {
    const double* c = columns[p];
    const double v = predicates[p].value;
    switch (predicates[p].op) {
      case storage::CompareOp::kLt:
        for (size_t i = 0; i < n; ++i) mask[i] &= static_cast<uint8_t>(c[i] < v);
        break;
      case storage::CompareOp::kLe:
        for (size_t i = 0; i < n; ++i) mask[i] &= static_cast<uint8_t>(c[i] <= v);
        break;
      case storage::CompareOp::kGt:
        for (size_t i = 0; i < n; ++i) mask[i] &= static_cast<uint8_t>(c[i] > v);
        break;
      case storage::CompareOp::kGe:
        for (size_t i = 0; i < n; ++i) mask[i] &= static_cast<uint8_t>(c[i] >= v);
        break;
      case storage::CompareOp::kEq:
        for (size_t i = 0; i < n; ++i) mask[i] &= static_cast<uint8_t>(c[i] == v);
        break;
      case storage::CompareOp::kNe:
        for (size_t i = 0; i < n; ++i) mask[i] &= static_cast<uint8_t>(c[i] != v);
        break;
    }
  }
}

uint64_t SumCounts(const uint32_t* counts, size_t n) {
  uint64_t sum = 0;
  for (size_t i = 0; i < n; ++i) sum += counts[i];
  return sum;
}

const char* ToString(DispatchLevel level) {
  switch (level) {
    case DispatchLevel::kScalar: return "scalar";
    case DispatchLevel::kSSE2: return "sse2";
    case DispatchLevel::kAVX2: return "avx2";
  }
  return "unknown";
}

bool Supported(DispatchLevel level) {
  switch (level) {
    case DispatchLevel::kScalar:
      return true;
    case DispatchLevel::kSSE2:
#if defined(GEOBLOCKS_SCAN_SIMD)
      return true;
#else
      return false;
#endif
    case DispatchLevel::kAVX2:
#if defined(GEOBLOCKS_SCAN_SIMD)
      // The AVX2 table's CRC folds with PCLMULQDQ, which every AVX2 CPU has.
      return __builtin_cpu_supports("avx2") && __builtin_cpu_supports("pclmul");
#else
      return false;
#endif
  }
  return false;
}

DispatchLevel ActiveDispatchLevel() {
  static const DispatchLevel level = DetectBestLevel();
  return level;
}

const KernelTable& KernelsAt(DispatchLevel level) {
  if (!Supported(level)) return kScalarTable;
  switch (level) {
    case DispatchLevel::kScalar:
      return kScalarTable;
#if defined(GEOBLOCKS_SCAN_SIMD)
    case DispatchLevel::kSSE2:
      return kSse2Table;
    case DispatchLevel::kAVX2:
      return kAvx2Table;
#else
    default:
      return kScalarTable;
#endif
  }
  return kScalarTable;
}

const KernelTable& Kernels() {
  static const KernelTable& table = KernelsAt(ActiveDispatchLevel());
  return table;
}

UnitTransform UnitTransform::From(const geo::Projection& projection) {
  const geo::Rect& domain = projection.domain();
  return {domain.min.x, domain.min.y, domain.Width(), domain.Height()};
}

PreparedPolygon PreparedPolygon::From(const geo::Polygon& polygon) {
  PreparedPolygon out;
  out.bounds = polygon.Bounds();
  size_t total = 0;
  for (const geo::Ring& ring : polygon.rings()) total += ring.size();
  out.ax.reserve(total);
  out.ay.reserve(total);
  out.bx.reserve(total);
  out.by.reserve(total);
  out.lox.reserve(total);
  out.hix.reserve(total);
  out.loy.reserve(total);
  out.hiy.reserve(total);
  // Same edge enumeration as Polygon::Contains: a = ring[j] trails b = ring[i].
  for (const geo::Ring& ring : polygon.rings()) {
    const size_t m = ring.size();
    for (size_t i = 0, j = m - 1; i < m; j = i++) {
      const geo::Point& a = ring[j];
      const geo::Point& b = ring[i];
      out.ax.push_back(a.x);
      out.ay.push_back(a.y);
      out.bx.push_back(b.x);
      out.by.push_back(b.y);
      out.lox.push_back(std::min(a.x, b.x));
      out.hix.push_back(std::max(a.x, b.x));
      out.loy.push_back(std::min(a.y, b.y));
      out.hiy.push_back(std::max(a.y, b.y));
    }
  }
  return out;
}

}  // namespace geoblocks::core::kernels
