#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "core/aggregate.h"
#include "geo/polygon.h"
#include "geo/projection.h"
#include "geo/rect.h"
#include "storage/filter.h"

namespace geoblocks::core::kernels {

/// The refinement scans on the hot query path — predicate filtering,
/// per-column min/max/sum accumulation, point-in-polygon counting, cell-count
/// summation, and the sorted-key probes — all run over the contiguous
/// structure-of-arrays buffers exposed by `storage::DatasetView` and
/// `BlockState`. The kernels whose SIMD variants measurably beat scalar
/// (`bench_micro_kernels`) sit in a `KernelTable` dispatched once at startup
/// to the widest instruction set the CPU offers (SSE2 is the x86-64
/// baseline; AVX2 when available); the rest are plain functions.
///
/// Contract: every SIMD variant is bit-identical to the scalar reference,
/// including floating-point aggregate ordering. To make that possible the
/// scalar reference itself commits to a fixed 4-lane striped summation —
/// element i accumulates into lane (i & 3), and lanes reduce as
/// (l0+l1) + (l2+l3) — which SSE2 realizes as two 2-lane vectors and AVX2 as
/// one 4-lane vector. min/max fold lane-wise with the same shape. The
/// `GEOBLOCKS_NO_SIMD` compile definition (CMake option of the same name)
/// forces the scalar table, which is also the only table on non-x86 targets.
/// The table also carries the CRC-32 behind `serialize::Crc32`, which guards
/// every persisted byte.

enum class DispatchLevel { kScalar = 0, kSSE2 = 1, kAVX2 = 2 };

const char* ToString(DispatchLevel level);

/// True when this build can run the given level on this machine (compiled in,
/// CPU support present, and not disabled via GEOBLOCKS_NO_SIMD).
bool Supported(DispatchLevel level);

/// The level the process-wide `Kernels()` table was dispatched to.
DispatchLevel ActiveDispatchLevel();

/// Flattened `geo::Projection::ToUnit` for one axis pair: the kernels apply
/// (v - min) / extent then clamp to [0, 1) exactly as `Projection` does.
struct UnitTransform {
  double min_x = 0.0;
  double min_y = 0.0;
  double width = 1.0;
  double height = 1.0;

  static UnitTransform From(const geo::Projection& projection);
};

/// A polygon lowered to flat parallel edge arrays (all rings concatenated,
/// each ring's closing edge included) plus per-edge bounding intervals, so the
/// point-in-polygon kernel can stream edges without chasing ring vectors.
/// Decisions are bit-identical to `geo::Polygon::Contains`.
struct PreparedPolygon {
  geo::Rect bounds = geo::Rect::Empty();
  std::vector<double> ax, ay, bx, by;      // edge endpoints a -> b
  std::vector<double> lox, hix, loy, hiy;  // per-edge bounding intervals

  bool empty() const { return ax.empty(); }
  static PreparedPolygon From(const geo::Polygon& polygon);
};

/// mask[i] = 1 when row i passes every predicate, else 0 (overwrites mask).
/// columns[j] points at the column array for predicates[j], each of length
/// n. Zero predicates means all-pass. n == 0 is allowed.
void FilterMask(const storage::Predicate* predicates, size_t num_predicates,
                const double* const* columns, size_t n, uint8_t* mask);

/// Exact u64 sum of counts[0..n).
uint64_t SumCounts(const uint32_t* counts, size_t n);

namespace detail {

// Branchless binary search: the comparison feeds conditional moves, never a
// branch. kUpper selects upper_bound's `<=` over lower_bound's `<`.
template <bool kUpper>
inline size_t Bound(const uint64_t* keys, size_t n, uint64_t key) {
  size_t lo = 0;
  size_t len = n;
  while (len > 0) {
    const size_t half = len >> 1;
    const bool pred = kUpper ? keys[lo + half] <= key : keys[lo + half] < key;
    lo = pred ? lo + half + 1 : lo;
    len = pred ? len - half - 1 : half;
  }
  return lo;
}

// Galloping search from `from`: probes from, from+1, from+3, from+7, ...
// until a key is no longer before `key` (or the array ends), then runs the
// branchless search over the bracket [last passed probe + 1, that probe).
template <bool kUpper>
inline size_t Gallop(const uint64_t* keys, size_t n, size_t from,
                     uint64_t key) {
  size_t lo = from;
  size_t probe = from;
  size_t step = 1;
  while (probe < n && (kUpper ? keys[probe] <= key : keys[probe] < key)) {
    lo = probe + 1;
    probe += step;
    step <<= 1;
  }
  const size_t hi = probe < n ? probe : n;
  return lo + Bound<kUpper>(keys + lo, hi - lo, key);
}

}  // namespace detail

/// Branchless equivalents of std::lower_bound / std::upper_bound over a
/// sorted u64 array; return the insertion index in [0, n].
inline size_t LowerBoundU64(const uint64_t* keys, size_t n, uint64_t key) {
  return detail::Bound<false>(keys, n, key);
}
inline size_t UpperBoundU64(const uint64_t* keys, size_t n, uint64_t key) {
  return detail::Bound<true>(keys, n, key);
}

/// std::lower_bound / std::upper_bound over keys[from, n) for a cursor that
/// only moves forward: return the insertion index in [from, n] (from <= n).
/// A galloping search (Bentley and Yao, 1976): a key at the cursor costs
/// one comparison, and one d places ahead about 2 log2(d).
inline size_t GallopLowerBoundU64(const uint64_t* keys, size_t n, size_t from,
                                  uint64_t key) {
  return detail::Gallop<false>(keys, n, from, key);
}
inline size_t GallopUpperBoundU64(const uint64_t* keys, size_t n, size_t from,
                                  uint64_t key) {
  return detail::Gallop<true>(keys, n, from, key);
}

/// Kernel function-pointer table: the kernels with a SIMD variant per
/// dispatch level. All span arguments accept n == 0.
struct KernelTable {
  /// Folds min/max/striped-sum of values[0..n) into *out (out must already be
  /// initialized; kernels combine with its current contents).
  void (*aggregate_column)(const double* values, size_t n, ColumnAggregate* out);

  /// As aggregate_column but only rows with mask[i] != 0 participate. With an
  /// all-ones mask the result is bit-identical to aggregate_column.
  void (*aggregate_column_masked)(const double* values, const uint8_t* mask,
                                  size_t n, ColumnAggregate* out);

  /// Number of points (xs[i], ys[i]) whose unit-square projection under
  /// `transform` lies inside `polygon` (boundary inclusive, even-odd rule,
  /// exact: each point's answer is `geo::Polygon::Contains`'s) — the
  /// residual-cell refinement scan.
  uint64_t (*count_polygon_hits)(const double* xs, const double* ys, size_t n,
                                 const UnitTransform& transform,
                                 const PreparedPolygon& polygon);

  /// CRC-32/ISO-HDLC (reflected polynomial 0xEDB88320) of data[0..n)
  /// continued from `crc`, the final (post-XOR) value of the bytes before
  /// them; crc = 0 starts a new checksum. Chaining is exact:
  /// crc32_update(crc32_update(0, a, i), a + i, n - i) equals
  /// crc32_update(0, a, n). The scalar and SSE2 tables use slicing-by-8; the
  /// AVX2 table folds 64-byte blocks with PCLMULQDQ. Every level returns the
  /// same value.
  uint32_t (*crc32_update)(uint32_t crc, const uint8_t* data, size_t n);
};

/// The active table, selected once before main() runs.
const KernelTable& Kernels();

/// Table for a specific level; falls back to scalar when !Supported(level).
/// Test/bench hook for the scalar-vs-SIMD parity matrix.
const KernelTable& KernelsAt(DispatchLevel level);

}  // namespace geoblocks::core::kernels
