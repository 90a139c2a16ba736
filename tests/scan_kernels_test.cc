// Parity matrix for the scan kernels: every table kernel at every supported
// SIMD dispatch level must match the scalar reference bit-identically
// (including min/max/sum aggregate ordering), and the plain kernels must
// match their per-row / std:: definitions, over adversarial inputs — empty
// spans, lengths 1..(vector_width*3+1) to cover tails, all-pass/all-fail
// filters, duplicate keys at chunk boundaries.

#include "core/scan_kernels.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>
#include <numeric>
#include <random>
#include <vector>

#include <gtest/gtest.h>

#include "geo/polygon.h"
#include "geo/projection.h"
#include "storage/filter.h"

namespace geoblocks::core::kernels {
namespace {

constexpr size_t kMaxLen = 13;  // vector_width(4) * 3 + 1

uint64_t Bits(double v) {
  uint64_t b;
  std::memcpy(&b, &v, sizeof(b));
  return b;
}

void ExpectBitEqual(const ColumnAggregate& got, const ColumnAggregate& want,
                    const char* what) {
  EXPECT_EQ(Bits(got.min), Bits(want.min)) << what << " min";
  EXPECT_EQ(Bits(got.max), Bits(want.max)) << what << " max";
  EXPECT_EQ(Bits(got.sum), Bits(want.sum)) << what << " sum";
}

std::vector<DispatchLevel> SimdLevels() {
  std::vector<DispatchLevel> levels;
  for (DispatchLevel level : {DispatchLevel::kSSE2, DispatchLevel::kAVX2}) {
    if (Supported(level)) levels.push_back(level);
  }
  return levels;
}

std::vector<double> AdversarialValues(size_t n, uint32_t seed) {
  std::mt19937 rng(seed);
  std::uniform_real_distribution<double> dist(-1e6, 1e6);
  std::vector<double> v(n);
  for (size_t i = 0; i < n; ++i) {
    switch (rng() % 8) {
      case 0: v[i] = 0.0; break;
      case 1: v[i] = -0.0; break;
      case 2: v[i] = 1e-300; break;
      case 3: v[i] = -1e300; break;
      case 4: v[i] = i > 0 ? v[i - 1] : 42.0; break;  // duplicates
      default: v[i] = dist(rng); break;
    }
  }
  return v;
}

TEST(ScanKernelsTest, DispatchLevelIsCoherent) {
  const DispatchLevel active = ActiveDispatchLevel();
  EXPECT_TRUE(Supported(active));
  EXPECT_EQ(&Kernels(), &KernelsAt(active));
  EXPECT_TRUE(Supported(DispatchLevel::kScalar));
  EXPECT_STREQ(ToString(DispatchLevel::kScalar), "scalar");
  EXPECT_STREQ(ToString(DispatchLevel::kSSE2), "sse2");
  EXPECT_STREQ(ToString(DispatchLevel::kAVX2), "avx2");
#if defined(__x86_64__)
  // On x86-64 the SSE2 table is compiled in unless GEOBLOCKS_NO_SIMD.
  if (Supported(DispatchLevel::kSSE2)) {
    EXPECT_NE(ActiveDispatchLevel(), DispatchLevel::kScalar);
  }
#endif
  // An unsupported level must fall back to the scalar table.
  for (DispatchLevel level : {DispatchLevel::kSSE2, DispatchLevel::kAVX2}) {
    if (!Supported(level)) {
      EXPECT_EQ(&KernelsAt(level), &KernelsAt(DispatchLevel::kScalar));
    }
  }
}

TEST(ScanKernelsTest, AggregateColumnParity) {
  const KernelTable& ref = KernelsAt(DispatchLevel::kScalar);
  for (DispatchLevel level : SimdLevels()) {
    const KernelTable& simd = KernelsAt(level);
    for (size_t n = 0; n <= kMaxLen; ++n) {
      const std::vector<double> v = AdversarialValues(n, 1000 + n);
      ColumnAggregate want, got;
      ref.aggregate_column(v.data(), n, &want);
      simd.aggregate_column(v.data(), n, &got);
      ExpectBitEqual(got, want, ToString(level));

      // Fold-in semantics: results must also match when combining into an
      // accumulator that already holds state.
      ColumnAggregate want_seeded, got_seeded;
      want_seeded.Add(3.25);
      got_seeded.Add(3.25);
      ref.aggregate_column(v.data(), n, &want_seeded);
      simd.aggregate_column(v.data(), n, &got_seeded);
      ExpectBitEqual(got_seeded, want_seeded, ToString(level));
    }
  }
}

TEST(ScanKernelsTest, AggregateColumnMaskedParity) {
  const KernelTable& ref = KernelsAt(DispatchLevel::kScalar);
  for (DispatchLevel level : SimdLevels()) {
    const KernelTable& simd = KernelsAt(level);
    for (size_t n = 0; n <= kMaxLen; ++n) {
      const std::vector<double> v = AdversarialValues(n, 2000 + n);
      std::mt19937 rng(77 + n);
      std::vector<uint8_t> random_mask(n), ones(n, 1), zeros(n, 0);
      for (size_t i = 0; i < n; ++i) random_mask[i] = rng() % 2;
      for (const std::vector<uint8_t>& mask : {random_mask, ones, zeros}) {
        ColumnAggregate want, got;
        ref.aggregate_column_masked(v.data(), mask.data(), n, &want);
        simd.aggregate_column_masked(v.data(), mask.data(), n, &got);
        ExpectBitEqual(got, want, ToString(level));
      }
      // An all-ones mask is bit-identical to the unmasked kernel at every
      // level (the masked path adds no extra zeros).
      ColumnAggregate unmasked, all_pass;
      simd.aggregate_column(v.data(), n, &unmasked);
      simd.aggregate_column_masked(v.data(), ones.data(), n, &all_pass);
      ExpectBitEqual(all_pass, unmasked, "masked-vs-unmasked");
    }
  }
}

TEST(ScanKernelsTest, FilterMaskParity) {
  const storage::CompareOp ops[] = {
      storage::CompareOp::kLt, storage::CompareOp::kLe, storage::CompareOp::kGt,
      storage::CompareOp::kGe, storage::CompareOp::kEq, storage::CompareOp::kNe};
  for (size_t n = 0; n <= kMaxLen; ++n) {
    std::vector<double> col = AdversarialValues(n, 3000 + n);
    if (n >= 3) col[n / 2] = std::numeric_limits<double>::quiet_NaN();
    // Single predicates of every operator, with thresholds that produce
    // all-pass, all-fail, and mixed outcomes; each row must match the
    // per-row Predicate::Matches.
    for (storage::CompareOp op : ops) {
      for (double threshold : {-1e301, 0.0, 1e301}) {
        const storage::Predicate pred{0, op, threshold};
        const double* cols[] = {col.data()};
        std::vector<uint8_t> want(n), got(n, 0x55);
        for (size_t i = 0; i < n; ++i) want[i] = pred.Matches(col[i]) ? 1 : 0;
        FilterMask(&pred, 1, cols, n, got.data());
        EXPECT_EQ(want, got) << "op " << static_cast<int>(op) << " thr "
                             << threshold << " n=" << n;
      }
    }
    // A conjunction over two columns, against Filter::Matches.
    std::vector<double> col2 = AdversarialValues(n, 4000 + n);
    const storage::Filter filter({
        {0, storage::CompareOp::kGe, -1e5},
        {1, storage::CompareOp::kLt, 1e5},
    });
    const double* cols[] = {col.data(), col2.data()};
    std::vector<uint8_t> want(n), got(n, 0x55);
    for (size_t i = 0; i < n; ++i) {
      want[i] = filter.Matches([&](int c) { return cols[c][i]; }) ? 1 : 0;
    }
    FilterMask(filter.predicates().data(), 2, cols, n, got.data());
    EXPECT_EQ(want, got) << "conjunction n=" << n;
    // Zero predicates: all-pass.
    FilterMask(nullptr, 0, nullptr, n, got.data());
    EXPECT_EQ(got, std::vector<uint8_t>(n, 1));
  }
}

TEST(ScanKernelsTest, PolygonHitsMatchPolygonContains) {
  const geo::Projection projection;  // whole-earth domain
  const UnitTransform transform = UnitTransform::From(projection);
  geo::Polygon poly = geo::Polygon::RegularNGon({10.0, 20.0}, 30.0, 8, 0.37);
  // Punch a hole so multiple rings are exercised.
  const geo::Polygon hole_gon = geo::Polygon::RegularNGon({10.0, 20.0}, 9.0, 5);
  poly.AddRing(hole_gon.rings()[0]);
  const geo::Polygon unit = projection.ToUnit(poly);
  const PreparedPolygon prepared = PreparedPolygon::From(unit);

  // Adversarial points: ring vertices (boundary), edge midpoints (boundary),
  // centers, far outside, outside the projection domain (clamped).
  std::vector<double> xs, ys;
  for (const geo::Ring& ring : poly.rings()) {
    const size_t m = ring.size();
    for (size_t i = 0, j = m - 1; i < m; j = i++) {
      xs.push_back(ring[i].x);
      ys.push_back(ring[i].y);
      xs.push_back((ring[i].x + ring[j].x) / 2);
      ys.push_back((ring[i].y + ring[j].y) / 2);
    }
  }
  std::mt19937 rng(99);
  std::uniform_real_distribution<double> dx(-250.0, 250.0);
  std::uniform_real_distribution<double> dy(-120.0, 120.0);
  for (int i = 0; i < 200; ++i) {
    xs.push_back(dx(rng));
    ys.push_back(dy(rng));
  }
  xs.push_back(10.0);
  ys.push_back(20.0);

  uint64_t oracle = 0;
  for (size_t i = 0; i < xs.size(); ++i) {
    oracle += unit.Contains(projection.ToUnit(geo::Point{xs[i], ys[i]})) ? 1 : 0;
  }
  EXPECT_GT(oracle, 0u);
  EXPECT_LT(oracle, xs.size());

  const KernelTable& ref = KernelsAt(DispatchLevel::kScalar);
  // Every prefix length, so SIMD main-loop and tail splits all occur.
  for (size_t n = 0; n <= xs.size(); ++n) {
    uint64_t want = ref.count_polygon_hits(xs.data(), ys.data(), n, transform,
                                           prepared);
    for (DispatchLevel level : SimdLevels()) {
      const uint64_t got = KernelsAt(level).count_polygon_hits(
          xs.data(), ys.data(), n, transform, prepared);
      EXPECT_EQ(got, want) << ToString(level) << " n=" << n;
    }
    if (n == xs.size()) {
      EXPECT_EQ(want, oracle);
    }
  }

  // Empty polygon: zero hits at every level.
  const PreparedPolygon empty = PreparedPolygon::From(geo::Polygon{});
  EXPECT_TRUE(empty.empty());
  for (DispatchLevel level : SimdLevels()) {
    EXPECT_EQ(KernelsAt(level).count_polygon_hits(xs.data(), ys.data(),
                                                  xs.size(), transform, empty),
              0u);
  }

  // Points on edges and one ulp off them, under the unit domain's identity
  // projection so each lands exactly where it was computed: the float
  // cross product cannot decide these, so lanes take the exact path. Every
  // window of four consecutive points (each point in every lane position)
  // must count what Contains counts.
  const geo::Projection identity(geo::Rect{{0.0, 0.0}, {1.0, 1.0}});
  const UnitTransform unit_transform = UnitTransform::From(identity);
  geo::Polygon near = geo::Polygon{{0.1, 0.2},       {0.7, 0.13},
                                   {0.9, 0.9},       {0.3, 0.8},
                                   {0.3, 0.5},       {0.1 + 1e-9, 0.45}};
  near.AddRing({{0.5, 0.4}, {0.6, 0.55}, {0.45, 0.6}});
  const PreparedPolygon near_prepared = PreparedPolygon::From(near);
  std::vector<double> nx, ny;
  std::uniform_real_distribution<double> fraction(0.0, 1.0);
  for (const geo::Ring& ring : near.rings()) {
    const size_t m = ring.size();
    for (size_t i = 0, j = m - 1; i < m; j = i++) {
      const geo::Point& a = ring[j];
      const geo::Point& b = ring[i];
      for (const double t : {0.0, 0.5, 0.25, fraction(rng), fraction(rng)}) {
        const geo::Point on{a.x + t * (b.x - a.x), a.y + t * (b.y - a.y)};
        for (const geo::Point& p :
             {on, geo::Point{std::nextafter(on.x, 2.0), on.y},
              geo::Point{std::nextafter(on.x, -1.0), on.y},
              geo::Point{on.x, std::nextafter(on.y, 2.0)},
              geo::Point{on.x, std::nextafter(on.y, -1.0)}}) {
          nx.push_back(p.x);
          ny.push_back(p.y);
        }
      }
    }
  }
  std::vector<int> contained(nx.size());
  int on_or_in = 0;
  for (size_t i = 0; i < nx.size(); ++i) {
    contained[i] = near.Contains({nx[i], ny[i]}) ? 1 : 0;
    on_or_in += contained[i];
  }
  EXPECT_GT(on_or_in, 0);
  EXPECT_LT(on_or_in, static_cast<int>(nx.size()));
  std::vector<DispatchLevel> all_levels = SimdLevels();
  all_levels.push_back(DispatchLevel::kScalar);
  for (DispatchLevel level : all_levels) {
    const KernelTable& kernels = KernelsAt(level);
    for (size_t i = 0; i + 4 <= nx.size(); ++i) {
      const uint64_t want = static_cast<uint64_t>(
          contained[i] + contained[i + 1] + contained[i + 2] + contained[i + 3]);
      ASSERT_EQ(kernels.count_polygon_hits(nx.data() + i, ny.data() + i, 4,
                                           unit_transform, near_prepared),
                want)
          << ToString(level) << " window at " << i;
    }
    EXPECT_EQ(kernels.count_polygon_hits(nx.data(), ny.data(), nx.size(),
                                         unit_transform, near_prepared),
              static_cast<uint64_t>(on_or_in))
        << ToString(level);
  }
}

TEST(ScanKernelsTest, SumCountsParity) {
  for (size_t n = 0; n <= kMaxLen; ++n) {
    std::mt19937 rng(5000 + n);
    std::vector<uint32_t> counts(n);
    for (size_t i = 0; i < n; ++i) {
      // Near-max values exercise the u32 -> u64 widening.
      counts[i] = (rng() % 2) ? 0xFFFFFFFFu - (rng() % 5) : rng() % 1000;
    }
    EXPECT_EQ(SumCounts(counts.data(), n),
              std::accumulate(counts.begin(), counts.end(), uint64_t{0}))
        << "n=" << n;
  }
}

TEST(ScanKernelsTest, SortedProbesMatchStdBounds) {
  // Lengths past the galloping probes' doubling steps (1, 2, 4, ... 128);
  // stored keys are even and repeat, so the odd queries fall between them,
  // 0 and 1 below them and the last ones above.
  constexpr size_t kMaxSorted = 130;
  for (size_t n = 0; n <= kMaxSorted; ++n) {
    std::mt19937 rng(6000 + n);
    const uint64_t distinct = n / 2 + 1;
    std::vector<uint64_t> keys(n);
    for (size_t i = 0; i < n; ++i) keys[i] = 2 + 2 * (rng() % distinct);
    std::sort(keys.begin(), keys.end());
    const auto at = [&](auto it) {
      return static_cast<size_t>(it - keys.begin());
    };
    for (uint64_t q = 0; q <= 2 * distinct + 3; ++q) {
      EXPECT_EQ(LowerBoundU64(keys.data(), n, q),
                at(std::lower_bound(keys.begin(), keys.end(), q)))
          << "n=" << n << " q=" << q;
      EXPECT_EQ(UpperBoundU64(keys.data(), n, q),
                at(std::upper_bound(keys.begin(), keys.end(), q)))
          << "n=" << n << " q=" << q;
      for (size_t from = 0; from <= n; ++from) {
        const size_t lower =
            at(std::lower_bound(keys.begin() + from, keys.end(), q));
        const size_t upper =
            at(std::upper_bound(keys.begin() + from, keys.end(), q));
        const size_t got_lower = GallopLowerBoundU64(keys.data(), n, from, q);
        const size_t got_upper = GallopUpperBoundU64(keys.data(), n, from, q);
        if (got_lower != lower || got_upper != upper) {
          ADD_FAILURE() << "n=" << n << " from=" << from << " q=" << q
                        << ": gallop " << got_lower << "/" << got_upper
                        << ", std " << lower << "/" << upper;
          return;
        }
      }
    }
  }
}

}  // namespace
}  // namespace geoblocks::core::kernels
