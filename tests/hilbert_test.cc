#include <gtest/gtest.h>

#include <random>
#include <utility>
#include <vector>

#include "cell/hilbert.h"

namespace geoblocks::cell {
namespace {

// ---------------------------------------------------------------------------
// Reference transforms: the classic one-level-per-step Hilbert loops the
// library used before its lookup tables. HilbertXYToD and HilbertDToXY must
// reproduce them bit for bit.
// ---------------------------------------------------------------------------

/// Rotates/flips the quadrant of side `n` so that the curve orientation is
/// canonical for the next finer level (classic Hilbert transform step).
void ReferenceRotate(uint32_t n, uint32_t* i, uint32_t* j, uint32_t ri,
                     uint32_t rj) {
  if (rj == 0) {
    if (ri == 1) {
      *i = n - 1 - *i;
      *j = n - 1 - *j;
    }
    const uint32_t t = *i;
    *i = *j;
    *j = t;
  }
}

uint64_t ReferenceXYToD(uint32_t i, uint32_t j) {
  uint64_t d = 0;
  for (uint32_t s = kHilbertSide / 2; s > 0; s /= 2) {
    const uint32_t ri = (i & s) ? 1 : 0;
    const uint32_t rj = (j & s) ? 1 : 0;
    d += static_cast<uint64_t>(s) * s * ((3 * ri) ^ rj);
    ReferenceRotate(kHilbertSide, &i, &j, ri, rj);
  }
  return d;
}

std::pair<uint32_t, uint32_t> ReferenceDToXY(uint64_t d) {
  uint32_t i = 0;
  uint32_t j = 0;
  uint64_t t = d;
  for (uint32_t s = 1; s < kHilbertSide; s *= 2) {
    const uint32_t ri = static_cast<uint32_t>(1 & (t / 2));
    const uint32_t rj = static_cast<uint32_t>(1 & (t ^ ri));
    ReferenceRotate(s, &i, &j, ri, rj);
    i += s * ri;
    j += s * rj;
    t /= 4;
  }
  return {i, j};
}

TEST(HilbertTest, TablesMatchReferenceOnRandomPoints) {
  std::mt19937_64 rng(2026);
  std::uniform_int_distribution<uint32_t> coord(0, kHilbertSide - 1);
  std::uniform_int_distribution<uint64_t> pos(0, (uint64_t{1} << 60) - 1);
  for (int t = 0; t < 1'000'000; ++t) {
    const uint32_t i = coord(rng);
    const uint32_t j = coord(rng);
    ASSERT_EQ(HilbertXYToD(i, j), ReferenceXYToD(i, j)) << i << "," << j;
    const uint64_t d = pos(rng);
    ASSERT_EQ(HilbertDToXY(d), ReferenceDToXY(d)) << d;
  }
}

/// At every level, grid coordinates and positions at the first and last
/// leaf of cells along the square's sides and diagonal, and one leaf off
/// each side of a cell border.
TEST(HilbertTest, TablesMatchReferenceAtEveryLevelsCorners) {
  for (int level = 0; level <= kHilbertOrder; ++level) {
    const uint32_t side = kHilbertSide >> level;
    std::vector<uint32_t> coords;
    for (const uint32_t cell : {uint32_t{0}, uint32_t{1}, uint32_t{2},
                                (kHilbertSide / side) / 2,
                                kHilbertSide / side - 1}) {
      const uint64_t lo = uint64_t{cell} * side;
      if (lo >= kHilbertSide) continue;
      coords.push_back(static_cast<uint32_t>(lo));
      coords.push_back(static_cast<uint32_t>(lo + side - 1));
      if (lo > 0) coords.push_back(static_cast<uint32_t>(lo - 1));
      if (lo + side < kHilbertSide) {
        coords.push_back(static_cast<uint32_t>(lo + side));
      }
    }
    for (const uint32_t i : coords) {
      for (const uint32_t j : coords) {
        ASSERT_EQ(HilbertXYToD(i, j), ReferenceXYToD(i, j))
            << "level " << level << " at " << i << "," << j;
      }
    }
    const uint64_t block = uint64_t{1} << (2 * (kHilbertOrder - level));
    const uint64_t cells = uint64_t{1} << (2 * level);
    for (const uint64_t cell : {uint64_t{0}, uint64_t{1}, uint64_t{2},
                                cells / 2, cells - 1}) {
      if (cell >= cells) continue;
      for (const uint64_t d :
           {cell * block, cell * block + block - 1, cell * block + block / 2,
            cell * block - 1}) {
        if (d >= (uint64_t{1} << 60)) continue;
        ASSERT_EQ(HilbertDToXY(d), ReferenceDToXY(d))
            << "level " << level << " at " << d;
      }
    }
  }
}

TEST(HilbertTest, Corners) {
  // The curve starts at the origin.
  EXPECT_EQ(HilbertXYToD(0, 0), 0u);
  // It is a bijection onto [0, 4^30), so the last position exists.
  const auto [li, lj] = HilbertDToXY((uint64_t{1} << 60) - 1);
  EXPECT_EQ(HilbertXYToD(li, lj), (uint64_t{1} << 60) - 1);
}

TEST(HilbertTest, RoundTripRandom) {
  std::mt19937_64 rng(123);
  std::uniform_int_distribution<uint32_t> coord(0, kHilbertSide - 1);
  for (int t = 0; t < 2000; ++t) {
    const uint32_t i = coord(rng);
    const uint32_t j = coord(rng);
    const uint64_t d = HilbertXYToD(i, j);
    const auto [ri, rj] = HilbertDToXY(d);
    ASSERT_EQ(ri, i);
    ASSERT_EQ(rj, j);
  }
}

TEST(HilbertTest, RoundTripFromD) {
  std::mt19937_64 rng(321);
  std::uniform_int_distribution<uint64_t> dist(0, (uint64_t{1} << 60) - 1);
  for (int t = 0; t < 2000; ++t) {
    const uint64_t d = dist(rng);
    const auto [i, j] = HilbertDToXY(d);
    ASSERT_LT(i, kHilbertSide);
    ASSERT_LT(j, kHilbertSide);
    ASSERT_EQ(HilbertXYToD(i, j), d);
  }
}

TEST(HilbertTest, AdjacencyProperty) {
  // Consecutive curve positions are grid neighbours (Manhattan distance 1)
  // — the defining locality property of the Hilbert curve.
  std::mt19937_64 rng(7);
  std::uniform_int_distribution<uint64_t> dist(0, (uint64_t{1} << 60) - 2);
  for (int t = 0; t < 1000; ++t) {
    const uint64_t d = dist(rng);
    const auto [i1, j1] = HilbertDToXY(d);
    const auto [i2, j2] = HilbertDToXY(d + 1);
    const uint64_t manhattan =
        (i1 > i2 ? i1 - i2 : i2 - i1) + (j1 > j2 ? j1 - j2 : j2 - j1);
    ASSERT_EQ(manhattan, 1u) << "at d=" << d;
  }
}

TEST(HilbertTest, HierarchyProperty) {
  // All positions sharing their top 2l bits form an axis-aligned square of
  // side 2^(30-l): verify for random cells at a few levels by checking the
  // bounding box of sampled positions.
  std::mt19937_64 rng(99);
  for (const int level : {1, 2, 5, 10, 20, 29}) {
    const int shift = 2 * (kHilbertOrder - level);
    std::uniform_int_distribution<uint64_t> prefix_dist(
        0, (uint64_t{1} << (2 * level)) - 1);
    const uint64_t prefix = prefix_dist(rng) << shift;
    const uint64_t block = uint64_t{1} << shift;
    const uint32_t side = uint32_t{1} << (kHilbertOrder - level);

    const auto [i0, j0] = HilbertDToXY(prefix);
    const uint32_t base_i = i0 & ~(side - 1);
    const uint32_t base_j = j0 & ~(side - 1);
    std::uniform_int_distribution<uint64_t> within(0, block - 1);
    for (int s = 0; s < 200; ++s) {
      const auto [i, j] = HilbertDToXY(prefix + within(rng));
      ASSERT_GE(i, base_i);
      ASSERT_LT(i, base_i + side);
      ASSERT_GE(j, base_j);
      ASSERT_LT(j, base_j + side);
    }
  }
}

TEST(HilbertTest, FirstFourQuadrants) {
  // At the top level the curve visits the four quadrants in some fixed
  // order; each quarter of the d-range must stay within one quadrant.
  const uint64_t quarter = uint64_t{1} << 58;
  const uint32_t half = kHilbertSide / 2;
  for (int q = 0; q < 4; ++q) {
    const auto [i_a, j_a] = HilbertDToXY(q * quarter);
    const auto [i_b, j_b] = HilbertDToXY(q * quarter + quarter - 1);
    EXPECT_EQ(i_a / half, i_b / half) << "quadrant " << q;
    EXPECT_EQ(j_a / half, j_b / half) << "quadrant " << q;
  }
}

}  // namespace
}  // namespace geoblocks::cell
