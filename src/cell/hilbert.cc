#include "cell/hilbert.h"

#include <array>

#include "cell/cell_id.h"

namespace geoblocks::cell {

namespace {

/// The transforms run four levels (a 16x16 block, 8 position bits) per
/// table lookup, as S2's cell id lookup tables do.
constexpr int kLookupBits = 4;
constexpr uint32_t kLookupMask = (1u << kLookupBits) - 1;

/// Indexed by orientation << 8 | entry, with orientations as in
/// CellSquare: bit 0 swaps i and j in the curve's frame, bit 1 complements
/// both.
struct Tables {
  /// (i << 4 | j) of a 16x16 block -> (pos << 2 | orientation after it).
  std::array<uint16_t, 4 << 8> ij_to_pos{};
  /// pos of a 16x16 block -> (i << 4 | j) << 2 | orientation after it.
  std::array<uint16_t, 4 << 8> pos_to_ij{};
};

/// Steps CellSquare::Child four levels down each pos's quadrant digits,
/// from a 16x16 square of each orientation.
constexpr Tables MakeTables() {
  Tables t;
  for (uint32_t o = 0; o < 4; ++o) {
    for (uint32_t pos = 0; pos < 256; ++pos) {
      CellSquare square{0, 0, 1u << kLookupBits, o};
      for (int level = kLookupBits - 1; level >= 0; --level) {
        square = square.Child(static_cast<int>(pos >> (2 * level) & 3));
      }
      const uint32_t ij = square.i << kLookupBits | square.j;
      t.ij_to_pos[o << 8 | ij] =
          static_cast<uint16_t>(pos << 2 | square.orientation);
      t.pos_to_ij[o << 8 | pos] =
          static_cast<uint16_t>(ij << 2 | square.orientation);
    }
  }
  return t;
}

constexpr Tables kTables = MakeTables();

}  // namespace

// Both transforms run over 32 bits per coordinate, two levels more than
// the curve's 30. Those two top levels hold zero bits, which lie in
// quadrant 0 and swap the frame twice, so they add zero bits and leave the
// orientation where the curve starts.

uint64_t HilbertXYToD(uint32_t i, uint32_t j) {
  i &= kHilbertSide - 1;
  j &= kHilbertSide - 1;
  uint64_t d = 0;
  uint32_t orientation = 0;
  for (int shift = 32 - kLookupBits; shift >= 0; shift -= kLookupBits) {
    const uint32_t ij = ((i >> shift) & kLookupMask) << kLookupBits |
                        ((j >> shift) & kLookupMask);
    const uint32_t v = kTables.ij_to_pos[orientation << 8 | ij];
    d = d << (2 * kLookupBits) | (v >> 2);
    orientation = v & 3;
  }
  return d;
}

std::pair<uint32_t, uint32_t> HilbertDToXY(uint64_t d) {
  d &= (uint64_t{1} << (2 * kHilbertOrder)) - 1;
  uint32_t i = 0;
  uint32_t j = 0;
  uint32_t orientation = 0;
  for (int shift = 64 - 2 * kLookupBits; shift >= 0;
       shift -= 2 * kLookupBits) {
    const uint32_t pos = static_cast<uint32_t>(d >> shift) & 0xFF;
    const uint32_t v = kTables.pos_to_ij[orientation << 8 | pos];
    i = i << kLookupBits | (v >> (2 + kLookupBits));
    j = j << kLookupBits | ((v >> 2) & kLookupMask);
    orientation = v & 3;
  }
  return {i, j};
}

}  // namespace geoblocks::cell
