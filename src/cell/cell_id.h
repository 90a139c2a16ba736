#pragma once

#include <array>
#include <bit>
#include <cstdint>
#include <ostream>
#include <string>
#include <utility>

#include "geo/point.h"
#include "geo/rect.h"

namespace geoblocks::cell {

/// A 64-bit identifier of a cell in the hierarchical quadtree decomposition
/// of the unit square (paper Section 3.1, Figure 3).
///
/// The encoding mirrors Google S2's face-less cell id algebra:
///
///   id = [0 0 0 | 2*level position bits | 1 | 0...0]
///
/// The 60 position bits are the Hilbert-curve position of the cell's first
/// leaf; the single set bit after them (the "lsb") marks the level. This
/// yields the properties the paper relies on:
///  - ids of all cells at one level are enumerated in Hilbert order
///    (order-preserving space-filling curve),
///  - a cell's descendants occupy the contiguous id range
///    [RangeMin(), RangeMax()], so containment is a pair of comparisons,
///  - parent/child moves are pure bit manipulation.
class CellId {
 public:
  static constexpr int kMaxLevel = 30;

  /// The invalid/null cell id.
  constexpr CellId() : id_(0) {}
  constexpr explicit CellId(uint64_t id) : id_(id) {}

  /// The level-0 cell covering the entire unit square.
  static constexpr CellId Root() { return CellId(uint64_t{1} << 60); }

  /// The leaf cell containing a unit-square point (both coordinates in
  /// [0, 1); values are clamped).
  static CellId FromPoint(const geo::Point& unit_point);

  /// The leaf cell for integer grid coordinates at level 30.
  static CellId FromIJ(uint32_t i, uint32_t j);

  /// The ancestor at `level` of the leaf cell for (i, j).
  static CellId FromIJLevel(uint32_t i, uint32_t j, int level);

  uint64_t id() const { return id_; }
  bool is_valid() const {
    return id_ != 0 && id_ < (uint64_t{1} << 61) &&
           (std::countr_zero(id_) % 2) == 0;
  }
  bool is_leaf() const { return (id_ & 1) != 0; }

  /// Lowest set bit; encodes the level.
  uint64_t lsb() const { return id_ & (~id_ + 1); }

  int level() const {
    return kMaxLevel - (std::countr_zero(id_) >> 1);
  }

  /// Hilbert-curve position of the cell's first leaf, in [0, 4^30).
  uint64_t pos() const { return id_ >> 1; }

  /// First and last leaf-cell id in this cell's subtree (inclusive).
  CellId RangeMin() const { return CellId(id_ - lsb() + 1); }
  CellId RangeMax() const { return CellId(id_ + lsb() - 1); }

  /// True when `other` is this cell or a descendant of it.
  bool Contains(const CellId& other) const {
    return other.id_ >= RangeMin().id_ && other.id_ <= RangeMax().id_;
  }

  bool Intersects(const CellId& other) const {
    return Contains(other) || other.Contains(*this);
  }

  /// Ancestor at the given (coarser or equal) level.
  CellId Parent(int level) const {
    const uint64_t new_lsb = LsbForLevel(level);
    return CellId((id_ & (~new_lsb + 1)) | new_lsb);
  }

  /// Immediate parent.
  CellId Parent() const { return Parent(level() - 1); }

  /// The k-th child (k in [0,4)) in Hilbert order.
  CellId Child(int k) const {
    const uint64_t new_lsb = lsb() >> 2;
    return CellId(id_ - 3 * new_lsb + 2 * static_cast<uint64_t>(k) * new_lsb);
  }

  std::array<CellId, 4> Children() const {
    return {Child(0), Child(1), Child(2), Child(3)};
  }

  /// Index of this cell among its parent's children (Hilbert order).
  int ChildPosition() const {
    return static_cast<int>((id_ >> (std::countr_zero(id_) + 1)) & 3);
  }

  /// First (smallest-id) descendant at `level` (paper Listing 2,
  /// firstChildAtLvl).
  CellId ChildBegin(int level) const {
    return CellId(id_ - lsb() + LsbForLevel(level));
  }

  /// Last (largest-id) descendant at `level` (paper Listing 2,
  /// lastChildAtLvl).
  CellId ChildLast(int level) const {
    return CellId(id_ + lsb() - LsbForLevel(level));
  }

  /// Next/previous cell at this level along the Hilbert curve (may run off
  /// the square; callers bound iteration by range checks).
  CellId Next() const { return CellId(id_ + (lsb() << 1)); }
  CellId Prev() const { return CellId(id_ - (lsb() << 1)); }

  /// Grid coordinates of the cell's lower-left leaf at level 30 together
  /// with the cell's side length in leaf units.
  void ToIJ(uint32_t* i, uint32_t* j, uint32_t* size) const;

  /// Geometric extent of the cell in unit-square coordinates.
  geo::Rect ToRect() const;

  /// Center of the cell in unit-square coordinates.
  geo::Point CenterPoint() const;

  /// Lowest common ancestor of two cells (always exists; may be Root()).
  static CellId CommonAncestor(CellId a, CellId b);

  /// Debug representation "level/childpath", e.g. "3/201".
  std::string ToString() const;

  static constexpr uint64_t LsbForLevel(int level) {
    return uint64_t{1} << (2 * (kMaxLevel - level));
  }

  friend bool operator==(const CellId& a, const CellId& b) {
    return a.id_ == b.id_;
  }
  friend auto operator<=>(const CellId& a, const CellId& b) {
    return a.id_ <=> b.id_;
  }

 private:
  uint64_t id_;
};

inline std::ostream& operator<<(std::ostream& os, const CellId& c) {
  return os << c.ToString();
}

/// A cell's square on the level-30 leaf grid together with the orientation
/// of the Hilbert curve inside it. A child's square then follows in O(1),
/// where CellId::ToIJ decodes all 30 levels of the id; the coverer carries
/// one down its descent.
struct CellSquare {
  uint32_t i = 0;
  uint32_t j = 0;
  uint32_t size = uint32_t{1} << CellId::kMaxLevel;
  /// Bit 0: the curve's i and j are swapped; bit 1: both are complemented.
  /// These are the two transforms of the Hilbert Rotate step, and they
  /// commute, so composing them is an xor.
  uint32_t orientation = 0;

  /// The square of `cell`, stepped down its ChildPosition() path.
  static CellSquare Of(CellId cell) {
    CellSquare square;
    for (int l = 1; l <= cell.level(); ++l) {
      square = square.Child(cell.Parent(l).ChildPosition());
    }
    return square;
  }

  /// The square of the k-th child (Hilbert order, as CellId::Child). Digit
  /// k names the quadrant (k >> 1, (k ^ k >> 1) & 1) in the curve's frame;
  /// undoing the orientation maps it to grid coordinates.
  constexpr CellSquare Child(int k) const {
    const uint32_t complement = orientation >> 1;
    uint32_t di = (static_cast<uint32_t>(k) >> 1) ^ complement;
    uint32_t dj = ((static_cast<uint32_t>(k) ^ (k >> 1)) & 1) ^ complement;
    if (orientation & 1) std::swap(di, dj);
    const uint32_t half = size >> 1;
    return {i + di * half, j + dj * half, half, orientation ^ kTurn[k]};
  }

  /// Geometric extent in unit-square coordinates (CellId::ToRect's
  /// arithmetic: every coordinate is a dyadic rational, so exact).
  geo::Rect ToRect() const {
    const double inv =
        1.0 / static_cast<double>(uint32_t{1} << CellId::kMaxLevel);
    return geo::Rect{{i * inv, j * inv},
                     {(i + static_cast<double>(size)) * inv,
                      (j + static_cast<double>(size)) * inv}};
  }

  /// Child(k)'s turn of the frame: quadrant 0 swaps it; quadrant 3 swaps
  /// and complements it.
  static constexpr uint32_t kTurn[4] = {1, 0, 0, 3};
};

/// The 16 grandchildren of a cell in Hilbert (ascending id) order, per
/// orientation of the curve inside it: kGrandchildOrder[orientation]
/// [4 * k + m] is i + 4 * j, the position of grandchild Child(k).Child(m)
/// in the cell's 4x4 grid of grandchildren. Lets the coverer's two-level
/// step rank a cell's grandchildren without stepping CellSquare::Child
/// twice per grandchild.
inline constexpr std::array<std::array<uint8_t, 16>, 4> kGrandchildOrder =
    [] {
      std::array<std::array<uint8_t, 16>, 4> order{};
      for (uint32_t o = 0; o < 4; ++o) {
        const CellSquare square{0, 0, 4, o};
        for (int k = 0; k < 4; ++k) {
          for (int m = 0; m < 4; ++m) {
            const CellSquare leaf = square.Child(k).Child(m);
            order[o][4 * k + m] = static_cast<uint8_t>(leaf.i + 4 * leaf.j);
          }
        }
      }
      return order;
    }();

}  // namespace geoblocks::cell
