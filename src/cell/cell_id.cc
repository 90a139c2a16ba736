#include "cell/cell_id.h"

#include <algorithm>
#include <cmath>

#include "cell/hilbert.h"

namespace geoblocks::cell {

namespace {

uint32_t UnitToGrid(double v) {
  const double scaled = v * static_cast<double>(kHilbertSide);
  if (scaled <= 0.0) return 0;
  if (scaled >= static_cast<double>(kHilbertSide)) return kHilbertSide - 1;
  return static_cast<uint32_t>(scaled);
}

}  // namespace

CellId CellId::FromPoint(const geo::Point& unit_point) {
  return FromIJ(UnitToGrid(unit_point.x), UnitToGrid(unit_point.y));
}

CellId CellId::FromIJ(uint32_t i, uint32_t j) {
  return CellId((HilbertXYToD(i, j) << 1) | 1);
}

CellId CellId::FromIJLevel(uint32_t i, uint32_t j, int level) {
  return FromIJ(i, j).Parent(level);
}

void CellId::ToIJ(uint32_t* i, uint32_t* j, uint32_t* size) const {
  const uint64_t first_leaf_pos = RangeMin().pos();
  auto [fi, fj] = HilbertDToXY(first_leaf_pos);
  const uint32_t cell_size = uint32_t{1} << (kMaxLevel - level());
  *i = fi & ~(cell_size - 1);
  *j = fj & ~(cell_size - 1);
  *size = cell_size;
}

geo::Rect CellId::ToRect() const {
  uint32_t i = 0;
  uint32_t j = 0;
  uint32_t size = 0;
  ToIJ(&i, &j, &size);
  return CellSquare{i, j, size}.ToRect();
}

geo::Point CellId::CenterPoint() const { return ToRect().Center(); }

CellId CellId::CommonAncestor(CellId a, CellId b) {
  uint64_t bits = a.id() ^ b.id();
  bits |= a.lsb();
  bits |= b.lsb();
  const int msb = 63 - std::countl_zero(bits);
  // The ancestor's lsb must sit at an even bit position >= msb.
  const int lsb_pos = std::min((msb + 1) & ~1, 2 * kMaxLevel);
  const int level = kMaxLevel - lsb_pos / 2;
  return a.Parent(level);
}

std::string CellId::ToString() const {
  if (!is_valid()) return "(invalid)";
  const int lvl = level();
  std::string path;
  for (int l = 1; l <= lvl; ++l) {
    path += static_cast<char>('0' + Parent(l).ChildPosition());
  }
  return std::to_string(lvl) + "/" + path;
}

}  // namespace geoblocks::cell
