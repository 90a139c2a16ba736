#include "index/binary_search.h"

#include "core/geoblock.h"

namespace geoblocks::index {

std::vector<cell::CellId> BinarySearchIndex::Cover(
    const geo::Polygon& polygon, int cover_level) const {
  return core::CoverPolygon(data_->projection(), cover_level, polygon);
}

core::QueryResult BinarySearchIndex::Select(
    const geo::Polygon& polygon, const core::AggregateRequest& request,
    int cover_level) const {
  return SelectCovering(Cover(polygon, cover_level), request);
}

core::QueryResult BinarySearchIndex::SelectCovering(
    std::span<const cell::CellId> covering,
    const core::AggregateRequest& request) const {
  core::Accumulator acc(&request);
  for (const cell::CellId& qcell : covering) {
    const auto [first, last] = data_->EqualRangeForCell(qcell);
    for (size_t row = first; row < last; ++row) {
      acc.AddRow([&](int col) { return data_->Value(row, col); });
    }
  }
  return acc.Finish();
}

uint64_t BinarySearchIndex::Count(const geo::Polygon& polygon,
                                  int cover_level) const {
  return CountCovering(Cover(polygon, cover_level));
}

uint64_t BinarySearchIndex::CountCovering(
    std::span<const cell::CellId> covering) const {
  uint64_t count = 0;
  for (const cell::CellId& qcell : covering) {
    const auto [first, last] = data_->EqualRangeForCell(qcell);
    count += last - first;
  }
  return count;
}

}  // namespace geoblocks::index
