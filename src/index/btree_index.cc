#include "index/btree_index.h"

#include "core/geoblock.h"

namespace geoblocks::index {

std::vector<cell::CellId> BTreeIndex::Cover(const geo::Polygon& polygon,
                                            int cover_level) const {
  return core::CoverPolygon(data_->projection(), cover_level, polygon);
}

core::QueryResult BTreeIndex::Select(const geo::Polygon& polygon,
                                     const core::AggregateRequest& request,
                                     int cover_level) const {
  return SelectCovering(Cover(polygon, cover_level), request);
}

core::QueryResult BTreeIndex::SelectCovering(
    std::span<const cell::CellId> covering,
    const core::AggregateRequest& request) const {
  core::Accumulator acc(&request);
  const std::vector<uint64_t>& keys = data_->keys();
  for (const cell::CellId& qcell : covering) {
    // Probe the tree for the first contained tuple, then scan the sorted
    // raw data while tuples still fall inside the query cell.
    const uint64_t range_max = qcell.RangeMax().id();
    size_t row = tree_.SeekFirst(qcell.RangeMin().id());
    while (row < keys.size() && keys[row] <= range_max) {
      acc.AddRow([&](int col) { return data_->Value(row, col); });
      ++row;
    }
  }
  return acc.Finish();
}

uint64_t BTreeIndex::Count(const geo::Polygon& polygon,
                           int cover_level) const {
  return CountCovering(Cover(polygon, cover_level));
}

uint64_t BTreeIndex::CountCovering(
    std::span<const cell::CellId> covering) const {
  uint64_t count = 0;
  for (const cell::CellId& qcell : covering) {
    const size_t first = tree_.SeekFirst(qcell.RangeMin().id());
    const size_t last = tree_.SeekPastLast(qcell.RangeMax().id());
    count += last > first ? last - first : 0;
  }
  return count;
}

}  // namespace geoblocks::index
