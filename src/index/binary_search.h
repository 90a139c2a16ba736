#pragma once

#include <span>

#include "cell/cell_id.h"
#include "core/aggregate.h"
#include "geo/polygon.h"
#include "storage/sorted_dataset.h"

namespace geoblocks::index {

/// The simplest on-the-fly baseline (Section 4.1): no index at all. For each
/// covering cell, binary search locates the first and last contained raw
/// tuple in the sorted base data, then all tuples in between are scanned and
/// aggregated.
class BinarySearchIndex {
 public:
  explicit BinarySearchIndex(const storage::SortedDataset* data)
      : data_(data) {}

  const storage::SortedDataset& data() const { return *data_; }

  /// Covers the polygon with cells no finer than `cover_level` through
  /// core::CoverPolygon (the same covering the corresponding GeoBlock
  /// would use, for comparability).
  std::vector<cell::CellId> Cover(const geo::Polygon& polygon,
                                  int cover_level) const;

  core::QueryResult Select(const geo::Polygon& polygon,
                           const core::AggregateRequest& request,
                           int cover_level) const;
  core::QueryResult SelectCovering(std::span<const cell::CellId> covering,
                                   const core::AggregateRequest& request) const;

  uint64_t Count(const geo::Polygon& polygon, int cover_level) const;
  uint64_t CountCovering(std::span<const cell::CellId> covering) const;

  /// The baseline needs no storage beyond the sorted base data.
  size_t MemoryBytes() const { return 0; }

 private:
  const storage::SortedDataset* data_;
};

}  // namespace geoblocks::index
