#pragma once

#include <span>

#include "cell/cell_id.h"
#include "core/aggregate.h"
#include "geo/polygon.h"
#include "index/btree.h"
#include "storage/sorted_dataset.h"

namespace geoblocks::index {

/// The BTree baseline of Section 4.1: a B+-tree secondary index over the
/// spatial keys of the raw data. Per covering cell, the tree is probed for
/// the first contained tuple and the sorted raw data is scanned until no
/// further tuple qualifies.
class BTreeIndex {
 public:
  explicit BTreeIndex(const storage::SortedDataset* data)
      : data_(data), tree_(BTree::BulkLoad(data->keys())) {}

  const BTree& tree() const { return tree_; }

  /// Covers the polygon with cells no finer than `cover_level` through
  /// core::CoverPolygon, like BinarySearchIndex::Cover.
  std::vector<cell::CellId> Cover(const geo::Polygon& polygon,
                                  int cover_level) const;

  core::QueryResult Select(const geo::Polygon& polygon,
                           const core::AggregateRequest& request,
                           int cover_level) const;
  core::QueryResult SelectCovering(std::span<const cell::CellId> covering,
                                   const core::AggregateRequest& request) const;

  uint64_t Count(const geo::Polygon& polygon, int cover_level) const;
  uint64_t CountCovering(std::span<const cell::CellId> covering) const;

  size_t MemoryBytes() const { return tree_.MemoryBytes(); }

 private:
  const storage::SortedDataset* data_;
  BTree tree_;
};

}  // namespace geoblocks::index
