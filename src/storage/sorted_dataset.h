#pragma once

#include <cstdint>
#include <vector>

#include "cell/cell_id.h"
#include "geo/projection.h"
#include "storage/filter.h"
#include "storage/point_table.h"

namespace geoblocks::storage {

struct ExtractOptions {
  /// Projection used to map lat/lng to the unit square / spatial keys.
  geo::Projection projection;
  /// Rows whose location falls outside this rect are dropped as outliers
  /// ("clean" step, Figure 5). Empty = keep everything inside the
  /// projection domain.
  geo::Rect clean_bounds = geo::Rect::Empty();
  /// When >= 0, the distinct grid-cell ids at this level are collected
  /// during the sort ("piggybacked on the sorting process", Section 4.2),
  /// which explains the sorting-time gap in Figure 11a.
  int collect_cells_level = -1;
};

/// The sorted base data produced by the *extract* phase (Figure 5): cleaned
/// rows keyed by their leaf spatial key and sorted by it. All GeoBlocks and
/// all sorted baselines are built from this representation.
class SortedDataset {
 public:
  /// Runs the extract phase: clean -> key -> stable LSD radix sort of
  /// (key, row) pairs -> per-column gather. Rows with equal keys keep their
  /// input order. Grid cells are collected as the sorted keys are written
  /// (`ExtractOptions::collect_cells_level`). Rows are indexed with 32 bits:
  /// throws std::length_error when `raw` has more rows than that.
  static SortedDataset Extract(const PointTable& raw,
                               const ExtractOptions& options);

  const Schema& schema() const { return schema_; }
  const geo::Projection& projection() const { return projection_; }
  size_t num_rows() const { return keys_.size(); }
  size_t num_columns() const { return columns_.size(); }

  /// Leaf cell id of each row, ascending.
  const std::vector<uint64_t>& keys() const { return keys_; }
  const std::vector<double>& xs() const { return xs_; }
  const std::vector<double>& ys() const { return ys_; }
  const std::vector<double>& column(size_t c) const { return columns_[c]; }

  geo::Point Location(size_t row) const { return {xs_[row], ys_[row]}; }
  double Value(size_t row, size_t col) const { return columns_[col][row]; }

  /// Distinct grid-cell ids collected during the sort (only when
  /// `collect_cells_level >= 0` was requested).
  const std::vector<uint64_t>& collected_cells() const {
    return collected_cells_;
  }

  /// A copy of rows [first, last) as a self-contained SortedDataset with
  /// the same schema and projection. Used by the sharded engine to cut one
  /// extract result into contiguous Hilbert-key ranges; collected cells are
  /// not propagated (re-request them on the slice if needed).
  SortedDataset Slice(size_t first, size_t last) const;

  /// First row with key >= k (k given as raw 64-bit id).
  size_t LowerBound(uint64_t k) const;
  /// First row with key > k.
  size_t UpperBound(uint64_t k) const;
  /// Row range [first, last) of all leaves contained in `cell`.
  std::pair<size_t, size_t> EqualRangeForCell(cell::CellId cell) const;

  size_t MemoryBytes() const {
    return keys_.size() * sizeof(uint64_t) +
           (xs_.size() + ys_.size()) * sizeof(double) +
           columns_.size() * keys_.size() * sizeof(double);
  }

  /// Bytes of the raw payload only (x, y, attribute columns) — the baseline
  /// against which index size overheads are reported (Figure 11b).
  size_t PayloadBytes() const {
    return (xs_.size() + ys_.size()) * sizeof(double) +
           columns_.size() * keys_.size() * sizeof(double);
  }

 private:
  Schema schema_;
  geo::Projection projection_;
  std::vector<uint64_t> keys_;
  std::vector<double> xs_;
  std::vector<double> ys_;
  std::vector<std::vector<double>> columns_;
  std::vector<uint64_t> collected_cells_;
};

}  // namespace geoblocks::storage
