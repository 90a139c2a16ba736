#include "storage/sorted_dataset.h"

#include <algorithm>
#include <cmath>
#include <numeric>

#include "core/scan_kernels.h"

namespace geoblocks::storage {

SortedDataset SortedDataset::Extract(const PointTable& raw,
                                     const ExtractOptions& options) {
  SortedDataset out;
  out.schema_ = raw.schema();
  out.projection_ = options.projection;

  const size_t n = raw.num_rows();
  const geo::Rect clean = options.clean_bounds.IsEmpty()
                              ? options.projection.domain()
                              : options.clean_bounds;

  // Clean: drop rows with non-finite or out-of-bounds locations, and key
  // the remainder with their leaf cell id.
  std::vector<uint32_t> rows;
  std::vector<uint64_t> keys;
  rows.reserve(n);
  keys.reserve(n);
  for (size_t r = 0; r < n; ++r) {
    const geo::Point loc = raw.Location(r);
    if (!std::isfinite(loc.x) || !std::isfinite(loc.y)) continue;
    if (!clean.Contains(loc)) continue;
    rows.push_back(static_cast<uint32_t>(r));
    keys.push_back(
        cell::CellId::FromPoint(options.projection.ToUnit(loc)).id());
  }

  // Sort row indices by spatial key.
  std::vector<uint32_t> order(rows.size());
  std::iota(order.begin(), order.end(), 0);
  std::sort(order.begin(), order.end(), [&](uint32_t a, uint32_t b) {
    if (keys[a] != keys[b]) return keys[a] < keys[b];
    return rows[a] < rows[b];  // stable tie-break for determinism
  });

  // Materialize columns in sorted order (out-of-place sort of the columnar
  // payload), optionally collecting the distinct grid-cell ids at the
  // requested level along the way.
  const size_t m = order.size();
  out.keys_.resize(m);
  out.xs_.resize(m);
  out.ys_.resize(m);
  out.columns_.assign(raw.num_columns(), std::vector<double>(m));
  const bool collect = options.collect_cells_level >= 0;
  const uint64_t collect_lsb =
      collect ? cell::CellId::LsbForLevel(options.collect_cells_level) : 0;
  uint64_t last_cell = 0;
  for (size_t i = 0; i < m; ++i) {
    const uint32_t src = rows[order[i]];
    const uint64_t key = keys[order[i]];
    out.keys_[i] = key;
    out.xs_[i] = raw.xs()[src];
    out.ys_[i] = raw.ys()[src];
    for (size_t c = 0; c < raw.num_columns(); ++c) {
      out.columns_[c][i] = raw.column(c)[src];
    }
    if (collect) {
      const uint64_t cell_id =
          (key & (~collect_lsb + 1) & ~(collect_lsb - 1)) | collect_lsb;
      if (cell_id != last_cell) {
        out.collected_cells_.push_back(cell_id);
        last_cell = cell_id;
      }
    }
  }
  return out;
}

SortedDataset SortedDataset::Slice(size_t first, size_t last) const {
  SortedDataset out;
  out.schema_ = schema_;
  out.projection_ = projection_;
  last = std::min(last, keys_.size());
  first = std::min(first, last);
  out.keys_.assign(keys_.begin() + first, keys_.begin() + last);
  out.xs_.assign(xs_.begin() + first, xs_.begin() + last);
  out.ys_.assign(ys_.begin() + first, ys_.begin() + last);
  out.columns_.reserve(columns_.size());
  for (const std::vector<double>& col : columns_) {
    out.columns_.emplace_back(col.begin() + first, col.begin() + last);
  }
  return out;
}

size_t SortedDataset::LowerBound(uint64_t k) const {
  return core::kernels::LowerBoundU64(keys_.data(), keys_.size(), k);
}

size_t SortedDataset::UpperBound(uint64_t k) const {
  return core::kernels::UpperBoundU64(keys_.data(), keys_.size(), k);
}

std::pair<size_t, size_t> SortedDataset::EqualRangeForCell(
    cell::CellId cell) const {
  return {LowerBound(cell.RangeMin().id()), UpperBound(cell.RangeMax().id())};
}

}  // namespace geoblocks::storage
