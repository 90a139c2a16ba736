#include "storage/sorted_dataset.h"

#include <algorithm>
#include <array>
#include <cmath>
#include <limits>
#include <memory>
#include <stdexcept>
#include <utility>

#include "core/scan_kernels.h"

namespace geoblocks::storage {

namespace {

/// A cleaned row: its leaf spatial key and its index in the raw table.
struct KeyRow {
  uint64_t key;
  uint32_t row;
};

constexpr int kKeyBytes = sizeof(uint64_t);
constexpr size_t kRadix = 256;

/// Per-byte key histograms: counts[b][d] rows have digit d in key byte b.
using ByteHistograms = std::array<std::array<uint32_t, kRadix>, kKeyBytes>;

ByteHistograms CountKeyBytes(const KeyRow* pairs, size_t m) {
  ByteHistograms counts{};
  for (size_t i = 0; i < m; ++i) {
    const uint64_t key = pairs[i].key;
    for (int b = 0; b < kKeyBytes; ++b) {
      ++counts[b][(key >> (8 * b)) & 0xFF];
    }
  }
  return counts;
}

/// Stable LSD radix sort of `pairs[0, m)` by key, one byte per pass, using
/// `scratch` (room for m pairs) as the other buffer. A byte on which every
/// key agrees is skipped. Returns whichever buffer holds the sorted pairs.
/// Stability keeps equal keys in their input order.
KeyRow* RadixSortByKey(KeyRow* pairs, KeyRow* scratch, size_t m) {
  if (m == 0) return pairs;
  const ByteHistograms counts = CountKeyBytes(pairs, m);
  KeyRow* src = pairs;
  KeyRow* dst = scratch;
  for (int b = 0; b < kKeyBytes; ++b) {
    const int shift = 8 * b;
    const std::array<uint32_t, kRadix>& count = counts[b];
    if (count[(src[0].key >> shift) & 0xFF] == m) continue;
    std::array<size_t, kRadix> next;
    size_t offset = 0;
    for (size_t d = 0; d < kRadix; ++d) {
      next[d] = offset;
      offset += count[d];
    }
    for (size_t i = 0; i < m; ++i) {
      dst[next[(src[i].key >> shift) & 0xFF]++] = src[i];
    }
    std::swap(src, dst);
  }
  return src;
}

/// `out[i] = in[rows[i]]` for every i, one array at a time.
void Gather(const std::vector<double>& in, const std::vector<uint32_t>& rows,
            std::vector<double>* out) {
  out->resize(rows.size());
  const double* src = in.data();
  double* dst = out->data();
  for (size_t i = 0; i < rows.size(); ++i) dst[i] = src[rows[i]];
}

}  // namespace

SortedDataset SortedDataset::Extract(const PointTable& raw,
                                     const ExtractOptions& options) {
  SortedDataset out;
  out.schema_ = raw.schema();
  out.projection_ = options.projection;

  const size_t n = raw.num_rows();
  if (n > std::numeric_limits<uint32_t>::max()) {
    throw std::length_error("Extract: more rows than a 32-bit row index");
  }
  const geo::Rect clean = options.clean_bounds.IsEmpty()
                              ? options.projection.domain()
                              : options.clean_bounds;

  // rows[i] is the raw row of sorted row i. The pair buffers live only in
  // this block, so they are freed before the gather allocates the payload.
  std::vector<uint32_t> rows;
  {
    // Clean and key: drop rows with non-finite or out-of-bounds locations,
    // and pair each remaining row with its leaf cell id. Rows enter in
    // ascending order, so the stable sort below breaks key ties by row.
    const std::unique_ptr<KeyRow[]> pairs =
        std::make_unique_for_overwrite<KeyRow[]>(n);
    size_t m = 0;
    for (size_t r = 0; r < n; ++r) {
      const geo::Point loc = raw.Location(r);
      if (!std::isfinite(loc.x) || !std::isfinite(loc.y)) continue;
      if (!clean.Contains(loc)) continue;
      pairs[m++] = {
          cell::CellId::FromPoint(options.projection.ToUnit(loc)).id(),
          static_cast<uint32_t>(r)};
    }

    const std::unique_ptr<KeyRow[]> scratch =
        std::make_unique_for_overwrite<KeyRow[]>(m);
    const KeyRow* sorted = RadixSortByKey(pairs.get(), scratch.get(), m);

    // Write the keys and the gather order, optionally collecting the
    // distinct grid-cell ids at the requested level along the way.
    out.keys_.resize(m);
    rows.resize(m);
    const int collect_level = options.collect_cells_level;
    uint64_t last_cell = 0;
    for (size_t i = 0; i < m; ++i) {
      const uint64_t key = sorted[i].key;
      out.keys_[i] = key;
      rows[i] = sorted[i].row;
      if (collect_level >= 0) {
        const uint64_t cell_id = cell::CellId(key).Parent(collect_level).id();
        if (cell_id != last_cell) {
          out.collected_cells_.push_back(cell_id);
          last_cell = cell_id;
        }
      }
    }
  }

  // Materialize the payload in sorted order, one array at a time.
  Gather(raw.xs(), rows, &out.xs_);
  Gather(raw.ys(), rows, &out.ys_);
  out.columns_.resize(raw.num_columns());
  for (size_t c = 0; c < raw.num_columns(); ++c) {
    Gather(raw.column(c), rows, &out.columns_[c]);
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
