#include "storage/sharded_dataset.h"

#include <algorithm>
#include <span>
#include <stdexcept>
#include <string>

namespace geoblocks::storage {

namespace {

void ValidateOptions(const ShardOptions& options) {
  if (options.num_shards == 0) {
    throw std::invalid_argument(
        "ShardOptions::num_shards must be >= 1, got 0");
  }
  if (options.align_level < 0 ||
      options.align_level > cell::CellId::kMaxLevel) {
    throw std::invalid_argument(
        "ShardOptions::align_level must be in [0, " +
        std::to_string(cell::CellId::kMaxLevel) + "], got " +
        std::to_string(options.align_level));
  }
}

/// Number of rows in [begin, end) whose key lies in another cell than the
/// previous row's key, where two keys share a cell iff `(a ^ b) >> shift`
/// is zero. Requires begin >= 1.
size_t CellStarts(std::span<const uint64_t> keys, size_t begin, size_t end,
                  int shift) {
  size_t starts = 0;
  for (size_t r = begin; r < end; ++r) {
    starts += ((keys[r] ^ keys[r - 1]) >> shift) != 0;
  }
  return starts;
}

}  // namespace

size_t ShardForKey(std::span<const uint64_t> boundaries, uint64_t key) {
  // boundaries[i] is the first key shard i may contain; the owner is the
  // last shard whose boundary is <= key. upper_bound lands one past it.
  const auto it =
      std::upper_bound(boundaries.begin(), boundaries.end(), key);
  const size_t k = boundaries.size() - 1;  // shard count
  if (it == boundaries.begin()) return 0;  // key below the first boundary
  const size_t idx = static_cast<size_t>(it - boundaries.begin()) - 1;
  return idx < k ? idx : k - 1;
}

ShardedDataset ShardedDataset::Partition(
    std::shared_ptr<const SortedDataset> data, const ShardOptions& options) {
  ValidateOptions(options);
  if (data == nullptr) {
    throw std::invalid_argument("ShardedDataset::Partition: null dataset");
  }
  ShardedDataset out;
  out.parent_ = std::move(data);
  out.align_level_ = options.align_level;
  const SortedDataset& parent = *out.parent_;
  const size_t k = options.num_shards;
  const std::span<const uint64_t> keys = parent.keys();
  const size_t n = keys.size();

  // Shard i holds cell ranks [i*C/K, (i+1)*C/K) of the C distinct
  // align-level cells, so floor(C/K) or ceil(C/K) of them: its block's
  // bytes, governor charge and cache budget all scale with that count, not
  // with its rows. Each start is the first row of its cell, so no cell
  // aggregate straddles two shards. With C < K some ranges are empty and
  // keep their index.
  //
  // One pass counts the cells that start in each chunk of kChunk rows;
  // each cut then skips whole chunks and walks only the rows of the chunk
  // that holds its cell's start, so the keys are read about once.
  //
  // Two leaf keys lie in the same align-level cell iff they agree on every
  // bit above that level's lsb (CellId::LsbForLevel).
  const int shift = 2 * (cell::CellId::kMaxLevel - options.align_level) + 1;
  constexpr size_t kChunk = 1024;
  std::vector<size_t> chunk_cells((n + kChunk - 1) / kChunk);
  size_t cells = 0;
  for (size_t c = 0; c < chunk_cells.size(); ++c) {
    const size_t begin = c * kChunk;
    const size_t end = std::min(n, begin + kChunk);
    // Row 0 starts the first cell.
    chunk_cells[c] = begin == 0 ? 1 + CellStarts(keys, 1, end, shift)
                                : CellStarts(keys, begin, end, shift);
    cells += chunk_cells[c];
  }
  std::vector<size_t> starts(k + 1, n);
  starts[0] = 0;
  size_t chunk = 0;
  size_t before_chunk = 0;  // cells that start before row chunk * kChunk
  size_t row = 0;
  size_t rank = 0;  // cells that start before `row`
  for (size_t i = 1; i < k && cells > 0; ++i) {
    const size_t target = i * cells / k;  // < cells: its start row exists
    while (before_chunk + chunk_cells[chunk] <= target) {
      before_chunk += chunk_cells[chunk++];
    }
    if (row < chunk * kChunk) {
      row = chunk * kChunk;
      rank = before_chunk;
    }
    for (;; ++row) {
      if (row == 0 || ((keys[row] ^ keys[row - 1]) >> shift) != 0) {
        if (rank == target) break;
        ++rank;
      }
    }
    starts[i] = row;
  }

  // Zero-copy cut: each shard is an (offset, length) view into the parent.
  out.views_.reserve(k);
  out.boundaries_.resize(k + 1);
  for (size_t i = 0; i < k; ++i) {
    out.views_.push_back(
        DatasetView::Window(out.parent_, starts[i], starts[i + 1]));
    // Key-space boundary of the shard: the first key it may contain. The
    // first shard starts at 0; later shards start at their align-cell's
    // RangeMin (or the end of the key space when the shard is empty).
    if (i == 0) {
      out.boundaries_[0] = 0;
    } else if (starts[i] < n) {
      out.boundaries_[i] = cell::CellId(parent.keys()[starts[i]])
                               .Parent(options.align_level)
                               .RangeMin()
                               .id();
    } else {
      out.boundaries_[i] = ~uint64_t{0};
    }
  }
  out.boundaries_[k] = ~uint64_t{0};
  return out;
}

ShardedDataset ShardedDataset::Partition(SortedDataset&& data,
                                         const ShardOptions& options) {
  ValidateOptions(options);  // before the move: a throw must not eat `data`
  return Partition(std::make_shared<const SortedDataset>(std::move(data)),
                   options);
}

ShardedDataset ShardedDataset::Partition(const SortedDataset& data,
                                         const ShardOptions& options) {
  // Borrowed parent: DatasetView::Unowned already encapsulates the
  // non-owning aliasing-shared_ptr idiom; ownership stays with the caller.
  return Partition(DatasetView::Unowned(data).parent(), options);
}

}  // namespace geoblocks::storage
