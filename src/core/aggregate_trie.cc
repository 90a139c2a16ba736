#include "core/aggregate_trie.h"

#include <cstring>
#include <utility>

namespace geoblocks::core {

namespace {

/// One 4-node child block of the trie under construction (Build phase 1).
/// Block 0 is a pseudo block whose slot 0 is the root.
struct PendingBlock {
  uint32_t child[4] = {};   ///< each slot's own child block; 0 = none
  uint32_t cached[4] = {};  ///< 1 + index of the slot's cached cell; 0 = none
};

}  // namespace

uint32_t AggregateTrie::ReadU32(size_t offset) const {
  uint32_t v;
  std::memcpy(&v, arena_.data() + offset, sizeof(v));
  return v;
}

void AggregateTrie::WriteU32(size_t offset, uint32_t value) {
  std::memcpy(arena_.data() + offset, &value, sizeof(value));
}

cell::CellId AggregateTrie::RootFor(const BlockState& state) {
  if (state.num_cells() == 0) return cell::CellId();
  // The root encloses the block's input data (Section 3.6).
  return cell::CellId::CommonAncestor(cell::CellId(state.header.min_cell),
                                      cell::CellId(state.header.max_cell));
}

AggregateTrie::BuildResult AggregateTrie::Build(
    const BlockState& state, const std::vector<cell::CellId>& ranked,
    size_t byte_budget, const AggregateTrie* previous) {
  arena_.clear();
  num_cached_ = 0;
  num_columns_ = state.num_columns;
  root_cell_ = RootFor(state);
  if (state.num_cells() == 0) return {};

  // Phase 1: decide the cached set under the budget. The trie under
  // construction mirrors the arena: a table of 4-node child blocks
  // addressed by index. A candidate descends from the root while child
  // blocks exist — array loads, no hashing — and every level below the
  // deepest one reached costs one new 32-byte block.
  std::vector<PendingBlock> blocks(1);
  std::vector<cell::CellId> cached;
  size_t bytes = 8 + kNodeBytes;  // reserved header + root node
  for (const cell::CellId& cand : ranked) {
    if (!root_cell_.Contains(cand)) continue;
    uint32_t b = 0;
    int pos = 0;
    int level = root_cell_.level();
    while (level < cand.level() && blocks[b].child[pos] != 0) {
      b = blocks[b].child[pos];
      ++level;
      pos = cand.Parent(level).ChildPosition();
    }
    if (level == cand.level() && blocks[b].cached[pos] != 0) continue;
    const size_t new_blocks = static_cast<size_t>(cand.level() - level);
    const size_t added = new_blocks * kBlockBytes + AggBytes();
    if (bytes + added > byte_budget) break;  // reserved area is filled
    bytes += added;
    for (; level < cand.level(); ++level) {
      const uint32_t nb = static_cast<uint32_t>(blocks.size());
      blocks[b].child[pos] = nb;
      blocks.emplace_back();
      b = nb;
      pos = cand.Parent(level + 1).ChildPosition();
    }
    cached.push_back(cand);
    blocks[b].cached[pos] = static_cast<uint32_t>(cached.size());
  }

  // Phase 2: serialize in one breadth-first pass over the pending blocks:
  // child blocks are laid out directly after the root in the order their
  // parent nodes are visited, and aggregates follow the node region in
  // the order their nodes are visited.
  const size_t node_region_end =
      8 + kNodeBytes + (blocks.size() - 1) * kBlockBytes;
  arena_.assign(node_region_end + cached.size() * AggBytes(), 0);
  // (pending block, arena offset of its first node); the root is alone in
  // block 0, at the root offset.
  std::vector<std::pair<uint32_t, uint32_t>> queue;
  queue.reserve(blocks.size());
  queue.emplace_back(0, kRootOffset);
  size_t next_agg = node_region_end;
  for (size_t r = 0; r < queue.size(); ++r) {
    const auto [b, offset] = queue[r];
    for (int k = 0; k < 4; ++k) {
      const size_t node = offset + static_cast<size_t>(k) * kNodeBytes;
      if (blocks[b].child[k] != 0) {
        const uint32_t block_offset = static_cast<uint32_t>(
            8 + kNodeBytes + (queue.size() - 1) * kBlockBytes);
        WriteU32(node, block_offset);
        queue.emplace_back(blocks[b].child[k], block_offset);
      }
      if (blocks[b].cached[k] == 0) continue;
      const cell::CellId cell = cached[blocks[b].cached[k] - 1];
      uint8_t* dst = arena_.data() + next_agg;
      const uint8_t* prev_agg =
          previous != nullptr ? previous->Lookup(cell).agg : nullptr;
      if (prev_agg != nullptr) {
        // Cheap refresh: the cell was already cached; its payload is
        // unchanged (update commits patch the published trie in the same
        // writer critical section that publishes the block state, so the
        // previous trie is always consistent with the pinned state).
        std::memcpy(dst, prev_agg, AggBytes());
      } else {
        const AggregateVector agg = state.AggregateForCell(cell);
        std::memcpy(dst, &agg.count, sizeof(uint64_t));
        dst += sizeof(uint64_t);
        for (size_t c = 0; c < num_columns_; ++c) {
          std::memcpy(dst, &agg.columns[c], 3 * sizeof(double));
          dst += 3 * sizeof(double);
        }
      }
      WriteU32(node + 4, static_cast<uint32_t>(next_agg));
      next_agg += AggBytes();
    }
  }
  num_cached_ = cached.size();

  return {num_cached_, arena_.size()};
}

AggregateTrie::Probe AggregateTrie::Lookup(cell::CellId cell) const {
  Probe probe;
  if (arena_.empty() || !root_cell_.is_valid()) return probe;
  if (!root_cell_.Contains(cell)) return probe;
  uint32_t offset = kRootOffset;
  for (int l = root_cell_.level() + 1; l <= cell.level(); ++l) {
    const uint32_t child_block = ReadU32(offset);
    if (child_block == 0) return probe;  // no node for this cell
    const int k = cell.Parent(l).ChildPosition();
    offset = child_block + static_cast<uint32_t>(k) * kNodeBytes;
  }
  // A zeroed slot in an allocated block means the child node was never
  // created ("n/a" in Figure 7).
  if (ReadU32(offset) == 0 && ReadU32(offset + 4) == 0 &&
      cell != root_cell_) {
    return probe;
  }
  probe.node_exists = true;
  probe.node_offset = offset;
  const uint32_t agg_offset = ReadU32(offset + 4);
  if (agg_offset != 0) probe.agg = arena_.data() + agg_offset;
  return probe;
}

std::array<AggregateTrie::ChildInfo, 4> AggregateTrie::DirectChildren(
    uint32_t node_offset) const {
  std::array<ChildInfo, 4> out;
  const uint32_t child_block = ReadU32(node_offset);
  if (child_block == 0) return out;
  for (int k = 0; k < 4; ++k) {
    const uint32_t off = child_block + static_cast<uint32_t>(k) * kNodeBytes;
    const uint32_t child_ptr = ReadU32(off);
    const uint32_t agg_ptr = ReadU32(off + 4);
    out[k].exists = child_ptr != 0 || agg_ptr != 0;
    if (agg_ptr != 0) out[k].agg = arena_.data() + agg_ptr;
  }
  return out;
}

void AggregateTrie::Combine(const uint8_t* agg, Accumulator* acc) const {
  uint64_t count;
  std::memcpy(&count, agg, sizeof(count));
  // The (min, max, sum) triples are layout-compatible with ColumnAggregate;
  // copy them out to keep the access well-defined.
  thread_local std::vector<ColumnAggregate> scratch;
  scratch.resize(num_columns_);
  std::memcpy(scratch.data(), agg + sizeof(uint64_t),
              num_columns_ * 3 * sizeof(double));
  acc->AddAggregate(count, scratch.data());
}

size_t AggregateTrie::ApplyTupleUpdate(cell::CellId leaf,
                                       const double* values) {
  if (arena_.empty() || !root_cell_.is_valid()) return 0;
  if (!root_cell_.Contains(leaf)) return 0;
  size_t updated = 0;
  uint32_t offset = kRootOffset;
  // Walk from the root towards the leaf, patching every cached aggregate
  // along the path (each such cell contains the new tuple).
  for (int level = root_cell_.level();; ++level) {
    const uint32_t agg_offset = ReadU32(offset + 4);
    if (agg_offset != 0) {
      uint8_t* agg = arena_.data() + agg_offset;
      uint64_t count;
      std::memcpy(&count, agg, sizeof(count));
      ++count;
      std::memcpy(agg, &count, sizeof(count));
      for (size_t c = 0; c < num_columns_; ++c) {
        ColumnAggregate col;
        std::memcpy(&col, agg + 8 + c * 24, sizeof(col));
        col.Add(values[c]);
        std::memcpy(agg + 8 + c * 24, &col, sizeof(col));
      }
      ++updated;
    }
    if (level >= cell::CellId::kMaxLevel) break;
    const uint32_t child_block = ReadU32(offset);
    if (child_block == 0) break;
    const int k = leaf.Parent(level + 1).ChildPosition();
    offset = child_block + static_cast<uint32_t>(k) * kNodeBytes;
    if (ReadU32(offset) == 0 && ReadU32(offset + 4) == 0) break;  // n/a slot
  }
  return updated;
}

uint64_t AggregateTrie::CachedCount(const uint8_t* agg) {
  uint64_t count;
  std::memcpy(&count, agg, sizeof(count));
  return count;
}

}  // namespace geoblocks::core
