#include "core/query_stats.h"

#include <algorithm>
#include <bit>

namespace geoblocks::core {

QueryStats::QueryStats(size_t capacity) {
  capacity_ = std::bit_ceil(std::max<size_t>(capacity, 4));
  mask_ = capacity_ - 1;
  slots_ = std::make_unique<Slot[]>(capacity_);
}

uint64_t QueryStats::Mix(uint64_t key) {
  // splitmix64 finalizer: full-avalanche mix so consecutive Hilbert keys
  // spread across the table instead of clustering one probe neighborhood.
  key ^= key >> 30;
  key *= 0xbf58476d1ce4e5b9ULL;
  key ^= key >> 27;
  key *= 0x94d049bb133111ebULL;
  key ^= key >> 31;
  return key;
}

void QueryStats::Record(cell::CellId cell) {
  const uint64_t key = cell.id();
  const size_t probes = std::min(kMaxProbes, capacity_);
  size_t idx = static_cast<size_t>(Mix(key)) & mask_;
  for (size_t p = 0; p < probes; ++p, idx = (idx + 1) & mask_) {
    Slot& slot = slots_[idx];
    uint64_t seen = slot.key.load(std::memory_order_acquire);
    if (seen == 0) {
      // Free slot: claim it. A losing CAS leaves the winner's key in
      // `seen`, which may be ours (another thread recorded the same cell).
      if (slot.key.compare_exchange_strong(seen, key,
                                           std::memory_order_acq_rel,
                                           std::memory_order_acquire)) {
        seen = key;
      }
    }
    if (seen == key) {
      slot.hits.fetch_add(1, std::memory_order_relaxed);
      return;
    }
  }
  // No claimable slot in the probe window: drop, bounded-cost (lossy).
  dropped_.fetch_add(1, std::memory_order_relaxed);
}

uint32_t QueryStats::HitsFor(cell::CellId cell) const {
  const uint64_t key = cell.id();
  const size_t probes = std::min(kMaxProbes, capacity_);
  size_t idx = static_cast<size_t>(Mix(key)) & mask_;
  for (size_t p = 0; p < probes; ++p, idx = (idx + 1) & mask_) {
    const Slot& slot = slots_[idx];
    const uint64_t seen = slot.key.load(std::memory_order_acquire);
    if (seen == key) return slot.hits.load(std::memory_order_relaxed);
    if (seen == 0) return 0;  // keys are never unclaimed mid-probe chain
  }
  return 0;
}

std::vector<cell::CellId> QueryStats::RankedCells() const {
  struct Entry {
    cell::CellId cell;
    uint32_t score;
    int level;
  };
  std::vector<Entry> entries;
  for (size_t i = 0; i < capacity_; ++i) {
    const uint64_t key = slots_[i].key.load(std::memory_order_acquire);
    if (key == 0) continue;
    // Score (own hits + parent hits) with the own hits read from the slot
    // in hand: a claimed key holds exactly one slot.
    const cell::CellId c(key);
    uint32_t score = slots_[i].hits.load(std::memory_order_relaxed);
    if (c.level() > 0) score += HitsFor(c.Parent());
    entries.push_back({c, score, c.level()});
  }
  std::sort(entries.begin(), entries.end(), [](const Entry& a, const Entry& b) {
    if (a.score != b.score) return a.score > b.score;
    if (a.level != b.level) return a.level < b.level;
    return a.cell < b.cell;
  });
  std::vector<cell::CellId> out;
  out.reserve(entries.size());
  for (const Entry& e : entries) out.push_back(e.cell);
  return out;
}

size_t QueryStats::num_distinct_cells() const {
  size_t n = 0;
  for (size_t i = 0; i < capacity_; ++i) {
    if (slots_[i].key.load(std::memory_order_acquire) != 0) ++n;
  }
  return n;
}

void QueryStats::Clear() {
  for (size_t i = 0; i < capacity_; ++i) {
    // Key first: a racing Record re-claims a fresh slot instead of
    // incrementing one whose count is about to be wiped.
    slots_[i].key.store(0, std::memory_order_release);
    slots_[i].hits.store(0, std::memory_order_release);
  }
  dropped_.store(0, std::memory_order_relaxed);
}

}  // namespace geoblocks::core
