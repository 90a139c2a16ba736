#include "core/query_stats.h"

#include <algorithm>
#include <bit>

namespace geoblocks::core {

QueryStats::QueryStats(size_t capacity) {
  capacity_ =
      std::bit_ceil(std::clamp<size_t>(capacity, 4, size_t{1} << 31));
  mask_ = capacity_ - 1;
  slots_ = std::make_unique<Slot[]>(capacity_);
  claimed_ = std::make_unique<std::atomic<uint32_t>[]>(capacity_);
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
        // List the claimed slot. Positions never run past capacity_
        // between Clears (each slot is claimed once); the bound only
        // guards a Clear racing with claims.
        const size_t pos =
            num_claimed_.fetch_add(1, std::memory_order_relaxed);
        if (pos < capacity_) {
          claimed_[pos].store(static_cast<uint32_t>(idx + 1),
                              std::memory_order_release);
        }
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
  std::vector<ScoredCell> entries;
  ForEachCell([&entries](const ScoredCell& c) { entries.push_back(c); });
  std::sort(entries.begin(), entries.end(), ScoredCell::Before);
  std::vector<cell::CellId> out;
  out.reserve(entries.size());
  for (const ScoredCell& e : entries) out.push_back(e.cell);
  return out;
}

size_t QueryStats::num_distinct_cells() const {
  size_t n = 0;
  ForEachCell([&n](const ScoredCell&) { ++n; });
  return n;
}

void QueryStats::Clear() {
  // The list before the slots: a slot claimed after its wipe below then
  // lists itself past the reset (its CAS read the wipe), so no live slot
  // can lose its entry to this Clear.
  const size_t listed =
      std::min(num_claimed_.load(std::memory_order_relaxed), capacity_);
  for (size_t p = 0; p < listed; ++p) {
    claimed_[p].store(0, std::memory_order_relaxed);
  }
  num_claimed_.store(0, std::memory_order_release);
  for (size_t i = 0; i < capacity_; ++i) {
    // Key first: a racing Record re-claims a fresh slot instead of
    // incrementing one whose count is about to be wiped.
    slots_[i].key.store(0, std::memory_order_release);
    slots_[i].hits.store(0, std::memory_order_release);
  }
  dropped_.store(0, std::memory_order_relaxed);
}

}  // namespace geoblocks::core
