#include "core/memory_governor.h"

#include <algorithm>
#include <tuple>
#include <utility>

namespace geoblocks::core {

MemoryGovernor::EntryHandle MemoryGovernor::Register(
    std::string name, std::function<size_t()> size,
    std::function<bool()> evict) {
  auto entry = std::make_shared<Entry>();
  entry->name_ = std::move(name);
  entry->size_ = std::move(size);
  entry->evict_ = std::move(evict);
  UpdateCharge(entry);
  std::lock_guard<std::mutex> lock(mu_);
  entries_.push_back(entry);
  return entry;
}

void MemoryGovernor::Unregister(const EntryHandle& entry) {
  if (entry == nullptr) return;
  {
    std::lock_guard<std::mutex> lock(mu_);
    entries_.erase(std::remove(entries_.begin(), entries_.end(), entry),
                   entries_.end());
  }
  // Wait out an in-flight evict callback, then drop the entry's charge
  // and its captured callbacks so the owner can die.
  std::lock_guard<std::mutex> cb(entry->cb_mu_);
  entry->registered_ = false;
  const size_t old = entry->charge_.exchange(0, std::memory_order_relaxed);
  resident_.fetch_sub(old, std::memory_order_relaxed);
  entry->size_ = nullptr;
  entry->evict_ = nullptr;
}

void MemoryGovernor::UpdateCharge(const EntryHandle& entry) {
  size_t now = 0;
  {
    std::lock_guard<std::mutex> cb(entry->cb_mu_);
    if (entry->registered_ && entry->size_) now = entry->size_();
  }
  const size_t old = entry->charge_.exchange(now, std::memory_order_relaxed);
  // size_t arithmetic wraps correctly for the negative-delta case.
  resident_.fetch_add(now - old, std::memory_order_relaxed);
}

void MemoryGovernor::EnsureBudget() {
  const size_t budget = budget_.load(std::memory_order_relaxed);
  if (budget == 0) return;
  if (resident_.load(std::memory_order_relaxed) <= budget) return;
  if (rebalancing_.exchange(true, std::memory_order_acq_rel)) return;

  std::vector<EntryHandle> candidates;
  {
    std::lock_guard<std::mutex> lock(mu_);
    candidates = entries_;
  }
  // Refresh every charge first: sizes drift between scans (trie rebuilds
  // grow, commits add cells) and stale charges would mis-rank victims.
  for (const EntryHandle& e : candidates) UpdateCharge(e);

  if (resident_.load(std::memory_order_relaxed) > budget &&
      !candidates.empty()) {
    // Bucketed LRU with hit-count cost tie-break; strict recency breaks
    // the final tie so the order is total. Each key is read once before
    // sorting: readers keep touching entries meanwhile, and a comparator
    // over live atomics is no strict weak ordering (std::sort may then
    // run off the range).
    using RankKey = std::tuple<uint64_t, uint64_t, uint64_t>;
    std::vector<std::pair<RankKey, EntryHandle>> ranked;
    ranked.reserve(candidates.size());
    for (EntryHandle& e : candidates) {
      const uint64_t last = e->last_access_.load(std::memory_order_relaxed);
      ranked.emplace_back(RankKey{last / kRecencyBucket, e->hits(), last},
                          std::move(e));
    }
    std::sort(ranked.begin(), ranked.end(),
              [](const auto& a, const auto& b) { return a.first < b.first; });
    for (size_t i = 0; i < ranked.size(); ++i) {
      candidates[i] = std::move(ranked[i].second);
    }
    // Never evict the most recently touched entry: when the budget is
    // smaller than one hot shard, the alternative is fault-evict
    // ping-pong on exactly the shard the current query needs.
    const EntryHandle mru = candidates.back();

    for (const EntryHandle& e : candidates) {
      if (resident_.load(std::memory_order_relaxed) <= budget) break;
      if (e == mru) continue;
      if (e->charge() == 0) continue;  // nothing to reclaim
      bool evicted = false;
      {
        std::lock_guard<std::mutex> cb(e->cb_mu_);
        if (!e->registered_ || !e->evict_) continue;
        evicted = e->evict_();
      }
      if (evicted) {
        evictions_.fetch_add(1, std::memory_order_relaxed);
        UpdateCharge(e);
      } else {
        refusals_.fetch_add(1, std::memory_order_relaxed);
      }
    }
  }
  rebalancing_.store(false, std::memory_order_release);
}

MemoryGovernor::Stats MemoryGovernor::stats() const {
  Stats s;
  s.budget_bytes = budget_.load(std::memory_order_relaxed);
  s.resident_bytes = resident_.load(std::memory_order_relaxed);
  s.evictions = evictions_.load(std::memory_order_relaxed);
  s.faults = faults_.load(std::memory_order_relaxed);
  s.refusals = refusals_.load(std::memory_order_relaxed);
  std::lock_guard<std::mutex> lock(mu_);
  s.entries = entries_.size();
  return s;
}

}  // namespace geoblocks::core
