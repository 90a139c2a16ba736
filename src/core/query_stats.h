#pragma once

#include <algorithm>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <vector>

#include "cell/cell_id.h"

namespace geoblocks::core {

/// Workload statistics used to decide which areas are worth caching
/// (Section 3.6, "Determining Relevant Aggregates"): for each query cell
/// that intersects the GeoBlock we track how often it was queried.
/// GeoBlockQC records only cells at least two levels coarser than the
/// block level: a block-level cell is one stored aggregate and its parent
/// at most four, which no cache entry can answer more cheaply, so neither
/// is ever ranked or cached.
///
/// ## Concurrency model
///
/// `Record` sits on the lock-free cached read path (GeoBlockQC), so the
/// store is a fixed-size, open-addressed table of atomic slots instead of
/// an `unordered_map`: each slot is a (cell id, hit count) pair of relaxed
/// atomics, claimed once with a CAS on the key and bumped with a single
/// `fetch_add` afterwards — no locks, no allocation, no rehashing, ever.
///
/// Beside the table sits the *claimed-slot list*, a preallocated array
/// with one entry per slot: the `Record` whose CAS claims a slot appends
/// that slot's index with one relaxed `fetch_add` and one release store.
/// Everything that enumerates the recorded cells (`ForEachCell`,
/// `RankedCells`, `num_distinct_cells`) walks that list, so it costs
/// O(claimed cells) rather than a scan of all `capacity()` slots — a shard
/// typically claims a few hundred of the 16384 default slots.
///
/// The table is *lossy but bounded*: when a cell cannot claim a slot
/// within the probe window (the table is effectively full for its
/// neighborhood), the record is dropped and counted in `dropped()` instead
/// of blocking or resizing. Dropping only makes the cache ranking slightly
/// less informed; it never affects query answers. With the default
/// capacity (16384 slots ≈ 256 KiB plus a 64 KiB claimed-slot list)
/// realistic per-shard workloads never come close to the bound.
///
/// Readers (`HitsFor`, `RankedCells`, ...) may run concurrently with any
/// number of recorders. They observe a *point-in-time-ish* state: counts
/// are monotone between `Clear` calls, every `Record` that happened-before
/// the read is visible, and concurrent increments (or a claim whose list
/// entry is not yet stored) may or may not be — the exact guarantee a
/// periodic cache-rebuild ranking needs. `Clear` may race with recorders,
/// but then records landing mid-clear can be lost or even credited to
/// whichever cell re-claims the slot (a stalled recorder's increment
/// landing after the wipe), and a stale list entry can list a re-claimed
/// slot twice; all of these only perturb the ranking heuristic. Quiesce
/// recorders around `Clear` when exact counts matter.
class QueryStats {
 public:
  /// Default slot count (power of two): 16384 slots * 16 bytes = 256 KiB.
  static constexpr size_t kDefaultCapacity = size_t{1} << 14;
  /// Linear-probe window; a Record that finds no free or matching slot
  /// within it is dropped (bounded worst-case cost per record).
  static constexpr size_t kMaxProbes = 64;

  /// One recorded cell with its ranking score.
  struct ScoredCell {
    cell::CellId cell;
    uint32_t score = 0;  ///< own hits plus parent hits (see Score)

    /// The ranking's total order: descending score, then ascending level
    /// (coarser first), then ascending spatial key.
    ///
    /// @return True when `a` ranks before `b`.
    static bool Before(const ScoredCell& a, const ScoredCell& b) {
      if (a.score != b.score) return a.score > b.score;
      if (a.cell.level() != b.cell.level()) {
        return a.cell.level() < b.cell.level();
      }
      return a.cell < b.cell;
    }
  };

  /// @param capacity Slot count; rounded up to a power of two, min 4,
  ///     max 2^31 (the claimed-slot list stores 32-bit slot numbers).
  explicit QueryStats(size_t capacity = kDefaultCapacity);

  QueryStats(const QueryStats&) = delete;
  QueryStats& operator=(const QueryStats&) = delete;

  /// Records one occurrence of a query (covering) cell. Lock-free and
  /// allocation-free: at most kMaxProbes relaxed probes plus one CAS and a
  /// claimed-slot list append (first sighting of a cell) or one relaxed
  /// `fetch_add` (every later one).
  /// Thread-safe against any mix of concurrent Record and reader calls.
  void Record(cell::CellId cell);

  /// @param cell The cell to look up.
  /// @return Hits recorded for exactly `cell` (0 when never seen or
  ///     dropped). Safe to call concurrently with recorders.
  uint32_t HitsFor(cell::CellId cell) const;

  /// Score of a cell: its own hits plus its parent's hits — child cells can
  /// be used to speed up queries for parent cells.
  ///
  /// @param cell The cell to score.
  /// @return The ranking score (own hits + parent hits).
  uint32_t Score(cell::CellId cell) const {
    uint32_t s = HitsFor(cell);
    if (cell.level() > 0) s += HitsFor(cell.Parent());
    return s;
  }

  /// Calls `fn(ScoredCell)` once for every recorded cell, in claim order,
  /// walking the claimed-slot list: O(claimed cells) probes, no
  /// allocation. Safe concurrently with recorders (see the class comment).
  template <typename Fn>
  void ForEachCell(Fn&& fn) const {
    const size_t n =
        std::min(num_claimed_.load(std::memory_order_acquire), capacity_);
    for (size_t p = 0; p < n; ++p) {
      // 0 = the claimer has not stored its entry yet.
      const uint32_t entry = claimed_[p].load(std::memory_order_acquire);
      if (entry == 0) continue;
      const Slot& slot = slots_[entry - 1];
      const uint64_t key = slot.key.load(std::memory_order_acquire);
      if (key == 0) continue;  // wiped by a racing Clear
      // Own hits come from the slot in hand: a claimed key holds exactly
      // one slot.
      const cell::CellId c(key);
      uint32_t score = slot.hits.load(std::memory_order_relaxed);
      if (c.level() > 0) score += HitsFor(c.Parent());
      fn(ScoredCell{c, score});
    }
  }

  /// All recorded cells ordered by ScoredCell::Before — the deterministic
  /// ranking of Section 3.6. The comparison key is a total order, so the
  /// ranking does not depend on slot placement or claim order; concurrent
  /// recorders make the snapshot point-in-time-ish but never
  /// non-deterministic for a quiesced table.
  ///
  /// @return Ranked distinct cells (a snapshot; never contains duplicates
  ///     unless a Clear raced with recorders).
  std::vector<cell::CellId> RankedCells() const;

  /// @return Number of distinct cells currently holding a slot.
  size_t num_distinct_cells() const;

  /// @return Records dropped because no slot was claimable within the
  ///     probe window (the lossy-overflow counter).
  uint64_t dropped() const {
    return dropped_.load(std::memory_order_relaxed);
  }

  /// @return Slot capacity of the table.
  size_t capacity() const { return capacity_; }

  /// Zeroes every slot, the claimed-slot list and the drop counter.
  /// Memory-safe while recorders are running, but records racing with the
  /// wipe may be lost or misattributed (see the class comment); quiesce
  /// recorders first when exact counts matter.
  void Clear();

 private:
  /// One open-addressed table slot. `key` is the cell id (0 = free; cell
  /// ids are never 0 for valid cells) and is claimed exactly once; `hits`
  /// is only ever incremented after the key is visible.
  struct Slot {
    std::atomic<uint64_t> key{0};
    std::atomic<uint32_t> hits{0};
  };

  static uint64_t Mix(uint64_t key);

  size_t capacity_ = 0;           ///< power of two
  size_t mask_ = 0;               ///< capacity_ - 1
  std::unique_ptr<Slot[]> slots_;
  /// The claimed-slot list: entry p is 1 + the index of the p-th claimed
  /// slot (0 = not yet stored). A slot is claimed at most once between
  /// Clears, so capacity_ entries always suffice.
  std::unique_ptr<std::atomic<uint32_t>[]> claimed_;
  std::atomic<size_t> num_claimed_{0};  ///< list entries handed out
  std::atomic<uint64_t> dropped_{0};
};

}  // namespace geoblocks::core
