#pragma once

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
/// GeoBlockQC records only cells coarser than the block level: a
/// block-level cell is one stored aggregate, which no trie entry can
/// answer more cheaply, so it is never ranked or cached.
///
/// ## Concurrency model
///
/// `Record` sits on the lock-free cached read path (GeoBlockQC), so the
/// store is a fixed-size, open-addressed table of atomic slots instead of
/// an `unordered_map`: each slot is a (cell id, hit count) pair of relaxed
/// atomics, claimed once with a CAS on the key and bumped with a single
/// `fetch_add` afterwards — no locks, no allocation, no rehashing, ever.
///
/// The table is *lossy but bounded*: when a cell cannot claim a slot
/// within the probe window (the table is effectively full for its
/// neighborhood), the record is dropped and counted in `dropped()` instead
/// of blocking or resizing. Dropping only makes the cache ranking slightly
/// less informed; it never affects query answers. With the default
/// capacity (16384 slots ≈ 256 KiB) realistic per-shard workloads never
/// come close to the bound.
///
/// Readers (`HitsFor`, `RankedCells`, ...) may run concurrently with any
/// number of recorders. They observe a *point-in-time-ish* state: counts
/// are monotone between `Clear` calls, every `Record` that happened-before
/// the read is visible, and concurrent increments may or may not be — the
/// exact guarantee a periodic cache-rebuild ranking needs. `Clear` may
/// race with recorders, but then records landing mid-clear can be lost or
/// even credited to whichever cell re-claims the slot (a stalled
/// recorder's increment landing after the wipe); both only perturb the
/// ranking heuristic. Quiesce recorders around `Clear` when exact counts
/// matter.
class QueryStats {
 public:
  /// Default slot count (power of two): 16384 slots * 16 bytes = 256 KiB.
  static constexpr size_t kDefaultCapacity = size_t{1} << 14;
  /// Linear-probe window; a Record that finds no free or matching slot
  /// within it is dropped (bounded worst-case cost per record).
  static constexpr size_t kMaxProbes = 64;

  /// @param capacity Slot count; rounded up to a power of two, min 4.
  explicit QueryStats(size_t capacity = kDefaultCapacity);

  QueryStats(const QueryStats&) = delete;
  QueryStats& operator=(const QueryStats&) = delete;

  /// Records one occurrence of a query (covering) cell. Lock-free and
  /// allocation-free: at most kMaxProbes relaxed probes plus one CAS (first
  /// sighting of a cell) or one relaxed `fetch_add` (every later one).
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

  /// All recorded cells ordered by descending score, then ascending level
  /// (coarser first), then ascending spatial key — the deterministic
  /// ranking of Section 3.6. The comparison key is a total order, so the
  /// ranking does not depend on slot placement; concurrent recorders make
  /// the snapshot point-in-time-ish but never non-deterministic for a
  /// quiesced table.
  ///
  /// @return Ranked distinct cells (a snapshot; never contains duplicates).
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

  /// Zeroes every slot and the drop counter. Memory-safe while recorders
  /// are running, but records racing with the wipe may be lost or
  /// misattributed (see the class comment); quiesce recorders first when
  /// exact counts matter.
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
  std::atomic<uint64_t> dropped_{0};
};

}  // namespace geoblocks::core
