#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <random>
#include <thread>
#include <vector>

#include "core/query_stats.h"

namespace geoblocks::core {
namespace {

cell::CellId CellAt(double x, double y, int level) {
  return cell::CellId::FromPoint({x, y}).Parent(level);
}

/// The ranking a scan of every slot would produce: each candidate that
/// holds a slot (HitsFor > 0), scored and sorted by the ranking order.
std::vector<cell::CellId> FullScanRanking(
    const QueryStats& stats, const std::vector<cell::CellId>& candidates) {
  std::vector<QueryStats::ScoredCell> held;
  for (const cell::CellId& c : candidates) {
    if (stats.HitsFor(c) > 0) held.push_back({c, stats.Score(c)});
  }
  std::sort(held.begin(), held.end(), QueryStats::ScoredCell::Before);
  held.erase(std::unique(held.begin(), held.end(),
                         [](const QueryStats::ScoredCell& a,
                            const QueryStats::ScoredCell& b) {
                           return a.cell == b.cell;
                         }),
             held.end());
  std::vector<cell::CellId> out;
  for (const QueryStats::ScoredCell& e : held) out.push_back(e.cell);
  return out;
}

/// `n` cells over several levels, parents and children mixed in.
std::vector<cell::CellId> MixedCells(size_t n, uint64_t seed) {
  std::mt19937_64 rng(seed);
  std::uniform_real_distribution<double> u(0.0, 1.0);
  std::vector<cell::CellId> cells;
  for (size_t i = 0; i < n; ++i) {
    const cell::CellId c = CellAt(u(rng), u(rng), 8 + static_cast<int>(i % 6));
    cells.push_back(c);
    if (i % 5 == 0) cells.push_back(c.Parent());
  }
  return cells;
}

TEST(QueryStatsTest, RecordAndHits) {
  QueryStats stats;
  const cell::CellId c = CellAt(0.3, 0.3, 10);
  EXPECT_EQ(stats.HitsFor(c), 0u);
  stats.Record(c);
  stats.Record(c);
  EXPECT_EQ(stats.HitsFor(c), 2u);
  EXPECT_EQ(stats.num_distinct_cells(), 1u);
}

TEST(QueryStatsTest, ScoreAddsParentHits) {
  QueryStats stats;
  const cell::CellId child = CellAt(0.3, 0.3, 10);
  const cell::CellId parent = child.Parent();
  stats.Record(child);
  stats.Record(parent);
  stats.Record(parent);
  // Child score: own hits (1) + parent hits (2).
  EXPECT_EQ(stats.Score(child), 3u);
  // Parent score: own hits (2) + grandparent hits (0).
  EXPECT_EQ(stats.Score(parent), 2u);
}

TEST(QueryStatsTest, RankingByScoreThenLevelThenKey) {
  QueryStats stats;
  const cell::CellId hot = CellAt(0.2, 0.2, 12);
  const cell::CellId warm = CellAt(0.7, 0.7, 12);
  const cell::CellId cold = CellAt(0.5, 0.1, 12);
  for (int i = 0; i < 5; ++i) stats.Record(hot);
  for (int i = 0; i < 3; ++i) stats.Record(warm);
  stats.Record(cold);
  const auto ranked = stats.RankedCells();
  ASSERT_EQ(ranked.size(), 3u);
  EXPECT_EQ(ranked[0], hot);
  EXPECT_EQ(ranked[1], warm);
  EXPECT_EQ(ranked[2], cold);
}

TEST(QueryStatsTest, TieBrokenByCoarserLevelFirst) {
  QueryStats stats;
  const cell::CellId fine = CellAt(0.4, 0.4, 14);
  const cell::CellId coarse = CellAt(0.8, 0.2, 9);
  stats.Record(fine);
  stats.Record(coarse);
  const auto ranked = stats.RankedCells();
  ASSERT_EQ(ranked.size(), 2u);
  EXPECT_EQ(ranked[0], coarse) << "coarser-grained cells come first";
  EXPECT_EQ(ranked[1], fine);
}

TEST(QueryStatsTest, TieBrokenBySpatialKey) {
  QueryStats stats;
  const cell::CellId a = CellAt(0.1, 0.1, 11);
  const cell::CellId b = CellAt(0.9, 0.9, 11);
  stats.Record(a);
  stats.Record(b);
  const auto ranked = stats.RankedCells();
  ASSERT_EQ(ranked.size(), 2u);
  EXPECT_LT(ranked[0].id(), ranked[1].id());
}

TEST(QueryStatsTest, DeterministicRanking) {
  QueryStats a;
  QueryStats b;
  for (int i = 0; i < 50; ++i) {
    const cell::CellId c = CellAt(0.01 * i, 0.02 * i, 8 + i % 8);
    for (int r = 0; r < i % 5; ++r) {
      a.Record(c);
      b.Record(c);
    }
  }
  EXPECT_EQ(a.RankedCells(), b.RankedCells());
}

TEST(QueryStatsTest, Clear) {
  QueryStats stats;
  stats.Record(CellAt(0.5, 0.5, 10));
  stats.Clear();
  EXPECT_EQ(stats.num_distinct_cells(), 0u);
  EXPECT_TRUE(stats.RankedCells().empty());
  EXPECT_EQ(stats.dropped(), 0u);
}

TEST(QueryStatsTest, CapacityRoundsUpToPowerOfTwo) {
  EXPECT_EQ(QueryStats(5).capacity(), 8u);
  EXPECT_EQ(QueryStats(16).capacity(), 16u);
  EXPECT_EQ(QueryStats(1).capacity(), 4u);
}

TEST(QueryStatsTest, OverflowIsLossyButBounded) {
  // A tiny table must drop records once full — never block, grow, or lose
  // counts for cells that did claim a slot.
  QueryStats stats(/*capacity=*/8);
  std::vector<cell::CellId> cells;
  for (int i = 0; i < 40; ++i) {
    cells.push_back(CellAt(0.02 * i + 0.01, 0.9 - 0.02 * i, 13));
    stats.Record(cells.back());
  }
  EXPECT_LE(stats.num_distinct_cells(), stats.capacity());
  EXPECT_GT(stats.dropped(), 0u);
  // Cells that hold a slot keep exact counts even at capacity.
  uint32_t claimed = 0;
  for (const cell::CellId& c : cells) {
    if (stats.HitsFor(c) > 0) {
      EXPECT_EQ(stats.HitsFor(c), 1u);
      ++claimed;
    }
  }
  EXPECT_EQ(claimed, stats.num_distinct_cells());
  // Established cells never hit the drop path again.
  const auto it = std::find_if(cells.begin(), cells.end(),
                               [&](cell::CellId c) {
                                 return stats.HitsFor(c) > 0;
                               });
  ASSERT_NE(it, cells.end());
  const uint64_t dropped_before = stats.dropped();
  stats.Record(*it);
  EXPECT_EQ(stats.dropped(), dropped_before);
  EXPECT_EQ(stats.HitsFor(*it), 2u);
}

TEST(QueryStatsTest, ConcurrentRecordsAreExactWhenTableFits) {
  // The lock-free table must not lose any increment under contention:
  // relaxed fetch_adds on claimed slots are exact.
  QueryStats stats;
  constexpr size_t kThreads = 4;
  constexpr size_t kPerThread = 5000;
  constexpr size_t kDistinct = 64;
  std::vector<cell::CellId> cells;
  for (size_t i = 0; i < kDistinct; ++i) {
    cells.push_back(CellAt(0.01 * (i % 10) + 0.005, 0.08 * (i / 10) + 0.04,
                           14));
  }
  std::vector<std::thread> threads;
  for (size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([&stats, &cells, t] {
      for (size_t i = 0; i < kPerThread; ++i) {
        stats.Record(cells[(i + t) % cells.size()]);
      }
    });
  }
  for (std::thread& t : threads) t.join();
  EXPECT_EQ(stats.dropped(), 0u);
  uint64_t total = 0;
  for (const cell::CellId& c : cells) total += stats.HitsFor(c);
  EXPECT_EQ(total, kThreads * kPerThread);
}

TEST(QueryStatsTest, RankedCellsIgnoresSlotPlacement) {
  // The ranking must be identical across different table capacities (and
  // thus completely different slot layouts): the sort key is a total
  // order over the recorded cells, not the table.
  QueryStats small(1 << 8);
  QueryStats large(1 << 14);
  for (int i = 0; i < 50; ++i) {
    const cell::CellId c = CellAt(0.02 * (i % 7) + 0.01,
                                  0.11 * (i % 9) + 0.02, 9 + i % 6);
    for (int r = 0; r <= i % 4; ++r) {
      small.Record(c);
      large.Record(c);
    }
  }
  ASSERT_EQ(small.dropped(), 0u);
  EXPECT_EQ(small.RankedCells(), large.RankedCells());
}

TEST(QueryStatsTest, ClaimedListMatchesFullScan) {
  // Several record/Clear rounds claim more slots in total than the table
  // has: each Clear must hand the whole list back.
  QueryStats stats(1 << 10);
  std::mt19937_64 rng(6);
  for (uint64_t round = 0; round < 6; ++round) {
    const std::vector<cell::CellId> cells = MixedCells(300, 5 + round);
    for (size_t i = 0; i < 3000; ++i) {
      stats.Record(cells[rng() % cells.size()]);
    }
    ASSERT_EQ(stats.dropped(), 0u);
    const std::vector<cell::CellId> want = FullScanRanking(stats, cells);
    ASSERT_GT(want.size(), 250u);
    EXPECT_EQ(stats.RankedCells(), want) << "round " << round;
    EXPECT_EQ(stats.num_distinct_cells(), want.size());
    stats.Clear();
    EXPECT_EQ(stats.num_distinct_cells(), 0u);
    EXPECT_TRUE(stats.RankedCells().empty());
  }
}

TEST(QueryStatsTest, ClaimedListMatchesFullScanUnderOverflow) {
  // A full table drops records; the list holds exactly the cells that did
  // claim a slot, each once.
  QueryStats stats(/*capacity=*/16);
  const std::vector<cell::CellId> cells = MixedCells(80, 8);
  for (int round = 0; round < 3; ++round) {
    for (const cell::CellId& c : cells) stats.Record(c);
  }
  ASSERT_GT(stats.dropped(), 0u);
  const std::vector<cell::CellId> want = FullScanRanking(stats, cells);
  EXPECT_EQ(want.size(), stats.capacity());
  EXPECT_EQ(stats.RankedCells(), want);
  EXPECT_EQ(stats.num_distinct_cells(), want.size());
}

TEST(QueryStatsTest, ForEachCellScoresLikeScore) {
  QueryStats stats;
  const std::vector<cell::CellId> cells = MixedCells(60, 9);
  for (size_t i = 0; i < cells.size(); ++i) {
    for (size_t r = 0; r <= i % 3; ++r) stats.Record(cells[i]);
  }
  size_t visited = 0;
  stats.ForEachCell([&](const QueryStats::ScoredCell& c) {
    EXPECT_EQ(c.score, stats.Score(c.cell));
    ++visited;
  });
  EXPECT_EQ(visited, stats.num_distinct_cells());
}

TEST(QueryStatsTest, ConcurrentClaimsWhileRanking) {
  // Recorders claim fresh slots while a reader ranks: every snapshot is
  // duplicate-free and no larger than the final table, and the quiesced
  // list holds every claimed cell.
  QueryStats stats;
  constexpr size_t kThreads = 4;
  constexpr size_t kPerThread = 600;
  std::vector<std::vector<cell::CellId>> own(kThreads);
  for (size_t t = 0; t < kThreads; ++t) {
    for (size_t i = 0; i < kPerThread; ++i) {
      own[t].push_back(CellAt((static_cast<double>(i) + 0.5) / kPerThread,
                              (static_cast<double>(t) + 0.5) / kThreads, 14));
    }
  }
  std::atomic<size_t> done{0};
  std::vector<std::thread> threads;
  for (size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (const cell::CellId& c : own[t]) {
        stats.Record(c);
        stats.Record(c);
      }
      done.fetch_add(1, std::memory_order_release);
    });
  }
  size_t bad_snapshots = 0;
  while (done.load(std::memory_order_acquire) < kThreads) {
    std::vector<cell::CellId> ranked = stats.RankedCells();
    std::sort(ranked.begin(), ranked.end());
    if (std::adjacent_find(ranked.begin(), ranked.end()) != ranked.end() ||
        ranked.size() > kThreads * kPerThread) {
      ++bad_snapshots;
    }
  }
  for (std::thread& t : threads) t.join();
  EXPECT_EQ(bad_snapshots, 0u);
  ASSERT_EQ(stats.dropped(), 0u);
  std::vector<cell::CellId> all;
  for (const auto& cells : own) {
    all.insert(all.end(), cells.begin(), cells.end());
  }
  EXPECT_EQ(stats.RankedCells(), FullScanRanking(stats, all));
  EXPECT_EQ(stats.num_distinct_cells(), kThreads * kPerThread);
}

}  // namespace
}  // namespace geoblocks::core
