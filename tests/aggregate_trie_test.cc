#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <limits>
#include <random>
#include <set>
#include <span>

#include "core/aggregate_trie.h"
#include "core/geoblock.h"
#include "workload/datagen.h"

namespace geoblocks::core {
namespace {

/// The straightforward Build the production one must match exactly:
/// greedy admission of ranked in-root cells through an ordered set, each
/// at the per-cell cost, then payloads in ascending id order, copied from
/// `previous` (found by a linear scan) or recomputed from the state.
struct ReferenceCache {
  std::vector<uint64_t> ids;
  std::vector<uint64_t> counts;
  std::vector<ColumnAggregate> column_aggs;
  size_t bytes_used = 0;
};

ReferenceCache ReferenceBuild(const BlockState& state,
                              const std::vector<cell::CellId>& ranked,
                              size_t byte_budget,
                              const AggregateTrie* previous) {
  const size_t cell_bytes = 16 + 24 * state.num_columns;
  ReferenceCache out;
  if (state.num_cells() == 0) return out;
  const cell::CellId root = cell::CellId::CommonAncestor(
      cell::CellId(state.header.min_cell), cell::CellId(state.header.max_cell));
  std::set<uint64_t> cached;
  for (const cell::CellId& cand : ranked) {
    if (!root.Contains(cand) || cached.count(cand.id()) != 0) continue;
    if (out.bytes_used + cell_bytes > byte_budget) break;
    out.bytes_used += cell_bytes;
    cached.insert(cand.id());
  }
  for (const uint64_t id : cached) {
    out.ids.push_back(id);
    const auto prev_ids =
        previous != nullptr ? previous->ids() : std::span<const uint64_t>();
    const auto hit = std::find(prev_ids.begin(), prev_ids.end(), id);
    if (hit != prev_ids.end()) {
      const size_t i = static_cast<size_t>(hit - prev_ids.begin());
      out.counts.push_back(previous->counts()[i]);
      for (size_t col = 0; col < state.num_columns; ++col) {
        out.column_aggs.push_back(
            previous->column_aggs()[i * state.num_columns + col]);
      }
    } else {
      const AggregateVector agg = state.AggregateForCell(cell::CellId(id));
      out.counts.push_back(agg.count);
      out.column_aggs.insert(out.column_aggs.end(), agg.columns.begin(),
                             agg.columns.end());
    }
  }
  return out;
}

class AggregateTrieTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    const storage::PointTable raw = workload::GenTaxi(20000, 2);
    storage::ExtractOptions options;
    options.clean_bounds = workload::NycBounds();
    data_ = new storage::SortedDataset(
        storage::SortedDataset::Extract(raw, options));
    block_ = new GeoBlock(GeoBlock::Build(*data_, BlockOptions{15, {}}));
  }
  static void TearDownTestSuite() {
    delete block_;
    delete data_;
    block_ = nullptr;
    data_ = nullptr;
  }

  /// Some cells that actually overlap the block, at mixed levels.
  static std::vector<cell::CellId> SampleCells(size_t count, uint64_t seed) {
    std::mt19937_64 rng(seed);
    std::vector<cell::CellId> cells;
    while (cells.size() < count) {
      const size_t idx = rng() % block_->num_cells();
      const int level = 9 + static_cast<int>(rng() % 7);
      const cell::CellId c = cell::CellId(block_->cells()[idx]).Parent(level);
      if (std::find(cells.begin(), cells.end(), c) == cells.end()) {
        cells.push_back(c);
      }
    }
    return cells;
  }

  static storage::SortedDataset* data_;
  static GeoBlock* block_;
};

storage::SortedDataset* AggregateTrieTest::data_ = nullptr;
GeoBlock* AggregateTrieTest::block_ = nullptr;

TEST_F(AggregateTrieTest, EmptyBuild) {
  AggregateTrie trie;
  const auto result = trie.Build(*block_, {}, 1 << 20);
  EXPECT_EQ(result.cached_cells, 0u);
  EXPECT_TRUE(trie.empty());
  EXPECT_FALSE(trie.IsCached(cell::CellId(block_->cells()[0])));
}

TEST_F(AggregateTrieTest, CachesRankedCellsUnderBudget) {
  AggregateTrie trie;
  const auto cells = SampleCells(20, 3);
  const auto result = trie.Build(*block_, cells, size_t{1} << 22);
  EXPECT_EQ(result.cached_cells, cells.size());
  EXPECT_EQ(trie.num_cached(), cells.size());
  for (const cell::CellId& c : cells) {
    EXPECT_TRUE(trie.IsCached(c)) << c;
  }
}

TEST_F(AggregateTrieTest, CachedAggregatesMatchBlock) {
  AggregateTrie trie;
  const auto cells = SampleCells(25, 4);
  trie.Build(*block_, cells, size_t{1} << 22);

  AggregateRequest req;
  req.Add(AggFn::kCount);
  for (int c = 0; c < 7; ++c) {
    req.Add(AggFn::kSum, c);
    req.Add(AggFn::kMin, c);
    req.Add(AggFn::kMax, c);
  }
  for (const cell::CellId& c : cells) {
    const size_t i = trie.Find(c);
    ASSERT_LT(i, trie.num_cached());
    Accumulator from_cache(&req);
    trie.Combine(i, &from_cache);
    const std::vector<cell::CellId> covering{c};
    const QueryResult expected = block_->SelectCovering(covering, req);
    const QueryResult actual = from_cache.Finish();
    ASSERT_EQ(actual.count, expected.count);
    for (size_t i = 0; i < expected.values.size(); ++i) {
      ASSERT_NEAR(actual.values[i], expected.values[i],
                  1e-9 * std::abs(expected.values[i]) + 1e-9);
    }
  }
}

TEST_F(AggregateTrieTest, BudgetIsRespected) {
  AggregateTrie trie;
  const auto cells = SampleCells(200, 5);
  const size_t budget = 4096;
  const auto result = trie.Build(*block_, cells, budget);
  EXPECT_LE(result.bytes_used, budget);
  EXPECT_LT(result.cached_cells, cells.size());
  EXPECT_GT(result.cached_cells, 0u);
  EXPECT_EQ(trie.MemoryBytes(), result.bytes_used);
}

TEST_F(AggregateTrieTest, InsertionStopsAtFirstNonFitting) {
  // Cells are inserted in rank order until the budget is hit; the cached
  // set must be a prefix of the ranked list.
  AggregateTrie trie;
  const auto cells = SampleCells(60, 6);
  trie.Build(*block_, cells, 2048);
  bool seen_uncached = false;
  for (const cell::CellId& c : cells) {
    const bool cached = trie.IsCached(c);
    if (seen_uncached) {
      EXPECT_FALSE(cached) << "non-prefix caching at " << c;
    }
    if (!cached) seen_uncached = true;
  }
  EXPECT_TRUE(seen_uncached);
}

TEST_F(AggregateTrieTest, NextRunHoldsExactlyTheCachedCellsInside) {
  AggregateTrie trie;
  const auto cells = SampleCells(40, 7);
  trie.Build(*block_, cells, size_t{1} << 22);
  ASSERT_EQ(trie.num_cached(), cells.size());
  // Every ancestor of a cached cell, from the root down: its run is the
  // cached cells it contains (itself included), and Find inside the run
  // tells a cached ancestor from an uncached one.
  for (const cell::CellId& cached : cells) {
    for (int level = trie.root_cell().level(); level <= cached.level();
         ++level) {
      const cell::CellId ancestor = cached.Parent(level);
      size_t cursor = 0;
      const BlockState::CellRun run = trie.NextRun(ancestor, &cursor);
      EXPECT_EQ(cursor, run.end);
      std::vector<uint64_t> inside;
      for (const cell::CellId& c : cells) {
        if (ancestor.Contains(c)) inside.push_back(c.id());
      }
      std::sort(inside.begin(), inside.end());
      ASSERT_TRUE(std::ranges::equal(
          trie.ids().subspan(run.begin, run.end - run.begin), inside))
          << ancestor;
      EXPECT_NE(trie.Find(cached, run), run.end);
      const bool is_cached =
          std::find(cells.begin(), cells.end(), ancestor) != cells.end();
      EXPECT_EQ(trie.Find(ancestor, run) != run.end, is_cached) << ancestor;
    }
  }
  // One cursor over ascending, disjoint cells finds every run it would
  // find from a fresh cursor.
  std::vector<cell::CellId> disjoint;
  for (size_t i = 0; i < block_->num_cells(); i += 37) {
    const cell::CellId c = cell::CellId(block_->cells()[i]).Parent(12);
    if (disjoint.empty() || !disjoint.back().Contains(c)) disjoint.push_back(c);
  }
  size_t cursor = 0;
  for (const cell::CellId& c : disjoint) {
    size_t fresh = 0;
    const BlockState::CellRun want = trie.NextRun(c, &fresh);
    const BlockState::CellRun got = trie.NextRun(c, &cursor);
    EXPECT_EQ(got.begin, want.begin) << c;
    EXPECT_EQ(got.end, want.end) << c;
  }
}

TEST_F(AggregateTrieTest, FindMissesForUnrelatedCells) {
  AggregateTrie trie;
  const auto cells = SampleCells(5, 8);
  trie.Build(*block_, cells, size_t{1} << 22);
  // A cell outside the root (mid-Pacific) holds no cached cell.
  const cell::CellId far = cell::CellId::FromPoint({0.1, 0.6}).Parent(10);
  size_t cursor = 0;
  const BlockState::CellRun run = trie.NextRun(far, &cursor);
  EXPECT_EQ(run.begin, run.end);
  EXPECT_EQ(trie.Find(far), trie.num_cached());
  EXPECT_FALSE(trie.IsCached(far));
}

TEST_F(AggregateTrieTest, RootCellEnclosesBlock) {
  AggregateTrie trie;
  trie.Build(*block_, SampleCells(3, 9), size_t{1} << 22);
  EXPECT_TRUE(trie.root_cell().Contains(cell::CellId(block_->header().min_cell)));
  EXPECT_TRUE(trie.root_cell().Contains(cell::CellId(block_->header().max_cell)));
}

TEST_F(AggregateTrieTest, CellsCoarserThanRootAreSkipped) {
  AggregateTrie trie;
  std::vector<cell::CellId> cells{cell::CellId::Root()};
  const auto sample = SampleCells(3, 10);
  cells.insert(cells.end(), sample.begin(), sample.end());
  const auto result = trie.Build(*block_, cells, size_t{1} << 22);
  // Root() of the whole square is coarser than the trie root (NYC data
  // occupies a tiny part of the earth) and cannot be cached.
  EXPECT_EQ(result.cached_cells, sample.size());
  EXPECT_FALSE(trie.IsCached(cell::CellId::Root()));
}

TEST_F(AggregateTrieTest, CachedCountAccessor) {
  AggregateTrie trie;
  const auto cells = SampleCells(4, 11);
  trie.Build(*block_, cells, size_t{1} << 22);
  for (const cell::CellId& c : cells) {
    const size_t i = trie.Find(c);
    ASSERT_LT(i, trie.num_cached());
    EXPECT_EQ(trie.counts()[i], block_->AggregateForCell(c).count);
  }
}

TEST_F(AggregateTrieTest, PerCellCostAccounting) {
  // Every cached cell costs its id, its count and a (min, max, sum) triple
  // per column, whatever its depth below the root: a budget of k cells
  // admits exactly k.
  const size_t cell_bytes = 16 + 24 * block_->num_columns();
  EXPECT_EQ(AggregateTrie::CellBytes(block_->num_columns()), cell_bytes);
  const auto cells = SampleCells(12, 12);
  for (const size_t k : {size_t{0}, size_t{1}, size_t{5}, cells.size()}) {
    for (const size_t slack : {size_t{0}, cell_bytes - 1}) {
      AggregateTrie trie;
      const auto result = trie.Build(*block_, cells, k * cell_bytes + slack);
      ASSERT_EQ(result.cached_cells, k);
      EXPECT_EQ(result.bytes_used, k * cell_bytes);
      EXPECT_EQ(trie.MemoryBytes(), k * cell_bytes);
    }
  }
  AggregateTrie trie;
  trie.Build(*block_, cells, 5 * cell_bytes - 1);
  EXPECT_EQ(trie.num_cached(), 4u);
}

TEST_F(AggregateTrieTest, ApplyTupleUpdatePatchesEveryCachedAncestor) {
  AggregateTrie trie;
  const auto cells = SampleCells(60, 13);
  trie.Build(*block_, cells, size_t{1} << 22);
  const std::vector<uint64_t> counts_before(trie.counts().begin(),
                                            trie.counts().end());
  const double values[7] = {1e6, -1e6, 3, 4, 5, 6, 7};
  ASSERT_GE(block_->num_columns(), 2u);
  ASSERT_LE(block_->num_columns(), 7u);
  // A point below a grid cell inside the first sampled cell.
  const auto grid = std::find_if(
      block_->cells().begin(), block_->cells().end(),
      [&](uint64_t id) { return cells[0].Contains(cell::CellId(id)); });
  ASSERT_NE(grid, block_->cells().end());
  const cell::CellId leaf = cell::CellId(*grid).Child(1).Child(2);
  size_t containing = 0;
  for (const cell::CellId& c : cells) containing += c.Contains(leaf) ? 1 : 0;
  ASSERT_GT(containing, 0u);
  EXPECT_EQ(trie.ApplyTupleUpdate(leaf, values), containing);
  for (size_t i = 0; i < trie.num_cached(); ++i) {
    const cell::CellId c(trie.ids()[i]);
    const ColumnAggregate* cols =
        trie.column_aggs().data() + i * trie.num_columns();
    if (c.Contains(leaf)) {
      EXPECT_EQ(trie.counts()[i], counts_before[i] + 1) << c;
      EXPECT_EQ(cols[0].max, 1e6) << c;
      EXPECT_EQ(cols[1].min, -1e6) << c;
    } else {
      EXPECT_EQ(trie.counts()[i], counts_before[i]) << c;
    }
  }
}

TEST_F(AggregateTrieTest, BuildMatchesReference) {
  const std::shared_ptr<const BlockState> state = block_->StateSnapshot();
  const cell::CellId root = cell::CellId::CommonAncestor(
      cell::CellId(state->header.min_cell),
      cell::CellId(state->header.max_cell));
  const cell::CellId outside = cell::CellId::FromPoint({0.1, 0.6});
  ASSERT_FALSE(root.Contains(outside));
  const auto random_ranked = [&](std::mt19937_64* rng, size_t n) {
    std::vector<cell::CellId> ranked;
    while (ranked.size() < n) {
      const uint64_t kind = (*rng)() % 10;
      if (kind == 0 && !ranked.empty()) {
        ranked.push_back(ranked[(*rng)() % ranked.size()]);  // duplicate
      } else if (kind == 1) {
        // Outside the root: a far-away cell, or one coarser than the root.
        ranked.push_back((*rng)() % 2 == 0
                             ? outside.Parent(static_cast<int>((*rng)() % 16))
                             : root.Parent(static_cast<int>(
                                   (*rng)() % static_cast<uint64_t>(
                                                  root.level()))));
      } else {
        // Any level from the root to the block.
        const int level =
            root.level() + static_cast<int>((*rng)() % static_cast<uint64_t>(
                                                 block_->level() -
                                                 root.level() + 1));
        ranked.push_back(
            cell::CellId(block_->cells()[(*rng)() % block_->num_cells()])
                .Parent(level));
      }
    }
    return ranked;
  };
  const double values[7] = {1, 2, 3, 4, 5, 6, 7};
  ASSERT_LE(block_->num_columns(), 7u);
  for (uint64_t seed = 1; seed <= 12; ++seed) {
    std::mt19937_64 rng(seed);
    const std::vector<cell::CellId> ranked =
        random_ranked(&rng, 20 + rng() % 400);
    // A previous snapshot that shares part of the candidates, patched so
    // its payloads differ from the state's: copied and recomputed payloads
    // are then told apart by the byte comparison.
    AggregateTrie previous;
    previous.Build(*state, random_ranked(&rng, 200),
                   std::numeric_limits<size_t>::max());
    for (int t = 0; t < 5; ++t) {
      previous.ApplyTupleUpdate(
          cell::CellId(block_->cells()[rng() % block_->num_cells()]),
          values);
    }
    const size_t unbounded = std::numeric_limits<size_t>::max();
    const size_t full =
        ReferenceBuild(*state, ranked, unbounded, nullptr).bytes_used;
    for (const size_t budget : {size_t{0}, full / 2, unbounded}) {
      for (const AggregateTrie* prev : {static_cast<AggregateTrie*>(nullptr),
                                        &previous}) {
        const ReferenceCache want = ReferenceBuild(*state, ranked, budget, prev);
        AggregateTrie trie;
        const AggregateTrie::BuildResult got =
            trie.Build(*state, ranked, budget, prev);
        SCOPED_TRACE(::testing::Message()
                     << "seed " << seed << " budget " << budget
                     << (prev != nullptr ? " with previous" : ""));
        ASSERT_EQ(got.cached_cells, want.ids.size());
        ASSERT_EQ(got.bytes_used, want.bytes_used);
        ASSERT_TRUE(std::ranges::equal(trie.ids(), want.ids));
        ASSERT_TRUE(std::ranges::equal(trie.counts(), want.counts));
        ASSERT_EQ(trie.column_aggs().size(), want.column_aggs.size());
        if (!want.column_aggs.empty()) {
          ASSERT_EQ(std::memcmp(trie.column_aggs().data(),
                                want.column_aggs.data(),
                                want.column_aggs.size() *
                                    sizeof(ColumnAggregate)),
                    0);
        }
        if (budget == full / 2) {
          ASSERT_GT(got.cached_cells, 0u);
          ASSERT_LT(got.bytes_used, full);
        }
      }
    }
  }
}

}  // namespace
}  // namespace geoblocks::core
