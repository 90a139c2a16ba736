#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <deque>
#include <limits>
#include <random>
#include <unordered_map>

#include "core/aggregate_trie.h"
#include "core/geoblock.h"
#include "workload/datagen.h"

namespace geoblocks::core {
namespace {

/// The straightforward Build the production one must match byte for byte:
/// phase 1 walks every candidate's whole root path through a keyed
/// temporary trie, phase 2 lays the nodes out with a queue-driven BFS.
struct ReferenceTrie {
  std::vector<uint8_t> arena;
  AggregateTrie::BuildResult result;
};

ReferenceTrie ReferenceBuild(const BlockState& state,
                             const std::vector<cell::CellId>& ranked,
                             size_t byte_budget,
                             const AggregateTrie* previous) {
  struct TmpNode {
    bool has_agg = false;
    bool has_children = false;
  };
  constexpr size_t kNodeBytes = 8;
  constexpr size_t kBlockBytes = 32;
  const size_t agg_bytes = 8 + 24 * state.num_columns;
  ReferenceTrie out;
  if (state.num_cells() == 0) return out;
  const cell::CellId root = cell::CellId::CommonAncestor(
      cell::CellId(state.header.min_cell), cell::CellId(state.header.max_cell));

  std::unordered_map<uint64_t, TmpNode> tmp;
  tmp[root.id()];
  size_t bytes = 8 + kNodeBytes;
  size_t num_blocks = 0;
  std::vector<cell::CellId> cached;
  for (const cell::CellId& cand : ranked) {
    if (!root.Contains(cand)) continue;
    if (tmp.count(cand.id()) && tmp[cand.id()].has_agg) continue;
    size_t new_blocks = 0;
    for (int l = root.level(); l < cand.level(); ++l) {
      const auto it = tmp.find(cand.Parent(l).id());
      if (it == tmp.end() || !it->second.has_children) ++new_blocks;
    }
    const size_t added = new_blocks * kBlockBytes + agg_bytes;
    if (bytes + added > byte_budget) break;
    bytes += added;
    num_blocks += new_blocks;
    for (int l = root.level(); l < cand.level(); ++l) {
      tmp[cand.Parent(l).id()].has_children = true;
      tmp[cand.Parent(l + 1).id()];
    }
    tmp[cand.id()].has_agg = true;
    cached.push_back(cand);
  }

  const size_t node_region_end = 8 + kNodeBytes + num_blocks * kBlockBytes;
  out.arena.assign(node_region_end + cached.size() * agg_bytes, 0);
  const auto write_u32 = [&](size_t offset, uint32_t value) {
    std::memcpy(out.arena.data() + offset, &value, sizeof(value));
  };
  size_t next_block = 8 + kNodeBytes;
  size_t next_agg = node_region_end;
  std::deque<std::pair<cell::CellId, uint32_t>> queue;
  queue.emplace_back(root, 8);
  while (!queue.empty()) {
    const auto [c, offset] = queue.front();
    queue.pop_front();
    const TmpNode& node = tmp.at(c.id());
    if (node.has_agg) {
      uint8_t* dst = out.arena.data() + next_agg;
      const uint8_t* prev_agg =
          previous != nullptr ? previous->Lookup(c).agg : nullptr;
      if (prev_agg != nullptr) {
        std::memcpy(dst, prev_agg, agg_bytes);
      } else {
        const AggregateVector agg = state.AggregateForCell(c);
        std::memcpy(dst, &agg.count, sizeof(uint64_t));
        dst += sizeof(uint64_t);
        for (size_t col = 0; col < state.num_columns; ++col) {
          std::memcpy(dst, &agg.columns[col], 3 * sizeof(double));
          dst += 3 * sizeof(double);
        }
      }
      write_u32(offset + 4, static_cast<uint32_t>(next_agg));
      next_agg += agg_bytes;
      ++out.result.cached_cells;
    }
    if (node.has_children) {
      const uint32_t block_offset = static_cast<uint32_t>(next_block);
      next_block += kBlockBytes;
      write_u32(offset, block_offset);
      for (int k = 0; k < 4; ++k) {
        if (tmp.count(c.Child(k).id())) {
          queue.emplace_back(c.Child(k),
                             block_offset + static_cast<uint32_t>(k) * 8);
        }
      }
    }
  }
  out.result.bytes_used = out.arena.size();
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
  EXPECT_FALSE(trie.Lookup(cell::CellId(block_->cells()[0])).agg != nullptr);
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
    const auto probe = trie.Lookup(c);
    ASSERT_TRUE(probe.node_exists);
    ASSERT_NE(probe.agg, nullptr);
    Accumulator from_cache(&req);
    trie.Combine(probe.agg, &from_cache);
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

TEST_F(AggregateTrieTest, LookupOnPathNodes) {
  AggregateTrie trie;
  const auto cells = SampleCells(5, 7);
  trie.Build(*block_, cells, size_t{1} << 22);
  // Ancestors of cached cells (below the root) have nodes but no
  // aggregates (unless they are cached themselves).
  const cell::CellId cached = cells[0];
  if (cached.level() > trie.root_cell().level() + 1) {
    const cell::CellId parent = cached.Parent();
    const auto probe = trie.Lookup(parent);
    EXPECT_TRUE(probe.node_exists);
    if (std::find(cells.begin(), cells.end(), parent) == cells.end()) {
      EXPECT_EQ(probe.agg, nullptr);
    }
    // And the cached cell appears among the parent's direct children.
    const auto children = trie.DirectChildren(probe.node_offset);
    const int k = cached.ChildPosition();
    EXPECT_TRUE(children[k].exists);
    EXPECT_NE(children[k].agg, nullptr);
  }
}

TEST_F(AggregateTrieTest, LookupMissesForUnrelatedCells) {
  AggregateTrie trie;
  const auto cells = SampleCells(5, 8);
  trie.Build(*block_, cells, size_t{1} << 22);
  // A cell outside the root (mid-Pacific) has no node.
  const cell::CellId far = cell::CellId::FromPoint({0.1, 0.6}).Parent(10);
  const auto probe = trie.Lookup(far);
  EXPECT_FALSE(probe.node_exists);
  EXPECT_EQ(probe.agg, nullptr);
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
    const auto probe = trie.Lookup(c);
    ASSERT_NE(probe.agg, nullptr);
    EXPECT_EQ(AggregateTrie::CachedCount(probe.agg),
              block_->AggregateForCell(c).count);
  }
}

TEST_F(AggregateTrieTest, NodeCostAccounting) {
  // A single cached cell at depth d below the root needs d child blocks
  // (32 bytes each) plus the aggregate payload.
  AggregateTrie trie;
  const auto cells = SampleCells(1, 12);
  const auto result = trie.Build(*block_, cells, size_t{1} << 22);
  ASSERT_EQ(result.cached_cells, 1u);
  const size_t depth =
      static_cast<size_t>(cells[0].level() - trie.root_cell().level());
  const size_t agg_bytes = 8 + 24 * block_->num_columns();
  EXPECT_EQ(result.bytes_used, 8 + 8 + depth * 32 + agg_bytes);
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
        ReferenceBuild(*state, ranked, unbounded, nullptr).result.bytes_used;
    for (const size_t budget : {size_t{0}, full / 2, unbounded}) {
      for (const AggregateTrie* prev : {static_cast<AggregateTrie*>(nullptr),
                                        &previous}) {
        const ReferenceTrie want = ReferenceBuild(*state, ranked, budget, prev);
        AggregateTrie trie;
        const AggregateTrie::BuildResult got =
            trie.Build(*state, ranked, budget, prev);
        SCOPED_TRACE(::testing::Message()
                     << "seed " << seed << " budget " << budget
                     << (prev != nullptr ? " with previous" : ""));
        ASSERT_EQ(got.cached_cells, want.result.cached_cells);
        ASSERT_EQ(got.bytes_used, want.result.bytes_used);
        ASSERT_EQ(trie.num_cached(), want.result.cached_cells);
        ASSERT_TRUE(std::equal(trie.bytes().begin(), trie.bytes().end(),
                               want.arena.begin(), want.arena.end()));
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
