// Updates: the MVCC write plane end to end — build the sharded engine,
// stream in-cell update batches through the shard-routed commit path while
// cached queries keep serving, then commit new-region tuples, whose commit
// merges their new cells into the sorted layout (Section 5 of the paper,
// lifted to the concurrent BlockSet).
#include <cmath>
#include <cstdio>
#include <memory>
#include <random>
#include <vector>

#include "core/block_set.h"
#include "storage/sharded_dataset.h"
#include "util/thread_pool.h"
#include "workload/datagen.h"
#include "workload/polygen.h"

int main() {
  using namespace geoblocks;
  constexpr int kLevel = 16;

  // 1. Extract and shard, as in the quickstart.
  const storage::PointTable raw = workload::GenTaxi(200'000);
  storage::ExtractOptions extract;
  extract.clean_bounds = workload::NycBounds();
  const auto data = std::make_shared<const storage::SortedDataset>(
      storage::SortedDataset::Extract(raw, extract));
  storage::ShardOptions shard_options;
  shard_options.num_shards = 4;
  shard_options.align_level = kLevel;
  const storage::ShardedDataset sharded =
      storage::ShardedDataset::Partition(data, shard_options);

  util::ThreadPool pool;
  core::BlockSet set =
      core::BlockSet::Build(sharded, core::BlockSetOptions{{kLevel, {}}},
                            &pool);
  set.EnableCache(core::GeoBlockQC::Options{0.10, /*rebuild_interval=*/64});

  const auto polygons = workload::Neighborhoods(raw, 8);
  core::AggregateRequest request;
  request.Add(core::AggFn::kCount);
  request.Add(core::AggFn::kSum, 0);
  const uint64_t base_rows = data->num_rows();
  const std::vector<cell::CellId> everything{cell::CellId::Root()};

  // 2. In-cell updates: tuples whose grid cell already has an aggregate
  //    patch it in place — routed to their shard by Hilbert key, each
  //    shard committing a cloned-and-patched snapshot (readers never see
  //    a torn batch and never block).
  std::mt19937_64 rng(7);
  const auto keys = data->keys();
  std::vector<core::GeoBlock::UpdateTuple> in_cell;
  for (size_t i = 0; i < 1000; ++i) {
    const uint64_t key = keys[rng() % keys.size()];
    core::GeoBlock::UpdateTuple t;
    t.location =
        data->projection().FromUnit(cell::CellId(key).Parent(kLevel)
                                        .CenterPoint());
    t.values.assign(data->num_columns(), 1.0);
    in_cell.push_back(std::move(t));
  }
  const auto applied = set.ApplyBatchUpdate(in_cell, &pool);
  std::printf("in-cell batch: applied=%zu\n", applied.applied);

  // 3. Queries see the whole batch.
  uint64_t mismatches = 0;
  if (set.CountCovering(everything) != base_rows + applied.applied) {
    ++mismatches;
  }
  for (const geo::Polygon& poly : polygons) {
    const core::QueryResult cached = set.SelectCached(poly, request);
    const core::QueryResult plain = set.Select(poly, request);
    if (cached.count != plain.count ||
        std::abs(cached.values[1] - plain.values[1]) >
            1e-9 * std::abs(plain.values[1]) + 1e-9) {
      ++mismatches;
    }
  }

  // 4. New-region tuples: no cell aggregate covers them yet, so their
  //    commit merges a new cell aggregate per cell into the shard's sorted
  //    layout (no base-row rescan). Every tuple is queryable as soon as
  //    the call returns.
  std::vector<core::GeoBlock::UpdateTuple> frontier;
  while (frontier.size() < 200) {
    const double x = (static_cast<double>(rng() % 100000) + 0.5) / 100000.0;
    const double y = (static_cast<double>(rng() % 100000) + 0.5) / 100000.0;
    const cell::CellId cell = cell::CellId::FromPoint({x, y}).Parent(kLevel);
    bool populated = false;
    for (size_t s = 0; s < set.num_shards() && !populated; ++s) {
      const auto& cells = set.shard(s).cells();
      populated = std::binary_search(cells.begin(), cells.end(), cell.id());
    }
    if (populated) continue;
    core::GeoBlock::UpdateTuple t;
    t.location = data->projection().FromUnit(cell.CenterPoint());
    t.values.assign(data->num_columns(), 2.0);
    frontier.push_back(std::move(t));
  }
  set.ApplyBatchUpdate(frontier, &pool);
  const uint64_t expect = base_rows + applied.applied + frontier.size();
  const uint64_t total = set.CountCovering(everything);
  if (total != expect) ++mismatches;
  std::printf("new-region batch: total count=%llu (expected %llu)\n",
              static_cast<unsigned long long>(total),
              static_cast<unsigned long long>(expect));

  std::printf("update mismatches: %llu\n",
              static_cast<unsigned long long>(mismatches));
  return mismatches == 0 ? 0 : 1;
}
