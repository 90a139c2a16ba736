// Micro-benchmarks (google-benchmark) for the primitive operations the
// paper's performance claims rest on: cell-id algebra, Hilbert transforms,
// polygon covering, Block probing (adjacent and scattered covering cells,
// where the aggregate cursor gallops one step or far), COUNT range sums, the
// sharded probe alone (SELECT, cached SELECT, COUNT over precomputed
// coverings), and AggregateTrie lookups (paper: 58-81 ns).
#include <benchmark/benchmark.h>

#include "bench/common.h"
#include "cell/coverer.h"
#include "cell/hilbert.h"
#include "core/aggregate_trie.h"
#include "core/block_set.h"
#include "storage/sharded_dataset.h"

namespace geoblocks::bench {
namespace {

const TaxiEnv& Env() {
  static const TaxiEnv env = TaxiEnv::Create(
      std::min<size_t>(TaxiPoints(), 500'000), kNumNeighborhoods);
  return env;
}

const core::GeoBlock& Block() {
  static const core::GeoBlock block =
      core::GeoBlock::Build(Env().data, {kDefaultLevel, {}});
  return block;
}

void BM_HilbertXYToD(benchmark::State& state) {
  uint32_t i = 123456789;
  for (auto _ : state) {
    benchmark::DoNotOptimize(cell::HilbertXYToD(i, i ^ 0x5a5a5a5a));
    i = i * 1664525u + 1013904223u;
  }
}
BENCHMARK(BM_HilbertXYToD);

void BM_CellIdFromPoint(benchmark::State& state) {
  double x = 0.123;
  for (auto _ : state) {
    benchmark::DoNotOptimize(cell::CellId::FromPoint({x, 1.0 - x}));
    x += 1e-7;
    if (x >= 1.0) x = 0.0;
  }
}
BENCHMARK(BM_CellIdFromPoint);

void BM_CellIdParentChild(benchmark::State& state) {
  const cell::CellId leaf = cell::CellId::FromPoint({0.37, 0.61});
  for (auto _ : state) {
    const cell::CellId parent = leaf.Parent(12);
    benchmark::DoNotOptimize(parent.Child(2).RangeMax());
  }
}
BENCHMARK(BM_CellIdParentChild);

// Covers every neighborhood, projected onto the unit square once up front,
// with cell::GetCovering into one warm vector at the level given as the
// argument. Items are polygons, so items_per_second inverts to the time
// per covering; cells is per polygon.
void BM_PolygonCovering(benchmark::State& state) {
  const auto& env = Env();
  const int level = static_cast<int>(state.range(0));
  std::vector<geo::Polygon> unit;
  for (const geo::Polygon& poly : env.neighborhoods) {
    unit.push_back(env.data.projection().ToUnit(poly));
  }
  std::vector<cell::CoveringCell> covering;
  size_t cells = 0;
  for (auto _ : state) {
    for (const geo::Polygon& poly : unit) {
      cell::GetCovering(poly, level, &covering);
      cells += covering.size();
    }
  }
  const int64_t polygons =
      state.iterations() * static_cast<int64_t>(unit.size());
  state.SetItemsProcessed(polygons);
  state.counters["cells"] =
      static_cast<double>(cells) / static_cast<double>(polygons);
}
BENCHMARK(BM_PolygonCovering)->Arg(13)->Arg(15)->Arg(17)->Arg(19)->Arg(21);

void BM_BlockSelect(benchmark::State& state) {
  const auto& env = Env();
  const core::AggregateRequest req =
      RequestN(static_cast<size_t>(state.range(0)), env.data.num_columns());
  const auto covering = Block().Cover(env.neighborhoods[3]);
  for (auto _ : state) {
    benchmark::DoNotOptimize(Block().SelectCovering(covering, req));
  }
}
BENCHMARK(BM_BlockSelect)->Arg(1)->Arg(4)->Arg(8);

void BM_BlockCount(benchmark::State& state) {
  const auto& env = Env();
  const auto covering = Block().Cover(env.neighborhoods[3]);
  for (auto _ : state) {
    benchmark::DoNotOptimize(Block().CountCovering(covering));
  }
}
BENCHMARK(BM_BlockCount);

// Ablation: SELECT over a covering of adjacent cells, where the aggregate
// cursor finds each run at its first probe, vs one of scattered cells,
// where it gallops far ahead for every cell.
void BM_BlockSelectAdjacentCells(benchmark::State& state) {
  const auto& env = Env();
  const core::AggregateRequest req = RequestN(4, env.data.num_columns());
  // 64 adjacent grid cells taken from the middle of the block.
  std::vector<cell::CellId> covering;
  const size_t start = Block().num_cells() / 2;
  for (size_t i = 0; i < 64 && start + i < Block().num_cells(); ++i) {
    covering.push_back(cell::CellId(Block().cells()[start + i]));
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(Block().SelectCovering(covering, req));
  }
}
BENCHMARK(BM_BlockSelectAdjacentCells);

void BM_BlockSelectScatteredCells(benchmark::State& state) {
  const auto& env = Env();
  const core::AggregateRequest req = RequestN(4, env.data.num_columns());
  // 64 cells spread across the whole block: every cell's run lies about
  // num_cells / 64 aggregates past the cursor.
  std::vector<cell::CellId> covering;
  const size_t stride = std::max<size_t>(1, Block().num_cells() / 64);
  for (size_t i = 0; i < Block().num_cells() && covering.size() < 64;
       i += stride) {
    covering.push_back(cell::CellId(Block().cells()[i]));
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(Block().SelectCovering(covering, req));
  }
}
BENCHMARK(BM_BlockSelectScatteredCells);

// The probe layer alone: an 8-shard set answers precomputed coverings of
// every neighborhood, so routing, the per-shard covering slices, the
// aggregate cursor and the fold are all that runs. Arg(0) is SelectCovering,
// Arg(1) SelectCoveringCached over a warmed cache, Arg(2) CountCovering.
// Items are queries.
void BM_SetProbe(benchmark::State& state) {
  struct Probe {
    storage::ShardedDataset sharded;
    core::BlockSet set;
    std::vector<std::vector<cell::CellId>> coverings;
  };
  static const Probe* probe = [] {
    storage::ShardOptions shard_options;
    shard_options.num_shards = 8;
    shard_options.align_level = kDefaultLevel;
    auto* p = new Probe{
        storage::ShardedDataset::Partition(Env().data, shard_options), {}, {}};
    p->set = core::BlockSet::Build(p->sharded,
                                   core::BlockSetOptions{{kDefaultLevel, {}}});
    p->set.EnableCache(core::GeoBlockQC::Options{0.10, 0});
    for (const geo::Polygon& poly : Env().neighborhoods) {
      p->coverings.push_back(p->set.Cover(poly));
    }
    const core::AggregateRequest req = RequestN(7, Env().data.num_columns());
    for (int round = 0; round < 2; ++round) {
      for (const auto& covering : p->coverings) {
        (void)p->set.SelectCoveringCached(covering, req);
      }
      p->set.RebuildCaches();
    }
    return p;
  }();
  const core::AggregateRequest req = RequestN(4, Env().data.num_columns());
  const int mode = static_cast<int>(state.range(0));
  for (auto _ : state) {
    for (const auto& covering : probe->coverings) {
      if (mode == 0) {
        benchmark::DoNotOptimize(probe->set.SelectCovering(covering, req));
      } else if (mode == 1) {
        benchmark::DoNotOptimize(
            probe->set.SelectCoveringCached(covering, req));
      } else {
        benchmark::DoNotOptimize(probe->set.CountCovering(covering));
      }
    }
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(probe->coverings.size()));
}
BENCHMARK(BM_SetProbe)->Arg(0)->Arg(1)->Arg(2);

void BM_TrieLookup(benchmark::State& state) {
  const auto& env = Env();
  static core::GeoBlockQC* qc = [] {
    auto* q = new core::GeoBlockQC(&Block(), {0.05, 0});
    const core::AggregateRequest req = RequestN(7, Env().data.num_columns());
    for (const geo::Polygon& poly : Env().neighborhoods) {
      (void)q->Select(poly, req);
    }
    q->RebuildCache();
    return q;
  }();
  const auto covering = Block().Cover(env.neighborhoods[11]);
  const auto trie = qc->trie_snapshot();
  // One probe of the cached read path: the run of cached cells inside a
  // covering cell (a cursor restarted per cell, so every probe searches
  // the whole cache), then the cell itself inside that run.
  size_t i = 0;
  for (auto _ : state) {
    const cell::CellId c = covering[i % covering.size()];
    size_t cursor = 0;
    const core::BlockState::CellRun run = trie->NextRun(c, &cursor);
    benchmark::DoNotOptimize(trie->Find(c, run));
    ++i;
  }
}
BENCHMARK(BM_TrieLookup);

void BM_AccumulatorAddAggregate(benchmark::State& state) {
  const core::AggregateRequest req = RequestN(7, 7);
  core::Accumulator acc(&req);
  std::vector<core::ColumnAggregate> cols(7);
  for (auto& c : cols) c.Add(1.0);
  for (auto _ : state) {
    acc.AddAggregate(10, cols.data());
  }
  benchmark::DoNotOptimize(acc.Finish());
}
BENCHMARK(BM_AccumulatorAddAggregate);

}  // namespace
}  // namespace geoblocks::bench

BENCHMARK_MAIN();
