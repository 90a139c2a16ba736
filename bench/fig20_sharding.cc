// Sharded-engine scalability (this repo's extension beyond the paper's
// figures): (a) parallel per-shard build speedup over the single-block
// build, (b) batched query throughput across pool sizes, (c) shard routing
// selectivity of the BlockHeader pre-check, (d) the cost and per-shard
// balance of the cell-balanced cut, (e) persistence.
#include <algorithm>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "bench/common.h"
#include "core/block_set.h"
#include "storage/sharded_dataset.h"
#include "util/thread_pool.h"

namespace geoblocks::bench {
namespace {

void Run() {
  bench_util::Banner(
      "Figure 20 — sharded multi-block engine (beyond the paper)",
      "(a) parallel build, (b) batched query throughput, (c) shard "
      "routing; taxi data, neighborhood workload.");
  const TaxiEnv env = TaxiEnv::Create(TaxiPoints());
  const workload::Workload wl = workload::BaseWorkload(env.neighborhoods);
  const core::AggregateRequest req = RequestN(7, env.data.num_columns());
  constexpr size_t kShards = 8;

  // Reference: the paper's single-block build.
  bench_util::Timer timer;
  const core::GeoBlock block =
      core::GeoBlock::Build(env.data, {kDefaultLevel, {}});
  const double single_build_ms = timer.ElapsedMs();

  timer.Restart();
  storage::ShardOptions shard_options;
  shard_options.num_shards = kShards;
  shard_options.align_level = kDefaultLevel;
  const storage::ShardedDataset sharded =
      storage::ShardedDataset::Partition(env.data, shard_options);
  const double partition_ms = timer.ElapsedMs();

  const std::vector<size_t> thread_counts = {1, 2, 4, 8};

  bench_util::TablePrinter build(
      {"threads", "build ms", "speedup", "cells"});
  build.AddRow({"1 block", bench_util::TablePrinter::Fmt(single_build_ms, 1),
                "1.00", std::to_string(block.num_cells())});
  core::BlockSet set;
  double best_build_ms = 0.0;
  for (const size_t threads : thread_counts) {
    util::ThreadPool pool(threads);
    timer.Restart();
    core::BlockSet candidate = core::BlockSet::Build(
        sharded, core::BlockSetOptions{{kDefaultLevel, {}}}, &pool);
    const double ms = timer.ElapsedMs();
    if (best_build_ms == 0.0 || ms < best_build_ms) best_build_ms = ms;
    build.AddRow({std::to_string(threads),
                  bench_util::TablePrinter::Fmt(ms, 1),
                  bench_util::TablePrinter::Fmt(single_build_ms / ms, 2),
                  std::to_string(candidate.num_cells())});
    set = std::move(candidate);
  }
  std::printf("(a) build time, %zu shards\n", kShards);
  build.Print();

  // (d) Zero-copy partitioning: the view-based cut allocates O(K) metadata,
  // while the pre-view engine materialized one Slice copy per shard —
  // doubling resident memory at exactly the moment the blocks are built.
  timer.Restart();
  std::vector<storage::SortedDataset> copies;
  copies.reserve(kShards);
  for (size_t s = 0; s < kShards; ++s) {
    copies.push_back(sharded.shard(s).Materialize());
  }
  const double copy_ms = timer.ElapsedMs();
  size_t copy_bytes = 0;
  for (const storage::SortedDataset& c : copies) copy_bytes += c.MemoryBytes();
  copies.clear();
  const size_t base_bytes = env.data.MemoryBytes();
  const size_t view_bytes = sharded.PartitionOverheadBytes();
  const auto mib = [](size_t bytes) {
    return static_cast<double>(bytes) / (1024.0 * 1024.0);
  };
  bench_util::TablePrinter partition(
      {"partitioning", "ms", "added MiB", "peak resident MiB"});
  partition.AddRow({"slice copies", bench_util::TablePrinter::Fmt(copy_ms, 2),
                    bench_util::TablePrinter::Fmt(mib(copy_bytes), 2),
                    bench_util::TablePrinter::Fmt(
                        mib(base_bytes + copy_bytes), 2)});
  partition.AddRow({"views", bench_util::TablePrinter::Fmt(partition_ms, 2),
                    bench_util::TablePrinter::Fmt(mib(view_bytes), 4),
                    bench_util::TablePrinter::Fmt(
                        mib(base_bytes + view_bytes), 2)});
  std::printf("\n(d) partition cost, %zu shards over %.2f MiB of base data\n",
              kShards, mib(base_bytes));
  partition.Print();
  std::printf("view partition bytes = %.4f%% of the copy baseline\n",
              100.0 * static_cast<double>(view_bytes) /
                  static_cast<double>(copy_bytes == 0 ? 1 : copy_bytes));

  // The cut balances distinct cells, so a shard's block bytes (and its
  // governor charge and cache budget) are even while its rows are not.
  std::vector<size_t> shard_rows;
  std::vector<size_t> shard_cells;
  for (size_t s = 0; s < kShards; ++s) {
    shard_rows.push_back(sharded.shard(s).num_rows());
    shard_cells.push_back(set.shard(s).num_cells());
  }
  bench_util::TablePrinter balance({"per shard", "min", "median", "max"});
  const auto add_spread = [&balance](const char* what,
                                     std::vector<size_t> v) {
    std::sort(v.begin(), v.end());
    balance.AddRow({what, std::to_string(v.front()),
                    std::to_string(v[v.size() / 2]),
                    std::to_string(v.back())});
  };
  add_spread("rows", shard_rows);
  add_spread("distinct cells", shard_cells);
  std::printf("\nshard balance, %zu shards cut at level %d (partition: %.2f "
              "ms)\n",
              kShards, kDefaultLevel, partition_ms);
  balance.Print();
  const auto [min_cells, max_cells] =
      std::minmax_element(shard_cells.begin(), shard_cells.end());
  const bool cells_balanced = *max_cells - *min_cells <= 1;

  // Correctness check before timing: sharded == single block.
  const auto coverings = CoverAll(block, wl);
  uint64_t mismatches = 0;
  for (const auto& covering : coverings) {
    if (set.CountCovering(covering) != block.CountCovering(covering)) {
      ++mismatches;
    }
  }
  std::printf("\nsharded vs single-block count mismatches: %llu\n",
              static_cast<unsigned long long>(mismatches));

  // (b) Batched SELECT throughput. Repeat the workload to give the pool
  // enough queries to amortize task overhead.
  constexpr size_t kRepeats = 20;
  std::vector<geo::Polygon> repeated;
  repeated.reserve(wl.size() * kRepeats);
  for (size_t r = 0; r < kRepeats; ++r) {
    for (const geo::Polygon* poly : wl.queries) repeated.push_back(*poly);
  }
  const core::QueryBatch batch = core::QueryBatch::Of(repeated, &req);

  double serial_ms = 0.0;
  {
    double sink = 0.0;
    timer.Restart();
    for (const geo::Polygon& poly : repeated) {
      sink += static_cast<double>(block.Select(poly, req).count);
    }
    serial_ms = timer.ElapsedMs();
    if (sink < 0) std::printf("impossible\n");
  }

  bench_util::TablePrinter query(
      {"threads", "batch ms", "vs 1-block serial", "queries/s"});
  query.AddRow({"1 block", bench_util::TablePrinter::Fmt(serial_ms, 1),
                "1.00",
                bench_util::TablePrinter::Fmt(
                    1000.0 * static_cast<double>(repeated.size()) / serial_ms,
                    0)});
  // Oracle for the batched seam: every batched answer must equal the
  // sequential Select bit for bit, at every pool size.
  std::vector<core::QueryResult> sequential;
  sequential.reserve(repeated.size());
  for (const geo::Polygon& poly : repeated) {
    sequential.push_back(set.Select(poly, req));
  }
  uint64_t batch_mismatches = 0;
  std::vector<double> batch_ms;
  for (const size_t threads : thread_counts) {
    util::ThreadPool pool(threads);
    timer.Restart();
    const auto results = set.ExecuteBatch(batch, &pool);
    const double ms = timer.ElapsedMs();
    batch_ms.push_back(ms);
    for (size_t i = 0; i < results.size(); ++i) {
      if (results[i].count != sequential[i].count ||
          results[i].values != sequential[i].values) {
        ++batch_mismatches;
      }
    }
    query.AddRow(
        {std::to_string(threads), bench_util::TablePrinter::Fmt(ms, 1),
         bench_util::TablePrinter::Fmt(serial_ms / ms, 2),
         bench_util::TablePrinter::Fmt(
             1000.0 * static_cast<double>(repeated.size()) / ms, 0)});
  }
  std::printf("\n(b) batched SELECT, %zu queries (%zu aggregates)\n",
              repeated.size(), req.size());
  query.Print();
  std::printf("batch vs sequential value mismatches: %llu\n",
              static_cast<unsigned long long>(batch_mismatches));

  // (e) Persistence: cold build from base rows vs load from the persisted
  // manifest + payloads (docs/FORMAT.md). Loading skips the extract scan
  // entirely — it only deserializes cell aggregates — so restart cost is
  // proportional to the aggregate size, not the row count.
  std::stringstream file(std::ios::in | std::ios::out | std::ios::binary);
  timer.Restart();
  set.WriteTo(file);
  const double write_ms = timer.ElapsedMs();
  const size_t file_bytes = file.str().size();
  file.seekg(0);
  timer.Restart();
  const core::BlockSet loaded = core::BlockSet::ReadFrom(file);
  const double load_ms = timer.ElapsedMs();
  uint64_t load_mismatches = 0;
  for (const auto& covering : coverings) {
    if (loaded.CountCovering(covering) != block.CountCovering(covering)) {
      ++load_mismatches;
    }
  }
  bench_util::TablePrinter persist({"path", "ms", "MiB", "vs cold build"});
  persist.AddRow({"cold build (1 thread)",
                  bench_util::TablePrinter::Fmt(single_build_ms, 1),
                  bench_util::TablePrinter::Fmt(mib(base_bytes), 1), "1.00"});
  persist.AddRow({"write set",
                  bench_util::TablePrinter::Fmt(write_ms, 1),
                  bench_util::TablePrinter::Fmt(mib(file_bytes), 2),
                  bench_util::TablePrinter::Fmt(single_build_ms / write_ms,
                                                2)});
  persist.AddRow({"load set",
                  bench_util::TablePrinter::Fmt(load_ms, 1),
                  bench_util::TablePrinter::Fmt(mib(file_bytes), 2),
                  bench_util::TablePrinter::Fmt(single_build_ms / load_ms,
                                                2)});
  std::printf("\n(e) persistence: cold build vs load-from-disk, %zu shards\n",
              kShards);
  persist.Print();
  std::printf("loaded vs single-block count mismatches: %llu\n",
              static_cast<unsigned long long>(load_mismatches));

  // (c) Routing selectivity: how many shards does a query touch?
  size_t visits = 0;
  for (const auto& covering : coverings) {
    visits += set.OverlappingShards(covering).size();
  }
  std::printf(
      "\n(c) shard routing: %.2f of %zu shards touched per query on "
      "average\n",
      static_cast<double>(visits) / static_cast<double>(coverings.size()),
      kShards);
  // The claims of sharding, checked on the rows above: the parallel build
  // beats the single block, routing keeps a query on under half the
  // shards, batched SELECT throughput grows with the pool, and the cut
  // gives every shard the same number of cells (to within one).
  const double best_build_speedup = single_build_ms / best_build_ms;
  const double shards_per_query =
      static_cast<double>(visits) / static_cast<double>(coverings.size());
  const double batch_scaling = batch_ms.front() / batch_ms.back();
  const bool reproduced = best_build_speedup > 1.0 &&
                          shards_per_query < kShards / 2.0 &&
                          batch_scaling > 1.0 && cells_balanced;
  std::printf(
      "\nverdict: sharding's claims are %s here: the best sharded build is "
      "%.2fx the single block's, a query touches %.2f of %zu shards, the "
      "batch at %zu threads runs %.2fx the rate at 1 thread (on %u hardware "
      "threads), and shards hold %zu-%zu distinct cells (%s).\n",
      reproduced ? "reproduced" : "not reproduced", best_build_speedup,
      shards_per_query, kShards, thread_counts.back(), batch_scaling,
      std::thread::hardware_concurrency(), *min_cells, *max_cells,
      cells_balanced ? "balanced to within one" : "not balanced");
}

}  // namespace
}  // namespace geoblocks::bench

int main() { geoblocks::bench::Run(); }
