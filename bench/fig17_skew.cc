// Reproduces Figure 17: query runtime of Block vs BlockQC as the workload
// skew increases (base workload once plus the skewed workload 2/4/8/16
// times). Block level 17, cache threshold 5%.
//
// The cache adapts after the first skewed run; the (one-time) adaptation
// cost is reported in its own column rather than folded into a query — at
// paper scale (12M points) it is negligible against the workload, but at
// reduced scale it would otherwise mask the per-query crossover the figure
// is about.
#include <set>

#include "bench/common.h"

namespace geoblocks::bench {
namespace {

void Run() {
  bench_util::Banner("Figure 17 — runtime with increasing workload skew",
                     "1x base + Nx skewed runs; SELECT with 7 aggregates; "
                     "cache threshold 5% of the cell aggregates.");
  const TaxiEnv env = TaxiEnv::Create(TaxiPoints());
  const core::GeoBlock block =
      core::GeoBlock::Build(env.data, {kDefaultLevel, {}});
  const core::AggregateRequest req = RequestN(7, env.data.num_columns());

  const workload::Workload base = workload::BaseWorkload(env.neighborhoods);
  const workload::Workload skewed =
      workload::SkewedWorkload(env.neighborhoods);
  const auto base_coverings = CoverAll(block, base);
  const auto skew_coverings = CoverAll(block, skewed);

  // The paper sets the cache to 5% of the cell aggregates, chosen so that
  // it "roughly corresponds to aggregating all cells of the skewed
  // workload". Apply the same calibration at our scale, over the cells the
  // cache can hold: block-level covering cells are answered from the block
  // and never recorded or cached, so they do not count.
  std::set<uint64_t> skew_cells;
  for (const auto& covering : skew_coverings) {
    for (const cell::CellId& c : covering) {
      if (c.level() < block.level()) skew_cells.insert(c.id());
    }
  }
  const double bytes_needed =
      static_cast<double>(skew_cells.size()) *
      (192.0 + 2 * 32.0);  // aggregate payload + trie path slack
  const double threshold = std::max(
      0.05, bytes_needed / static_cast<double>(block.CellAggregateBytes()));
  std::printf("cache threshold: %.1f%% (covers the %zu distinct skewed "
              "covering cells coarser than the block level)\n\n",
              100.0 * threshold, skew_cells.size());

  const auto run_block = [&](auto& idx,
                             const std::vector<std::vector<cell::CellId>>&
                                 coverings) {
    double sink = 0.0;
    bench_util::Timer timer;
    for (const auto& covering : coverings) {
      sink += static_cast<double>(idx.SelectCovering(covering, req).count);
    }
    if (sink < 0) std::printf("impossible\n");
    return timer.ElapsedMs();
  };

  bench_util::TablePrinter table({"skewed runs", "Block base ms",
                                  "Block skew ms", "BlockQC base ms",
                                  "BlockQC skew ms", "QC adapt ms"});
  // The first run count whose BlockQC skewed time beats Block's, if any.
  size_t crossover_runs = 0;
  double crossover_block_ms = 0.0;
  double crossover_qc_ms = 0.0;
  for (const size_t runs : {2u, 4u, 8u, 16u}) {
    // Plain Block.
    const double block_base_ms = run_block(block, base_coverings);
    double block_skew_ms = 0.0;
    for (size_t r = 0; r < runs; ++r) {
      block_skew_ms += run_block(block, skew_coverings);
    }

    // BlockQC: cold base pass, one cold skewed run, then the cache adapts
    // (statistics were recorded along the way) and the remaining runs are
    // answered from the trie.
    core::GeoBlockQC qc(&block, {threshold, 0});
    const double qc_base_ms = run_block(qc, base_coverings);
    double qc_skew_ms = run_block(qc, skew_coverings);  // cold run
    const double adapt_ms = bench_util::TimeMs([&] { qc.RebuildCache(); });
    for (size_t r = 1; r < runs; ++r) {
      qc_skew_ms += run_block(qc, skew_coverings);
    }
    if (crossover_runs == 0 && qc_skew_ms < block_skew_ms) {
      crossover_runs = runs;
      crossover_block_ms = block_skew_ms;
      crossover_qc_ms = qc_skew_ms;
    }
    table.AddRow({std::to_string(runs),
                  bench_util::TablePrinter::Fmt(block_base_ms),
                  bench_util::TablePrinter::Fmt(block_skew_ms),
                  bench_util::TablePrinter::Fmt(qc_base_ms),
                  bench_util::TablePrinter::Fmt(qc_skew_ms),
                  bench_util::TablePrinter::Fmt(adapt_ms)});
  }
  table.Print();
  if (crossover_runs == 0) {
    std::printf("\nverdict: BlockQC's skewed time is not below Block's at any "
                "run count measured (2-16)\n");
  } else {
    std::printf("\nverdict: BlockQC's skewed time first drops below Block's "
                "at %zu skewed runs (%.2f ms vs %.2f ms)\n",
                crossover_runs, crossover_qc_ms, crossover_block_ms);
  }
  PaperNote(
      "after about four skewed runs the cached aggregates start to pay off "
      "and BlockQC pulls ahead on the skewed part, while the base part stays "
      "nearly constant and slightly favors Block (trie probe overhead). The "
      "verdict line above is what this run measured.");
}

}  // namespace
}  // namespace geoblocks::bench

int main() { geoblocks::bench::Run(); }
