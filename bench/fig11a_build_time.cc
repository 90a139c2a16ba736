// Reproduces Figure 11a: preparation (build) time of GeoBlocks and the
// baselines, split into the shared sorting phase and the per-structure
// building phase. Block level 17 (~100 m cells).
#include "bench/common.h"
#include "index/btree_index.h"
#include "index/phtree.h"

namespace geoblocks::bench {
namespace {

void Run() {
  bench_util::Banner("Figure 11a — index build time (sorting + building)",
                     "Sorting is shared by all sorted approaches; the Block "
                     "sort additionally piggybacks grid-cell collection.");
  const storage::PointTable raw = workload::GenTaxi(TaxiPoints());
  storage::ExtractOptions options;
  options.clean_bounds = workload::NycBounds();

  // Sorting phase, measured separately for the plain baselines and for the
  // Block (which collects grid cells during the sort): kRepeats runs of
  // each, alternating which goes first, compared by their medians. Each
  // run's result is freed before the next starts, so every run starts from
  // the same heap.
  constexpr size_t kRepeats = 7;
  storage::ExtractOptions block_options = options;
  block_options.collect_cells_level = kDefaultLevel;
  std::vector<double> plain_ms;
  std::vector<double> block_ms;
  const auto time_extract = [&](const storage::ExtractOptions& opt,
                                std::vector<double>* ms) {
    storage::SortedDataset data;
    ms->push_back(bench_util::TimeMs(
        [&] { data = storage::SortedDataset::Extract(raw, opt); }));
  };
  for (size_t r = 0; r < kRepeats; ++r) {
    if (r % 2 == 0) {
      time_extract(options, &plain_ms);
      time_extract(block_options, &block_ms);
    } else {
      time_extract(block_options, &block_ms);
      time_extract(options, &plain_ms);
    }
  }
  const Spread plain_spread = Spread::Of(plain_ms);
  const Spread block_spread = Spread::Of(block_ms);
  const double sort_ms = plain_spread.median;
  const double block_sort_ms = block_spread.median;
  const storage::SortedDataset plain =
      storage::SortedDataset::Extract(raw, options);
  const storage::SortedDataset for_block =
      storage::SortedDataset::Extract(raw, block_options);

  // Building phases.
  core::GeoBlock block;
  const double block_build_ms = bench_util::TimeMs([&] {
    block = core::GeoBlock::Build(for_block, {kDefaultLevel, {}});
  });
  index::BTree btree;
  const double btree_build_ms = bench_util::TimeMs(
      [&] { btree = index::BTree::BulkLoad(plain.keys()); });
  const double phtree_build_ms = bench_util::TimeMs([&] {
    const index::PhTreeIndex ph(&plain);
    if (ph.tree().size() == 0) std::printf("impossible\n");
  });

  bench_util::TablePrinter table(
      {"algorithm", "sorting ms", "building ms", "total ms"});
  const auto row = [&](const char* name, double sort, double build) {
    table.AddRow({name, bench_util::TablePrinter::Fmt(sort),
                  bench_util::TablePrinter::Fmt(build),
                  bench_util::TablePrinter::Fmt(sort + build)});
  };
  row("BinarySearch", sort_ms, 0.0);
  row("Block", block_sort_ms, block_build_ms);
  row("BTree", sort_ms, btree_build_ms);
  row("PHTree", sort_ms, phtree_build_ms);
  table.Print();
  std::printf("(aRTree excluded: build time is orders of magnitude slower, "
              "as in the paper)\n");
  PaperNote(
      "Block sorts slightly slower than the plain baselines (piggybacked "
      "cell collection) but builds faster than BTree and PHTree overall; "
      "most Block preparation is sorting, so additional Blocks with other "
      "filters are cheap.");
  // "Slightly slower": the Block's median sort is slower than the plain
  // one's, by at most a quarter.
  const double extra = block_sort_ms / sort_ms - 1.0;
  std::printf("verdict: Block sorts slightly slower than the plain "
              "baselines: %s (Block %.2f ms vs plain %.2f ms, %+.1f%%; "
              "medians of %zu alternating runs, ranges %.2f-%.2f and "
              "%.2f-%.2f ms)\n",
              extra > 0.0 && extra <= 0.25 ? "reproduced" : "not reproduced",
              block_sort_ms, sort_ms, 100.0 * extra, kRepeats,
              block_spread.min, block_spread.max, plain_spread.min,
              plain_spread.max);
}

}  // namespace
}  // namespace geoblocks::bench

int main() { geoblocks::bench::Run(); }
