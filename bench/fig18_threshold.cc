// Reproduces Figure 18: impact of the aggregate threshold (query-cache size
// as a fraction of the cell aggregates) on workload runtime and cache hit
// rate; also reports the average cache probe time (the paper quotes
// 58-81 ns for its trie lookup).
#include <algorithm>

#include "bench/common.h"

namespace geoblocks::bench {
namespace {

void Run() {
  bench_util::Banner("Figure 18 — impact of the aggregate threshold",
                     "1x base + 4x skewed; hit rates measured separately "
                     "for the base and skewed parts after cache warm-up. A "
                     "hit rate counts covering cells coarser than the block "
                     "level only: block-level cells bypass the cache.");
  const TaxiEnv env = TaxiEnv::Create(TaxiPoints());
  const core::GeoBlock block =
      core::GeoBlock::Build(env.data, {kDefaultLevel, {}});
  const core::AggregateRequest req = RequestN(7, env.data.num_columns());

  const workload::Workload base = workload::BaseWorkload(env.neighborhoods);
  const workload::Workload skewed =
      workload::SkewedWorkload(env.neighborhoods);
  const auto base_coverings = CoverAll(block, base);
  const auto skew_coverings = CoverAll(block, skewed);

  bench_util::TablePrinter table({"threshold", "base ms", "skew ms",
                                  "hit rate base", "hit rate skew",
                                  "cached cells", "probe ns",
                                  "skipped rebuilds"});
  const std::vector<double> thresholds = {0.0025, 0.01, 0.02, 0.05,
                                          0.10,   0.25, 0.50, 1.0};
  // One entry per threshold, for the verdict.
  std::vector<double> base_rates;
  std::vector<double> skew_rates;
  std::vector<double> probe_times;
  std::vector<double> skipped_shares;
  for (const double threshold : thresholds) {
    core::GeoBlockQC qc(&block, {threshold, 0});
    // Warm-up pass: run the whole workload once to gather statistics, then
    // build the cache.
    double sink = 0.0;
    for (const auto& c : base_coverings) {
      sink += static_cast<double>(qc.SelectCovering(c, req).count);
    }
    for (int r = 0; r < 4; ++r) {
      for (const auto& c : skew_coverings) {
        sink += static_cast<double>(qc.SelectCovering(c, req).count);
      }
    }
    qc.RebuildCache();

    // Measured pass.
    qc.ResetCounters();
    bench_util::Timer timer;
    for (const auto& c : base_coverings) {
      sink += static_cast<double>(qc.SelectCovering(c, req).count);
    }
    const double base_ms = timer.ElapsedMs();
    const double base_hits = qc.counters().HitRate();
    qc.ResetCounters();
    timer.Restart();
    for (int r = 0; r < 4; ++r) {
      for (const auto& c : skew_coverings) {
        sink += static_cast<double>(qc.SelectCovering(c, req).count);
      }
    }
    const double skew_ms = timer.ElapsedMs();
    const double skew_hits = qc.counters().HitRate();
    if (sink < 0) std::printf("impossible\n");

    // Average cache probe latency over all covering cells, probing the
    // published immutable snapshot the way the lock-free read path does:
    // one cache cursor per covering, a run of cached cells per cell, and
    // a search for the cell itself inside that run.
    const auto trie = qc.trie_snapshot();
    size_t probes = 0;
    bench_util::Timer probe_timer;
    uint64_t probe_sink = 0;
    for (const auto& coverings : {&base_coverings, &skew_coverings}) {
      for (const auto& covering : *coverings) {
        size_t cursor = 0;
        for (const cell::CellId& c : covering) {
          const core::BlockState::CellRun run = trie->NextRun(c, &cursor);
          probe_sink += trie->Find(c, run) != run.end ? 1 : 0;
          ++probes;
        }
      }
    }
    const double probe_ns =
        probe_timer.ElapsedMs() * 1e6 / static_cast<double>(probes);
    if (probe_sink == UINT64_MAX) std::printf("impossible\n");

    // The same query sequence through a cache that re-ranks at the default
    // rebuild_interval: the share of crossings the skip test answers
    // without a build.
    core::GeoBlockQC interval(
        &block, {threshold, core::GeoBlockQC::Options{}.rebuild_interval});
    for (int pass = 0; pass < 16; ++pass) {
      for (const auto& c : base_coverings) {
        sink += static_cast<double>(interval.SelectCovering(c, req).count);
      }
      for (int r = 0; r < 4; ++r) {
        for (const auto& c : skew_coverings) {
          sink += static_cast<double>(interval.SelectCovering(c, req).count);
        }
      }
    }
    const core::CacheCounters rebuilt = interval.counters();
    if (sink < 0) std::printf("impossible\n");

    base_rates.push_back(base_hits);
    skew_rates.push_back(skew_hits);
    probe_times.push_back(probe_ns);
    skipped_shares.push_back(rebuilt.SkippedRebuildShare());
    table.AddRow({bench_util::TablePrinter::Fmt(100.0 * threshold, 2) + "%",
                  bench_util::TablePrinter::Fmt(base_ms),
                  bench_util::TablePrinter::Fmt(skew_ms),
                  bench_util::TablePrinter::Fmt(100.0 * base_hits, 1) + "%",
                  bench_util::TablePrinter::Fmt(100.0 * skew_hits, 1) + "%",
                  std::to_string(trie->num_cached()),
                  bench_util::TablePrinter::Fmt(probe_ns, 1),
                  bench_util::TablePrinter::Fmt(
                      100.0 * rebuilt.SkippedRebuildShare(), 1) +
                      "% of " +
                      std::to_string(rebuilt.rebuilds +
                                     rebuilt.rebuilds_skipped)});
  }
  table.Print();

  const size_t reach = static_cast<size_t>(
      std::find_if(skew_rates.begin(), skew_rates.end(),
                   [](double rate) { return rate >= 0.9; }) -
      skew_rates.begin());
  if (reach == skew_rates.size()) {
    std::printf("\nverdict: the skewed hit rate stays below 90%% at every "
                "threshold measured (0.25-100%%)\n");
  } else {
    std::printf("\nverdict: the skewed hit rate first reaches 90%% at a "
                "%.2f%% threshold (%.1f%%)\n",
                100.0 * thresholds[reach], 100.0 * skew_rates[reach]);
  }
  const size_t drop = static_cast<size_t>(
      std::is_sorted_until(base_rates.begin(), base_rates.end()) -
      base_rates.begin());
  if (drop == base_rates.size()) {
    std::printf("verdict: the base hit rate is non-decreasing in the "
                "threshold\n");
  } else {
    std::printf("verdict: the base hit rate drops from %.1f%% to %.1f%% "
                "between the %.2f%% and %.2f%% thresholds\n",
                100.0 * base_rates[drop - 1], 100.0 * base_rates[drop],
                100.0 * thresholds[drop - 1], 100.0 * thresholds[drop]);
  }
  const auto [fastest, slowest] =
      std::minmax_element(probe_times.begin(), probe_times.end());
  std::printf("verdict: cache probes took %.1f-%.1f ns (paper's trie "
              "lookups: 58-81 ns)\n",
              *fastest, *slowest);
  const auto [fewest, most] =
      std::minmax_element(skipped_shares.begin(), skipped_shares.end());
  std::printf("verdict: with rebuilds every %zu queries, %.1f-%.1f%% of "
              "interval crossings left the cached set unchanged and "
              "published nothing\n",
              core::GeoBlockQC::Options{}.rebuild_interval, 100.0 * *fewest,
              100.0 * *most);
}

}  // namespace
}  // namespace geoblocks::bench

int main() { geoblocks::bench::Run(); }
