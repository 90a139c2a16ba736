// Reproduces Figure 16: relative error and per-query runtime for block
// levels 13-21 on the taxi dataset, with the covering and the probe timed
// apart.
#include <string>

#include "bench/common.h"
#include "cell/coverer.h"
#include "workload/exact.h"

namespace geoblocks::bench {
namespace {

void Run() {
  bench_util::Banner("Figure 16 — relative error and runtime per level",
                     "Neighborhood workload; SELECT with 7 aggregates; "
                     "error of the covering count vs exact ground truth.");
  const TaxiEnv env = TaxiEnv::Create(TaxiPoints());
  const workload::Workload wl = workload::BaseWorkload(env.neighborhoods);
  const core::AggregateRequest req = RequestN(7, env.data.num_columns());

  std::vector<uint64_t> exact;
  exact.reserve(wl.size());
  for (const geo::Polygon* poly : wl.queries) {
    exact.push_back(workload::ExactCount(env.data, *poly));
  }

  // The queries on the unit square, projected once, so the covering
  // column times GetCovering alone.
  std::vector<geo::Polygon> unit;
  unit.reserve(wl.size());
  for (const geo::Polygon* poly : wl.queries) {
    unit.push_back(env.data.projection().ToUnit(*poly));
  }
  std::vector<cell::CoveringCell> covering_scratch;

  bench_util::TablePrinter table({"level", "~cell diag", "covering us/query",
                                  "probe us/query", "rel. error"});
  std::vector<double> errors;
  std::vector<double> runtimes;
  for (int level = 13; level <= 21; ++level) {
    const core::GeoBlock block = core::GeoBlock::Build(env.data, {level, {}});
    // Coverings are recomputed per level (they must not descend below the
    // block's grid), but timed separately from the aggregate probing.
    const auto coverings = CoverAll(block, wl);
    double total_error = 0.0;
    size_t measured = 0;
    for (size_t i = 0; i < coverings.size(); ++i) {
      if (exact[i] == 0) continue;
      total_error += workload::RelativeError(
          block.CountCovering(coverings[i]), exact[i]);
      ++measured;
    }
    const double cover_ms = bench_util::MedianTimeMs(3, [&] {
      size_t cells = 0;
      for (const geo::Polygon& poly : unit) {
        cell::GetCovering(poly, level, &covering_scratch);
        cells += covering_scratch.size();
      }
      if (cells == 0) std::printf("impossible\n");
    });
    const double ms = bench_util::MedianTimeMs(3, [&] {
      double sink = 0.0;
      for (const auto& covering : coverings) {
        sink +=
            static_cast<double>(block.SelectCovering(covering, req).count);
      }
      if (sink < 0) std::printf("impossible\n");
    });
    const double per_query = 1000.0 / static_cast<double>(wl.size());
    const double error = 100.0 * total_error / static_cast<double>(measured);
    errors.push_back(error);
    runtimes.push_back(per_query * (cover_ms + ms));
    table.AddRow(
        {std::to_string(level),
         bench_util::TablePrinter::Fmt(
             cell::ApproxCellDiagonalMeters(level), 0) +
             "m",
         bench_util::TablePrinter::Fmt(per_query * cover_ms, 1),
         bench_util::TablePrinter::Fmt(per_query * ms, 1),
         bench_util::TablePrinter::Fmt(error, 2) + "%"});
  }
  table.Print();
  // The paper's claim, checked on the rows above: from each level to the
  // next the error falls and the runtime (covering plus probe) rises.
  int error_falls = 0;
  int runtime_rises = 0;
  const int steps = static_cast<int>(errors.size()) - 1;
  for (int i = 0; i < steps; ++i) {
    error_falls += errors[i + 1] < errors[i];
    runtime_rises += runtimes[i + 1] > runtimes[i];
  }
  std::printf(
      "\nverdict: the paper's claim that the error falls and the runtime "
      "rises with the level is %s here: from level 13 to 21 the error falls "
      "at %d of %d level steps (%.2f%% -> %.2f%%) and the runtime (covering "
      "plus probe) rises at %d of %d (%.1f -> %.1f us/query). The error "
      "falls %.2fx at the first step and %.2fx at the last.\n",
      error_falls == steps && runtime_rises == steps ? "reproduced"
                                                     : "not reproduced",
      error_falls, steps, errors.front(), errors.back(), runtime_rises, steps,
      runtimes.front(), runtimes.back(), errors[0] / errors[1],
      errors[steps - 1] / errors[steps]);
}

}  // namespace
}  // namespace geoblocks::bench

int main() { geoblocks::bench::Run(); }
