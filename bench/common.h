#pragma once

#include <algorithm>
#include <cstdio>
#include <vector>

#include "bench_util/bench_util.h"
#include "core/aggregate.h"
#include "core/block_qc.h"
#include "core/geoblock.h"
#include "storage/sorted_dataset.h"
#include "workload/datagen.h"
#include "workload/polygen.h"
#include "workload/workload.h"

namespace geoblocks::bench {

/// Default dataset sizes at GEOBLOCKS_SCALE=1 (paper sizes are 12M taxi /
/// 8M tweets / 389M OSM; raise the scale to approach them).
inline size_t TaxiPoints() { return bench_util::Scaled(1'000'000); }
inline size_t TweetPoints() { return bench_util::Scaled(500'000); }
inline size_t OsmPoints() { return bench_util::Scaled(1'000'000); }

/// Number of neighborhood query polygons (the paper uses the 195 NYC NTAs).
inline constexpr size_t kNumNeighborhoods = 195;

/// The paper's reference block level for most experiments (~100 m cells).
inline constexpr int kDefaultLevel = 17;

/// The primary experimental environment: taxi data plus neighborhood
/// polygons.
struct TaxiEnv {
  storage::PointTable raw;
  storage::SortedDataset data;
  std::vector<geo::Polygon> neighborhoods;

  static TaxiEnv Create(size_t points, size_t polygons = kNumNeighborhoods) {
    TaxiEnv env;
    env.raw = workload::GenTaxi(points);
    storage::ExtractOptions options;
    options.clean_bounds = workload::NycBounds();
    env.data = storage::SortedDataset::Extract(env.raw, options);
    env.neighborhoods = workload::Neighborhoods(env.raw, polygons);
    return env;
  }
};

/// Runs every query of a workload through `select(polygon)` and returns the
/// total wall-clock milliseconds (result values are folded into a sink so
/// the work cannot be optimized away).
template <typename SelectFn>
double RunSelectWorkload(const workload::Workload& wl,
                         const SelectFn& select) {
  double sink = 0.0;
  bench_util::Timer timer;
  for (const geo::Polygon* poly : wl.queries) {
    const core::QueryResult r = select(*poly);
    sink += static_cast<double>(r.count);
  }
  const double ms = timer.ElapsedMs();
  if (sink < 0) std::printf("impossible\n");
  return ms;
}

/// Pre-computed per-query coverings so measurements isolate the probing
/// phase shared by the covering-based approaches.
inline std::vector<std::vector<cell::CellId>> CoverAll(
    const core::GeoBlock& block, const workload::Workload& wl) {
  std::vector<std::vector<cell::CellId>> coverings;
  coverings.reserve(wl.size());
  for (const geo::Polygon* poly : wl.queries) {
    coverings.push_back(block.Cover(*poly));
  }
  return coverings;
}

/// An AggregateRequest with `n` aggregates over the dataset's columns (the
/// paper requests each column at least once for its 7-aggregate workloads).
inline core::AggregateRequest RequestN(size_t n, size_t num_columns) {
  return core::AggregateRequest::FirstN(n, num_columns);
}

/// Median and range of a row's repeats.
struct Spread {
  double median = 0.0;
  double min = 0.0;
  double max = 0.0;

  static Spread Of(std::vector<double> v) {
    std::sort(v.begin(), v.end());
    return {v[v.size() / 2], v.front(), v.back()};
  }
};

inline void PaperNote(const char* note) {
  std::printf("paper: %s\n", note);
}

}  // namespace geoblocks::bench
