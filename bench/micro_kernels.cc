// Micro-benchmarks for the vectorized scan kernels: the batched SoA loops
// the refinement scans on the hot query path compile down to — predicate
// filter masks, per-column aggregate accumulation (plain and masked),
// point-in-polygon counting, cell-count summation, the sorted-key probes,
// and the CRC-32 over persisted bytes. Each kernel runs at the scalar
// reference level and at the runtime-dispatched level, results are compared
// bit for bit, and the speedups land in BENCH_kernels.json.
//
// Output contract (grepped by CI):
//   "parity mismatches: N"  — must be 0; any N > 0 is a correctness bug.
//   "kernel speedup gate: PASS|SKIP (scalar dispatch)|FAIL" — the ≥2×
//   SIMD-vs-scalar requirement on the refinement filter scan
//   (count_polygon_hits) and aggregate accumulation (aggregate_column);
//   SKIP when the build or machine dispatches scalar (GEOBLOCKS_NO_SIMD,
//   non-x86, or no SSE2), where no speedup can exist.
#include <algorithm>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <random>
#include <string>
#include <thread>
#include <vector>

#include "bench/common.h"
#include "core/scan_kernels.h"
#include "util/thread_pool.h"

namespace geoblocks::bench {
namespace {

using core::kernels::DispatchLevel;
using core::kernels::KernelTable;

struct KernelResult {
  std::string name;
  double scalar_ms = 0.0;
  double simd_ms = 0.0;
  bool parity = true;

  double Speedup() const { return simd_ms > 0.0 ? scalar_ms / simd_ms : 0.0; }
};

/// Best-of-`reps` wall time of `fn()` in milliseconds (minimum damps
/// scheduler noise; the kernels are deterministic, so min is meaningful).
template <typename Fn>
double BestMs(int reps, const Fn& fn) {
  double best = 1e300;
  for (int r = 0; r < reps; ++r) {
    bench_util::Timer timer;
    fn();
    best = std::min(best, timer.ElapsedMs());
  }
  return best;
}

void Run() {
  bench_util::Banner(
      "Micro — vectorized scan kernels",
      "scalar reference vs runtime-dispatched SIMD for the hot-path scan "
      "kernels; bit-identical parity required, speedups recorded.");

  const DispatchLevel active = core::kernels::ActiveDispatchLevel();
  const KernelTable& scalar = core::kernels::KernelsAt(DispatchLevel::kScalar);
  const KernelTable& simd = core::kernels::Kernels();

  const size_t n = std::max<size_t>(1 << 16, bench_util::Scaled(4'000'000));
  const int reps = 7;
  std::mt19937_64 rng(42);

  // Column data: plausible taxi-like values, nothing degenerate.
  std::vector<double> col_a(n), col_b(n);
  for (size_t i = 0; i < n; ++i) {
    col_a[i] = static_cast<double>(rng() % 100000) / 100.0;
    col_b[i] = static_cast<double>(rng() % 1000) / 10.0;
  }
  std::vector<uint8_t> mask(n), mask_ref(n);
  std::vector<uint32_t> counts(n);
  for (size_t i = 0; i < n; ++i) counts[i] = static_cast<uint32_t>(rng() % 64);
  std::vector<uint64_t> sorted_keys(n);
  for (size_t i = 0; i < n; ++i) sorted_keys[i] = rng();
  std::sort(sorted_keys.begin(), sorted_keys.end());

  // Points + a real neighborhood polygon for the refinement filter scan.
  const TaxiEnv env = TaxiEnv::Create(std::min<size_t>(TaxiPoints(), n), 16);
  const auto xs = env.data.xs();
  const auto ys = env.data.ys();
  const core::kernels::UnitTransform transform =
      core::kernels::UnitTransform::From(env.data.projection());
  const core::kernels::PreparedPolygon polygon =
      core::kernels::PreparedPolygon::From(env.neighborhoods[3]);

  std::vector<KernelResult> results;
  uint64_t parity_mismatches = 0;

  // -- filter_mask: two-predicate conjunction over two columns.
  {
    const storage::Predicate preds[2] = {
        {0, storage::CompareOp::kGe, 250.0},
        {1, storage::CompareOp::kLt, 80.0},
    };
    const double* cols[2] = {col_a.data(), col_b.data()};
    KernelResult r;
    r.name = "filter_mask";
    r.scalar_ms = BestMs(
        reps, [&] { scalar.filter_mask(preds, 2, cols, n, mask_ref.data()); });
    r.simd_ms =
        BestMs(reps, [&] { simd.filter_mask(preds, 2, cols, n, mask.data()); });
    r.parity = std::memcmp(mask.data(), mask_ref.data(), n) == 0;
    results.push_back(r);
  }

  // -- aggregate_column: min/max/striped-sum over one column.
  {
    core::ColumnAggregate want, got;
    KernelResult r;
    r.name = "aggregate_column";
    r.scalar_ms = BestMs(reps, [&] {
      want = core::ColumnAggregate{};
      scalar.aggregate_column(col_a.data(), n, &want);
    });
    r.simd_ms = BestMs(reps, [&] {
      got = core::ColumnAggregate{};
      simd.aggregate_column(col_a.data(), n, &got);
    });
    r.parity = want == got;
    results.push_back(r);
  }

  // -- aggregate_column_masked: same fold restricted to the filter's mask.
  {
    core::ColumnAggregate want, got;
    KernelResult r;
    r.name = "aggregate_column_masked";
    r.scalar_ms = BestMs(reps, [&] {
      want = core::ColumnAggregate{};
      scalar.aggregate_column_masked(col_b.data(), mask_ref.data(), n, &want);
    });
    r.simd_ms = BestMs(reps, [&] {
      got = core::ColumnAggregate{};
      simd.aggregate_column_masked(col_b.data(), mask_ref.data(), n, &got);
    });
    r.parity = want == got;
    results.push_back(r);
  }

  // -- count_polygon_hits: the residual-cell refinement scan (PIP filter).
  {
    uint64_t want = 0, got = 0;
    KernelResult r;
    r.name = "count_polygon_hits";
    r.scalar_ms = BestMs(reps, [&] {
      want = scalar.count_polygon_hits(xs.data(), ys.data(), xs.size(),
                                       transform, polygon);
    });
    r.simd_ms = BestMs(reps, [&] {
      got = simd.count_polygon_hits(xs.data(), ys.data(), xs.size(),
                                    transform, polygon);
    });
    r.parity = want == got;
    results.push_back(r);
  }

  // -- sum_counts: exact u64 sum of the COUNT range scan.
  {
    uint64_t want = 0, got = 0;
    KernelResult r;
    r.name = "sum_counts";
    r.scalar_ms =
        BestMs(reps, [&] { want = scalar.sum_counts(counts.data(), n); });
    r.simd_ms = BestMs(reps, [&] { got = simd.sum_counts(counts.data(), n); });
    r.parity = want == got;
    results.push_back(r);
  }

  // -- lower_bound_u64: branchless sorted-key probes (batch of lookups).
  {
    std::vector<uint64_t> probes(1 << 14);
    for (uint64_t& p : probes) p = rng();
    size_t want = 0, got = 0;
    KernelResult r;
    r.name = "lower_bound_u64";
    r.scalar_ms = BestMs(reps, [&] {
      want = 0;
      for (const uint64_t p : probes) {
        want += scalar.lower_bound_u64(sorted_keys.data(), n, p);
      }
    });
    r.simd_ms = BestMs(reps, [&] {
      got = 0;
      for (const uint64_t p : probes) {
        got += simd.lower_bound_u64(sorted_keys.data(), n, p);
      }
    });
    r.parity = want == got;
    results.push_back(r);
  }

  // -- crc32: the checksum on every shard fault, WAL record and file write;
  // slicing-by-8 (scalar) vs the dispatched level (PCLMULQDQ fold on AVX2)
  // over a fixed 4 MiB buffer.
  {
    std::vector<uint8_t> bytes(size_t{4} << 20);
    for (uint8_t& b : bytes) b = static_cast<uint8_t>(rng());
    uint32_t want = 0, got = 0;
    KernelResult r;
    r.name = "crc32";
    r.scalar_ms = BestMs(reps, [&] {
      want = scalar.crc32_update(0, bytes.data(), bytes.size());
    });
    r.simd_ms = BestMs(reps, [&] {
      got = simd.crc32_update(0, bytes.data(), bytes.size());
    });
    r.parity = want == got;
    results.push_back(r);
  }

  bench_util::TablePrinter table(
      {"kernel", "scalar ms", "dispatched ms", "speedup", "parity"});
  for (const KernelResult& r : results) {
    if (!r.parity) ++parity_mismatches;
    table.AddRow({r.name, bench_util::TablePrinter::Fmt(r.scalar_ms, 3),
                  bench_util::TablePrinter::Fmt(r.simd_ms, 3),
                  bench_util::TablePrinter::Fmt(r.Speedup(), 2),
                  r.parity ? "ok" : "MISMATCH"});
  }
  table.Print();

  std::printf("kernel dispatch: %s, pool type: %s, elements: %zu\n",
              core::kernels::ToString(active), util::ThreadPool::pool_type(),
              n);
  std::printf("parity mismatches: %llu\n",
              static_cast<unsigned long long>(parity_mismatches));

  // The ≥2× gate on the two kernels the acceptance criteria name. Scalar
  // dispatch (GEOBLOCKS_NO_SIMD or no SIMD hardware) times the same code
  // against itself, so the gate is skipped rather than failed there.
  const char* gate = "PASS";
  if (active == DispatchLevel::kScalar) {
    gate = "SKIP (scalar dispatch)";
  } else {
    double pip = 0.0, agg = 0.0;
    for (const KernelResult& r : results) {
      if (r.name == "count_polygon_hits") pip = r.Speedup();
      if (r.name == "aggregate_column") agg = r.Speedup();
    }
    if (pip < 2.0 || agg < 2.0) gate = "FAIL";
  }
  std::printf("kernel speedup gate: %s\n", gate);

  std::ofstream json("BENCH_kernels.json");
  json << "{\n"
       << "  \"bench\": \"micro_kernels\",\n"
       << "  \"hardware_concurrency\": "
       << std::thread::hardware_concurrency() << ",\n"
       << "  \"kernel_dispatch\": \"" << core::kernels::ToString(active)
       << "\",\n"
       << "  \"pool_type\": \"" << util::ThreadPool::pool_type() << "\",\n"
       << "  \"elements\": " << n << ",\n"
       << "  \"parity_mismatches\": " << parity_mismatches << ",\n"
       << "  \"gate\": \"" << gate << "\",\n"
       << "  \"results\": [\n";
  for (size_t i = 0; i < results.size(); ++i) {
    const KernelResult& r = results[i];
    json << "    {\"kernel\": \"" << r.name
         << "\", \"scalar_ms\": " << r.scalar_ms
         << ", \"dispatched_ms\": " << r.simd_ms
         << ", \"speedup\": " << r.Speedup() << "}"
         << (i + 1 < results.size() ? "," : "") << "\n";
  }
  json << "  ]\n}\n";
  std::printf("wrote BENCH_kernels.json\n");

  PaperNote(
      "the paper's refinement costs (Figures 12-14) assume per-row scalar "
      "scans; batching them into dispatch-selected SoA kernels keeps every "
      "answer bit-identical while cutting the dominant scan constants.");
}

}  // namespace
}  // namespace geoblocks::bench

int main() {
  geoblocks::bench::Run();
  return 0;
}
