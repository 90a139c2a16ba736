// Micro-benchmarks for the dispatched scan kernels: the four KernelTable
// entries the refinement scans and the persisted-byte checksum compile down
// to — per-column aggregate accumulation (plain and masked), point-in-polygon
// counting, and the CRC-32 over persisted bytes. Each kernel runs at every
// dispatch level this build and CPU support (scalar, SSE2, AVX2), every
// level's result is compared bit for bit with the scalar reference, and the
// per-level speedups over scalar land in BENCH_kernels.json.
//
// Output contract (grepped by CI):
//   "parity mismatches: N"  — must be 0; any N > 0 is a correctness bug.
//   "kernel speedup gate: PASS|SKIP (scalar dispatch)|FAIL" — the ≥2×
//   SIMD-vs-scalar requirement at the active dispatch level on the
//   refinement filter scan (count_polygon_hits) and aggregate accumulation
//   (aggregate_column); SKIP when the build or machine dispatches scalar
//   (GEOBLOCKS_NO_SIMD, non-x86, or no SSE2), where no speedup can exist.
#include <algorithm>
#include <cstdio>
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

/// One kernel timed at one dispatch level.
struct TierResult {
  std::string kernel;
  DispatchLevel level = DispatchLevel::kScalar;
  double ms = 0.0;
  double speedup = 0.0;  ///< scalar ms / this level's ms
  bool parity = true;    ///< result bit-identical to the scalar level's
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

/// Times `run(fn)` with the table's `entry` at every supported level,
/// scalar first, and checks each level's result against the scalar one. A
/// level whose entry is the scalar function (the SSE2 CRC-32) is skipped:
/// it would time a function against itself.
template <typename Fn, typename Run>
void TimeTiers(const char* kernel, Fn KernelTable::*entry, int reps,
               const Run& run, std::vector<TierResult>* out) {
  const Fn scalar_fn =
      core::kernels::KernelsAt(DispatchLevel::kScalar).*entry;
  decltype(run(scalar_fn)) want{};
  double scalar_ms = 0.0;
  for (const DispatchLevel level :
       {DispatchLevel::kScalar, DispatchLevel::kSSE2, DispatchLevel::kAVX2}) {
    if (!core::kernels::Supported(level)) continue;
    const Fn fn = core::kernels::KernelsAt(level).*entry;
    if (level != DispatchLevel::kScalar && fn == scalar_fn) continue;
    decltype(want) got{};
    const double ms = BestMs(reps, [&] { got = run(fn); });
    if (level == DispatchLevel::kScalar) {
      want = got;
      scalar_ms = ms;
    }
    out->push_back({kernel, level, ms, ms > 0.0 ? scalar_ms / ms : 0.0,
                    got == want});
  }
}

void Run() {
  bench_util::Banner(
      "Micro — dispatched scan kernels",
      "every KernelTable entry at every supported dispatch level vs the "
      "scalar reference; bit-identical parity required, speedups recorded.");

  const DispatchLevel active = core::kernels::ActiveDispatchLevel();
  const size_t n = std::max<size_t>(1 << 16, bench_util::Scaled(4'000'000));
  const int reps = 7;
  std::mt19937_64 rng(42);

  // Column data: plausible taxi-like values, nothing degenerate.
  std::vector<double> col_a(n), col_b(n);
  for (size_t i = 0; i < n; ++i) {
    col_a[i] = static_cast<double>(rng() % 100000) / 100.0;
    col_b[i] = static_cast<double>(rng() % 1000) / 10.0;
  }
  // The masked fold runs under a two-predicate conjunction's mask.
  std::vector<uint8_t> mask(n);
  {
    const storage::Predicate preds[2] = {
        {0, storage::CompareOp::kGe, 250.0},
        {1, storage::CompareOp::kLt, 80.0},
    };
    const double* cols[2] = {col_a.data(), col_b.data()};
    core::kernels::FilterMask(preds, 2, cols, n, mask.data());
  }

  // Points + a real neighborhood polygon for the refinement filter scan.
  const TaxiEnv env = TaxiEnv::Create(std::min<size_t>(TaxiPoints(), n), 16);
  const auto xs = env.data.xs();
  const auto ys = env.data.ys();
  const core::kernels::UnitTransform transform =
      core::kernels::UnitTransform::From(env.data.projection());
  const core::kernels::PreparedPolygon polygon =
      core::kernels::PreparedPolygon::From(env.neighborhoods[3]);

  // The checksum on every shard fault, WAL record and file write, over a
  // fixed 4 MiB buffer.
  std::vector<uint8_t> bytes(size_t{4} << 20);
  for (uint8_t& b : bytes) b = static_cast<uint8_t>(rng());

  std::vector<TierResult> results;
  TimeTiers("aggregate_column", &KernelTable::aggregate_column, reps,
            [&](auto fn) {
              core::ColumnAggregate agg;
              fn(col_a.data(), n, &agg);
              return agg;
            },
            &results);
  TimeTiers("aggregate_column_masked", &KernelTable::aggregate_column_masked,
            reps,
            [&](auto fn) {
              core::ColumnAggregate agg;
              fn(col_b.data(), mask.data(), n, &agg);
              return agg;
            },
            &results);
  TimeTiers("count_polygon_hits", &KernelTable::count_polygon_hits, reps,
            [&](auto fn) {
              return fn(xs.data(), ys.data(), xs.size(), transform, polygon);
            },
            &results);
  TimeTiers("crc32", &KernelTable::crc32_update, reps,
            [&](auto fn) { return fn(0, bytes.data(), bytes.size()); },
            &results);

  uint64_t parity_mismatches = 0;
  bench_util::TablePrinter table(
      {"kernel", "level", "ms", "speedup vs scalar", "parity"});
  for (const TierResult& r : results) {
    if (!r.parity) ++parity_mismatches;
    table.AddRow({r.kernel, core::kernels::ToString(r.level),
                  bench_util::TablePrinter::Fmt(r.ms, 3),
                  bench_util::TablePrinter::Fmt(r.speedup, 2),
                  r.parity ? "ok" : "MISMATCH"});
  }
  table.Print();

  std::printf("kernel dispatch: %s, pool type: %s, elements: %zu\n",
              core::kernels::ToString(active), util::ThreadPool::pool_type(),
              n);
  std::printf("parity mismatches: %llu\n",
              static_cast<unsigned long long>(parity_mismatches));

  // The ≥2× gate on the two kernels the acceptance criteria name, at the
  // level queries actually dispatch to. Scalar dispatch (GEOBLOCKS_NO_SIMD
  // or no SIMD hardware) has no faster level, so the gate is skipped rather
  // than failed there.
  const char* gate = "PASS";
  if (active == DispatchLevel::kScalar) {
    gate = "SKIP (scalar dispatch)";
  } else {
    for (const TierResult& r : results) {
      if (r.level == active &&
          (r.kernel == "count_polygon_hits" || r.kernel == "aggregate_column") &&
          r.speedup < 2.0) {
        gate = "FAIL";
      }
    }
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
    const TierResult& r = results[i];
    json << "    {\"kernel\": \"" << r.kernel << "\", \"level\": \""
         << core::kernels::ToString(r.level) << "\", \"ms\": " << r.ms
         << ", \"speedup\": " << r.speedup << "}"
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
