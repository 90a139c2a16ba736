// perfbench: the workload program behind perfbench/run.py.
//
//   perfbench --workload <engine_zipf|lazy_zipf_half|served_mixed_durable>
//             --seed <n> --seconds <s> --trace <0|1> --workdir <dir>
//             [--points <n>] [--setup-reps <n>]
//
// One process runs one workload: it generates its inputs (the request
// stream is drawn from the seed), sets the program up several times
// (setup_s is the median), checks every answer against an oracle while it
// measures for --seconds, and prints a human-readable report followed by
// one JSON line holding every metric it measured. run.py keeps the metrics
// BENCHMARK.json names. --points and --setup-reps shrink a run for the
// self-test (selftest.py). The timed end-to-end metrics are scaled to a
// steady host by a yardstick timed beside them (see EmitReads); the raw
// figures are printed too.
//
// The workloads (why each exists is in BENCHMARK.json):
//   engine_zipf           single-thread SelectCached on an eager 8-shard set,
//                         Zipf(s=1) over the neighborhoods, cache on.
//   lazy_zipf_half        single-thread Select on a 32-shard OpenMapped set
//                         whose governor budget is half its resident size.
//   served_mixed_durable  QueryServer (pool of 1, WAL attached); one closed-
//                         loop reader (SELECT:COUNT 7:1) and one writer
//                         sending paced 32-tuple UPDATEs.
//
// With --trace 1 the timed phase alternates untraced and traced blocks of
// queries. Traced blocks split each query at the library's public entry
// points (CoverInto, SelectCovering[Cached], ExecuteBatch, PING,
// UpdateLog::Append, ApplyBatchUpdate); spans are kept in memory and
// summarized at the end. Comparing the two kinds of block gives the
// tracing overhead under the same conditions.

#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <charconv>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <memory>
#include <numbers>
#include <numeric>
#include <random>
#include <string>
#include <thread>
#include <vector>

#include "core/aggregate.h"
#include "core/block_set.h"
#include "core/memory_governor.h"
#include "core/scan_kernels.h"
#include "io/update_log.h"
#include "server/client.h"
#include "server/server.h"
#include "storage/sharded_dataset.h"
#include "storage/sorted_dataset.h"
#include "util/thread_pool.h"
#include "workload/datagen.h"
#include "workload/polygen.h"

namespace gb = geoblocks;

namespace {

using Clock = std::chrono::steady_clock;

constexpr int kLevel = 17;
constexpr size_t kPolygons = 195;
constexpr size_t kAggregates = 4;

double Us(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::micro>(b - a).count();
}
double Secs(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

/// Nearest-rank quantile (q in (0, 1]) of `v`; 0 when empty.
double Quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double rank = std::ceil(q * static_cast<double>(v.size()));
  const size_t idx =
      std::min(v.size() - 1, static_cast<size_t>(std::max(rank, 1.0)) - 1);
  return v[idx];
}

double Mean(const std::vector<double>& v) {
  if (v.empty()) return 0.0;
  return std::accumulate(v.begin(), v.end(), 0.0) /
         static_cast<double>(v.size());
}

double Ratio(double num, double den) { return den == 0.0 ? 0.0 : num / den; }

uint64_t Mix(uint64_t seed, uint64_t stream) {
  // SplitMix64 finalizer: independent sub-seeds from one workload seed.
  uint64_t z = seed * 0x9E3779B97F4A7C15ULL + stream * 0xD1B54A32D192ED03ULL;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

/// FNV-1a over answers: the answer digest of the fingerprint.
struct Digest {
  uint64_t h = 0xcbf29ce484222325ULL;
  void Add(uint64_t x) {
    for (int i = 0; i < 8; ++i) {
      h ^= (x >> (8 * i)) & 0xff;
      h *= 0x100000001b3ULL;
    }
  }
  void Add(const gb::core::QueryResult& r) {
    Add(r.count);
    for (const double v : r.values) {
      uint64_t bits = 0;
      std::memcpy(&bits, &v, sizeof bits);
      Add(bits);
    }
  }
};

bool BitIdentical(const gb::core::QueryResult& a,
                  const gb::core::QueryResult& b) {
  return a.count == b.count && a.values.size() == b.values.size() &&
         (a.values.empty() ||
          std::memcmp(a.values.data(), b.values.data(),
                      a.values.size() * sizeof(double)) == 0);
}

/// The cached path folds trie aggregates in a different order than the
/// uncached cell scan, so its sums may differ from the oracle in the last
/// bits (tests/block_qc_test.cc compares them with a tolerance too). Counts
/// must match exactly.
bool MatchesUncached(const gb::core::QueryResult& cached,
                     const gb::core::QueryResult& oracle) {
  if (cached.count != oracle.count ||
      cached.values.size() != oracle.values.size()) {
    return false;
  }
  for (size_t i = 0; i < cached.values.size(); ++i) {
    const double tol = 1e-9 * std::max(1.0, std::fabs(oracle.values[i]));
    if (std::fabs(cached.values[i] - oracle.values[i]) > tol) return false;
  }
  return true;
}

/// Aggregate CPU steal share from /proc/stat between two samples.
struct CpuTicks {
  uint64_t steal = 0;
  uint64_t total = 0;
  static CpuTicks Read() {
    CpuTicks t;
    std::ifstream in("/proc/stat");
    std::string cpu;
    in >> cpu;
    uint64_t field = 0;
    for (int i = 0; i < 8 && (in >> field); ++i) {
      t.total += field;
      if (i == 7) t.steal = field;
    }
    return t;
  }
};

double StealShare(const CpuTicks& a, const CpuTicks& b) {
  return Ratio(static_cast<double>(b.steal - a.steal),
               static_cast<double>(b.total - a.total));
}

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string workdir = ".";
  size_t points = 1'000'000;
  size_t setup_reps = 5;
};

/// Everything one run measured, plus its verdict.
class Report {
 public:
  void Metric(const std::string& name, double value, const std::string& unit) {
    metrics_.push_back({name, value, unit});
  }
  void Line(const std::string& text) { lines_.push_back(text); }
  void Fingerprint(const std::string& key, uint64_t value) {
    fingerprint_.push_back({key, value});
  }
  void Attempt(uint64_t n = 1) { attempted_ += n; }
  void Fail(const std::string& why) {
    ++failed_;
    if (failures_shown_++ < 10) {
      std::fprintf(stderr, "violation: %s\n", why.c_str());
    }
  }
  uint64_t attempted() const { return attempted_; }
  uint64_t failed() const { return failed_; }

  void Print(const Args& args) const {
    std::printf("workload: %s  seed: %llu  seconds: %g  trace: %d\n",
                args.workload.c_str(),
                static_cast<unsigned long long>(args.seed), args.seconds,
                args.trace ? 1 : 0);
    for (const std::string& l : lines_) std::printf("%s\n", l.c_str());
    std::printf("fingerprint:");
    for (const auto& [k, v] : fingerprint_) {
      std::printf(" %s=%llu", k.c_str(), static_cast<unsigned long long>(v));
    }
    std::printf("\n");
    for (const MetricValue& m : metrics_) {
      std::printf("  %-36s %16.6f %s\n", m.name.c_str(), m.value,
                  m.unit.c_str());
    }
    std::printf("attempted: %llu  failed: %llu  error_rate: %.6f\n",
                static_cast<unsigned long long>(attempted_),
                static_cast<unsigned long long>(failed_),
                Ratio(static_cast<double>(failed_),
                      static_cast<double>(attempted_)));
    std::string json = "{\"correct\": ";
    json += failed_ == 0 && attempted_ > 0 ? "true" : "false";
    json += ", \"attempted\": " + std::to_string(attempted_);
    json += ", \"failed\": " + std::to_string(failed_);
    json += ", \"metrics\": {";
    for (size_t i = 0; i < metrics_.size(); ++i) {
      char buf[64];
      const auto res =
          std::to_chars(buf, buf + sizeof buf, metrics_[i].value);
      json += (i ? ", \"" : "\"") + metrics_[i].name + "\": {\"value\": " +
              std::string(buf, res.ptr) + ", \"unit\": \"" + metrics_[i].unit +
              "\"}";
    }
    json += "}}";
    std::printf("%s\n", json.c_str());
    std::fflush(stdout);
  }

 private:
  struct MetricValue {
    std::string name;
    double value;
    std::string unit;
  };
  std::vector<MetricValue> metrics_;
  std::vector<std::string> lines_;
  std::vector<std::pair<std::string, uint64_t>> fingerprint_;
  uint64_t attempted_ = 0;
  uint64_t failed_ = 0;
  uint64_t failures_shown_ = 0;
};

std::string Fmt(const char* fmt, double a, double b = 0.0, double c = 0.0) {
  char buf[256];
  std::snprintf(buf, sizeof buf, fmt, a, b, c);
  return buf;
}

/// The generated inputs. The population — the raw points, the 195
/// neighborhood polygons and their Zipf(s=1) popularity ranking (polygon i
/// has weight 1/(i+1)) — is fixed; the workload seed draws the request
/// stream and the update batches. With a seed-drawn population the hot set
/// changed from seed to seed and moved read p50 by +-25% on its own, which
/// would hide the changes the benchmark exists to catch. The program only
/// ever sees these generated inputs.
struct Inputs {
  gb::storage::PointTable raw;
  std::vector<gb::geo::Polygon> polygons;
  std::vector<double> zipf_weights;

  static Inputs Make(const Args& args) {
    Inputs in;
    in.raw = gb::workload::GenTaxi(args.points);
    in.polygons = gb::workload::Neighborhoods(in.raw, kPolygons);
    for (size_t i = 0; i < in.polygons.size(); ++i) {
      in.zipf_weights.push_back(1.0 / static_cast<double>(i + 1));
    }
    return in;
  }
};

/// Extract + Partition + Build, with the two phases timed separately.
struct Built {
  std::shared_ptr<const gb::storage::SortedDataset> data;
  std::unique_ptr<gb::core::BlockSet> set;
  double extract_s = 0.0;
  double build_s = 0.0;
};

Built ExtractAndBuild(const Inputs& in, size_t shards) {
  Built b;
  const Clock::time_point t0 = Clock::now();
  gb::storage::ExtractOptions extract;
  extract.clean_bounds = gb::workload::NycBounds();
  b.data = std::make_shared<const gb::storage::SortedDataset>(
      gb::storage::SortedDataset::Extract(in.raw, extract));
  const Clock::time_point t1 = Clock::now();
  gb::storage::ShardOptions shard_options;
  shard_options.num_shards = shards;
  shard_options.align_level = kLevel;
  const gb::storage::ShardedDataset sharded =
      gb::storage::ShardedDataset::Partition(b.data, shard_options);
  b.set = std::make_unique<gb::core::BlockSet>(gb::core::BlockSet::Build(
      sharded, gb::core::BlockSetOptions{{kLevel, {}}}));
  const Clock::time_point t2 = Clock::now();
  b.extract_s = Secs(t0, t1);
  b.build_s = Secs(t1, t2);
  return b;
}

/// The yardstick: a fixed piece of covering-like work timed between reads,
/// so that each read can be scaled by how fast the host ran this process
/// at that moment (see EmitReads). A quadtree over the unit square is
/// refined along the boundary of a fixed star polygon, each cell testing
/// only the edges that crossed its parent and classifying edge-free cells
/// by a point-in-polygon test, as a covering does. It is the benchmark's
/// own code, built with the benchmark's own flags, so no change to the
/// program moves it.
class Yardstick {
 public:
  Yardstick() {
    const size_t n = 2 * kStarPoints;
    for (size_t i = 0; i < n; ++i) {
      const double radius = i % 2 == 0 ? 0.45 : 0.2;
      const double angle = 2.0 * std::numbers::pi * static_cast<double>(i) /
                           static_cast<double>(n);
      x_.push_back(0.5 + radius * std::cos(angle));
      y_.push_back(0.5 + radius * std::sin(angle));
    }
  }

  /// Runs the work kRuns times back to back and returns the fastest run's
  /// wall time in microseconds. The first runs load the caches and train
  /// the branch predictors, so the result does not depend on what ran
  /// before: after a read, a single run took 2-3x as long as a trained one
  /// and would move with the program's own footprint.
  double RunUs() {
    double best = 0.0;
    for (int i = 0; i < kRuns; ++i) {
      const Clock::time_point t0 = Clock::now();
      Run();
      const double us = Us(t0, Clock::now());
      if (i == 0 || us < best) best = us;
    }
    return best;
  }

  /// Cells the last run kept; the same on every run.
  uint64_t cells() const { return cells_; }

 private:
  static constexpr size_t kStarPoints = 10;
  static constexpr int kDepth = 5;
  static constexpr int kRuns = 5;

  /// Whether edge e (from vertex e to e + 1) meets the square [x0, x0 + s]
  /// x [y0, y0 + s].
  bool Crosses(uint32_t e, double x0, double y0, double s) const {
    const size_t f = (e + 1) % x_.size();
    const double ax = x_[e], ay = y_[e], bx = x_[f], by = y_[f];
    if (std::max(ax, bx) < x0 || std::min(ax, bx) > x0 + s ||
        std::max(ay, by) < y0 || std::min(ay, by) > y0 + s) {
      return false;
    }
    int above = 0;
    for (int c = 0; c < 4; ++c) {
      const double cx = x0 + (c & 1) * s, cy = y0 + (c >> 1) * s;
      above += (bx - ax) * (cy - ay) - (by - ay) * (cx - ax) > 0.0 ? 1 : 0;
    }
    return above != 0 && above != 4;
  }

  bool Inside(double px, double py) const {
    bool inside = false;
    for (size_t i = 0, j = x_.size() - 1; i < x_.size(); j = i++) {
      if ((y_[i] > py) != (y_[j] > py) &&
          px < (x_[j] - x_[i]) * (py - y_[i]) / (y_[j] - y_[i]) + x_[i]) {
        inside = !inside;
      }
    }
    return inside;
  }

  void Run() {
    edges_.resize(x_.size());
    std::iota(edges_.begin(), edges_.end(), uint32_t{0});
    cells_ = 0;
    Descend(0.0, 0.0, 1.0, 0, 0, edges_.size());
  }

  /// Refines the cell at (x0, y0) of side s, whose crossing edges are
  /// edges_[first, first + count).
  void Descend(double x0, double y0, double s, int depth, size_t first,
               size_t count) {
    if (depth == kDepth) {
      ++cells_;
      return;
    }
    const double h = s / 2.0;
    for (int c = 0; c < 4; ++c) {
      const double cx = x0 + (c & 1) * h, cy = y0 + (c >> 1) * h;
      const size_t begin = edges_.size();
      for (size_t k = first; k < first + count; ++k) {
        if (Crosses(edges_[k], cx, cy, h)) edges_.push_back(edges_[k]);
      }
      if (edges_.size() > begin) {
        Descend(cx, cy, h, depth + 1, begin, edges_.size() - begin);
      } else if (Inside(cx + h / 2.0, cy + h / 2.0)) {
        ++cells_;
      }
      edges_.resize(begin);
    }
  }

  std::vector<double> x_, y_;
  std::vector<uint32_t> edges_;  // a stack of per-cell edge lists
  uint64_t cells_ = 0;
};

/// How often the yardstick runs during a timed phase (each time costs about
/// 0.1-0.15 ms, under 2% of the phase), the span of the windows whose
/// yardstick median scales the reads in them, and the yardstick time the
/// scaled figures are expressed at: about what it takes on the 4-vCPU VM
/// the benchmark was tuned on (Intel Xeon, KVM guest) when the host leaves
/// it alone, so that scaled and raw figures agree there.
constexpr auto kYardstickEvery = std::chrono::milliseconds(8);
constexpr double kSpeedWindowS = 0.25;
constexpr double kYardstickNominalUs = 20.0;

/// Per-rep set-up times; setup_s and the set-up layer metrics are medians.
/// setup_s is scaled to a steady host like the read metrics (EmitReads):
/// each rep by kYardstickNominalUs over the median of yardstick runs just
/// before and just after it. The layer times are not scaled.
struct SetupTimes {
  std::vector<double> extract, build, open, total, raw_total;
  Yardstick yardstick;
  std::vector<double> around_us;

  /// Call just before each rep.
  void BeginRep() {
    around_us.clear();
    SampleYardstick();
  }
  void Add(const Built& b, double open_s) {
    SampleYardstick();
    const double raw = b.extract_s + b.build_s + open_s;
    extract.push_back(b.extract_s);
    build.push_back(b.build_s);
    open.push_back(open_s);
    raw_total.push_back(raw);
    total.push_back(raw *
                    Ratio(kYardstickNominalUs, Quantile(around_us, 0.5)));
  }
  void SampleYardstick() {
    for (int i = 0; i < 4; ++i) around_us.push_back(yardstick.RunUs());
  }
  void Emit(Report* r) const {
    r->Metric("setup_s", Quantile(total, 0.5), "s");
    r->Metric("storage.extract_s", Quantile(extract, 0.5), "s");
    r->Metric("core.build_s", Quantile(build, 0.5), "s");
    r->Metric("core.open_s", Quantile(open, 0.5), "s");
    std::string reps = "setup reps, raw (scaled) s:";
    for (size_t i = 0; i < total.size(); ++i) {
      reps += Fmt(" %.4f (%.4f)", raw_total[i], total[i]);
    }
    r->Line(reps);
  }
};

/// Latencies of the timed phase, split by block kind when tracing.
struct ReadSamples {
  std::vector<double> all_us;       // every timed read
  std::vector<double> untraced_us;  // reads in untraced blocks
  std::vector<double> traced_us;    // reads in traced blocks
  std::vector<double> done_s;       // each read's completion, since start
  std::vector<double> loop_s;       // each loop turn, yardstick excluded
  // Wall time spent in each block kind, tracing and bookkeeping included.
  double untraced_s = 0.0;
  double traced_s = 0.0;
  Clock::time_point start, lap, last_done, next_yardstick;
  std::vector<double> cover_us, probe_us;
  std::vector<double> cells, shards;
  // Yardstick samples: when each started, since start, and its time.
  Yardstick yardstick;
  std::vector<double> yardstick_at_s, yardstick_us;
  double yardstick_pending_s = 0.0;

  void Begin(Clock::time_point t) {
    start = lap = last_done = next_yardstick = t;
  }
  void Add(double us, bool traced) {
    const Clock::time_point t = Clock::now();
    all_us.push_back(us);
    done_s.push_back(Secs(start, t));
    loop_s.push_back(Secs(last_done, t) - yardstick_pending_s);
    last_done = t;
    yardstick_pending_s = 0.0;
    (traced ? traced_us : untraced_us).push_back(us);
  }
  /// Charges the time since the previous lap to the block kind, and runs
  /// the yardstick when it is due.
  void Lap(bool traced) {
    Clock::time_point t = Clock::now();
    if (t >= next_yardstick) {
      yardstick_at_s.push_back(Secs(start, t));
      yardstick_us.push_back(yardstick.RunUs());
      next_yardstick = t + kYardstickEvery;
      const Clock::time_point after = Clock::now();
      yardstick_pending_s += Secs(t, after);
      t = after;
    }
    (traced ? traced_s : untraced_s) += Secs(lap, t);
    lap = t;
  }
};

/// The end-to-end read metrics and the mode-boundary check shared by every
/// workload. `slow_share` is the share of reads in the workload's slow mode.
///
/// The read metrics are scaled to a steady host. On the shared 4-vCPU VM
/// the benchmark was tuned on, the host runs this process at two speeds
/// that alternate in episodes of seconds to over a minute: in the slow one
/// engine reads take about 1.45x as long, the same for every polygon, with
/// no CPU steal reported and thread CPU time equal to wall time. A third of
/// 25 s engine runs saw only one of the two speeds, so any window or
/// quantile of raw reads landed on either speed from run to run: across
/// five seeds the quartile spread of raw read_p90_us was 0.2-0.3 of its
/// median on engine and up to 0.4 on served. So the timed phase is cut
/// into kSpeedWindowS windows, each read is scaled by kYardstickNominalUs
/// over the median yardstick time of its window, and read_p50_us,
/// read_p90_us and read_qps are taken over every scaled read of the run
/// (read_qps over the loop time, yardstick excluded). With that the same
/// five-seed spread was 0.02-0.1. A change to the program moves its reads
/// and not the yardstick. The yardstick is pure computation, so where
/// contention slows it more than memory-heavy work, scaling overcorrects:
/// in the most contended of those runs, scaled lazy read p50 and setup_s
/// came out 7% and 22% below the other runs'. The raw figures and the
/// yardstick's range are printed beside the scaled ones.
void EmitReads(const ReadSamples& s, double slow_share, const char* slow_mode,
               Report* r) {
  const size_t n = s.all_us.size();
  const double span = n == 0 ? 0.0 : s.done_s.back();
  const size_t windows = static_cast<size_t>(span / kSpeedWindowS) + 1;
  std::vector<std::vector<double>> by_window(windows);
  for (size_t k = 0; k < s.yardstick_us.size(); ++k) {
    const size_t w = std::min(
        windows - 1, static_cast<size_t>(s.yardstick_at_s[k] / kSpeedWindowS));
    by_window[w].push_back(s.yardstick_us[k]);
  }
  // A window without a yardstick run (a read longer than the window) takes
  // the one before it.
  std::vector<double> scale(windows, 1.0);
  double last = Quantile(s.yardstick_us, 0.5);
  for (size_t w = 0; w < windows; ++w) {
    if (!by_window[w].empty()) last = Quantile(by_window[w], 0.5);
    scale[w] = Ratio(kYardstickNominalUs, last);
  }
  std::vector<double> scaled_us(n);
  double scaled_s = 0.0;
  for (size_t i = 0; i < n; ++i) {
    const double f = scale[std::min(
        windows - 1, static_cast<size_t>(s.done_s[i] / kSpeedWindowS))];
    scaled_us[i] = s.all_us[i] * f;
    scaled_s += s.loop_s[i] * f;
  }
  r->Metric("read_p50_us", Quantile(scaled_us, 0.5), "us");
  r->Metric("read_p90_us", Quantile(scaled_us, 0.9), "us");
  r->Metric("read_qps", Ratio(static_cast<double>(n), scaled_s), "1/s");
  double loop_total_s = 0.0;
  for (const double l : s.loop_s) loop_total_s += l;
  r->Line(Fmt("raw (unscaled): read p50 %.3f us, p90 %.3f us, qps %.1f",
              Quantile(s.all_us, 0.5), Quantile(s.all_us, 0.9),
              Ratio(static_cast<double>(n), loop_total_s)));
  r->Line(Fmt("yardstick: %.0f runs, median %.3f us (nominal %.1f us)",
              static_cast<double>(s.yardstick_us.size()),
              Quantile(s.yardstick_us, 0.5), kYardstickNominalUs) +
          Fmt(", p10 %.3f us, p90 %.3f us", Quantile(s.yardstick_us, 0.1),
              Quantile(s.yardstick_us, 0.9)) +
          Fmt(", %.0f cells", static_cast<double>(s.yardstick.cells())));
  r->Metric("mode.slow_share", slow_share, "ratio");
  r->Line(std::string("slow mode (") + slow_mode + ") share " +
          Fmt("%.4f", slow_share));
  // A percentile that sits near the fast/slow boundary flips between modes
  // from run to run; flag it so a drift there is not read as a change.
  for (const double q : {0.5, 0.9}) {
    if (std::fabs(q - (1.0 - slow_share)) < 0.05) {
      r->Line(Fmt("WARNING: p%.0f sits within 5 points of the slow-mode "
                  "boundary (fast share %.4f); expect mode flips",
                  q * 100.0, 1.0 - slow_share));
    }
  }
  if (!s.traced_us.empty() && !s.untraced_us.empty()) {
    const double p50_ratio =
        Ratio(Quantile(s.traced_us, 0.5), Quantile(s.untraced_us, 0.5));
    const double qps_ratio =
        Ratio(static_cast<double>(s.traced_us.size()) / s.traced_s,
              static_cast<double>(s.untraced_us.size()) / s.untraced_s);
    r->Metric("trace.read_p50_ratio", p50_ratio, "ratio");
    r->Metric("trace.read_qps_ratio", qps_ratio, "ratio");
    r->Line(Fmt("tracing overhead: traced/untraced read p50 %.4f, qps %.4f",
                p50_ratio, qps_ratio));
  }
  r->Metric("cell.cover_p50_us", Quantile(s.cover_us, 0.5), "us");
  r->Metric("cell.cover_p90_us", Quantile(s.cover_us, 0.9), "us");
  r->Metric("cell.cells_per_query", Mean(s.cells), "count");
  r->Metric("core.shards_per_query", Mean(s.shards), "count");
  r->Metric("core.probe_p50_us", Quantile(s.probe_us, 0.5), "us");
  r->Metric("core.probe_p90_us", Quantile(s.probe_us, 0.9), "us");
}

/// Metrics a workload does not exercise read 0, so every run prints the
/// same names.
void EmitTrie(const gb::core::CacheCounters& c, double queries,
              uint64_t trie_bytes, Report* r) {
  r->Metric("core.trie_full_hit_rate", c.HitRate(), "ratio");
  r->Metric("core.trie_partial_hits_per_query",
            Ratio(static_cast<double>(c.partial_hits), queries), "count");
  r->Metric("core.trie_misses_per_query",
            Ratio(static_cast<double>(c.misses), queries), "count");
  r->Metric("core.trie_bytes", static_cast<double>(trie_bytes), "bytes");
}

struct GovernorDelta {
  double faults_per_query = 0, evictions_per_query = 0, refusals = 0,
         faulted_share = 0, resident_over_budget = 0;
};

void EmitGovernor(const GovernorDelta& g, Report* r) {
  r->Metric("core.faults_per_query", g.faults_per_query, "count");
  r->Metric("core.evictions_per_query", g.evictions_per_query, "count");
  r->Metric("core.refusals", g.refusals, "count");
  r->Metric("core.faulted_query_share", g.faulted_share, "ratio");
  r->Metric("core.resident_over_budget", g.resident_over_budget, "ratio");
}

struct ServerDelta {
  double requests_per_epoch = 0, select_groups_per_epoch = 0,
         queue_rejected = 0, timed_out = 0, wal_records_per_group = 0,
         wal_bytes_per_tuple = 0, epoch_overlap_share = 0;
};

void EmitServer(const ServerDelta& d, Report* r) {
  r->Metric("server.requests_per_epoch", d.requests_per_epoch, "count");
  r->Metric("server.select_groups_per_epoch", d.select_groups_per_epoch,
            "count");
  r->Metric("server.queue_rejected", d.queue_rejected, "count");
  r->Metric("server.timed_out", d.timed_out, "count");
  r->Metric("server.read_epoch_overlap_share", d.epoch_overlap_share,
            "ratio");
  r->Metric("io.wal_records_per_group", d.wal_records_per_group, "count");
  r->Metric("io.wal_bytes_per_tuple", d.wal_bytes_per_tuple, "bytes");
}

/// Alternating untraced/traced blocks of `block` queries when tracing.
bool TracedBlock(const Args& args, size_t q, size_t block) {
  return args.trace && ((q / block) & 1) == 1;
}

// ---------------------------------------------------------------------------
// engine_zipf
// ---------------------------------------------------------------------------

constexpr size_t kEngineShards = 8;
constexpr size_t kEngineWarmup = 4000;
constexpr size_t kEngineFingerprint = 2000;

void RunEngine(const Args& args, const Inputs& in, Report* r) {
  const gb::core::AggregateRequest req =
      gb::core::AggregateRequest::FirstN(kAggregates, in.raw.num_columns());
  SetupTimes setup;
  Built b;
  for (size_t rep = 0; rep < args.setup_reps; ++rep) {
    b = Built{};
    setup.BeginRep();
    b = ExtractAndBuild(in, kEngineShards);
    const Clock::time_point t0 = Clock::now();
    b.set->EnableCache(gb::core::GeoBlockQC::Options{});
    setup.Add(b, Secs(t0, Clock::now()));
  }
  gb::core::BlockSet& set = *b.set;

  // Oracle: the uncached path over the same set.
  std::vector<gb::core::QueryResult> expected;
  for (const gb::geo::Polygon& p : in.polygons) {
    expected.push_back(set.Select(p, req));
  }

  std::mt19937_64 rng(Mix(args.seed, 4));
  std::discrete_distribution<size_t> zipf(in.zipf_weights.begin(),
                                          in.zipf_weights.end());
  for (size_t q = 0; q < kEngineWarmup; ++q) {
    const size_t i = zipf(rng);
    if (!MatchesUncached(set.SelectCached(in.polygons[i], req),
                         expected[i])) {
      r->Fail("engine warm-up answer differs from the uncached oracle");
    }
  }

  set.ResetCacheCounters();
  ReadSamples s;
  Digest digest;
  gb::core::CacheCounters at_fingerprint;
  bool fingerprint_complete = false;
  std::vector<gb::cell::CellId> covering;
  std::vector<size_t> routed;
  gb::core::QueryResult got;
  const CpuTicks cpu0 = CpuTicks::Read();
  const Clock::time_point start = Clock::now();
  const Clock::time_point deadline =
      start + std::chrono::duration_cast<Clock::duration>(
                  std::chrono::duration<double>(args.seconds));
  Clock::time_point now = start;
  s.Begin(start);
  size_t q = 0;
  for (; now < deadline; ++q) {
    const size_t i = zipf(rng);
    const gb::geo::Polygon& poly = in.polygons[i];
    const bool traced = TracedBlock(args, q, 512);
    if (traced) {
      const Clock::time_point t0 = Clock::now();
      set.CoverInto(poly, &covering);
      const Clock::time_point t1 = Clock::now();
      got = set.SelectCoveringCached(covering, req);
      now = Clock::now();
      s.cover_us.push_back(Us(t0, t1));
      s.probe_us.push_back(Us(t1, now));
      s.Add(Us(t0, now), true);
      s.cells.push_back(static_cast<double>(covering.size()));
      set.OverlappingShards(covering, &routed);
      s.shards.push_back(static_cast<double>(routed.size()));
    } else {
      const Clock::time_point t0 = Clock::now();
      got = set.SelectCached(poly, req);
      now = Clock::now();
      s.Add(Us(t0, now), false);
    }
    r->Attempt();
    if (!MatchesUncached(got, expected[i])) {
      r->Fail("engine answer differs from the uncached oracle");
    }
    if (q < kEngineFingerprint) {
      digest.Add(i);
      digest.Add(got);
      if (q + 1 == kEngineFingerprint) {
        at_fingerprint = set.MergedCacheCounters();
        fingerprint_complete = true;
      }
    }
    s.Lap(traced);
  }
  const double steal = StealShare(cpu0, CpuTicks::Read());
  if (!fingerprint_complete) at_fingerprint = set.MergedCacheCounters();

  uint64_t trie_bytes = 0;
  for (size_t sh = 0; sh < set.num_shards(); ++sh) {
    trie_bytes += set.cached_shard(sh).TrieBytes();
  }
  r->Metric("index_bytes", static_cast<double>(set.MemoryBytes() + trie_bytes),
            "bytes");
  setup.Emit(r);
  std::vector<double> slow;
  for (const double us : s.all_us) slow.push_back(us > 1000.0 ? 1.0 : 0.0);
  EmitReads(s, Mean(slow), "reads > 1 ms", r);
  const gb::core::CacheCounters c = set.MergedCacheCounters();
  EmitTrie(c, static_cast<double>(q), trie_bytes, r);
  EmitGovernor({}, r);
  EmitServer({}, r);
  r->Metric("host.cpu_steal_share", steal, "ratio");
  r->Line("generator: closed loop, 1 thread, no schedule (lateness n/a)");

  r->Fingerprint("queries", fingerprint_complete ? kEngineFingerprint : q);
  r->Fingerprint("complete", fingerprint_complete ? 1 : 0);
  r->Fingerprint("trie_probes", at_fingerprint.probes);
  r->Fingerprint("trie_full_hits", at_fingerprint.full_hits);
  r->Fingerprint("trie_partial_hits", at_fingerprint.partial_hits);
  r->Fingerprint("answer_digest", digest.h);
}

// ---------------------------------------------------------------------------
// lazy_zipf_half
// ---------------------------------------------------------------------------

constexpr size_t kLazyShards = 32;
// A lazy run starts with only shard 0 resident; for the first ~4000
// queries the governor is still settling (p90 near 9 ms, then about 3.5 ms
// for the rest of a 45 s run), so the warm-up covers that transient.
constexpr size_t kLazyWarmup = 5000;
constexpr size_t kLazyFingerprint = 200;

void RunLazy(const Args& args, const Inputs& in, Report* r) {
  const gb::core::AggregateRequest req =
      gb::core::AggregateRequest::FirstN(kAggregates, in.raw.num_columns());
  const std::string path = args.workdir + "/lazy.gbst";
  SetupTimes setup;
  // Sizing governor: unlimited, it only accounts. It must outlive the set
  // opened against it.
  gb::core::MemoryGovernor sizing(gb::core::MemoryGovernor::Options{0});
  uint64_t full_bytes = 0;
  for (size_t rep = 0; rep < args.setup_reps; ++rep) {
    setup.BeginRep();
    Built b = ExtractAndBuild(in, kLazyShards);
    const Clock::time_point t0 = Clock::now();
    {
      std::ofstream out(path, std::ios::binary | std::ios::trunc);
      b.set->WriteTo(out);
    }
    gb::core::LazyOpenOptions opts;
    opts.governor = &sizing;
    gb::core::BlockSet mapped = gb::core::BlockSet::OpenMapped(path, opts);
    setup.Add(b, Secs(t0, Clock::now()));
    if (rep + 1 == args.setup_reps) {
      // The fully resident footprint: one root query faults every shard.
      const std::vector<gb::cell::CellId> all{gb::cell::CellId::Root()};
      (void)mapped.SelectCovering(all, req);
      full_bytes = sizing.resident_bytes();
    }
  }

  // Oracle: the same file loaded eagerly.
  std::vector<gb::core::QueryResult> expected;
  {
    std::ifstream file(path, std::ios::binary);
    const gb::core::BlockSet oracle = gb::core::BlockSet::ReadFrom(file);
    for (const gb::geo::Polygon& p : in.polygons) {
      expected.push_back(oracle.Select(p, req));
    }
  }

  const uint64_t budget = full_bytes / 2;
  gb::core::MemoryGovernor gov(gb::core::MemoryGovernor::Options{budget});
  gb::core::LazyOpenOptions opts;
  opts.governor = &gov;
  const gb::core::BlockSet set = gb::core::BlockSet::OpenMapped(path, opts);

  std::mt19937_64 rng(Mix(args.seed, 4));
  std::discrete_distribution<size_t> zipf(in.zipf_weights.begin(),
                                          in.zipf_weights.end());
  for (size_t q = 0; q < kLazyWarmup; ++q) {
    const size_t i = zipf(rng);
    if (!BitIdentical(set.Select(in.polygons[i], req), expected[i])) {
      r->Fail("lazy warm-up answer differs from the eager oracle");
    }
  }

  ReadSamples s;
  Digest digest;
  gb::core::MemoryGovernor::Stats at_fingerprint;
  bool fingerprint_complete = false;
  std::vector<double> resident, warm_us, faulted_us, per_fault_us;
  std::vector<size_t> faults_in_query;
  size_t faulted = 0;
  std::vector<gb::cell::CellId> covering;
  std::vector<size_t> routed;
  gb::core::QueryResult got;
  const gb::core::MemoryGovernor::Stats g0 = gov.stats();
  const CpuTicks cpu0 = CpuTicks::Read();
  const Clock::time_point start = Clock::now();
  const Clock::time_point deadline =
      start + std::chrono::duration_cast<Clock::duration>(
                  std::chrono::duration<double>(args.seconds));
  Clock::time_point now = start;
  s.Begin(start);
  size_t q = 0;
  for (; now < deadline; ++q) {
    const size_t i = zipf(rng);
    const gb::geo::Polygon& poly = in.polygons[i];
    const uint64_t faults_before = gov.stats().faults;
    double us = 0.0;
    const bool traced = TracedBlock(args, q, 64);
    if (traced) {
      const Clock::time_point t0 = Clock::now();
      set.CoverInto(poly, &covering);
      const Clock::time_point t1 = Clock::now();
      got = set.SelectCovering(covering, req);
      now = Clock::now();
      us = Us(t0, now);
      s.cover_us.push_back(Us(t0, t1));
      s.probe_us.push_back(Us(t1, now));
      s.Add(us, true);
      s.cells.push_back(static_cast<double>(covering.size()));
      set.OverlappingShards(covering, &routed);
      s.shards.push_back(static_cast<double>(routed.size()));
    } else {
      const Clock::time_point t0 = Clock::now();
      got = set.Select(poly, req);
      now = Clock::now();
      us = Us(t0, now);
      s.Add(us, false);
    }
    const gb::core::MemoryGovernor::Stats g = gov.stats();
    resident.push_back(static_cast<double>(g.resident_bytes));
    const uint64_t k = g.faults - faults_before;
    if (k > 0) {
      ++faulted;
      faulted_us.push_back(us);
      faults_in_query.push_back(k);
    } else {
      warm_us.push_back(us);
    }
    r->Attempt();
    if (!BitIdentical(got, expected[i])) {
      r->Fail("lazy answer differs from the eager oracle");
    }
    if (q < kLazyFingerprint) {
      digest.Add(i);
      digest.Add(got);
      if (q + 1 == kLazyFingerprint) {
        at_fingerprint = g;
        fingerprint_complete = true;
      }
    }
    s.Lap(traced);
  }
  const double steal = StealShare(cpu0, CpuTicks::Read());
  const gb::core::MemoryGovernor::Stats g1 = gov.stats();
  if (!fingerprint_complete) at_fingerprint = g1;

  // Median governed footprint over the run: an end-of-run sample depends
  // on which shard faulted last.
  const double resident_p50 = Quantile(resident, 0.5);
  r->Metric("index_bytes", resident_p50, "bytes");
  setup.Emit(r);
  const double n = static_cast<double>(q);
  EmitReads(s, Ratio(static_cast<double>(faulted), n),
            "queries that faulted a shard", r);
  EmitTrie({}, n, 0, r);
  GovernorDelta gd;
  gd.faults_per_query = static_cast<double>(g1.faults - g0.faults) / n;
  gd.evictions_per_query = static_cast<double>(g1.evictions - g0.evictions) / n;
  gd.refusals = static_cast<double>(g1.refusals - g0.refusals);
  gd.faulted_share = Ratio(static_cast<double>(faulted), n);
  gd.resident_over_budget = Ratio(resident_p50, static_cast<double>(budget));
  EmitGovernor(gd, r);
  EmitServer({}, r);
  r->Metric("host.cpu_steal_share", steal, "ratio");

  // The fault path is not a public entry point the benchmark can wrap
  // without changing residency (EnsureResident skips the charge), so a
  // fault's cost is attributed from the faulted queries: time beyond the
  // warm median, split evenly over the shards that query faulted.
  const double warm_p50 = Quantile(warm_us, 0.5);
  for (size_t j = 0; j < faulted_us.size(); ++j) {
    per_fault_us.push_back(std::max(0.0, faulted_us[j] - warm_p50) /
                           static_cast<double>(faults_in_query[j]));
  }
  r->Metric("core.warm_query_p50_us", warm_p50, "us");
  r->Metric("core.faulted_query_p50_us", Quantile(faulted_us, 0.5), "us");
  r->Metric("core.fault_p50_ms", Quantile(per_fault_us, 0.5) / 1000.0, "ms");
  r->Metric("core.fault_max_ms", Quantile(per_fault_us, 1.0) / 1000.0, "ms");
  std::vector<double> by_faults(4, 0.0);
  for (const size_t k : faults_in_query) by_faults[std::min<size_t>(k, 3)] += 1;
  by_faults[0] = n - static_cast<double>(faults_in_query.size());
  r->Line(Fmt("queries faulting 0 / 1 / 2 shards: %.4f / %.4f / %.4f",
              by_faults[0] / n, by_faults[1] / n, by_faults[2] / n) +
          Fmt(", 3 or more: %.4f", by_faults[3] / n));
  r->Line(Fmt("governor: budget %.0f bytes (half of %.0f resident), "
              "%.0f shards resident at end",
              static_cast<double>(budget), static_cast<double>(full_bytes),
              static_cast<double>(set.resident_shards())));
  r->Line("generator: closed loop, 1 thread, no schedule (lateness n/a)");

  r->Fingerprint("queries", fingerprint_complete ? kLazyFingerprint : q);
  r->Fingerprint("complete", fingerprint_complete ? 1 : 0);
  r->Fingerprint("faults", at_fingerprint.faults);
  r->Fingerprint("evictions", at_fingerprint.evictions);
  r->Fingerprint("refusals", at_fingerprint.refusals);
  r->Fingerprint("answer_digest", digest.h);
  std::remove(path.c_str());
}

// ---------------------------------------------------------------------------
// served_mixed_durable
// ---------------------------------------------------------------------------

constexpr size_t kServedShards = 8;
constexpr size_t kUpdateTuples = 32;
constexpr double kUpdateFramesPerSecond = 50.0;
constexpr size_t kServedWarmup = 300;

std::vector<gb::core::GeoBlock::UpdateTuple> InCellBatch(
    const gb::storage::SortedDataset& data, std::mt19937_64& rng) {
  std::vector<gb::core::GeoBlock::UpdateTuple> batch(kUpdateTuples);
  const std::vector<uint64_t>& keys = data.keys();
  for (gb::core::GeoBlock::UpdateTuple& t : batch) {
    const uint64_t key = keys[rng() % keys.size()];
    t.location = data.projection().FromUnit(
        gb::cell::CellId(key).Parent(kLevel).CenterPoint());
    t.values.resize(data.num_columns());
    for (double& v : t.values) v = static_cast<double>(rng() % 1000) / 8.0;
  }
  return batch;
}

struct Interval {
  Clock::time_point begin, end;
};

/// Share of reads whose interval intersects some update interval.
double OverlapShare(const std::vector<Interval>& reads,
                    std::vector<Interval> updates) {
  if (reads.empty()) return 0.0;
  std::sort(updates.begin(), updates.end(),
            [](const Interval& a, const Interval& b) {
              return a.begin < b.begin;
            });
  size_t overlapping = 0;
  for (const Interval& rd : reads) {
    // First update starting after the read ends cannot overlap; check the
    // ones before it (update intervals never overlap each other).
    auto it = std::upper_bound(updates.begin(), updates.end(), rd.end,
                               [](Clock::time_point t, const Interval& u) {
                                 return t < u.begin;
                               });
    if (it != updates.begin() && std::prev(it)->end > rd.begin) ++overlapping;
  }
  return static_cast<double>(overlapping) / static_cast<double>(reads.size());
}

void RunServed(const Args& args, const Inputs& in, Report* r) {
  const gb::core::AggregateRequest req =
      gb::core::AggregateRequest::FirstN(kAggregates, in.raw.num_columns());
  const std::string wal_path = args.workdir + "/served.wal";
  gb::util::ThreadPool pool(1);
  SetupTimes setup;
  Built b;
  std::unique_ptr<gb::io::UpdateLog> log;
  std::unique_ptr<gb::server::QueryServer> server;
  for (size_t rep = 0; rep < args.setup_reps; ++rep) {
    if (server) server->Stop();
    server.reset();
    b = Built{};
    log.reset();
    ::unlink(wal_path.c_str());
    setup.BeginRep();
    b = ExtractAndBuild(in, kServedShards);
    const Clock::time_point t0 = Clock::now();
    log = gb::io::UpdateLog::Open(wal_path);
    b.set->AttachLog(log.get());
    gb::server::ServerOptions options;
    options.pool = &pool;
    server = std::make_unique<gb::server::QueryServer>(b.set.get(), options);
    server->Start();
    setup.Add(b, Secs(t0, Clock::now()));
  }
  gb::core::BlockSet& set = *b.set;
  const uint64_t rows = b.data->num_rows();

  // Pre-update answers: every read must land in [pre, pre + issued tuples].
  std::vector<uint64_t> pre_counts;
  for (const gb::geo::Polygon& p : in.polygons) {
    pre_counts.push_back(set.Count(p));
  }

  const size_t frames = static_cast<size_t>(
      std::llround(kUpdateFramesPerSecond * args.seconds));
  std::vector<std::vector<gb::core::GeoBlock::UpdateTuple>> batches;
  {
    std::mt19937_64 urng(Mix(args.seed, 5));
    for (size_t f = 0; f < frames; ++f) {
      batches.push_back(InCellBatch(*b.data, urng));
    }
  }

  // Traced runs replay each acked batch into a shadow log and a shadow set,
  // so UpdateLog::Append and ApplyBatchUpdate are timed from outside the
  // server without touching what it serves.
  std::unique_ptr<gb::io::UpdateLog> shadow_log;
  std::unique_ptr<gb::core::BlockSet> shadow_set;
  const std::string shadow_path = args.workdir + "/shadow.wal";
  if (args.trace) {
    ::unlink(shadow_path.c_str());
    shadow_log = gb::io::UpdateLog::Open(shadow_path);
    gb::storage::ShardOptions shard_options;
    shard_options.num_shards = kServedShards;
    shard_options.align_level = kLevel;
    shadow_set = std::make_unique<gb::core::BlockSet>(gb::core::BlockSet::Build(
        gb::storage::ShardedDataset::Partition(b.data, shard_options),
        gb::core::BlockSetOptions{{kLevel, {}}}));
  }

  gb::server::Client reader = gb::server::Client::Connect(server->port());
  std::mt19937_64 rng(Mix(args.seed, 4));
  std::discrete_distribution<size_t> zipf(in.zipf_weights.begin(),
                                          in.zipf_weights.end());
  for (size_t q = 0; q < kServedWarmup; ++q) {
    const size_t i = zipf(rng);
    if (reader.Count(in.polygons[i]) != pre_counts[i]) {
      r->Fail("served warm-up count differs from the engine's");
    }
  }

  std::atomic<uint64_t> issued_tuples{0};
  std::atomic<uint64_t> acked_tuples{0};
  std::atomic<bool> writer_done{false};
  std::atomic<uint64_t> writer_failed{0};
  std::vector<double> update_us, lateness_us, append_us, apply_us;
  std::vector<Interval> update_spans;
  const CpuTicks cpu0 = CpuTicks::Read();
  const gb::server::ServerStats st0 = server->stats();
  const gb::io::UpdateLog::Stats wal0 = log->stats();
  const Clock::time_point start = Clock::now();
  const auto interval = std::chrono::duration_cast<Clock::duration>(
      std::chrono::duration<double>(1.0 / kUpdateFramesPerSecond));

  std::thread writer([&] {
    try {
      gb::server::Client client = gb::server::Client::Connect(server->port());
      for (size_t f = 0; f < frames; ++f) {
        const Clock::time_point due =
            start + interval * static_cast<int64_t>(f);
        std::this_thread::sleep_until(due);
        const Clock::time_point sent = Clock::now();
        lateness_us.push_back(Us(due, sent));
        issued_tuples.fetch_add(batches[f].size());
        try {
          const gb::server::UpdateAck ack = client.Update(batches[f]);
          const Clock::time_point acked = Clock::now();
          acked_tuples.fetch_add(ack.accepted);
          update_us.push_back(Us(due, acked));  // from when it was due
          update_spans.push_back({sent, acked});
          if (ack.accepted != batches[f].size()) writer_failed.fetch_add(1);
        } catch (const std::exception&) {
          writer_failed.fetch_add(1);
        }
        if (args.trace) {
          const Clock::time_point t0 = Clock::now();
          shadow_log->Append(batches[f]);
          const Clock::time_point t1 = Clock::now();
          shadow_set->ApplyBatchUpdate(batches[f]);
          append_us.push_back(Us(t0, t1));
          apply_us.push_back(Us(t1, Clock::now()));
        }
      }
    } catch (const std::exception&) {
      writer_failed.fetch_add(1);
    }
    writer_done.store(true);
  });

  ReadSamples s;
  std::vector<Interval> read_spans;
  std::vector<double> ping_us, engine_us, residual_us;
  std::vector<gb::cell::CellId> covering;
  std::vector<size_t> routed;
  const Clock::time_point deadline =
      start + interval * static_cast<int64_t>(frames);
  Clock::time_point now = start;
  s.Begin(start);
  size_t q = 0;
  for (; now < deadline || !writer_done.load(); ++q) {
    const size_t i = zipf(rng);
    const gb::geo::Polygon& poly = in.polygons[i];
    const bool is_count = q % 8 == 7;
    const bool traced = TracedBlock(args, q, 128);
    double ping = 0.0, engine = 0.0;
    if (traced) {
      const Clock::time_point t0 = Clock::now();
      (void)reader.Ping();
      const Clock::time_point t1 = Clock::now();
      set.CoverInto(poly, &covering);
      const Clock::time_point t2 = Clock::now();
      (void)set.SelectCovering(covering, req);
      const Clock::time_point t3 = Clock::now();
      ping = Us(t0, t1);
      s.cover_us.push_back(Us(t1, t2));
      s.probe_us.push_back(Us(t2, t3));
      s.cells.push_back(static_cast<double>(covering.size()));
      set.OverlappingShards(covering, &routed);
      s.shards.push_back(static_cast<double>(routed.size()));
      ping_us.push_back(ping);
      if (!is_count) {
        gb::core::QueryBatch qb;
        qb.polygons = {&poly};
        qb.request = &req;
        const Clock::time_point t4 = Clock::now();
        (void)set.ExecuteBatch(qb, nullptr);
        engine = Us(t4, Clock::now());
        engine_us.push_back(engine);
      }
    }
    r->Attempt();
    uint64_t count = 0;
    const Clock::time_point t0 = Clock::now();
    try {
      count = is_count ? reader.Count(poly) : reader.Select(poly, req).count;
    } catch (const std::exception& e) {
      r->Fail(std::string("served read failed: ") + e.what());
      now = Clock::now();
      s.Lap(traced);
      continue;
    }
    now = Clock::now();
    const uint64_t upper = pre_counts[i] + issued_tuples.load();
    const double us = Us(t0, now);
    s.Add(us, traced);
    read_spans.push_back({t0, now});
    if (traced && !is_count) residual_us.push_back(us - ping - engine);
    if (count < pre_counts[i] || count > upper) {
      r->Fail("served read outside [pre, pre + issued]");
    }
    s.Lap(traced);
  }
  writer.join();
  const double steal = StealShare(cpu0, CpuTicks::Read());
  r->Attempt(frames);
  for (uint64_t f = 0; f < writer_failed.load(); ++f) {
    r->Fail("served update not acknowledged in full");
  }

  server->Stop();
  const gb::server::ServerStats st1 = server->stats();
  const gb::io::UpdateLog::Stats wal1 = log->stats();
  const uint64_t acked = acked_tuples.load();
  const std::vector<gb::cell::CellId> all{gb::cell::CellId::Root()};
  const uint64_t root_count = set.CountCovering(all);
  if (root_count != rows + acked) {
    r->Fail("after quiesce, root count != rows + acked tuples");
  }
  if (st1.update_tuples != acked) {
    r->Fail("server update_tuples != acked tuples");
  }
  Digest digest;
  digest.Add(root_count);
  for (const gb::geo::Polygon& p : in.polygons) digest.Add(set.Select(p, req));

  r->Metric("index_bytes", static_cast<double>(set.MemoryBytes()), "bytes");
  setup.Emit(r);
  std::vector<double> slow;
  for (const double us : s.all_us) slow.push_back(us > 1000.0 ? 1.0 : 0.0);
  EmitReads(s, Mean(slow), "reads > 1 ms", r);
  EmitTrie({}, static_cast<double>(q), 0, r);
  EmitGovernor({}, r);
  ServerDelta sd;
  const double epochs =
      static_cast<double>(st1.batches_executed - st0.batches_executed);
  sd.requests_per_epoch = Ratio(
      static_cast<double>((st1.selects_executed - st0.selects_executed) +
                          (st1.counts_executed - st0.counts_executed) +
                          (st1.updates_executed - st0.updates_executed)),
      epochs);
  sd.select_groups_per_epoch =
      Ratio(static_cast<double>(st1.select_groups - st0.select_groups), epochs);
  sd.queue_rejected =
      static_cast<double>(st1.queue_rejected - st0.queue_rejected);
  sd.timed_out =
      static_cast<double>(st1.requests_timed_out - st0.requests_timed_out);
  const double records =
      static_cast<double>(wal1.records_appended - wal0.records_appended);
  sd.wal_records_per_group = Ratio(
      records,
      static_cast<double>(wal1.groups_committed - wal0.groups_committed));
  sd.wal_bytes_per_tuple = Ratio(
      static_cast<double>(wal1.bytes_committed - wal0.bytes_committed),
      static_cast<double>(acked));
  sd.epoch_overlap_share = OverlapShare(read_spans, update_spans);
  EmitServer(sd, r);
  r->Metric("host.cpu_steal_share", steal, "ratio");
  r->Metric("update_p50_us", Quantile(update_us, 0.5), "us");
  r->Metric("update_p90_us", Quantile(update_us, 0.9), "us");
  r->Metric("server.ping_p50_us", Quantile(ping_us, 0.5), "us");
  r->Metric("server.engine_batch_p50_us", Quantile(engine_us, 0.5), "us");
  r->Metric("server.residual_p50_us", Quantile(residual_us, 0.5), "us");
  r->Metric("io.wal_append_p50_us", Quantile(append_us, 0.5), "us");
  r->Metric("core.apply_batch_p50_us", Quantile(apply_us, 0.5), "us");
  r->Line(Fmt("generator: writer open loop at %.0f frames/s, lateness p50 "
              "%.1f us, max %.1f us",
              kUpdateFramesPerSecond, Quantile(lateness_us, 0.5),
              Quantile(lateness_us, 1.0)));
  r->Line(Fmt("reads overlapping an update epoch: %.4f",
              sd.epoch_overlap_share));

  r->Fingerprint("update_frames", frames);
  r->Fingerprint("acked_tuples", acked);
  r->Fingerprint("wal_records", static_cast<uint64_t>(records));
  r->Fingerprint("answer_digest", digest.h);

  server.reset();
  set.AttachLog(nullptr);
  shadow_log.reset();
  log.reset();
  ::unlink(wal_path.c_str());
  ::unlink(shadow_path.c_str());
}

bool ParseArgs(int argc, char** argv, Args* a) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string k = argv[i];
    const std::string v = argv[i + 1];
    try {
      if (k == "--workload") a->workload = v;
      else if (k == "--seed") a->seed = std::stoull(v);
      else if (k == "--seconds") a->seconds = std::stod(v);
      else if (k == "--trace") a->trace = std::stoi(v) != 0;
      else if (k == "--workdir") a->workdir = v;
      else if (k == "--points") a->points = std::stoull(v);
      else if (k == "--setup-reps") a->setup_reps = std::stoull(v);
      else return false;
    } catch (const std::exception&) {
      return false;
    }
  }
  return argc % 2 == 1 && a->seconds > 0 && a->points > 0 &&
         a->setup_reps > 0;
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  if (!ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr, "usage: perfbench --workload W --seed N --seconds S "
                         "--trace 0|1 --workdir DIR [--points N] "
                         "[--setup-reps N]\n");
    return 2;
  }
  void (*run)(const Args&, const Inputs&, Report*) = nullptr;
  if (args.workload == "engine_zipf") run = RunEngine;
  if (args.workload == "lazy_zipf_half") run = RunLazy;
  if (args.workload == "served_mixed_durable") run = RunServed;
  if (run == nullptr) {
    std::fprintf(stderr, "unknown workload %s\n", args.workload.c_str());
    return 2;
  }
  Report report;
  try {
    const Clock::time_point t0 = Clock::now();
    const Inputs inputs = Inputs::Make(args);
    report.Line(Fmt("inputs: %.0f points, %.0f polygons, generated in %.3f s "
                    "(not part of setup_s)",
                    static_cast<double>(args.points),
                    static_cast<double>(inputs.polygons.size()),
                    Secs(t0, Clock::now())));
    report.Line(Fmt("host: nproc %.0f, hardware_concurrency %.0f",
                    static_cast<double>(sysconf(_SC_NPROCESSORS_ONLN)),
                    static_cast<double>(std::thread::hardware_concurrency())) +
                std::string(", kernel dispatch ") +
                gb::core::kernels::ToString(
                    gb::core::kernels::ActiveDispatchLevel()) +
                ", pool type " + gb::util::ThreadPool::pool_type());
    run(args, inputs, &report);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 1;
  }
  report.Print(args);
  return report.failed() == 0 ? 0 : 1;
}
