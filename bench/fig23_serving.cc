// Figure 23 (this repo's extension beyond the paper): the stand-alone
// query server under open-loop load. Real sockets, real framing: N client
// threads fire SELECT / COUNT / UPDATE frames at a QueryServer. A read
// that finds the server idle runs on its connection's reader thread; the
// rest queue for the batcher, which runs what it drains as one epoch
// (the reads in one ParallelFor, the UPDATEs as one ApplyBatchUpdate).
//
// Each client count is one row, run kRuns times, each time on a fresh
// set and server; the table prints the median and the min-max of read
// QPS, read p50 and p99, and update tuples/s over those runs.
//
// Two phases per run:
//
//   * read-only — every SELECT response is compared against a precomputed
//     serial oracle (bit-identical doubles through the wire); reported as
//     sustained QPS plus p50/p99/p999 open-loop latency (measured from
//     each request's *scheduled* arrival, so queueing delay is included —
//     closed-loop warmup first estimates capacity, then the open-loop
//     phase runs at ~70% of it).
//
//   * mixed 80/10/10 SELECT/COUNT/UPDATE — counts are envelope-checked
//     against [pre, pre + applied] while the state moves, and after
//     quiescing the total count must account for every acknowledged
//     update tuple exactly once.
//
// A final fault-injection phase attaches the set to a WAL whose fsync is
// failed through util::FaultShim: the server flips into degraded
// read-only mode and the phase measures sustained *degraded* read QPS
// (every response still oracle-checked, updates must be answered
// kReadOnly) — the number that matters when the disk dies under load.
//
// Any divergence increments `mismatches`; CI smoke-gates on the
// "mismatches: 0" line (never on a speedup — containers may be one core).
// Emits machine-readable BENCH_serving.json with hardware provenance.

#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <chrono>
#include <cstdio>
#include <fstream>
#include <mutex>
#include <random>
#include <thread>
#include <vector>

#include "bench/common.h"
#include "core/block_set.h"
#include "core/scan_kernels.h"
#include "io/update_log.h"
#include "server/client.h"
#include "server/server.h"
#include "storage/sharded_dataset.h"
#include "util/io_shim.h"
#include "util/thread_pool.h"

namespace geoblocks::bench {
namespace {

constexpr size_t kShards = 8;
constexpr size_t kUpdateTuples = 32;  // tuples per UPDATE frame
constexpr size_t kRuns = 3;           // fresh-server runs per row

uint64_t NowNanos() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

std::vector<core::GeoBlock::UpdateTuple> MakeInCellBatch(
    const storage::SortedDataset& data, int level, size_t count,
    uint64_t seed) {
  std::mt19937_64 rng(seed);
  std::vector<core::GeoBlock::UpdateTuple> batch;
  batch.reserve(count);
  const auto keys = data.keys();
  for (size_t i = 0; i < count; ++i) {
    const uint64_t key = keys[rng() % keys.size()];
    const geo::Point unit = cell::CellId(key).Parent(level).CenterPoint();
    core::GeoBlock::UpdateTuple t;
    t.location = data.projection().FromUnit(unit);
    t.values.assign(data.num_columns(), 0.0);
    for (size_t c = 0; c < t.values.size(); ++c) {
      t.values[c] = static_cast<double>((rng() % 1000)) / 8.0;
    }
    batch.push_back(std::move(t));
  }
  return batch;
}

double Percentile(std::vector<double>& sorted_us, double p) {
  if (sorted_us.empty()) return 0.0;
  const size_t idx = std::min(
      sorted_us.size() - 1,
      static_cast<size_t>(p * static_cast<double>(sorted_us.size())));
  return sorted_us[idx];
}

struct PhaseResult {
  double qps = 0.0;
  double offered_qps = 0.0;
  double p50_us = 0.0;
  double p99_us = 0.0;
  double p999_us = 0.0;
  uint64_t requests = 0;
};

/// One run of a row: both phases against one fresh server.
struct RowRun {
  PhaseResult read;
  PhaseResult mixed;
  double update_tuples_per_s = 0.0;
};

/// A row: the median and range of its runs.
struct Row {
  size_t clients = 0;
  Spread read_qps, read_offered_qps, read_p50, read_p99, read_p999;
  Spread mixed_qps, mixed_p50, mixed_p99, mixed_p999;
  Spread update_tuples_per_s;

  static Row Of(size_t clients, const std::vector<RowRun>& runs) {
    const auto spread = [&](double (*get)(const RowRun&)) {
      std::vector<double> v;
      for (const RowRun& r : runs) v.push_back(get(r));
      return Spread::Of(std::move(v));
    };
    Row row;
    row.clients = clients;
    row.read_qps = spread([](const RowRun& r) { return r.read.qps; });
    row.read_offered_qps =
        spread([](const RowRun& r) { return r.read.offered_qps; });
    row.read_p50 = spread([](const RowRun& r) { return r.read.p50_us; });
    row.read_p99 = spread([](const RowRun& r) { return r.read.p99_us; });
    row.read_p999 = spread([](const RowRun& r) { return r.read.p999_us; });
    row.mixed_qps = spread([](const RowRun& r) { return r.mixed.qps; });
    row.mixed_p50 = spread([](const RowRun& r) { return r.mixed.p50_us; });
    row.mixed_p99 = spread([](const RowRun& r) { return r.mixed.p99_us; });
    row.mixed_p999 = spread([](const RowRun& r) { return r.mixed.p999_us; });
    row.update_tuples_per_s =
        spread([](const RowRun& r) { return r.update_tuples_per_s; });
    return row;
  }
};

/// Runs one open-loop phase: `clients` threads, each issuing `per_client`
/// requests at a scheduled interarrival of `interval_ns`, latency measured
/// from the scheduled arrival. `issue(t, i, client)` sends request i of
/// thread t and returns false on a response mismatch.
template <typename IssueFn>
PhaseResult OpenLoopPhase(uint16_t port, size_t clients, size_t per_client,
                          uint64_t interval_ns, uint64_t* mismatches,
                          const IssueFn& issue) {
  std::mutex lat_mu;
  std::vector<double> latencies_us;
  latencies_us.reserve(clients * per_client);
  std::atomic<uint64_t> bad{0};
  const uint64_t t0 = NowNanos();
  std::vector<std::thread> workers;
  for (size_t t = 0; t < clients; ++t) {
    workers.emplace_back([&, t] {
      server::Client::Options copts;
      copts.tenant = static_cast<uint32_t>(t);
      server::Client client = server::Client::Connect(port, copts);
      std::vector<double> local_us;
      local_us.reserve(per_client);
      // Stagger the threads so arrivals spread instead of spiking in
      // lockstep at each interval boundary.
      const uint64_t offset = t * interval_ns / std::max<size_t>(1, clients);
      for (size_t i = 0; i < per_client; ++i) {
        const uint64_t scheduled = t0 + offset + (i + 1) * interval_ns;
        for (;;) {  // open loop: wait for the scheduled arrival
          const uint64_t now = NowNanos();
          if (now >= scheduled) break;
          std::this_thread::sleep_for(
              std::chrono::nanoseconds(scheduled - now));
        }
        try {
          if (!issue(t, i, client)) bad.fetch_add(1);
        } catch (const std::exception&) {
          bad.fetch_add(1);  // unexpected error status or transport failure
        }
        local_us.push_back(
            static_cast<double>(NowNanos() - scheduled) / 1000.0);
      }
      std::lock_guard<std::mutex> lock(lat_mu);
      for (const double us : local_us) latencies_us.push_back(us);
    });
  }
  for (std::thread& w : workers) w.join();
  const double elapsed_s = static_cast<double>(NowNanos() - t0) / 1e9;

  PhaseResult result;
  result.requests = latencies_us.size();
  result.qps = static_cast<double>(result.requests) / elapsed_s;
  result.offered_qps =
      static_cast<double>(clients) * 1e9 / static_cast<double>(interval_ns);
  std::sort(latencies_us.begin(), latencies_us.end());
  result.p50_us = Percentile(latencies_us, 0.50);
  result.p99_us = Percentile(latencies_us, 0.99);
  result.p999_us = Percentile(latencies_us, 0.999);
  *mismatches += bad.load();
  return result;
}

/// Runs one row's two phases with `clients` client threads against a
/// fresh set and server. Every divergence adds to `*mismatches`.
RowRun RunRow(const TaxiEnv& env, const storage::ShardedDataset& sharded,
              util::ThreadPool* pool, const core::AggregateRequest& req,
              size_t clients, size_t per_client, uint64_t* mismatches) {
  core::BlockSet set = core::BlockSet::Build(
      sharded, core::BlockSetOptions{{kDefaultLevel, {}}});
  server::ServerOptions options;
  options.pool = pool;
  server::QueryServer server(&set, options);
  server.Start();

  // The serial oracle: the server runs each read as Select itself, so
  // sequential Select pins each exact answer.
  std::vector<core::QueryResult> expected;
  std::vector<uint64_t> expected_counts;
  for (const geo::Polygon& poly : env.neighborhoods) {
    expected.push_back(set.Select(poly, req));
    expected_counts.push_back(set.Count(poly));
  }

  RowRun run;

  // Closed-loop warmup estimates capacity for the open-loop rate.
  uint64_t interval_ns = 0;
  {
    const size_t warm = std::max<size_t>(20, per_client / 10);
    std::atomic<uint64_t> done{0};
    const uint64_t w0 = NowNanos();
    std::vector<std::thread> workers;
    for (size_t t = 0; t < clients; ++t) {
      workers.emplace_back([&, t] {
        server::Client client = server::Client::Connect(server.port());
        std::mt19937_64 rng(11 + t);
        for (size_t i = 0; i < warm; ++i) {
          const size_t p = rng() % env.neighborhoods.size();
          (void)client.Select(env.neighborhoods[p], req);
          done.fetch_add(1);
        }
      });
    }
    for (std::thread& w : workers) w.join();
    const double warm_qps = static_cast<double>(done.load()) * 1e9 /
                            static_cast<double>(NowNanos() - w0);
    // Offer ~70% of measured capacity, spread across the clients.
    const double per_thread_qps =
        std::max(1.0, 0.70 * warm_qps / static_cast<double>(clients));
    interval_ns = static_cast<uint64_t>(1e9 / per_thread_qps);
  }

  // Phase 1: read-only open loop, every response oracle-checked.
  run.read = OpenLoopPhase(
      server.port(), clients, per_client, interval_ns, mismatches,
      [&](size_t t, size_t i, server::Client& client) {
        std::mt19937_64 rng(t * 1'000'003 + i);
        const size_t p = rng() % env.neighborhoods.size();
        if (i % 8 == 7) {
          return client.Count(env.neighborhoods[p]) == expected_counts[p];
        }
        const core::QueryResult got =
            client.Select(env.neighborhoods[p], req);
        return got.count == expected[p].count &&
               got.values == expected[p].values;
      });

  // Phase 2: mixed 80/10/10. Counts are envelope-checked while updates
  // land; the exact accounting happens after quiescing.
  std::atomic<uint64_t> acked_tuples{0};
  const uint64_t max_new =
      clients * per_client * kUpdateTuples;  // every frame an UPDATE
  run.mixed = OpenLoopPhase(
      server.port(), clients, per_client, interval_ns, mismatches,
      [&](size_t t, size_t i, server::Client& client) {
        std::mt19937_64 rng(t * 2'000'003 + i);
        const size_t p = rng() % env.neighborhoods.size();
        const uint64_t dice = rng() % 10;
        if (dice == 8) {
          const uint64_t count = client.Count(env.neighborhoods[p]);
          return count >= expected_counts[p] &&
                 count <= expected_counts[p] + max_new;
        }
        if (dice == 9) {
          const auto batch = MakeInCellBatch(
              env.data, kDefaultLevel, kUpdateTuples, t * 5'000'011 + i);
          const server::UpdateAck ack = client.Update(batch);
          acked_tuples.fetch_add(ack.accepted);
          return ack.accepted == batch.size();
        }
        const core::QueryResult got =
            client.Select(env.neighborhoods[p], req);
        return got.count >= expected[p].count &&
               got.count <= expected[p].count + max_new;
      });
  const double mixed_s =
      static_cast<double>(run.mixed.requests) / run.mixed.qps;
  run.update_tuples_per_s =
      static_cast<double>(acked_tuples.load()) / mixed_s;

  server.Stop();
  // Quiesced accounting: every acknowledged tuple exactly once.
  const std::vector<cell::CellId> all{cell::CellId::Root()};
  if (set.CountCovering(all) != env.data.num_rows() + acked_tuples.load()) {
    ++*mismatches;
  }
  if (server.stats().update_tuples != acked_tuples.load()) ++*mismatches;
  return run;
}

void Run() {
  bench_util::Banner(
      "Figure 23 — stand-alone query server (beyond the paper)",
      "open-loop SELECT/COUNT/UPDATE over real sockets: sustained QPS and "
      "p50/p99/p999 tail latency vs client count; every read response "
      "checked against a serial oracle.");
  const TaxiEnv env = TaxiEnv::Create(TaxiPoints());
  const core::AggregateRequest req = RequestN(4, env.data.num_columns());

  storage::ShardOptions shard_options;
  shard_options.num_shards = kShards;
  shard_options.align_level = kDefaultLevel;
  const storage::ShardedDataset sharded =
      storage::ShardedDataset::Partition(env.data, shard_options);
  util::ThreadPool pool(std::max(2u, std::thread::hardware_concurrency()));

  const size_t per_client = std::max<size_t>(60, bench_util::Scaled(2000));
  uint64_t mismatches = 0;

  std::vector<Row> rows;
  bench_util::TablePrinter table(
      {"clients", "read qps", "min-max", "p50 us", "min-max", "p99 us",
       "min-max", "mixed qps", "mixed p99 us", "upd tuples/s", "min-max"});
  const auto fmt = [](double v, int digits) {
    return bench_util::TablePrinter::Fmt(v, digits);
  };
  const auto range = [&fmt](const Spread& s, int digits) {
    return fmt(s.min, digits) + "-" + fmt(s.max, digits);
  };
  for (const size_t clients : {size_t{1}, size_t{2}, size_t{4}, size_t{8}}) {
    std::vector<RowRun> runs;
    for (size_t r = 0; r < kRuns; ++r) {
      runs.push_back(RunRow(env, sharded, &pool, req, clients, per_client,
                            &mismatches));
    }
    const Row row = Row::Of(clients, runs);
    rows.push_back(row);
    table.AddRow({std::to_string(row.clients), fmt(row.read_qps.median, 0),
                  range(row.read_qps, 0), fmt(row.read_p50.median, 1),
                  range(row.read_p50, 1), fmt(row.read_p99.median, 1),
                  range(row.read_p99, 1), fmt(row.mixed_qps.median, 0),
                  fmt(row.mixed_p99.median, 1),
                  fmt(row.update_tuples_per_s.median, 0),
                  range(row.update_tuples_per_s, 0)});
  }
  table.Print();

  // Phase 3: fault injection. The WAL's fsync starts failing after a few
  // commits; the server enters degraded read-only mode and must keep
  // serving oracle-checked reads at speed while refusing updates with the
  // typed kReadOnly status.
  PhaseResult degraded;
  uint64_t degraded_acked = 0;
  {
    const size_t clients = 4;
    core::BlockSet set = core::BlockSet::Build(
        sharded, core::BlockSetOptions{{kDefaultLevel, {}}});
    util::FaultShim shim;
    io::UpdateLog::Options log_options;
    log_options.shim = &shim;
    const std::string wal_path = "bench_fig23_fault.wal";
    ::unlink(wal_path.c_str());
    auto log = io::UpdateLog::Open(wal_path, log_options);
    set.AttachLog(log.get());
    server::ServerOptions options;
    options.pool = &pool;
    server::QueryServer server(&set, options);
    server.Start();

    // A few updates land, then the device dies mid-run.
    {
      server::Client writer = server::Client::Connect(server.port());
      for (uint64_t b = 0; b < 3; ++b) {
        const auto batch = MakeInCellBatch(env.data, kDefaultLevel,
                                           kUpdateTuples, 9'000'017 + b);
        degraded_acked += writer.Update(batch).accepted;
      }
      shim.ArmFsync(/*after_calls=*/0, EIO);
      try {
        (void)writer.Update(MakeInCellBatch(env.data, kDefaultLevel,
                                            kUpdateTuples, 9'100'000));
        ++mismatches;  // the dead WAL must surface, never a silent ack
      } catch (const server::ServerError&) {
      }
      if (writer.PingHealth().health != server::kHealthDegraded) {
        ++mismatches;
      }
    }

    // Oracle for the degraded state: sequential Select over the frozen set.
    std::vector<core::QueryResult> expected;
    std::vector<uint64_t> expected_counts;
    for (const geo::Polygon& poly : env.neighborhoods) {
      expected.push_back(set.Select(poly, req));
      expected_counts.push_back(set.Count(poly));
    }

    // Closed-loop warmup on the degraded server, then offer ~70% of it.
    uint64_t interval_ns = 0;
    {
      const size_t warm = std::max<size_t>(20, per_client / 10);
      std::atomic<uint64_t> done{0};
      const uint64_t w0 = NowNanos();
      std::vector<std::thread> workers;
      for (size_t t = 0; t < clients; ++t) {
        workers.emplace_back([&, t] {
          server::Client client = server::Client::Connect(server.port());
          std::mt19937_64 rng(23 + t);
          for (size_t i = 0; i < warm; ++i) {
            const size_t p = rng() % env.neighborhoods.size();
            (void)client.Select(env.neighborhoods[p], req);
            done.fetch_add(1);
          }
        });
      }
      for (std::thread& w : workers) w.join();
      const double warm_qps = static_cast<double>(done.load()) * 1e9 /
                              static_cast<double>(NowNanos() - w0);
      const double per_thread_qps =
          std::max(1.0, 0.70 * warm_qps / static_cast<double>(clients));
      interval_ns = static_cast<uint64_t>(1e9 / per_thread_qps);
    }
    degraded = OpenLoopPhase(
        server.port(), clients, per_client, interval_ns, &mismatches,
        [&](size_t t, size_t i, server::Client& client) {
          std::mt19937_64 rng(t * 3'000'017 + i);
          const size_t p = rng() % env.neighborhoods.size();
          if (i % 16 == 15) {  // updates must be refused, typed
            try {
              (void)client.Update(MakeInCellBatch(env.data, kDefaultLevel, 4,
                                                  t * 7'000'003 + i));
              return false;
            } catch (const server::ServerError& e) {
              return e.status == server::Status::kReadOnly;
            }
          }
          if (i % 8 == 7) {
            return client.Count(env.neighborhoods[p]) == expected_counts[p];
          }
          const core::QueryResult got =
              client.Select(env.neighborhoods[p], req);
          return got.count == expected[p].count &&
                 got.values == expected[p].values;
        });
    server.Stop();
    ::unlink(wal_path.c_str());
    std::printf(
        "degraded (WAL dead, read-only): %.0f qps, p99 %.1f us, "
        "read_only_rejected: %llu\n",
        degraded.qps, degraded.p99_us,
        static_cast<unsigned long long>(server.stats().read_only_rejected));
  }

  std::printf(
      "hardware threads: %u, shards: %zu, requests/client: %zu, "
      "runs per row: %zu (median, min-max)\n",
      std::thread::hardware_concurrency(), kShards, per_client, kRuns);
  std::printf("kernel dispatch: %s, pool type: %s\n",
              core::kernels::ToString(core::kernels::ActiveDispatchLevel()),
              util::ThreadPool::pool_type());
  std::printf("mismatches: %llu\n",
              static_cast<unsigned long long>(mismatches));

  std::ofstream json("BENCH_serving.json");
  json << "{\n"
       << "  \"bench\": \"fig23_serving\",\n"
       << "  \"hardware_concurrency\": "
       << std::thread::hardware_concurrency() << ",\n"
       << "  \"kernel_dispatch\": \""
       << core::kernels::ToString(core::kernels::ActiveDispatchLevel())
       << "\",\n"
       << "  \"pool_type\": \"" << util::ThreadPool::pool_type() << "\",\n"
       << "  \"shards\": " << kShards << ",\n"
       << "  \"requests_per_client\": " << per_client << ",\n"
       << "  \"runs_per_row\": " << kRuns << ",\n"
       << "  \"update_tuples_per_frame\": " << kUpdateTuples << ",\n"
       << "  \"mismatches\": " << mismatches << ",\n"
       << "  \"degraded\": {\"read_qps\": " << degraded.qps
       << ", \"p50_us\": " << degraded.p50_us
       << ", \"p99_us\": " << degraded.p99_us
       << ", \"p999_us\": " << degraded.p999_us
       << ", \"acked_tuples_before_fault\": " << degraded_acked << "},\n"
       << "  \"results\": [\n";
  for (size_t i = 0; i < rows.size(); ++i) {
    const Row& r = rows[i];
    // Medians under the plain keys; _min / _max give the range.
    json << "    {\"clients\": " << r.clients
         << ", \"read_qps\": " << r.read_qps.median
         << ", \"read_qps_min\": " << r.read_qps.min
         << ", \"read_qps_max\": " << r.read_qps.max
         << ", \"read_offered_qps\": " << r.read_offered_qps.median
         << ", \"read_p50_us\": " << r.read_p50.median
         << ", \"read_p50_us_min\": " << r.read_p50.min
         << ", \"read_p50_us_max\": " << r.read_p50.max
         << ", \"read_p99_us\": " << r.read_p99.median
         << ", \"read_p99_us_min\": " << r.read_p99.min
         << ", \"read_p99_us_max\": " << r.read_p99.max
         << ", \"read_p999_us\": " << r.read_p999.median
         << ", \"mixed_qps\": " << r.mixed_qps.median
         << ", \"mixed_p50_us\": " << r.mixed_p50.median
         << ", \"mixed_p99_us\": " << r.mixed_p99.median
         << ", \"mixed_p999_us\": " << r.mixed_p999.median
         << ", \"update_tuples_per_s\": " << r.update_tuples_per_s.median
         << ", \"update_tuples_per_s_min\": " << r.update_tuples_per_s.min
         << ", \"update_tuples_per_s_max\": " << r.update_tuples_per_s.max
         << "}"
         << (i + 1 < rows.size() ? "," : "") << "\n";
  }
  json << "  ]\n}\n";
}

}  // namespace
}  // namespace geoblocks::bench

int main() {
  geoblocks::bench::Run();
  return 0;
}
