// Serving: the stand-alone query server end to end — build the sharded
// engine, put the TCP listener in front of it, and talk to it through the
// blocking client: PING, SELECT (bit-identical to an in-process query),
// COUNT, a durable-when-logged UPDATE, per-tenant throttling, and the
// STATS audit. See docs/PROTOCOL.md for the wire format and
// docs/ARCHITECTURE.md §Serving for the threading model.
#include <cstdio>
#include <memory>
#include <random>
#include <vector>

#include "core/block_set.h"
#include "server/client.h"
#include "server/server.h"
#include "storage/sharded_dataset.h"
#include "util/thread_pool.h"
#include "workload/datagen.h"
#include "workload/polygen.h"

int main() {
  using namespace geoblocks;
  constexpr int kLevel = 16;

  // 1. Build the engine, as in the quickstart.
  const storage::PointTable raw = workload::GenTaxi(100'000);
  storage::ExtractOptions extract;
  extract.clean_bounds = workload::NycBounds();
  const storage::SortedDataset data =
      storage::SortedDataset::Extract(raw, extract);
  storage::ShardOptions shard_options;
  shard_options.num_shards = 4;
  shard_options.align_level = kLevel;
  const storage::ShardedDataset sharded =
      storage::ShardedDataset::Partition(data, shard_options);
  util::ThreadPool pool;
  core::BlockSet set =
      core::BlockSet::Build(sharded, core::BlockSetOptions{{kLevel, {}}},
                            &pool);

  // 2. Put the server in front of it. Port 0 binds an ephemeral port;
  //    the QoS policy gives every tenant a 32-request burst refilled at
  //    16 requests/second.
  server::ServerOptions options;
  options.pool = &pool;
  options.qos.tokens_per_second = 16;
  options.qos.burst = 32;
  server::QueryServer server(&set, options);
  server.Start();
  std::printf("serving on 127.0.0.1:%u\n", server.port());

  // 3. A client per tenant. Each typed call is one frame on the wire;
  //    responses carry the request's cookie, so pipelining stays sound.
  server::Client::Options tenant_a;
  tenant_a.tenant = 1;
  server::Client a = server::Client::Connect(server.port(), tenant_a);
  std::printf("ping: %s\n", a.Ping("hello").c_str());

  // SELECT over the wire is bit-identical to the in-process Select: the
  // protocol round-trips doubles exactly and the server's batched seam
  // folds each query exactly like Select.
  const auto polygons = workload::Neighborhoods(raw, 4);
  core::AggregateRequest request;
  request.Add(core::AggFn::kCount);
  request.Add(core::AggFn::kSum, 0);
  uint64_t mismatches = 0;
  for (const geo::Polygon& poly : polygons) {
    const core::QueryResult served = a.Select(poly, request);
    const core::QueryResult local = set.Select(poly, request);
    if (served.count != local.count || served.values != local.values) {
      ++mismatches;
    }
    if (a.Count(poly) != set.Count(poly)) ++mismatches;
  }
  std::printf("served 2x%zu queries, mismatches=%llu\n", polygons.size(),
              static_cast<unsigned long long>(mismatches));

  // 4. UPDATE through the wire. An OK response is an acknowledgement:
  //    with a WAL attached (core::BlockSet::OpenLogged) it means the
  //    coalesced batch is fsync'd before the ack is written.
  std::mt19937_64 rng(7);
  const auto keys = data.keys();
  std::vector<core::GeoBlock::UpdateTuple> tuples;
  for (size_t i = 0; i < 64; ++i) {
    const uint64_t key = keys[rng() % keys.size()];
    core::GeoBlock::UpdateTuple t;
    t.location = data.projection().FromUnit(
        cell::CellId(key).Parent(kLevel).CenterPoint());
    t.values.assign(data.num_columns(), 1.0);
    tuples.push_back(std::move(t));
  }
  const server::UpdateAck ack = a.Update(tuples);
  std::printf("update: accepted=%llu change_number=%llu\n",
              static_cast<unsigned long long>(ack.accepted),
              static_cast<unsigned long long>(ack.change_number));

  // 5. QoS: burn through tenant 2's burst and watch the typed throttle.
  //    PING and STATS bypass QoS, so health checks work while throttled.
  server::Client::Options tenant_b;
  tenant_b.tenant = 2;
  server::Client b = server::Client::Connect(server.port(), tenant_b);
  uint64_t ok = 0, throttled = 0;
  for (int i = 0; i < 64; ++i) {
    try {
      b.Count(polygons[0]);
      ++ok;
    } catch (const server::ServerError& e) {
      if (e.status == server::Status::kThrottled) ++throttled;
    }
  }
  std::printf("tenant 2: ok=%llu throttled=%llu (burst was 32)\n",
              static_cast<unsigned long long>(ok),
              static_cast<unsigned long long>(throttled));

  // 6. STATS: server counters plus per-tenant audit counters, readable
  //    even while throttled. Counters reconcile exactly with what the
  //    clients observed (tests/server_qos_test.cc pins this).
  for (const auto& [key, value] : b.Stats()) {
    if (key.rfind("tenant.2.", 0) == 0) {
      std::printf("  %s = %llu\n", key.c_str(),
                  static_cast<unsigned long long>(value));
    }
  }

  server.Stop();
  std::printf("%s\n", mismatches == 0 ? "OK" : "FAILED");
  return mismatches == 0 ? 0 : 1;
}
