#pragma once

/// \file server.h
/// The stand-alone query server: a TCP listener + connection acceptor in
/// front of a BlockSet, turning the library into a system. One reader
/// thread per connection decodes length-prefixed frames
/// (server/protocol.h), passes SELECT / COUNT / UPDATE requests through
/// per-tenant QoS (server/qos.h) into a bounded admission queue
/// (server/admission_queue.h); a single batcher thread drains the queue
/// and executes what it finds as one epoch — every SELECT / COUNT as its
/// own Select / Count call in one ParallelFor on the fork-join ThreadPool
/// (a faulting read fails only itself), then one ApplyBatchUpdate.
/// A SELECT / COUNT that finds the server idle (nothing queued, no epoch
/// running, no further bytes waiting on its connection) skips the queue:
/// its reader thread runs it as a one-request epoch through the same
/// ExecuteEpoch and then returns to its socket. Epochs never overlap (the
/// queue's epoch slot), UPDATEs always go through the batcher, and a
/// reader runs at most one epoch per request it decoded.
/// PING and STATS are answered inline by the reader thread (health checks
/// and audits must work even when the tenant is throttled or the queue is
/// full, so they bypass QoS and admission).
///
/// Durability: when the BlockSet has an attached UpdateLog, an UPDATE is
/// acknowledged (Status::kOk with its change number) only after the
/// coalesced batch is fsync'd — ApplyBatchUpdate's persist-first contract
/// carries through the wire unchanged. A dead log (crash, injected fail
/// point) turns into Status::kInternal: explicitly NOT acknowledged, so
/// recovery via BlockSet::OpenLogged restores exactly the acknowledged
/// prefix (tests/server_serving_test.cc pins this end to end).
///
/// Lifecycle: Start() binds and serves; Stop() drains gracefully (stop
/// accepting, answer new work with kShuttingDown, execute the already
/// admitted backlog, then close connections); Abort() simulates a crash
/// (admitted-but-unanswered requests die unanswered, connections drop).
/// See docs/ARCHITECTURE.md §Serving.
///
/// Fault containment (docs/ARCHITECTURE.md §Failure containment): a dead
/// WAL no longer takes reads down with it — the BlockSet turns sticky
/// read-only, UPDATEs are answered Status::kReadOnly without touching the
/// engine, and SELECT / COUNT / PING / STATS keep serving (PING v2 and
/// STATS report the degradation). Per-connection poll deadlines bound how
/// long a stalled peer can hold a reader thread (slow-loris defense): a
/// connection idle past `idle_timeout_ms`, or stuck mid-frame past
/// `read_timeout_ms`, or not draining responses past `write_timeout_ms`,
/// is reaped without affecting other connections. Requests carrying a v2
/// deadline that expires while queued are answered Status::kTimeout
/// instead of being executed late. Fenced UPDATE retries (protocol v2) are
/// answered from a bounded per-server acknowledgment window so a retry
/// whose first ack was lost is never applied twice.

#include <atomic>
#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "core/block_set.h"
#include "server/admission_queue.h"
#include "server/protocol.h"
#include "server/qos.h"
#include "util/io_shim.h"
#include "util/thread_pool.h"

namespace geoblocks::server {

struct ServerOptions {
  /// TCP port on 127.0.0.1; 0 binds an ephemeral port (read it back via
  /// port() — the test/bench harness default).
  uint16_t port = 0;
  /// Admission queue capacity; request #capacity+1 gets Status::kBusy.
  size_t queue_capacity = 1024;
  /// Maximum requests one drain coalesces into a batch epoch.
  size_t max_batch = 64;
  /// Frames with a larger length prefix are refused (kTooLarge) unread.
  size_t max_frame_bytes = kDefaultMaxFrameBytes;
  /// Per-tenant rate limiting / grey-listing policy.
  QosOptions qos;
  /// Execution pool for an epoch's reads (null executes them on the
  /// thread running the epoch). Must outlive the server.
  util::ThreadPool* pool = nullptr;
  /// Test hook: when set, it runs before every epoch, on whichever thread
  /// runs that epoch (the batcher, or the reader of an idle read).
  /// tests/server_qos_test.cc parks an epoch on a latch here to fill the
  /// admission queue deterministically. Null in production.
  std::function<void()> batch_hook;
  /// Reap a connection that has been idle (no frame started) this long;
  /// 0 disables. Idle peers are the cheap kind of stall — this bounds how
  /// many parked reader threads they can accumulate.
  int64_t idle_timeout_ms = 0;
  /// Reap a connection that started a frame (length prefix arrived) but
  /// has not delivered the rest within this budget; 0 disables. This is
  /// the slow-loris defense: a half-written frame cannot park a reader
  /// thread forever.
  int64_t read_timeout_ms = 0;
  /// Reap a connection that stops draining its responses for this long
  /// (blocked send); 0 disables.
  int64_t write_timeout_ms = 0;
  /// How many fenced UPDATE acknowledgments the server remembers for
  /// retry deduplication, across all tenants (FIFO eviction; entries are
  /// keyed by tenant + fence). The window is in-memory only — it does not
  /// survive a server restart (see docs/PROTOCOL.md §Retries for the
  /// residual crash-retry caveat).
  size_t update_dedup_window = 1024;
  /// Injectable clock for request-deadline arithmetic, milliseconds on an
  /// arbitrary monotone epoch. Null uses std::chrono::steady_clock. Tests
  /// advance a fake clock to expire queued requests without real sleeps.
  std::function<int64_t()> clock;
  /// Syscall fault injection for the connection I/O paths (send/recv
  /// through util::IoShim). Null uses the real syscalls. Testing only.
  util::IoShim* shim = nullptr;
};

/// Point-in-time server counters (see QueryServer::stats and the STATS
/// command, which serves these plus the per-tenant audit counters).
struct ServerStats {
  uint64_t connections_accepted = 0;
  uint64_t frames_received = 0;
  uint64_t malformed_frames = 0;   ///< undecodable or schema-invalid
  uint64_t oversized_frames = 0;   ///< length prefix over max_frame_bytes
  uint64_t queue_rejected = 0;     ///< admitted by QoS, bounced by the queue
  uint64_t batches_executed = 0;   ///< drain epochs
  uint64_t selects_executed = 0;
  uint64_t counts_executed = 0;
  uint64_t updates_executed = 0;   ///< UPDATE requests answered OK
  uint64_t update_tuples = 0;      ///< tuples committed through the wire
  uint64_t select_groups = 0;      ///< epochs that executed a SELECT
  uint64_t queue_depth = 0;        ///< point-in-time backlog
  uint64_t connections_reaped = 0; ///< closed by idle/read/write deadline
  uint64_t requests_timed_out = 0; ///< answered kTimeout (deadline expired)
  uint64_t read_only_rejected = 0; ///< UPDATEs answered kReadOnly
  uint64_t update_dedup_hits = 0;  ///< fenced retries answered from the window
};

/// The server. Construct over a built (or loaded) BlockSet, Start(), and
/// connect Clients (server/client.h). The set, pool, and any attached
/// UpdateLog must outlive the server.
class QueryServer {
 public:
  /// @param set     The engine to serve; must have at least one shard.
  /// @param options Listener, admission, and QoS configuration.
  /// @throws std::invalid_argument when `set` is null or empty.
  QueryServer(core::BlockSet* set, ServerOptions options);

  /// Stop()s if still running.
  ~QueryServer();

  QueryServer(const QueryServer&) = delete;
  QueryServer& operator=(const QueryServer&) = delete;

  /// Binds 127.0.0.1:port, starts the acceptor and batcher threads.
  /// @throws std::runtime_error on socket/bind/listen failure.
  void Start();

  /// Graceful shutdown: stops accepting, answers new requests with
  /// kShuttingDown, drains and executes the admitted backlog (every
  /// admitted request gets its response), then closes every connection
  /// and joins all threads. Idempotent.
  void Stop();

  /// Simulated crash: stops accepting, discards the admitted backlog
  /// unanswered, drops every connection, joins all threads. What survives
  /// is exactly what the WAL acknowledged — the serving recovery test's
  /// entry point. Idempotent (shares the stopped state with Stop).
  void Abort();

  /// @return The bound port (after Start; the ephemeral port when
  ///     options.port was 0).
  uint16_t port() const { return port_; }

  /// @return Point-in-time server counters.
  ServerStats stats() const;

  /// @return The per-tenant admission governor (audit counters).
  const TenantGovernor& governor() const { return governor_; }

 private:
  struct Connection;

  /// One admitted request, parked in the queue between its reader thread
  /// and the batcher or held by the reader running it inline. Owns its
  /// decoded payload; the epoch's reads refer into the epoch's vector
  /// (stable while the epoch executes).
  struct PendingRequest {
    Opcode opcode = Opcode::kPing;
    uint32_t tenant = 0;
    uint64_t cookie = 0;
    std::shared_ptr<Connection> conn;
    geo::Polygon polygon;
    core::AggregateRequest aggregates;
    std::vector<core::GeoBlock::UpdateTuple> tuples;
    uint64_t fence = 0;        ///< UPDATE idempotence token (0 = unfenced)
    int64_t deadline_at_ms = 0;  ///< clock value the request expires at; 0=none
    /// Released when this request dies (answered or discarded); the
    /// reader's EOF path waits on it before closing the connection.
    std::shared_ptr<void> inflight_token;
  };

  void AcceptLoop();
  void ReadLoop(std::shared_ptr<Connection> conn);
  void BatchLoop();

  /// Handles one decoded request on the reader thread: PING/STATS inline,
  /// the rest through QoS, then an idle read as its own epoch and anything
  /// else into the admission queue. Returns false when the connection
  /// must close (schema-invalid request).
  bool Dispatch(const std::shared_ptr<Connection>& conn, Request&& request);

  /// Executes one epoch while holding the queue's epoch slot: runs the
  /// batch_hook, then every SELECT / COUNT as its own Select / Count in
  /// one ParallelFor, then one ApplyBatchUpdate, and writes every
  /// response on the calling thread (the batcher, or the reader of an
  /// idle read).
  void ExecuteEpoch(std::vector<PendingRequest>& batch);

  /// Writes a response frame to `conn` (serialized per connection;
  /// write errors are ignored — the peer is gone).
  void WriteResponse(const std::shared_ptr<Connection>& conn, Status status,
                     uint64_t cookie, std::string_view payload);

  /// @return True when `request`'s columns fit the served schema.
  bool ValidateSchema(const Request& request) const;

  /// @return The injectable clock's current value in milliseconds
  ///     (steady_clock when no clock was injected).
  int64_t NowMs() const;

  std::vector<std::pair<std::string, uint64_t>> BuildStats() const;

  /// Shared teardown of Stop/Abort; `discard` picks crash semantics.
  void StopInternal(bool discard);

  core::BlockSet* set_;
  ServerOptions options_;
  size_t num_columns_ = 0;
  TenantGovernor governor_;
  AdmissionQueue<PendingRequest> queue_;

  int listen_fd_ = -1;
  uint16_t port_ = 0;
  std::atomic<bool> started_{false};
  std::atomic<bool> stopped_{false};
  std::atomic<bool> draining_{false};

  std::thread acceptor_;
  std::thread batcher_;
  std::mutex conns_mu_;
  std::vector<std::shared_ptr<Connection>> connections_;
  std::vector<std::thread> readers_;

  std::atomic<uint64_t> connections_accepted_{0};
  std::atomic<uint64_t> frames_received_{0};
  std::atomic<uint64_t> malformed_frames_{0};
  std::atomic<uint64_t> oversized_frames_{0};
  std::atomic<uint64_t> batches_executed_{0};
  std::atomic<uint64_t> selects_executed_{0};
  std::atomic<uint64_t> counts_executed_{0};
  std::atomic<uint64_t> updates_executed_{0};
  std::atomic<uint64_t> update_tuples_{0};
  std::atomic<uint64_t> select_groups_{0};
  std::atomic<uint64_t> connections_reaped_{0};
  std::atomic<uint64_t> requests_timed_out_{0};
  std::atomic<uint64_t> read_only_rejected_{0};
  std::atomic<uint64_t> update_dedup_hits_{0};

  /// Fenced-UPDATE acknowledgment window: (tenant, fence) -> the ack the
  /// original apply earned, so a retry is answered instead of re-applied.
  /// Touched only by the batcher thread (UPDATEs never run inline on a
  /// reader), so no mutex; `dedup_fifo_` bounds it to
  /// options_.update_dedup_window entries per eviction sweep (FIFO). The
  /// stats() path reads only the atomic hit counter, never the map.
  std::map<std::pair<uint32_t, uint64_t>, UpdateAck> update_dedup_;
  std::deque<std::pair<uint32_t, uint64_t>> dedup_fifo_;
};

}  // namespace geoblocks::server
