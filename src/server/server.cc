#include "server/server.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <condition_variable>
#include <cstring>
#include <limits>
#include <stdexcept>
#include <utility>

namespace geoblocks::server {

namespace {

/// Outcome of a deadline-bounded exact read/write.
enum class IoStatus {
  kOk,       ///< all bytes transferred
  kClosed,   ///< EOF, error, or shutdown — the connection is done
  kTimeout,  ///< the budget elapsed with the transfer incomplete (reap)
};

/// Waits for `events` on `fd` within the remaining budget. `timeout_ms`
/// <= 0 means no deadline (block in the syscall instead). Returns kOk when
/// the fd is ready, kTimeout when the budget ran out, kClosed on a poll
/// error.
IoStatus AwaitReady(int fd, short events, int64_t timeout_ms,
                    std::chrono::steady_clock::time_point start) {
  if (timeout_ms <= 0) return IoStatus::kOk;
  const int64_t elapsed = std::chrono::duration_cast<std::chrono::milliseconds>(
                              std::chrono::steady_clock::now() - start)
                              .count();
  const int64_t left = timeout_ms - elapsed;
  if (left <= 0) return IoStatus::kTimeout;
  pollfd pfd{};
  pfd.fd = fd;
  pfd.events = events;
  const int rc = ::poll(
      &pfd, 1,
      static_cast<int>(std::min<int64_t>(
          left, std::numeric_limits<int>::max())));
  if (rc == 0) return IoStatus::kTimeout;
  if (rc < 0 && errno != EINTR) return IoStatus::kClosed;
  return IoStatus::kOk;  // ready (POLLIN/POLLHUP/POLLERR all wake the recv)
}

/// Reads exactly `n` bytes, polling with `timeout_ms` as the total budget
/// (0 = block forever — the pre-deadline behavior). kClosed covers EOF,
/// read errors, and shutdown — all of which mean "this connection is
/// done"; kTimeout means the peer stalled and must be reaped.
IoStatus ReadFull(util::IoShim* io, int fd, void* buf, size_t n,
                  int64_t timeout_ms) {
  char* p = static_cast<char*>(buf);
  const auto start = std::chrono::steady_clock::now();
  while (n > 0) {
    const IoStatus ready = AwaitReady(fd, POLLIN, timeout_ms, start);
    if (ready != IoStatus::kOk) return ready;
    const ssize_t got = io->Recv(fd, p, n, 0);
    if (got > 0) {
      p += got;
      n -= static_cast<size_t>(got);
      continue;
    }
    if (got < 0 && errno == EINTR) continue;
    return IoStatus::kClosed;
  }
  return IoStatus::kOk;
}

/// Writes all of `data` within `timeout_ms` (0 = no deadline). kTimeout
/// means the peer stopped draining its receive window. MSG_NOSIGNAL keeps
/// a dead peer from killing the process with SIGPIPE.
IoStatus WriteFull(util::IoShim* io, int fd, std::string_view data,
                   int64_t timeout_ms) {
  const auto start = std::chrono::steady_clock::now();
  while (!data.empty()) {
    const IoStatus ready = AwaitReady(fd, POLLOUT, timeout_ms, start);
    if (ready != IoStatus::kOk) return ready;
    const ssize_t put =
        io->Send(fd, data.data(), data.size(), MSG_NOSIGNAL);
    if (put > 0) {
      data.remove_prefix(static_cast<size_t>(put));
      continue;
    }
    if (put < 0 && errno == EINTR) continue;
    return IoStatus::kClosed;
  }
  return IoStatus::kOk;
}

}  // namespace

/// One accepted connection. The fd stays open until the last reference
/// (reader thread, queued requests) drops; Shutdown() only unblocks I/O.
struct QueryServer::Connection {
  explicit Connection(int fd) : fd(fd) {}
  ~Connection() {
    if (fd >= 0) ::close(fd);
  }
  Connection(const Connection&) = delete;
  Connection& operator=(const Connection&) = delete;

  /// Unblocks the reader and fails future writes; idempotent.
  void Shutdown() {
    bool expected = false;
    if (shut.compare_exchange_strong(expected, true)) {
      ::shutdown(fd, SHUT_RDWR);
    }
  }

  /// An RAII marker for a request admitted from this connection but not
  /// yet answered. The deleter runs wherever the PendingRequest dies —
  /// after its epoch executed, or discarded by Abort — so WaitQuiesced
  /// never deadlocks on a crash-path backlog.
  static std::shared_ptr<void> InflightToken(
      const std::shared_ptr<Connection>& self) {
    {
      std::lock_guard<std::mutex> lock(self->inflight_mu);
      ++self->inflight;
    }
    return std::shared_ptr<void>(
        reinterpret_cast<void*>(1), [self](void*) {
          std::lock_guard<std::mutex> lock(self->inflight_mu);
          if (--self->inflight == 0) self->inflight_cv.notify_all();
        });
  }

  /// Blocks until every admitted request from this connection has been
  /// answered (or discarded). Called by the reader before Shutdown() so a
  /// half-closing pipelined client still receives its queued responses.
  void WaitQuiesced() {
    std::unique_lock<std::mutex> lock(inflight_mu);
    inflight_cv.wait(lock, [this] { return inflight == 0; });
  }

  const int fd;
  std::mutex write_mu;  ///< reader (errors, PING/STATS) vs batcher writes
  std::atomic<bool> shut{false};
  std::mutex inflight_mu;
  std::condition_variable inflight_cv;
  int inflight = 0;
};

QueryServer::QueryServer(core::BlockSet* set, ServerOptions options)
    : set_(set),
      options_(std::move(options)),
      governor_(options_.qos),
      queue_(options_.queue_capacity) {
  if (set_ == nullptr || set_->num_shards() == 0) {
    throw std::invalid_argument("geoblocks: QueryServer needs a built set");
  }
  num_columns_ = set_->shard(0).num_columns();
}

QueryServer::~QueryServer() { Stop(); }

void QueryServer::Start() {
  if (started_.exchange(true)) {
    throw std::logic_error("geoblocks: QueryServer started twice");
  }
  listen_fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
  if (listen_fd_ < 0) {
    throw std::runtime_error("geoblocks: socket() failed");
  }
  const int one = 1;
  ::setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(options_.port);
  if (::bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) <
          0 ||
      ::listen(listen_fd_, 128) < 0) {
    ::close(listen_fd_);
    listen_fd_ = -1;
    throw std::runtime_error("geoblocks: bind/listen failed");
  }
  socklen_t len = sizeof(addr);
  ::getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&addr), &len);
  port_ = ntohs(addr.sin_port);

  acceptor_ = std::thread([this] { AcceptLoop(); });
  batcher_ = std::thread([this] { BatchLoop(); });
}

void QueryServer::Stop() { StopInternal(/*discard=*/false); }
void QueryServer::Abort() { StopInternal(/*discard=*/true); }

void QueryServer::StopInternal(bool discard) {
  if (!started_.load() || stopped_.exchange(true)) return;
  draining_.store(true);
  // Unblock accept(); on Linux shutdown() on a listening socket makes
  // pending and future accepts fail immediately.
  ::shutdown(listen_fd_, SHUT_RDWR);
  if (acceptor_.joinable()) acceptor_.join();

  if (discard) {
    queue_.CloseAndDiscard();  // crash semantics: backlog dies unanswered
  } else {
    queue_.Close();  // graceful: batcher drains the admitted backlog
  }
  if (batcher_.joinable()) batcher_.join();

  std::vector<std::shared_ptr<Connection>> conns;
  std::vector<std::thread> readers;
  {
    std::lock_guard<std::mutex> lock(conns_mu_);
    conns.swap(connections_);
    readers.swap(readers_);
  }
  for (const auto& conn : conns) conn->Shutdown();
  for (std::thread& t : readers) {
    if (t.joinable()) t.join();
  }
  ::close(listen_fd_);
  listen_fd_ = -1;
}

void QueryServer::AcceptLoop() {
  for (;;) {
    const int fd = ::accept(listen_fd_, nullptr, nullptr);
    if (fd < 0) {
      if (errno == EINTR) continue;
      return;  // listener shut down (Stop/Abort) or fatal error
    }
    const int one = 1;
    ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    connections_accepted_.fetch_add(1, std::memory_order_relaxed);
    auto conn = std::make_shared<Connection>(fd);
    std::lock_guard<std::mutex> lock(conns_mu_);
    if (draining_.load()) {
      conn->Shutdown();
      continue;
    }
    connections_.push_back(conn);
    readers_.emplace_back([this, conn] { ReadLoop(conn); });
  }
}

void QueryServer::ReadLoop(std::shared_ptr<Connection> conn) {
  util::IoShim* io = options_.shim ? options_.shim : util::IoShim::Real();
  std::string body;
  for (;;) {
    // The length prefix waits on the (long) idle budget — between frames a
    // quiet peer is legitimate. Once a frame has started, its body runs on
    // the (tight) read budget: a half-written frame is a stall, and the
    // connection is reaped rather than parking this reader forever.
    uint32_t frame_len = 0;
    IoStatus s = ReadFull(io, conn->fd, &frame_len, sizeof(frame_len),
                          options_.idle_timeout_ms);
    if (s == IoStatus::kTimeout) {
      connections_reaped_.fetch_add(1, std::memory_order_relaxed);
      break;
    }
    if (s != IoStatus::kOk) break;
    frames_received_.fetch_add(1, std::memory_order_relaxed);
    if (frame_len == 0 || frame_len > options_.max_frame_bytes) {
      // Refuse before allocating or reading — a hostile 4 GiB prefix is
      // answered and the connection closed without buying it any memory.
      oversized_frames_.fetch_add(1, std::memory_order_relaxed);
      WriteResponse(conn, Status::kTooLarge, 0, {});
      break;
    }
    body.resize(frame_len);
    s = ReadFull(io, conn->fd, body.data(), frame_len,
                 options_.read_timeout_ms);
    if (s == IoStatus::kTimeout) {
      connections_reaped_.fetch_add(1, std::memory_order_relaxed);
      break;
    }
    if (s != IoStatus::kOk) break;  // torn frame

    Request request;
    try {
      request = DecodeRequest(body);
    } catch (const ProtocolError& e) {
      malformed_frames_.fetch_add(1, std::memory_order_relaxed);
      // Best-effort cookie so the client can match the error to its
      // request: the cookie field sits at a fixed header offset.
      uint64_t cookie = 0;
      if (body.size() >= 14) std::memcpy(&cookie, body.data() + 6, 8);
      WriteResponse(conn, e.status, cookie, {});
      break;
    }
    if (!Dispatch(conn, std::move(request))) break;
  }
  // Deliver queued responses for already-admitted requests, then close our
  // side so the peer sees EOF (the fd itself stays alive until the last
  // shared_ptr drops).
  conn->WaitQuiesced();
  conn->Shutdown();
}

bool QueryServer::ValidateSchema(const Request& request) const {
  if (request.header.opcode == Opcode::kSelect) {
    for (const core::AggSpec& spec : request.aggregates.specs()) {
      if (spec.fn != core::AggFn::kCount &&
          static_cast<size_t>(spec.column) >= num_columns_) {
        return false;
      }
    }
  }
  if (request.header.opcode == Opcode::kUpdate) {
    for (const core::GeoBlock::UpdateTuple& t : request.tuples) {
      if (t.values.size() != num_columns_) return false;
    }
  }
  return true;
}

bool QueryServer::Dispatch(const std::shared_ptr<Connection>& conn,
                           Request&& request) {
  const uint32_t tenant = request.header.tenant;
  const uint64_t cookie = request.header.cookie;
  switch (request.header.opcode) {
    case Opcode::kPing: {
      // A v2 PING reports health (ok | degraded) as the payload's first
      // byte, then the echo; a v1 PING stays a pure echo. Health must work
      // in degraded mode — that is the point of degraded mode.
      if (request.header.version >= 2) {
        std::string payload;
        payload.push_back(static_cast<char>(
            set_->read_only() ? kHealthDegraded : kHealthOk));
        payload.append(request.ping_payload);
        WriteResponse(conn, Status::kOk, cookie, payload);
      } else {
        WriteResponse(conn, Status::kOk, cookie, request.ping_payload);
      }
      return true;
    }
    case Opcode::kStats:
      WriteResponse(conn, Status::kOk, cookie,
                    EncodeStatsResult(BuildStats()));
      return true;
    default:
      break;
  }

  if (!ValidateSchema(request)) {
    malformed_frames_.fetch_add(1, std::memory_order_relaxed);
    WriteResponse(conn, Status::kMalformed, cookie, {});
    return false;  // schema-invalid requests close the connection
  }
  if (request.header.opcode == Opcode::kUpdate && set_->read_only()) {
    // Degraded read-only mode: reject before QoS and admission so a dead
    // WAL costs updaters one typed response, not queue slots or tenant
    // budget. Reads flow on untouched.
    read_only_rejected_.fetch_add(1, std::memory_order_relaxed);
    WriteResponse(conn, Status::kReadOnly, cookie, {});
    return true;
  }
  if (draining_.load()) {
    WriteResponse(conn, Status::kShuttingDown, cookie, {});
    return true;
  }
  switch (governor_.Admit(tenant)) {
    case TenantGovernor::Verdict::kThrottle:
      WriteResponse(conn, Status::kThrottled, cookie, {});
      return true;
    case TenantGovernor::Verdict::kGreylist:
      WriteResponse(conn, Status::kGreylisted, cookie, {});
      return true;
    case TenantGovernor::Verdict::kAdmit:
      break;
  }

  PendingRequest pending;
  pending.opcode = request.header.opcode;
  pending.tenant = tenant;
  pending.cookie = cookie;
  pending.conn = conn;
  pending.polygon = std::move(request.polygon);
  pending.aggregates = std::move(request.aggregates);
  pending.tuples = std::move(request.tuples);
  pending.fence = request.update_fence;
  if (request.header.deadline_ms > 0) {
    pending.deadline_at_ms =
        NowMs() + static_cast<int64_t>(request.header.deadline_ms);
  }
  pending.inflight_token = Connection::InflightToken(conn);
  if (!queue_.TryPush(std::move(pending))) {
    // Typed backpressure: the request was NOT admitted (never a silent
    // drop) and the connection stays open — the client may retry.
    governor_.RecordBusyRejected(tenant);
    WriteResponse(conn,
                  draining_.load() ? Status::kShuttingDown : Status::kBusy,
                  cookie, {});
  }
  return true;
}

void QueryServer::BatchLoop() {
  std::vector<PendingRequest> batch;
  while (queue_.DrainBatch(&batch, options_.max_batch)) {
    if (options_.batch_hook) options_.batch_hook();
    ExecuteEpoch(batch);
    batches_executed_.fetch_add(1, std::memory_order_relaxed);
  }
}

void QueryServer::ExecuteEpoch(std::vector<PendingRequest>& batch) {
  // Expired requests are answered kTimeout and never executed: by its own
  // declaration nobody is waiting for the result, so executing it would
  // spend engine time on dead work (and a late response is worse than a
  // typed timeout to a client that already gave up).
  const int64_t now_ms = NowMs();
  std::vector<char> expired(batch.size(), 0);
  for (size_t i = 0; i < batch.size(); ++i) {
    if (batch[i].deadline_at_ms != 0 && now_ms >= batch[i].deadline_at_ms) {
      expired[i] = 1;
      requests_timed_out_.fetch_add(1, std::memory_order_relaxed);
      governor_.RecordCompleted(batch[i].tenant);
      WriteResponse(batch[i].conn, Status::kTimeout, batch[i].cookie, {});
    }
  }

  std::vector<size_t> read_idx;
  std::vector<size_t> update_idx;
  for (size_t i = 0; i < batch.size(); ++i) {
    if (expired[i]) continue;
    switch (batch[i].opcode) {
      case Opcode::kSelect:
      case Opcode::kCount:
        read_idx.push_back(i);
        break;
      case Opcode::kUpdate:
        update_idx.push_back(i);
        break;
      default:
        break;  // unreachable: only query/update opcodes are admitted
    }
  }

  // Counters first, response second: a client that has received all its
  // responses must observe fully reconciled audit counters via STATS.
  const auto finish = [&](const PendingRequest& p, Status status,
                          std::string_view payload) {
    governor_.RecordCompleted(p.tenant);
    WriteResponse(p.conn, status, p.cookie, payload);
  };

  // Every read is exactly the sequential Select / Count, one pool
  // iteration each under its own try/catch, so a read that faults (e.g.
  // on a corrupt shard) fails only itself. Responses are written here on
  // the batcher thread once the reads joined.
  std::vector<Status> read_status(read_idx.size(), Status::kInternal);
  std::vector<std::string> read_payload(read_idx.size());
  util::ParallelFor(options_.pool, read_idx.size(), [&](size_t j) {
    const PendingRequest& p = batch[read_idx[j]];
    try {
      if (p.opcode == Opcode::kCount) {
        read_payload[j] = EncodeCountResult(set_->Count(p.polygon));
      } else {
        const core::QueryResult q = set_->Select(p.polygon, p.aggregates);
        SelectResult r;
        r.count = q.count;
        r.values = q.values;
        read_payload[j] = EncodeSelectResult(r);
      }
      read_status[j] = Status::kOk;
    } catch (const std::exception&) {
    }
  });
  for (size_t j = 0; j < read_idx.size(); ++j) {
    if (read_status[j] == Status::kOk &&
        batch[read_idx[j]].opcode == Opcode::kSelect) {
      select_groups_.fetch_add(1, std::memory_order_relaxed);
      break;
    }
  }
  for (size_t j = 0; j < read_idx.size(); ++j) {
    const PendingRequest& p = batch[read_idx[j]];
    if (read_status[j] == Status::kOk) {
      (p.opcode == Opcode::kCount ? counts_executed_ : selects_executed_)
          .fetch_add(1, std::memory_order_relaxed);
    }
    finish(p, read_status[j], read_payload[j]);
  }

  if (!update_idx.empty()) {
    // Fenced-retry deduplication first: a request whose (tenant, fence) is
    // already in the acknowledgment window is a retry of an UPDATE the
    // server applied but whose ack the client lost — answer the recorded
    // ack, never re-apply. A fence that duplicates a *fresh* request in
    // this same epoch rides behind it (`dup_after`): its tuples are not
    // coalesced, and it is answered from the window once the original
    // commits.
    std::vector<size_t> fresh;
    std::vector<size_t> dup_after;
    for (const size_t i : update_idx) {
      if (batch[i].fence != 0) {
        const auto key = std::make_pair(batch[i].tenant, batch[i].fence);
        const auto it = update_dedup_.find(key);
        if (it != update_dedup_.end()) {
          update_dedup_hits_.fetch_add(1, std::memory_order_relaxed);
          finish(batch[i], Status::kOk, EncodeUpdateAck(it->second));
          continue;
        }
        bool in_epoch = false;
        for (const size_t j : fresh) {
          if (batch[j].tenant == batch[i].tenant &&
              batch[j].fence == batch[i].fence) {
            in_epoch = true;
            break;
          }
        }
        if (in_epoch) {
          dup_after.push_back(i);
          continue;
        }
      }
      fresh.push_back(i);
    }
    if (!fresh.empty()) {
      // All fresh UPDATE requests of the epoch coalesce into ONE
      // ApplyBatchUpdate — one WAL record, one group-commit fsync, one
      // change number shared by every acknowledgment (docs/PROTOCOL.md
      // §UPDATE).
      std::vector<core::GeoBlock::UpdateTuple> tuples;
      size_t total = 0;
      for (const size_t i : fresh) total += batch[i].tuples.size();
      tuples.reserve(total);
      for (const size_t i : fresh) {
        for (core::GeoBlock::UpdateTuple& t : batch[i].tuples) {
          tuples.push_back(std::move(t));
        }
      }
      try {
        const core::BlockSet::SetUpdateResult result =
            set_->ApplyBatchUpdate(tuples, options_.pool);
        updates_executed_.fetch_add(fresh.size(), std::memory_order_relaxed);
        update_tuples_.fetch_add(total, std::memory_order_relaxed);
        for (const size_t i : fresh) {
          UpdateAck ack;
          ack.accepted = batch[i].tuples.size();
          ack.change_number = result.change_number;
          if (batch[i].fence != 0) {
            const auto key = std::make_pair(batch[i].tenant, batch[i].fence);
            update_dedup_[key] = ack;
            dedup_fifo_.push_back(key);
            while (dedup_fifo_.size() > options_.update_dedup_window) {
              update_dedup_.erase(dedup_fifo_.front());
              dedup_fifo_.pop_front();
            }
          }
          finish(batch[i], Status::kOk, EncodeUpdateAck(ack));
        }
        for (const size_t i : dup_after) {
          update_dedup_hits_.fetch_add(1, std::memory_order_relaxed);
          const auto key = std::make_pair(batch[i].tenant, batch[i].fence);
          finish(batch[i], Status::kOk, EncodeUpdateAck(update_dedup_[key]));
        }
      } catch (const core::ReadOnlyError&) {
        // The set was already read-only when the batcher got here (the
        // dispatch-time check raced the transition): definitely NOT
        // applied, so kReadOnly — safe for the client to retry elsewhere.
        for (const size_t i : fresh) {
          read_only_rejected_.fetch_add(1, std::memory_order_relaxed);
          finish(batch[i], Status::kReadOnly, {});
        }
        for (const size_t i : dup_after) {
          read_only_rejected_.fetch_add(1, std::memory_order_relaxed);
          finish(batch[i], Status::kReadOnly, {});
        }
      } catch (const std::exception&) {
        // Persist-first failed (e.g. the WAL died mid-append): the batch
        // is NOT acknowledged, but the outcome is genuinely unknown (the
        // record may or may not be durable). Clients must treat kInternal
        // as "unknown outcome"; recovery restores exactly the
        // acknowledged prefix. Follow-up UPDATEs hit the read-only path.
        for (const size_t i : fresh) finish(batch[i], Status::kInternal, {});
        for (const size_t i : dup_after) {
          finish(batch[i], Status::kInternal, {});
        }
      }
    }
  }
}

void QueryServer::WriteResponse(const std::shared_ptr<Connection>& conn,
                                Status status, uint64_t cookie,
                                std::string_view payload) {
  util::IoShim* io = options_.shim ? options_.shim : util::IoShim::Real();
  const std::string frame = EncodeResponse(status, cookie, payload);
  std::lock_guard<std::mutex> lock(conn->write_mu);
  const IoStatus s =
      WriteFull(io, conn->fd, frame, options_.write_timeout_ms);
  if (s == IoStatus::kTimeout) {
    // The peer stopped draining its responses: reap the connection so one
    // stalled receiver cannot park the batcher (which writes responses for
    // every connection) behind a full socket buffer.
    connections_reaped_.fetch_add(1, std::memory_order_relaxed);
    conn->Shutdown();
  }
  // kClosed: peer gone == nothing to do.
}

int64_t QueryServer::NowMs() const {
  if (options_.clock) return options_.clock();
  return std::chrono::duration_cast<std::chrono::milliseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

ServerStats QueryServer::stats() const {
  ServerStats s;
  s.connections_accepted = connections_accepted_.load();
  s.frames_received = frames_received_.load();
  s.malformed_frames = malformed_frames_.load();
  s.oversized_frames = oversized_frames_.load();
  s.queue_rejected = queue_.rejected_full();
  s.batches_executed = batches_executed_.load();
  s.selects_executed = selects_executed_.load();
  s.counts_executed = counts_executed_.load();
  s.updates_executed = updates_executed_.load();
  s.update_tuples = update_tuples_.load();
  s.select_groups = select_groups_.load();
  s.queue_depth = queue_.size();
  s.connections_reaped = connections_reaped_.load();
  s.requests_timed_out = requests_timed_out_.load();
  s.read_only_rejected = read_only_rejected_.load();
  s.update_dedup_hits = update_dedup_hits_.load();
  return s;
}

std::vector<std::pair<std::string, uint64_t>> QueryServer::BuildStats()
    const {
  const ServerStats s = stats();
  std::vector<std::pair<std::string, uint64_t>> entries = {
      {"server.connections", s.connections_accepted},
      {"server.frames", s.frames_received},
      {"server.malformed", s.malformed_frames},
      {"server.oversized", s.oversized_frames},
      {"server.queue_rejected", s.queue_rejected},
      {"server.queue_depth", s.queue_depth},
      {"server.batches", s.batches_executed},
      {"server.selects", s.selects_executed},
      {"server.counts", s.counts_executed},
      {"server.updates", s.updates_executed},
      {"server.update_tuples", s.update_tuples},
      {"server.select_groups", s.select_groups},
      {"server.change_number", set_->change_number()},
      {"server.health", set_->read_only() ? uint64_t{1} : uint64_t{0}},
      {"server.reaped", s.connections_reaped},
      {"server.timed_out", s.requests_timed_out},
      {"server.read_only_rejected", s.read_only_rejected},
      {"server.update_dedup_hits", s.update_dedup_hits},
  };
  if (options_.memory != nullptr) {
    const core::MemoryGovernor::Stats m = options_.memory->stats();
    entries.emplace_back("memory.resident_bytes", m.resident_bytes);
    entries.emplace_back("memory.budget_bytes", m.budget_bytes);
    entries.emplace_back("memory.evictions", m.evictions);
    entries.emplace_back("memory.faults", m.faults);
    entries.emplace_back("memory.refusals", m.refusals);
    entries.emplace_back("memory.resident_shards", set_->resident_shards());
  }
  for (const auto& [tenant, c] : governor_.Snapshot()) {
    const std::string prefix = "tenant." + std::to_string(tenant) + ".";
    entries.emplace_back(prefix + "requests", c.requests);
    entries.emplace_back(prefix + "admitted", c.admitted);
    entries.emplace_back(prefix + "throttled", c.throttled);
    entries.emplace_back(prefix + "greylisted", c.greylisted);
    entries.emplace_back(prefix + "busy", c.busy_rejected);
    entries.emplace_back(prefix + "completed", c.completed);
  }
  return entries;
}

}  // namespace geoblocks::server
