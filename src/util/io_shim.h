#pragma once

/// \file io_shim.h
/// The syscall fault-injection shim behind the fault-containment layer:
/// every durability- or serving-critical I/O syscall (pwrite, fsync, send,
/// recv) is issued through an `IoShim`, so a test can make the disk fill
/// up (ENOSPC), the device die (EIO on write or fsync), or a socket reset
/// (ECONNRESET) at an exact byte offset — without root, loopback devices,
/// or LD_PRELOAD tricks. It is also the repository's one crash injector:
/// a pwrite byte budget tears the WAL at an exact offset (short write,
/// then EIO), and a refused fsync opens the written-but-unacknowledged
/// window, so the recovery crash matrix (tests/recovery_test.cc) runs
/// through the same seam as the syscall-failure chaos suites.
///
/// Production code passes no shim and pays one virtual call per syscall
/// (noise next to the syscall itself); the chaos suites
/// (tests/fault_injection_test.cc, tests/client_retry_test.cc) arm a
/// FaultShim and assert the degraded-mode / retry invariants in
/// docs/ARCHITECTURE.md §Failure containment.

#include <sys/socket.h>
#include <sys/types.h>
#include <unistd.h>

#include <atomic>
#include <cerrno>
#include <cstdint>
#include <mutex>

namespace geoblocks::util {

/// The passthrough I/O surface. Virtual so a FaultShim can interpose;
/// the default implementation is the real syscall, nothing else — no
/// retry loops, no EINTR handling (callers own their loops, exactly as
/// they would around the raw syscall).
class IoShim {
 public:
  virtual ~IoShim() = default;

  /// @return As ::pwrite — bytes written, or -1 with errno set.
  virtual ssize_t Pwrite(int fd, const void* buf, size_t count,
                         off_t offset) {
    return ::pwrite(fd, buf, count, offset);
  }

  /// @return As ::pread — bytes read, 0 at EOF, or -1 with errno set.
  virtual ssize_t Pread(int fd, void* buf, size_t count, off_t offset) {
    return ::pread(fd, buf, count, offset);
  }

  /// @return As ::fsync — 0, or -1 with errno set.
  virtual int Fsync(int fd) { return ::fsync(fd); }

  /// @return As ::send — bytes sent, or -1 with errno set.
  virtual ssize_t Send(int fd, const void* buf, size_t len, int flags) {
    return ::send(fd, buf, len, flags);
  }

  /// @return As ::recv — bytes received, 0 on EOF, or -1 with errno set.
  virtual ssize_t Recv(int fd, void* buf, size_t len, int flags) {
    return ::recv(fd, buf, len, flags);
  }

  /// @return The process-wide passthrough instance (what a null shim
  ///     option resolves to).
  static IoShim* Real() {
    static IoShim real;
    return &real;
  }
};

/// A shim that injects errors and short counts on a per-operation budget.
///
/// Each of the four operations carries an independently armed fault:
///
/// - **Byte budget** (pwrite/send/recv): the next `budget` bytes pass
///   through to the real syscall; a call that would cross the boundary is
///   *truncated* to the remaining budget (a short count — exactly what a
///   filling disk or a closing socket produces), and once the budget is 0
///   the next `fail_times` calls return -1 with the armed errno. This
///   yields the realistic two-step failure (short write, then ENOSPC)
///   that retry loops must survive without spinning.
/// - **Call budget** (fsync): the next `budget` fsyncs pass through; the
///   following `fail_times` calls return -1 with the armed errno
///   **without syncing** — after a failed fsync the durability of
///   previously written bytes is undefined, which is precisely why the
///   policy in docs/ARCHITECTURE.md forbids retrying one.
///
/// `fail_times` defaults to "forever" (a dead disk stays dead); pass a
/// finite count for transient faults (a flaky socket that recovers).
/// All operations are thread-safe; counters let tests assert exactly how
/// many faults fired.
class FaultShim : public IoShim {
 public:
  static constexpr uint64_t kUnlimited = ~uint64_t{0};

  /// Per-operation activity counters (reads are approximate only while
  /// calls are in flight; exact once the instrumented threads quiesce).
  struct Counters {
    uint64_t calls = 0;         ///< syscalls attempted through the shim
    uint64_t short_returns = 0; ///< calls truncated by the byte budget
    uint64_t errors = 0;        ///< calls answered with the armed errno
  };

  /// Arms the pwrite fault: `after_bytes` more bytes reach the file, then
  /// `fail_times` calls fail with `err` (ENOSPC, EIO, ...).
  void ArmPwrite(uint64_t after_bytes, int err,
                 uint64_t fail_times = kUnlimited) {
    Arm(&pwrite_, after_bytes, err, fail_times);
  }
  /// Arms the fsync fault: `after_calls` more fsyncs succeed, then
  /// `fail_times` calls fail with `err` without syncing.
  void ArmFsync(uint64_t after_calls, int err,
                uint64_t fail_times = kUnlimited) {
    Arm(&fsync_, after_calls, err, fail_times);
  }
  /// Arms the send fault (byte budget, like pwrite).
  void ArmSend(uint64_t after_bytes, int err,
               uint64_t fail_times = kUnlimited) {
    Arm(&send_, after_bytes, err, fail_times);
  }
  /// Arms the recv fault (byte budget, like pwrite).
  void ArmRecv(uint64_t after_bytes, int err,
               uint64_t fail_times = kUnlimited) {
    Arm(&recv_, after_bytes, err, fail_times);
  }
  /// Arms the pread fault (byte budget, like pwrite) — the lazy shard
  /// fault-in path reads payloads through here, so chaos tests can model
  /// a file truncated (short read, then EOF-as-error) or a dying device
  /// (EIO) under a reader that must answer a typed error, not crash.
  void ArmPread(uint64_t after_bytes, int err,
                uint64_t fail_times = kUnlimited) {
    Arm(&pread_, after_bytes, err, fail_times);
  }

  /// Disarms every fault; counters are preserved.
  void Disarm() {
    std::lock_guard<std::mutex> lock(mu_);
    for (Fault* f : {&pwrite_, &fsync_, &send_, &recv_, &pread_}) {
      f->budget = kUnlimited;
      f->fail_times = 0;
    }
  }

  Counters pwrite_counters() const { return Snapshot(pwrite_); }
  Counters pread_counters() const { return Snapshot(pread_); }
  Counters fsync_counters() const { return Snapshot(fsync_); }
  Counters send_counters() const { return Snapshot(send_); }
  Counters recv_counters() const { return Snapshot(recv_); }

  ssize_t Pwrite(int fd, const void* buf, size_t count,
                 off_t offset) override {
    const Decision d = Decide(&pwrite_, count);
    if (d.inject_error) {
      errno = d.err;
      return -1;
    }
    return IoShim::Pwrite(fd, buf, d.admit, offset);
  }

  int Fsync(int fd) override {
    // Call budget: Decide with count 1 admits or refuses whole calls.
    const Decision d = Decide(&fsync_, 1);
    if (d.inject_error || d.admit == 0) {
      // A refused fsync must NOT sync: the caller cannot assume anything
      // about the durability of bytes written before the failure.
      errno = d.err;
      return -1;
    }
    return IoShim::Fsync(fd);
  }

  ssize_t Send(int fd, const void* buf, size_t len, int flags) override {
    const Decision d = Decide(&send_, len);
    if (d.inject_error) {
      errno = d.err;
      return -1;
    }
    return IoShim::Send(fd, buf, d.admit, flags);
  }

  ssize_t Recv(int fd, void* buf, size_t len, int flags) override {
    const Decision d = Decide(&recv_, len);
    if (d.inject_error) {
      errno = d.err;
      return -1;
    }
    return IoShim::Recv(fd, buf, d.admit, flags);
  }

  ssize_t Pread(int fd, void* buf, size_t count, off_t offset) override {
    const Decision d = Decide(&pread_, count);
    if (d.inject_error) {
      errno = d.err;
      return -1;
    }
    return IoShim::Pread(fd, buf, d.admit, offset);
  }

 private:
  struct Fault {
    uint64_t budget = kUnlimited;    ///< bytes (calls for fsync) remaining
    int err = EIO;                   ///< errno injected once budget is 0
    uint64_t fail_times = 0;         ///< failures remaining; then passthrough
    Counters counters;
  };

  struct Decision {
    size_t admit = 0;        ///< bytes (or calls) to pass through
    bool inject_error = false;
    int err = EIO;
  };

  void Arm(Fault* f, uint64_t budget, int err, uint64_t fail_times) {
    std::lock_guard<std::mutex> lock(mu_);
    f->budget = budget;
    f->err = err;
    f->fail_times = fail_times;
  }

  /// One armed-fault step: consume budget, truncate the crossing call,
  /// and inject the errno while failures remain.
  Decision Decide(Fault* f, size_t want) {
    std::lock_guard<std::mutex> lock(mu_);
    ++f->counters.calls;
    Decision d;
    d.err = f->err;
    if (f->budget >= want) {
      if (f->budget != kUnlimited) f->budget -= want;
      d.admit = want;
      return d;
    }
    if (f->budget > 0) {
      // The call crosses the boundary: pass through only the remaining
      // budget (a short count), like a disk filling mid-write.
      d.admit = static_cast<size_t>(f->budget);
      f->budget = 0;
      ++f->counters.short_returns;
      return d;
    }
    if (f->fail_times > 0) {
      if (f->fail_times != kUnlimited) --f->fail_times;
      ++f->counters.errors;
      d.inject_error = true;
      return d;
    }
    // Budget exhausted and failures spent: transparent again.
    d.admit = want;
    return d;
  }

  Counters Snapshot(const Fault& f) const {
    std::lock_guard<std::mutex> lock(mu_);
    return f.counters;
  }

  mutable std::mutex mu_;
  Fault pwrite_;
  Fault fsync_;
  Fault send_;
  Fault recv_;
  Fault pread_;
};

}  // namespace geoblocks::util
