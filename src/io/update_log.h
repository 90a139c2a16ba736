#pragma once

/// \file update_log.h
/// The durable update log (WAL) behind BlockSet's acknowledged writes:
/// append-only, CRC-checksummed records of update batches, committed in
/// coalesced groups by a dedicated commit thread (group commit), replayed
/// idempotently at load time. The byte-level record layout is specified in
/// docs/FORMAT.md (§Update log); the commit protocol and recovery
/// invariants in docs/ARCHITECTURE.md (§Durability).
///
/// The contract this module exists for: **persist first, acknowledge
/// second**. `Append` returns only after the record — and by group-commit
/// construction, every record before it — is fsync'd; a crash at any byte
/// offset therefore loses only batches whose `Append` never returned.

#include <condition_variable>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <span>
#include <string>
#include <thread>
#include <vector>

#include "core/geoblock.h"
#include "util/io_shim.h"

namespace geoblocks::io {

/// Writes `bytes` to `path` atomically and durably: the bytes land in a
/// sibling temp file that is fsync'd before being renamed over `path`, so a
/// crash leaves either the old file or the new one, never a torn mix. Used
/// by BlockSet::Checkpoint for the manifest.
///
/// @throws std::runtime_error on any I/O failure.
void AtomicWriteFile(const std::string& path, std::string_view bytes);

/// A write-ahead log of update batches with group commit.
///
/// ## Concurrency and the group-commit protocol
///
/// Any number of appender threads serialize their batch, stamp the next
/// monotone change number, and push the record into a bounded in-memory
/// segment; a single commit thread swaps the whole segment out, writes it
/// with one file append, fsyncs once, and only then releases every appender
/// whose record was in the group. Appenders arriving while a group is being
/// synced pile into the next segment, so the fsync cost amortizes over the
/// burst — the disk sees one sync per *group*, not per batch
/// (`stats().groups_committed` vs `records_appended`).
///
/// ## Failure model
///
/// A write or sync failure — real, or injected through `Options::shim` —
/// marks the log dead, exactly like a crashed process: the in-flight
/// `Append` (and every later one) throws `std::runtime_error`, and nothing
/// more is written. A short write followed by EIO/ENOSPC leaves the same
/// torn tail a crash mid-write would; a refused fsync leaves the group
/// written but unacknowledged, the window between fsync and ack. Recovery
/// is a fresh `Open` on the same path: it validates the header, scans
/// records until the first invalid one (a torn tail), truncates the tail,
/// and positions the next change number after the last durable record.
///
/// ## Change numbers
///
/// Records carry strictly increasing change numbers, continuing across
/// reopen. The header stores a *base* change number — the change number of
/// the checkpoint that last truncated the log — so every record in a log
/// file satisfies `record.change_number > base`. Replay applies records
/// above a caller-supplied floor and skips the rest, which is what makes
/// replay idempotent: a checkpoint manifest whose change number is `c`
/// replays a log containing records `<= c` without double-applying them.
class UpdateLog {
 public:
  struct Options {
    /// Appenders block once the un-synced in-memory segment holds this many
    /// bytes (backpressure toward the disk; keeps the segment bounded).
    size_t max_pending_bytes = size_t{4} << 20;
    /// Fault injection: the commit path issues its pwrite/fsync through
    /// this shim (see util::FaultShim — short writes, ENOSPC, EIO), which
    /// is also how the recovery suites crash the log at an exact byte or
    /// fsync. Null uses the real syscalls. A shim-injected failure is
    /// indistinguishable from a real one: the log dies and the owning
    /// BlockSet enters degraded read-only mode.
    util::IoShim* shim = nullptr;
  };

  /// Commit-activity counters (exact once appenders quiesce).
  struct Stats {
    uint64_t records_appended = 0;  ///< records acknowledged durable
    uint64_t groups_committed = 0;  ///< fsync'd groups (<= records_appended)
    uint64_t bytes_committed = 0;   ///< record bytes written and synced
  };

  /// Result of a Replay pass.
  struct ReplayResult {
    uint64_t records_applied = 0;   ///< records above the floor, applied
    uint64_t records_skipped = 0;   ///< records at/below the floor, skipped
    uint64_t last_change_number = 0;  ///< last valid record's cn (0 if none)
    bool torn_tail = false;  ///< invalid bytes followed the last valid record
  };

  /// Opens (or creates) the log at `path`: validates the header, scans the
  /// existing records, and truncates any torn tail so appends continue
  /// cleanly after the last durable record. A file shorter than the header
  /// is treated as a crash during creation (nothing can have been
  /// acknowledged from it) and is re-initialized.
  ///
  /// @param path    Log file path.
  /// @param options Commit configuration and test hooks.
  /// @return The opened log, ready for Replay and Append.
  /// @throws std::runtime_error when the file cannot be opened, or its
  ///     header is present but invalid (bad magic/version/flags/checksum —
  ///     real corruption, not a torn write).
  static std::unique_ptr<UpdateLog> Open(const std::string& path,
                                         const Options& options);
  /// Open with default Options (an overload: a default argument cannot use
  /// the nested aggregate's member initializers inside the class).
  static std::unique_ptr<UpdateLog> Open(const std::string& path);

  /// Stops the commit thread (draining any still-buffered records to disk
  /// first, unless the log already failed) and closes the file.
  ~UpdateLog();

  UpdateLog(const UpdateLog&) = delete;
  UpdateLog& operator=(const UpdateLog&) = delete;

  /// Appends one update batch as a single record and blocks until it is
  /// durable (written and fsync'd, possibly as part of a coalesced group).
  /// Safe from any number of threads; change numbers are assigned in
  /// arrival order under the log's lock.
  ///
  /// @param batch The batch to persist.
  /// @return The record's change number (strictly increasing).
  /// @throws std::runtime_error when the log has failed (a prior write or
  ///     sync error, or an injected crash) — the batch must NOT be treated
  ///     as durable. A batch may be durable yet still throw when the
  ///     failure hit after its bytes reached the file (a failed fsync);
  ///     recovery then replays it (at-least-once, never silent loss).
  uint64_t Append(std::span<const core::GeoBlock::UpdateTuple> batch);

  /// Re-reads the log from disk and hands every valid record with
  /// change number > `after` to `apply`, in log order; records at or below
  /// `after` are counted as skipped (the idempotency floor). Scanning stops
  /// at the first invalid record (torn tail). Must be called before any
  /// Append on this handle (the load-time replay pass).
  ///
  /// @param after Change-number floor, typically the manifest's.
  /// @param apply Callback receiving (change_number, batch tuples).
  /// @return Replay accounting.
  /// @throws std::logic_error when called after Append.
  /// @throws std::runtime_error on read failures.
  ReplayResult Replay(
      uint64_t after,
      const std::function<void(uint64_t change_number,
                               std::vector<core::GeoBlock::UpdateTuple>&&
                                   batch)>& apply);

  /// Checkpoint truncation: discards every record (the checkpoint at
  /// `new_base` has absorbed them) and rewrites the header with
  /// `new_base` as the base change number, fsync'd. Waits for in-flight
  /// groups to commit first; must not race Append (quiesce updaters — see
  /// BlockSet::Checkpoint).
  ///
  /// @param new_base The checkpoint's change number.
  /// @throws std::runtime_error on I/O failure or a failed log.
  void Truncate(uint64_t new_base);

  /// @return The header's base change number (records satisfy cn > base).
  uint64_t base_change_number() const;
  /// @return The last assigned change number (base when no records yet).
  uint64_t last_change_number() const;
  /// @return The last change number known durable.
  uint64_t durable_change_number() const;
  /// @return True once the log failed (crashed); all appends throw.
  bool failed() const;
  /// @return Commit-activity counters.
  Stats stats() const;
  /// @return The log file path.
  const std::string& path() const { return path_; }

 private:
  UpdateLog(std::string path, int fd, const Options& options);

  /// Commit-thread main loop: swap out the pending segment, write + fsync
  /// it as one group, advance the durable change number, release waiters.
  void CommitLoop();

  /// Writes `bytes` at the current append offset through the shim.
  /// Caller must be the commit thread / Truncate (file ops are serialized
  /// by protocol). Throws std::runtime_error on failure.
  void WriteAtEnd(std::string_view bytes);
  /// fsync through the shim; throws std::runtime_error on failure.
  void Sync();

  /// Serializes the 24-byte file header for base `base_cn`.
  static std::string EncodeHeader(uint64_t base_cn);

  std::string path_;
  int fd_ = -1;
  Options options_;
  uint64_t append_offset_ = 0;  ///< commit thread only (after Open)
  bool torn_at_open_ = false;   ///< Open truncated a torn tail

  mutable std::mutex mu_;
  std::condition_variable work_cv_;     ///< pending segment has records
  std::condition_variable durable_cv_;  ///< durable_cn_ advanced / failed
  std::condition_variable space_cv_;    ///< pending segment drained
  std::string pending_;                 ///< serialized, not-yet-synced records
  uint64_t pending_last_cn_ = 0;
  uint64_t base_cn_ = 0;
  uint64_t next_cn_ = 0;     ///< last assigned change number
  uint64_t durable_cn_ = 0;  ///< last fsync'd change number
  bool failed_ = false;
  bool stop_ = false;
  Stats stats_;
  bool appended_ = false;  ///< any Append on this handle (gates Replay)

  std::thread commit_thread_;
};

}  // namespace geoblocks::io
