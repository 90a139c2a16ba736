#include "io/update_log.h"

#include <fcntl.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <stdexcept>
#include <utility>

#include "core/serialize.h"
#include "core/update_codec.h"

namespace geoblocks::io {

namespace serialize = core::serialize;

namespace {

template <typename T>
void AppendPod(std::string* out, const T& value) {
  static_assert(std::is_trivially_copyable_v<T>);
  out->append(reinterpret_cast<const char*>(&value), sizeof(T));
}

template <typename T>
T PeekPod(std::string_view bytes, size_t offset) {
  static_assert(std::is_trivially_copyable_v<T>);
  T value;
  std::memcpy(&value, bytes.data() + offset, sizeof(T));
  return value;
}

[[noreturn]] void ThrowErrno(const std::string& what) {
  throw std::runtime_error("geoblocks: update log: " + what + ": " +
                           std::strerror(errno));
}

/// Reads exactly `n` bytes at `offset`; throws on error or short read.
void ReadExact(int fd, uint64_t offset, char* buf, size_t n) {
  size_t done = 0;
  while (done < n) {
    const ssize_t got = ::pread(fd, buf + done, n - done,
                                static_cast<off_t>(offset + done));
    if (got < 0) {
      if (errno == EINTR) continue;
      ThrowErrno("read failed");
    }
    if (got == 0) {
      throw std::runtime_error("geoblocks: update log: short read");
    }
    done += static_cast<size_t>(got);
  }
}

/// Writes exactly `n` bytes at `offset` straight to the fd, bypassing the
/// I/O shim (recovery-side writes in Open).
void WriteExact(int fd, uint64_t offset, const char* buf, size_t n) {
  size_t done = 0;
  while (done < n) {
    const ssize_t put = ::pwrite(fd, buf + done, n - done,
                                 static_cast<off_t>(offset + done));
    if (put < 0) {
      if (errno == EINTR) continue;
      ThrowErrno("write failed");
    }
    done += static_cast<size_t>(put);
  }
}

/// One scanned WAL record header (see docs/FORMAT.md §Update log).
struct RecordHeader {
  uint64_t change_number = 0;
  uint32_t tuple_count = 0;
  uint32_t payload_size = 0;
  uint32_t payload_crc = 0;
};

/// Parses and validates a 24-byte record header. Returns false when the
/// bytes are not a valid header (torn or corrupt — scanning must stop).
bool ParseRecordHeader(std::string_view bytes, RecordHeader* out) {
  const uint32_t stored_crc = PeekPod<uint32_t>(bytes, 20);
  if (serialize::Crc32(bytes.substr(0, 20)) != stored_crc) return false;
  out->change_number = PeekPod<uint64_t>(bytes, 0);
  out->tuple_count = PeekPod<uint32_t>(bytes, 8);
  out->payload_size = PeekPod<uint32_t>(bytes, 12);
  out->payload_crc = PeekPod<uint32_t>(bytes, 16);
  if (out->payload_size > serialize::kMaxWalRecordBytes) return false;
  return true;
}

}  // namespace

void AtomicWriteFile(const std::string& path, std::string_view bytes) {
  const std::string tmp = path + ".tmp";
  const int fd = ::open(tmp.c_str(), O_WRONLY | O_CREAT | O_TRUNC | O_CLOEXEC,
                        0644);
  if (fd < 0) ThrowErrno("cannot create " + tmp);
  try {
    WriteExact(fd, 0, bytes.data(), bytes.size());
    if (::fsync(fd) != 0) ThrowErrno("fsync failed for " + tmp);
  } catch (...) {
    ::close(fd);
    ::unlink(tmp.c_str());
    throw;
  }
  ::close(fd);
  if (::rename(tmp.c_str(), path.c_str()) != 0) {
    ::unlink(tmp.c_str());
    ThrowErrno("rename failed for " + path);
  }
  // Make the rename itself durable: sync the containing directory. A
  // failed directory fsync is a durability failure like any other — the
  // rename may not survive a crash, so the caller must NOT treat the file
  // as durably replaced (never swallow it).
  const size_t slash = path.find_last_of('/');
  const std::string dir =
      slash == std::string::npos ? "." : path.substr(0, slash == 0 ? 1 : slash);
  const int dfd = ::open(dir.c_str(), O_RDONLY | O_DIRECTORY | O_CLOEXEC);
  if (dfd < 0) ThrowErrno("cannot open directory " + dir);
  if (::fsync(dfd) != 0) {
    const int saved_errno = errno;
    ::close(dfd);
    errno = saved_errno;
    ThrowErrno("directory fsync failed for " + dir);
  }
  ::close(dfd);
}

UpdateLog::UpdateLog(std::string path, int fd, const Options& options)
    : path_(std::move(path)), fd_(fd), options_(options) {
  if (options_.shim == nullptr) options_.shim = util::IoShim::Real();
}

std::string UpdateLog::EncodeHeader(uint64_t base_cn) {
  std::string header;
  header.reserve(serialize::kWalHeaderBytes);
  AppendPod(&header, serialize::kWalMagic);
  AppendPod(&header, serialize::kWalVersion);
  AppendPod(&header, uint32_t{0});  // flags
  AppendPod(&header, base_cn);
  AppendPod(&header, serialize::Crc32(header));
  return header;
}

std::unique_ptr<UpdateLog> UpdateLog::Open(const std::string& path) {
  return Open(path, Options());
}

std::unique_ptr<UpdateLog> UpdateLog::Open(const std::string& path,
                                           const Options& options) {
  serialize::RequireLittleEndianHost();
  const int fd = ::open(path.c_str(), O_RDWR | O_CREAT | O_CLOEXEC, 0644);
  if (fd < 0) ThrowErrno("cannot open " + path);
  std::unique_ptr<UpdateLog> log(new UpdateLog(path, fd, options));

  const off_t end = ::lseek(fd, 0, SEEK_END);
  if (end < 0) ThrowErrno("lseek failed for " + path);
  const auto size = static_cast<uint64_t>(end);

  if (size < serialize::kWalHeaderBytes) {
    // Fresh log, or a crash during creation: nothing below a full header
    // can have been acknowledged, so re-initialize at base 0.
    if (::ftruncate(fd, 0) != 0) ThrowErrno("ftruncate failed for " + path);
    const std::string header = EncodeHeader(0);
    WriteExact(fd, 0, header.data(), header.size());
    if (::fsync(fd) != 0) ThrowErrno("fsync failed for " + path);
    log->append_offset_ = serialize::kWalHeaderBytes;
  } else {
    char header[serialize::kWalHeaderBytes];
    ReadExact(fd, 0, header, sizeof(header));
    const std::string_view hv(header, sizeof(header));
    if (PeekPod<uint32_t>(hv, 0) != serialize::kWalMagic ||
        PeekPod<uint32_t>(hv, 4) != serialize::kWalVersion ||
        PeekPod<uint32_t>(hv, 8) != 0 ||
        PeekPod<uint32_t>(hv, 20) != serialize::Crc32(hv.substr(0, 20))) {
      throw std::runtime_error("geoblocks: update log: bad header in " + path);
    }
    log->base_cn_ = PeekPod<uint64_t>(hv, 12);

    // Scan records until the first invalid one; everything after is a torn
    // tail the crash left behind (never acknowledged) and is dropped.
    uint64_t offset = serialize::kWalHeaderBytes;
    uint64_t last_cn = log->base_cn_;
    std::string buf;
    while (offset + serialize::kWalRecordHeaderBytes <= size) {
      char rec[serialize::kWalRecordHeaderBytes];
      ReadExact(fd, offset, rec, sizeof(rec));
      RecordHeader parsed;
      if (!ParseRecordHeader(std::string_view(rec, sizeof(rec)), &parsed)) {
        break;
      }
      if (parsed.change_number <= last_cn) break;
      if (offset + serialize::kWalRecordHeaderBytes + parsed.payload_size >
          size) {
        break;
      }
      buf.resize(parsed.payload_size);
      ReadExact(fd, offset + serialize::kWalRecordHeaderBytes, buf.data(),
                buf.size());
      if (serialize::Crc32(buf) != parsed.payload_crc) break;
      last_cn = parsed.change_number;
      offset += serialize::kWalRecordHeaderBytes + parsed.payload_size;
    }
    if (offset < size) {
      if (::ftruncate(fd, static_cast<off_t>(offset)) != 0) {
        ThrowErrno("ftruncate failed for " + path);
      }
      if (::fsync(fd) != 0) ThrowErrno("fsync failed for " + path);
      log->torn_at_open_ = true;
    }
    log->append_offset_ = offset;
    log->next_cn_ = log->durable_cn_ = last_cn;
  }
  if (log->next_cn_ < log->base_cn_) {
    log->next_cn_ = log->durable_cn_ = log->base_cn_;
  }

  log->commit_thread_ = std::thread(&UpdateLog::CommitLoop, log.get());
  return log;
}

UpdateLog::~UpdateLog() {
  {
    std::lock_guard<std::mutex> lk(mu_);
    stop_ = true;
  }
  work_cv_.notify_all();
  if (commit_thread_.joinable()) commit_thread_.join();
  if (fd_ >= 0) ::close(fd_);
}

void UpdateLog::WriteAtEnd(std::string_view bytes) {
  // A short count (disk filling) or an outright refusal (ENOSPC/EIO) from
  // the shim surfaces as a thrown durability error after persisting only
  // the prefix that went through — the same torn-tail shape a crash
  // leaves, which is exactly what recovery already handles.
  size_t done = 0;
  while (done < bytes.size()) {
    const ssize_t put = options_.shim->Pwrite(
        fd_, bytes.data() + done, bytes.size() - done,
        static_cast<off_t>(append_offset_ + done));
    if (put < 0) {
      if (errno == EINTR) continue;
      append_offset_ += done;
      ThrowErrno("write failed");
    }
    done += static_cast<size_t>(put);
  }
  append_offset_ += done;
}

void UpdateLog::Sync() {
  // Policy: NEVER retry a failed fsync. After an fsync error the kernel
  // may have dropped the dirty pages while clearing the error state, so a
  // second fsync can return success without the data being durable
  // (the post-fsyncgate rule). One failure kills the log permanently.
  if (options_.shim->Fsync(fd_) != 0) ThrowErrno("fsync failed for " + path_);
}

uint64_t UpdateLog::Append(
    std::span<const core::GeoBlock::UpdateTuple> batch) {
  // Serialize the payload outside the lock; only change-number assignment
  // and the segment append need mutual exclusion.
  std::string payload;
  serialize::EncodeUpdateTuples(&payload, batch);
  if (payload.size() > serialize::kMaxWalRecordBytes) {
    throw std::runtime_error("geoblocks: update log: batch too large");
  }
  const uint32_t payload_crc = serialize::Crc32(payload);

  std::unique_lock<std::mutex> lk(mu_);
  appended_ = true;
  space_cv_.wait(lk, [&] {
    return failed_ || pending_.size() < options_.max_pending_bytes;
  });
  if (failed_) {
    throw std::runtime_error("geoblocks: update log: log has failed");
  }
  const uint64_t cn = ++next_cn_;
  std::string header;
  header.reserve(serialize::kWalRecordHeaderBytes);
  AppendPod(&header, cn);
  AppendPod(&header, static_cast<uint32_t>(batch.size()));
  AppendPod(&header, static_cast<uint32_t>(payload.size()));
  AppendPod(&header, payload_crc);
  AppendPod(&header, serialize::Crc32(header));
  pending_ += header;
  pending_ += payload;
  pending_last_cn_ = cn;
  work_cv_.notify_one();

  durable_cv_.wait(lk, [&] { return durable_cn_ >= cn || failed_; });
  if (durable_cn_ < cn) {
    // The group may or may not have reached the disk (a crash between
    // fsync and acknowledgment leaves it durable); the caller must treat
    // the batch as NOT acknowledged either way.
    throw std::runtime_error(
        "geoblocks: update log: crashed before acknowledging batch");
  }
  ++stats_.records_appended;
  return cn;
}

void UpdateLog::CommitLoop() {
  std::unique_lock<std::mutex> lk(mu_);
  while (true) {
    work_cv_.wait(lk, [&] { return stop_ || failed_ || !pending_.empty(); });
    if (failed_) break;
    if (pending_.empty()) {
      if (stop_) break;
      continue;
    }
    // Take the whole segment as one group: a single write + one fsync
    // acknowledges every record in it.
    std::string group;
    group.swap(pending_);
    const uint64_t group_cn = pending_last_cn_;
    lk.unlock();
    space_cv_.notify_all();
    bool ok = true;
    try {
      WriteAtEnd(group);
      Sync();
    } catch (...) {
      ok = false;
    }
    lk.lock();
    if (ok) {
      durable_cn_ = group_cn;
      ++stats_.groups_committed;
      stats_.bytes_committed += group.size();
    } else {
      failed_ = true;
    }
    durable_cv_.notify_all();
    space_cv_.notify_all();
    if (failed_) break;
  }
}

UpdateLog::ReplayResult UpdateLog::Replay(
    uint64_t after,
    const std::function<void(uint64_t,
                             std::vector<core::GeoBlock::UpdateTuple>&&)>&
        apply) {
  uint64_t valid_end = 0;
  {
    std::lock_guard<std::mutex> lk(mu_);
    if (appended_) {
      throw std::logic_error(
          "geoblocks: update log: Replay must run before Append");
    }
    valid_end = append_offset_;
  }
  // The region below `valid_end` was validated (and any torn tail cut) by
  // Open, and no Append has run, so it is immutable here.
  ReplayResult result;
  result.torn_tail = torn_at_open_;
  uint64_t offset = serialize::kWalHeaderBytes;
  std::string buf;
  while (offset + serialize::kWalRecordHeaderBytes <= valid_end) {
    char rec[serialize::kWalRecordHeaderBytes];
    ReadExact(fd_, offset, rec, sizeof(rec));
    RecordHeader parsed;
    if (!ParseRecordHeader(std::string_view(rec, sizeof(rec)), &parsed)) {
      throw std::runtime_error(
          "geoblocks: update log: record changed under replay");
    }
    buf.resize(parsed.payload_size);
    ReadExact(fd_, offset + serialize::kWalRecordHeaderBytes, buf.data(),
              buf.size());
    if (serialize::Crc32(buf) != parsed.payload_crc) {
      throw std::runtime_error(
          "geoblocks: update log: record changed under replay");
    }
    if (parsed.change_number <= after) {
      ++result.records_skipped;
    } else {
      size_t pos = 0;
      auto tuples =
          serialize::DecodeUpdateTuples(buf, &pos, parsed.tuple_count);
      if (pos != buf.size()) {
        throw std::runtime_error(
            "geoblocks: update log: record payload has trailing bytes");
      }
      apply(parsed.change_number, std::move(tuples));
      ++result.records_applied;
    }
    result.last_change_number = parsed.change_number;
    offset += serialize::kWalRecordHeaderBytes + parsed.payload_size;
  }
  return result;
}

void UpdateLog::Truncate(uint64_t new_base) {
  std::unique_lock<std::mutex> lk(mu_);
  durable_cv_.wait(lk, [&] {
    return failed_ || (pending_.empty() && durable_cn_ == next_cn_);
  });
  if (failed_) {
    throw std::runtime_error("geoblocks: update log: log has failed");
  }
  if (new_base < next_cn_) {
    throw std::logic_error(
        "geoblocks: update log: truncating below the last record would "
        "discard acknowledged batches");
  }
  // The commit thread is idle (nothing pending, nothing in flight), so the
  // file is ours to rewrite.
  try {
    if (::ftruncate(fd_, 0) != 0) ThrowErrno("ftruncate failed for " + path_);
    append_offset_ = 0;
    WriteAtEnd(EncodeHeader(new_base));
    Sync();
  } catch (...) {
    failed_ = true;
    durable_cv_.notify_all();
    space_cv_.notify_all();
    work_cv_.notify_all();
    throw;
  }
  base_cn_ = new_base;
  next_cn_ = durable_cn_ = new_base;
}

uint64_t UpdateLog::base_change_number() const {
  std::lock_guard<std::mutex> lk(mu_);
  return base_cn_;
}

uint64_t UpdateLog::last_change_number() const {
  std::lock_guard<std::mutex> lk(mu_);
  return next_cn_;
}

uint64_t UpdateLog::durable_change_number() const {
  std::lock_guard<std::mutex> lk(mu_);
  return durable_cn_;
}

bool UpdateLog::failed() const {
  std::lock_guard<std::mutex> lk(mu_);
  return failed_;
}

UpdateLog::Stats UpdateLog::stats() const {
  std::lock_guard<std::mutex> lk(mu_);
  return stats_;
}

}  // namespace geoblocks::io
