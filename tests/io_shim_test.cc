// Unit tests for the syscall fault-injection shim (src/util/io_shim.h):
// the budget arithmetic (byte budgets with short counts, call budgets for
// fsync), errno injection, finite vs unlimited fail_times, Disarm, and the
// passthrough Real() instance — all against real file descriptors, because
// the shim's contract is "indistinguishable from the syscall" on the
// passthrough path.

#include <gtest/gtest.h>

#include <fcntl.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <string>

#include "util/io_shim.h"

namespace geoblocks {
namespace {

using util::FaultShim;
using util::IoShim;

class TempFd {
 public:
  TempFd() {
    path_ = ::testing::TempDir() + "io_shim_test_XXXXXX";
    fd_ = ::mkstemp(path_.data());
    EXPECT_GE(fd_, 0);
  }
  ~TempFd() {
    if (fd_ >= 0) ::close(fd_);
    ::unlink(path_.c_str());
  }
  int fd() const { return fd_; }

 private:
  std::string path_;
  int fd_ = -1;
};

TEST(IoShim, RealPassesThrough) {
  TempFd file;
  IoShim* io = IoShim::Real();
  EXPECT_EQ(io->Pwrite(file.fd(), "hello", 5, 0), 5);
  EXPECT_EQ(io->Fsync(file.fd()), 0);
  char buf[6] = {};
  EXPECT_EQ(::pread(file.fd(), buf, 5, 0), 5);
  EXPECT_STREQ(buf, "hello");
}

TEST(FaultShim, UnarmedIsTransparent) {
  TempFd file;
  FaultShim shim;
  EXPECT_EQ(shim.Pwrite(file.fd(), "abc", 3, 0), 3);
  EXPECT_EQ(shim.Fsync(file.fd()), 0);
  EXPECT_EQ(shim.pwrite_counters().calls, 1u);
  EXPECT_EQ(shim.pwrite_counters().short_returns, 0u);
  EXPECT_EQ(shim.pwrite_counters().errors, 0u);
}

TEST(FaultShim, PwriteByteBudgetShortCountThenErrno) {
  TempFd file;
  FaultShim shim;
  shim.ArmPwrite(/*after_bytes=*/10, ENOSPC);

  // Within budget: full write.
  EXPECT_EQ(shim.Pwrite(file.fd(), "12345678", 8, 0), 8);
  // Crossing the boundary: truncated to the remaining 2 bytes — the
  // filling-disk short count.
  EXPECT_EQ(shim.Pwrite(file.fd(), "ABCDEF", 6, 8), 2);
  // Budget exhausted: ENOSPC, and nothing reaches the file.
  errno = 0;
  EXPECT_EQ(shim.Pwrite(file.fd(), "XY", 2, 10), -1);
  EXPECT_EQ(errno, ENOSPC);

  char buf[11] = {};
  EXPECT_EQ(::pread(file.fd(), buf, 10, 0), 10);
  EXPECT_STREQ(buf, "12345678AB");

  const FaultShim::Counters c = shim.pwrite_counters();
  EXPECT_EQ(c.calls, 3u);
  EXPECT_EQ(c.short_returns, 1u);
  EXPECT_EQ(c.errors, 1u);
}

TEST(FaultShim, FsyncCallBudgetFailsWithoutSyncing) {
  TempFd file;
  FaultShim shim;
  shim.ArmFsync(/*after_calls=*/2, EIO);
  EXPECT_EQ(shim.Fsync(file.fd()), 0);
  EXPECT_EQ(shim.Fsync(file.fd()), 0);
  errno = 0;
  EXPECT_EQ(shim.Fsync(file.fd()), -1);
  EXPECT_EQ(errno, EIO);
  // A dead disk stays dead: the default fail_times is unlimited.
  EXPECT_EQ(shim.Fsync(file.fd()), -1);
  EXPECT_EQ(shim.fsync_counters().errors, 2u);
}

TEST(FaultShim, FiniteFailTimesRecovers) {
  TempFd file;
  FaultShim shim;
  shim.ArmFsync(/*after_calls=*/0, EIO, /*fail_times=*/2);
  EXPECT_EQ(shim.Fsync(file.fd()), -1);
  EXPECT_EQ(shim.Fsync(file.fd()), -1);
  // Failures spent: transparent again (a transient fault that clears).
  EXPECT_EQ(shim.Fsync(file.fd()), 0);
  EXPECT_EQ(shim.fsync_counters().errors, 2u);
}

TEST(FaultShim, RefusedFsyncLeavesWrittenBytesReadable) {
  // The recovery suites model "crash between fsync and ack" as a refused
  // fsync: the group's bytes are already in the file, so an in-process
  // reopen replays it. That rests on exactly this property.
  TempFd file;
  FaultShim shim;
  shim.ArmFsync(/*after_calls=*/0, EIO);
  EXPECT_EQ(shim.Pwrite(file.fd(), "durable?", 8, 0), 8);
  errno = 0;
  EXPECT_EQ(shim.Fsync(file.fd()), -1);
  EXPECT_EQ(errno, EIO);
  EXPECT_EQ(shim.fsync_counters().errors, 1u);
  char buf[9] = {};
  EXPECT_EQ(::pread(file.fd(), buf, 8, 0), 8);
  EXPECT_STREQ(buf, "durable?");
}

TEST(FaultShim, SendAndRecvInjection) {
  int fds[2];
  ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
  FaultShim shim;

  // Send budget: 4 bytes through, then ECONNRESET.
  shim.ArmSend(/*after_bytes=*/4, ECONNRESET);
  EXPECT_EQ(shim.Send(fds[0], "abcd", 4, 0), 4);
  errno = 0;
  EXPECT_EQ(shim.Send(fds[0], "efgh", 4, 0), -1);
  EXPECT_EQ(errno, ECONNRESET);

  // Recv budget: a short count at the boundary, then the errno.
  shim.ArmRecv(/*after_bytes=*/3, ECONNRESET);
  char buf[8] = {};
  EXPECT_EQ(shim.Recv(fds[1], buf, 8, 0), 3);
  EXPECT_EQ(std::string(buf, 3), "abc");
  errno = 0;
  EXPECT_EQ(shim.Recv(fds[1], buf, 8, 0), -1);
  EXPECT_EQ(errno, ECONNRESET);

  ::close(fds[0]);
  ::close(fds[1]);
}

TEST(FaultShim, DisarmRestoresPassthroughAndKeepsCounters) {
  TempFd file;
  FaultShim shim;
  shim.ArmPwrite(0, ENOSPC);
  EXPECT_EQ(shim.Pwrite(file.fd(), "x", 1, 0), -1);
  shim.Disarm();
  EXPECT_EQ(shim.Pwrite(file.fd(), "x", 1, 0), 1);
  const FaultShim::Counters c = shim.pwrite_counters();
  EXPECT_EQ(c.calls, 2u);
  EXPECT_EQ(c.errors, 1u);  // history survives Disarm
}

}  // namespace
}  // namespace geoblocks
