// Conformance battery for the WorkerLauncher seam, run against the local
// process launcher the dispatcher sits on: non-blocking stream fds,
// non-blocking try_reap while the worker runs, termination that leaves the
// handle reapable, preserved exit codes, and tolerance of the
// EOF-before-reapable race the dispatcher's poll loop leans on.

#include <gtest/gtest.h>

#if !defined(_WIN32)
#include <fcntl.h>
#include <signal.h>
#include <sys/wait.h>
#include <unistd.h>
#endif

#include <chrono>
#include <string>
#include <thread>
#include <vector>

#include "exp/dispatch.hpp"

namespace xcp::exp {
namespace {

using Millis = std::chrono::milliseconds;
using Clock = std::chrono::steady_clock;

class LauncherContract : public ::testing::Test {
 protected:
  LocalProcessLauncher launcher_;
  WorkerLauncher& launcher() { return launcher_; }

  static void close_handle(const WorkerHandle& w) {
    if (w.stdout_fd >= 0) ::close(w.stdout_fd);
    if (w.stderr_fd >= 0) ::close(w.stderr_fd);
  }

  /// Reads one stream to EOF through the non-blocking fd, the way the
  /// dispatcher does (EAGAIN waits, EINTR retries).
  static std::string slurp(int fd, Millis budget = Millis(5'000)) {
    std::string out;
    const Clock::time_point deadline = Clock::now() + budget;
    char buf[4096];
    while (Clock::now() < deadline) {
      const ssize_t got = ::read(fd, buf, sizeof(buf));
      if (got > 0) {
        out.append(buf, static_cast<std::size_t>(got));
        continue;
      }
      if (got == 0) return out;  // EOF
      if (errno == EINTR) continue;
      if (errno == EAGAIN || errno == EWOULDBLOCK) {
        std::this_thread::sleep_for(Millis(2));
        continue;
      }
      return out;  // read error == end-of-stream, per the dispatcher
    }
    ADD_FAILURE() << "stream did not reach EOF within the budget";
    return out;
  }

  /// try_reap until it lands — EOF on the pipes may precede the process
  /// becoming waitable, and the contract says callers spin, not block.
  static bool reap_within(WorkerLauncher& l, const WorkerHandle& w,
                          int& raw_status, Millis budget = Millis(5'000)) {
    const Clock::time_point deadline = Clock::now() + budget;
    while (Clock::now() < deadline) {
      if (l.try_reap(w, raw_status)) return true;
      std::this_thread::sleep_for(Millis(2));
    }
    return false;
  }
};

TEST_F(LauncherContract, LaunchRoundTripsStdoutAndExitZero) {
  WorkerHandle w =
      launcher().launch({"/bin/sh", "-c", "printf contract-ok"});
  EXPECT_GT(w.pid, 0);
  ASSERT_GE(w.stdout_fd, 0);
  ASSERT_GE(w.stderr_fd, 0);
  EXPECT_EQ(slurp(w.stdout_fd), "contract-ok");
  int raw = 0;
  ASSERT_TRUE(reap_within(launcher(), w, raw));
  EXPECT_TRUE(WIFEXITED(raw));
  EXPECT_EQ(WEXITSTATUS(raw), 0);
  close_handle(w);
}

TEST_F(LauncherContract, StreamFdsAreNonBlocking) {
  WorkerHandle w = launcher().launch({"/bin/sh", "-c", "sleep 30"});
  for (const int fd : {w.stdout_fd, w.stderr_fd}) {
    const int flags = ::fcntl(fd, F_GETFL);
    ASSERT_NE(flags, -1);
    EXPECT_NE(flags & O_NONBLOCK, 0)
        << "the dispatcher never issues a read that can block";
  }
  // And reads on a silent live worker return EAGAIN, they don't hang.
  char c;
  const ssize_t got = ::read(w.stdout_fd, &c, 1);
  EXPECT_EQ(got, -1);
  EXPECT_TRUE(errno == EAGAIN || errno == EWOULDBLOCK);
  launcher().terminate(w);
  launcher().reap(w);
  close_handle(w);
}

TEST_F(LauncherContract, TryReapIsNonBlockingWhileRunning) {
  WorkerHandle w = launcher().launch({"/bin/sh", "-c", "sleep 30"});
  const Clock::time_point t0 = Clock::now();
  int raw = 0;
  EXPECT_FALSE(launcher().try_reap(w, raw));
  EXPECT_LT(Clock::now() - t0, Millis(500)) << "try_reap must not block";
  launcher().terminate(w);
  launcher().reap(w);
  close_handle(w);
}

TEST_F(LauncherContract, TerminateKillsAndLeavesTheHandleReapable) {
  WorkerHandle w = launcher().launch({"/bin/sh", "-c", "sleep 30"});
  launcher().terminate(w);
  launcher().terminate(w);  // idempotent
  const int raw = launcher().reap(w);
  EXPECT_TRUE(WIFSIGNALED(raw));
  EXPECT_EQ(WTERMSIG(raw), SIGKILL);
  close_handle(w);
}

TEST_F(LauncherContract, ExitCodesSurviveTheTransport) {
  WorkerHandle w = launcher().launch({"/bin/sh", "-c", "exit 7"});
  slurp(w.stdout_fd);
  int raw = 0;
  ASSERT_TRUE(reap_within(launcher(), w, raw));
  EXPECT_TRUE(WIFEXITED(raw));
  EXPECT_EQ(WEXITSTATUS(raw), 7);
  close_handle(w);
}

TEST_F(LauncherContract, StderrTravelsItsOwnStream) {
  WorkerHandle w = launcher().launch(
      {"/bin/sh", "-c", "printf out; printf err >&2"});
  EXPECT_EQ(slurp(w.stdout_fd), "out");
  EXPECT_EQ(slurp(w.stderr_fd), "err");
  int raw = 0;
  ASSERT_TRUE(reap_within(launcher(), w, raw));
  close_handle(w);
}

TEST_F(LauncherContract, EofCanPrecedeReapabilityWithoutDeadlock) {
  // A worker that closes its stdio then lingers: the streams hit EOF while
  // the process is alive. try_reap stays false (and keeps not blocking)
  // until the exit really lands.
  WorkerHandle w = launcher().launch(
      {"/bin/sh", "-c", "exec >/dev/null 2>&1; sleep 0.3"});
  EXPECT_EQ(slurp(w.stdout_fd), "");  // EOF, immediately
  int raw = 0;
  ASSERT_TRUE(reap_within(launcher(), w, raw));
  EXPECT_TRUE(WIFEXITED(raw));
  EXPECT_EQ(WEXITSTATUS(raw), 0);
  close_handle(w);
}

}  // namespace
}  // namespace xcp::exp
