// Fault-tolerant shard dispatch tests: the supervised worker lifecycle
// (deadlines, retry with backoff, in-process fallback)
// and the central invariant — under any injected fault schedule that
// leaves each shard one successful attempt, exp::distributed_sweep stays
// byte-identical to the single-process exp::run_matrix_cell. The fault
// modes come from tools/xcp_sweep_shard's deterministic --fault harness.

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <csignal>
#include <cstdlib>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#if !defined(_WIN32)
#include <pthread.h>
#include <sys/wait.h>
#endif

#include "exp/dispatch.hpp"
#include "exp/runner.hpp"
#include "exp/shard.hpp"

namespace xcp::exp {
namespace {

using Millis = std::chrono::milliseconds;
using Clock = std::chrono::steady_clock;

void expect_cells_identical(const MatrixCell& a, const MatrixCell& b) {
  EXPECT_EQ(a.runs, b.runs);
  EXPECT_EQ(a.safety_violations, b.safety_violations);
  EXPECT_EQ(a.termination_failures, b.termination_failures);
  EXPECT_EQ(a.liveness_failures, b.liveness_failures);
  EXPECT_EQ(a.early_stops, b.early_stops);
  EXPECT_EQ(a.decided_at_total.count(), b.decided_at_total.count());
  EXPECT_EQ(a.events_total, b.events_total);
  ASSERT_EQ(a.example_violations.size(), b.example_violations.size());
  for (std::size_t i = 0; i < a.example_violations.size(); ++i) {
    EXPECT_EQ(a.example_violations[i], b.example_violations[i]) << i;
  }
  // Belt and braces: the defaulted operator== also covers any field a
  // future change adds without updating the explicit checks above.
  EXPECT_TRUE(a == b);
}

/// Worker binary, or empty when not deployed (tests then skip).
std::string worker_or_skip() { return default_worker_path(); }

/// Fast supervision clocks for tests: real backoff shape, toy magnitudes.
DispatchOptions quick_dispatch() {
  DispatchOptions d;
  d.shard_deadline = Millis(10'000);
  d.max_attempts = 3;
  d.backoff_base = Millis(2);
  d.backoff_cap = Millis(20);
  return d;
}

// A cell that produces violations (example strings included) so the
// byte-identity check exercises every accumulator field over the wire.
constexpr ProtocolKind kFaultProtocol = ProtocolKind::kInterledgerAtomic;
constexpr Regime kFaultRegime = Regime::kPartialSynchrony;
constexpr int kN = 2;
constexpr std::size_t kSeeds = 5;

// ------------------------------------------------- the fault differential

// The acceptance criterion: for K in {2, 3, 7} and every injected fault
// mode, a schedule that fails each shard's first attempt (and only it)
// must converge to a byte-identical cell via retries.
TEST(DispatchFaults, EveryFaultModeRecoversByteIdentically) {
  const std::string worker = worker_or_skip();
  if (worker.empty()) GTEST_SKIP() << "xcp_sweep_shard binary not found";

  const MatrixCell single =
      run_matrix_cell(kFaultProtocol, kFaultRegime, kN, kSeeds);

  struct ModeCase {
    const char* fault;
    bool first_attempt_fails;  // slow-start delays but still succeeds
    bool times_out;            // recovery is via deadline kill
  };
  const std::vector<ModeCase> modes{
      {"crash-before-write", true, false},
      {"crash-mid-blob", true, false},
      {"corrupt-blob", true, false},
      {"stall-forever", true, true},
      {"slow-start", false, false},
      {"wrong-meta", true, false},
      {"nonzero-exit", true, false},
  };

  for (const ModeCase& mode : modes) {
    for (const unsigned shards : {2u, 3u, 7u}) {
      SCOPED_TRACE(std::string(mode.fault) + " / K=" +
                   std::to_string(shards));
      DistributedOptions opts;
      opts.worker_path = worker;
      opts.dispatch = quick_dispatch();
      // Stalled attempt-1 workers should die quickly, not at 10 s.
      if (mode.times_out) opts.dispatch.shard_deadline = Millis(400);
      opts.dispatch.extra_worker_args = {
          "--fault", std::string(mode.fault) + "@1",
          "--fault-delay-ms", "50"};
      DispatchReport report;
      opts.report = &report;

      const MatrixCell swept = distributed_sweep(
          kFaultProtocol, kFaultRegime, kN, kSeeds, shards, 1, opts);
      expect_cells_identical(swept, single);

      EXPECT_EQ(report.shards, shards);
      EXPECT_EQ(report.fallbacks, 0u)
          << "recovery must come from retries, not the fallback ladder";
      if (mode.first_attempt_fails) {
        // Every shard's first attempt failed once and was re-issued.
        EXPECT_EQ(report.retries, shards);
        EXPECT_EQ(report.launches, 2u * shards);
      } else {
        EXPECT_EQ(report.retries, 0u);
        EXPECT_TRUE(report.clean());
      }
      if (mode.times_out) {
        EXPECT_EQ(report.timeouts, shards);
      }
    }
  }
}

// ------------------------------------------------------ deadline handling

TEST(DispatchFaults, StalledWorkerIsKilledWithinTheDeadline) {
  const std::string worker = worker_or_skip();
  if (worker.empty()) GTEST_SKIP() << "xcp_sweep_shard binary not found";

  // Every process attempt stalls forever; only the deadline can free the
  // sweep, and only the in-process fallback can finish it.
  DistributedOptions opts;
  opts.worker_path = worker;
  opts.dispatch = quick_dispatch();
  opts.dispatch.shard_deadline = Millis(250);
  opts.dispatch.max_attempts = 2;
  opts.dispatch.extra_worker_args = {"--fault", "stall-forever@99"};
  DispatchReport report;
  opts.report = &report;

  const MatrixCell single = run_matrix_cell(ProtocolKind::kTimeBounded,
                                            Regime::kSynchronyConforming,
                                            kN, 4);
  const Clock::time_point t0 = Clock::now();
  const MatrixCell swept =
      distributed_sweep(ProtocolKind::kTimeBounded,
                        Regime::kSynchronyConforming, kN, 4, 2, 1, opts);
  const Millis wall =
      std::chrono::duration_cast<Millis>(Clock::now() - t0);

  expect_cells_identical(swept, single);
  // 2 shards x 2 attempts, each killed at ~250 ms (attempts run
  // concurrently per wave): well under a few seconds end to end, and
  // emphatically not the indefinite hang the popen driver had.
  EXPECT_LT(wall.count(), 5'000);
  EXPECT_EQ(report.timeouts, 4u);
  EXPECT_EQ(report.fallbacks, 2u);
  // A deadline kill is one SIGKILL followed by a reap: never before the
  // deadline, and promptly after it.
  const std::int64_t deadline_ms = opts.dispatch.shard_deadline.count();
  for (const AttemptRecord& a : report.attempts) {
    if (a.outcome != AttemptRecord::Outcome::kTimeout) continue;
    EXPECT_EQ(a.term_signal, SIGKILL);
    EXPECT_GE(a.wall.count(), deadline_ms);
    EXPECT_LT(a.wall.count(), deadline_ms + 2'000)
        << "kill did not happen promptly";
  }
}

// --------------------------------------------------- retry exhaustion path

TEST(DispatchFaults, RetryExhaustionDegradesToInProcessWithFullReport) {
  const std::string worker = worker_or_skip();
  if (worker.empty()) GTEST_SKIP() << "xcp_sweep_shard binary not found";

  DistributedOptions opts;
  opts.worker_path = worker;
  opts.dispatch = quick_dispatch();
  opts.dispatch.max_attempts = 2;
  opts.dispatch.extra_worker_args = {"--fault", "crash-before-write@99"};
  DispatchReport report;
  opts.report = &report;

  const MatrixCell single =
      run_matrix_cell(kFaultProtocol, kFaultRegime, kN, kSeeds);
  const MatrixCell swept = distributed_sweep(kFaultProtocol, kFaultRegime,
                                             kN, kSeeds, 3, 1, opts);
  expect_cells_identical(swept, single);

  EXPECT_EQ(report.crashes, 6u);    // 3 shards x 2 attempts
  EXPECT_EQ(report.fallbacks, 3u);  // every shard degraded
  // The report records every attempt: per shard, two crashes then one
  // fallback, attempt ordinals 1..3 with no gaps.
  for (unsigned shard = 0; shard < 3; ++shard) {
    std::vector<AttemptRecord::Outcome> outcomes;
    std::vector<int> ordinals;
    for (const AttemptRecord& a : report.attempts) {
      if (a.shard != shard) continue;
      outcomes.push_back(a.outcome);
      ordinals.push_back(a.attempt);
    }
    ASSERT_EQ(outcomes.size(), 3u) << "shard " << shard;
    EXPECT_EQ(outcomes[0], AttemptRecord::Outcome::kCrashed);
    EXPECT_EQ(outcomes[1], AttemptRecord::Outcome::kCrashed);
    EXPECT_EQ(outcomes[2], AttemptRecord::Outcome::kFallback);
    EXPECT_EQ(ordinals, (std::vector<int>{1, 2, 3}));
  }
}

TEST(DispatchFaults, FallbackDisabledThrowsWithStderrAndExitCode) {
  const std::string worker = worker_or_skip();
  if (worker.empty()) GTEST_SKIP() << "xcp_sweep_shard binary not found";

  DistributedOptions opts;
  opts.worker_path = worker;
  opts.dispatch = quick_dispatch();
  opts.dispatch.max_attempts = 2;
  opts.dispatch.fallback_in_process = false;
  opts.dispatch.extra_worker_args = {"--fault", "nonzero-exit@99"};
  DispatchReport report;
  opts.report = &report;

  try {
    (void)distributed_sweep(ProtocolKind::kTimeBounded,
                            Regime::kSynchronyConforming, kN, 4, 2, 1, opts);
    FAIL() << "expected DispatchError";
  } catch (const DispatchError& e) {
    const std::string what = e.what();
    // The error text is self-diagnosing: shard, exit code, and the
    // worker's own stderr all appear without consulting logs.
    EXPECT_NE(what.find("shard"), std::string::npos) << what;
    EXPECT_NE(what.find("exit code 7"), std::string::npos) << what;
    EXPECT_NE(what.find("injected fault: nonzero-exit"), std::string::npos)
        << what;
  }
  // The report out-parameter is still populated on the throwing path.
  EXPECT_EQ(report.nonzero_exits, 4u);
  EXPECT_EQ(report.fallbacks, 0u);
  for (const AttemptRecord& a : report.attempts) {
    EXPECT_EQ(a.outcome, AttemptRecord::Outcome::kExitNonzero);
    EXPECT_EQ(a.exit_code, 7);
    EXPECT_NE(a.stderr_excerpt.find("injected fault"), std::string::npos);
  }
}

// ------------------------------------------------------------ slow shards

TEST(DispatchFaults, DefaultOptionsNeverDuplicateASlowShard) {
  const std::string worker = worker_or_skip();
  if (worker.empty()) GTEST_SKIP() << "xcp_sweep_shard binary not found";

  // plan_shards(1, 8, 4) puts the shards at first seeds 1, 3, 5, 7; the
  // seed-7 shard sleeps 350 ms on its first attempt while the others
  // finish in milliseconds. Default options wait a slow attempt out
  // (well inside its deadline) instead of launching a duplicate: one
  // launch per shard, no retry, and the same cell.
  DistributedOptions opts;
  opts.worker_path = worker;
  opts.dispatch = quick_dispatch();
  opts.dispatch.extra_worker_args = {
      "--fault", "slow-start@1:if-first-seed=7",
      "--fault-delay-ms", "350"};
  DispatchReport report;
  opts.report = &report;

  const MatrixCell single = run_matrix_cell(ProtocolKind::kWeakContract,
                                            Regime::kSynchronyConforming,
                                            kN, 8);
  const MatrixCell swept = distributed_sweep(ProtocolKind::kWeakContract,
                                             Regime::kSynchronyConforming,
                                             kN, 8, 4, 1, opts);
  expect_cells_identical(swept, single);
  EXPECT_EQ(report.shards, 4u);
  EXPECT_EQ(report.launches, report.shards) << report.to_string();
  EXPECT_TRUE(report.clean()) << report.to_string();
}

// ---------------------------------------- pipe discipline under huge output

// Regression for PR 5's close_all hazard: pclose on an unread pipe could
// deadlock against a worker blocked writing a full pipe buffer. The
// dispatcher must drain far-beyond-buffer output on both streams while
// other shards fail, then recover.
TEST(DispatchFaults, LargeBlobWorkerIsDrainedAndRecovered) {
  const std::string worker = worker_or_skip();
  if (worker.empty()) GTEST_SKIP() << "xcp_sweep_shard binary not found";

  DistributedOptions opts;
  opts.worker_path = worker;
  opts.dispatch = quick_dispatch();
  opts.dispatch.extra_worker_args = {"--fault", "huge-blob@1"};
  DispatchReport report;
  opts.report = &report;

  const MatrixCell single =
      run_matrix_cell(kFaultProtocol, kFaultRegime, kN, kSeeds);
  const MatrixCell swept = distributed_sweep(kFaultProtocol, kFaultRegime,
                                             kN, kSeeds, 2, 1, opts);
  expect_cells_identical(swept, single);

  // Attempt 1 of each shard wrote a valid blob plus 1 MiB of trailing
  // junk (16x any pipe buffer) and flooded stderr: rejected as trailing
  // bytes, drained without deadlock, stderr capture capped.
  EXPECT_EQ(report.wire_rejects, 2u);
  EXPECT_EQ(report.retries, 2u);
  for (const AttemptRecord& a : report.attempts) {
    if (a.outcome != AttemptRecord::Outcome::kWireReject) continue;
    EXPECT_NE(a.stderr_excerpt.find("[stderr truncated]"),
              std::string::npos);
    EXPECT_LE(a.stderr_excerpt.size(),
              opts.dispatch.stderr_cap + 64);  // cap + marker slack
  }
}

TEST(DispatchFaults, MixedFaultScheduleWithFloodingWorkerDoesNotDeadlock) {
  const std::string worker = worker_or_skip();
  if (worker.empty()) GTEST_SKIP() << "xcp_sweep_shard binary not found";

  // The exact shape that deadlocked the popen driver's error path: one
  // shard fails outright (the old code then tore down all pipes) while
  // the other is mid-way through writing far more than a pipe buffer.
  // plan_shards(1, 4, 2) puts the shards at first seeds 1 and 3.
  DistributedOptions opts;
  opts.worker_path = worker;
  opts.dispatch = quick_dispatch();
  opts.dispatch.max_attempts = 2;
  opts.dispatch.extra_worker_args = {
      "--fault", "nonzero-exit@99:if-first-seed=1",
      "--fault", "huge-blob@99:if-first-seed=3"};
  DispatchReport report;
  opts.report = &report;

  const MatrixCell single = run_matrix_cell(ProtocolKind::kTimeBounded,
                                            Regime::kSynchronyConforming,
                                            kN, 4);
  const MatrixCell swept =
      distributed_sweep(ProtocolKind::kTimeBounded,
                        Regime::kSynchronyConforming, kN, 4, 2, 1, opts);
  expect_cells_identical(swept, single);
  EXPECT_EQ(report.nonzero_exits, 2u);  // shard 0: both attempts
  EXPECT_EQ(report.wire_rejects, 2u);   // shard 1: both attempts drained
  EXPECT_EQ(report.fallbacks, 2u);      // both shards degraded in-process
}

// --------------------------------------------------------- launcher seam

class CountingLauncher : public LocalProcessLauncher {
 public:
  WorkerHandle launch(const std::vector<std::string>& argv) override {
    ++launches;
    last_argv = argv;
    return LocalProcessLauncher::launch(argv);
  }
  int launches = 0;
  std::vector<std::string> last_argv;
};

TEST(Dispatcher, PluggableLauncherSeamReceivesEveryLaunch) {
  const std::string worker = worker_or_skip();
  if (worker.empty()) GTEST_SKIP() << "xcp_sweep_shard binary not found";

  CountingLauncher launcher;
  DistributedOptions opts;
  opts.worker_path = worker;
  opts.dispatch = quick_dispatch();
  opts.dispatch.launcher = &launcher;

  const MatrixCell single = run_matrix_cell(ProtocolKind::kTimeBounded,
                                            Regime::kSynchronyConforming,
                                            kN, kSeeds);
  const MatrixCell swept =
      distributed_sweep(ProtocolKind::kTimeBounded,
                        Regime::kSynchronyConforming, kN, kSeeds, 3, 1,
                        opts);
  expect_cells_identical(swept, single);
  EXPECT_EQ(launcher.launches, 3);
  // The dispatcher passes the attempt ordinal so deterministic fault
  // schedules can key on it.
  bool saw_attempt_flag = false;
  for (std::size_t i = 0; i + 1 < launcher.last_argv.size(); ++i) {
    if (launcher.last_argv[i] == "--attempt") {
      saw_attempt_flag = true;
      EXPECT_EQ(launcher.last_argv[i + 1], "1");
    }
  }
  EXPECT_TRUE(saw_attempt_flag);
}

// ------------------------------------------------------- report plumbing

TEST(Dispatcher, InProcessTransportStillFillsTheReport) {
  DistributedOptions opts;  // empty worker_path: in-process shards
  DispatchReport report;
  opts.report = &report;
  const MatrixCell single = run_matrix_cell(ProtocolKind::kWeakTrusted,
                                            Regime::kPartialSynchrony, kN,
                                            kSeeds);
  const MatrixCell swept =
      distributed_sweep(ProtocolKind::kWeakTrusted,
                        Regime::kPartialSynchrony, kN, kSeeds, 4, 1, opts);
  expect_cells_identical(swept, single);
  EXPECT_EQ(report.shards, 4u);
  ASSERT_EQ(report.attempts.size(), 4u);
  for (const AttemptRecord& a : report.attempts) {
    EXPECT_EQ(a.outcome, AttemptRecord::Outcome::kSuccess);
  }
  EXPECT_TRUE(report.clean());
}

TEST(Dispatcher, ReportRendersOutcomesAndStderr) {
  DispatchReport report;
  report.shards = 1;
  report.launches = 2;
  report.retries = 1;
  report.nonzero_exits = 1;
  AttemptRecord a;
  a.shard = 0;
  a.attempt = 1;
  a.outcome = AttemptRecord::Outcome::kExitNonzero;
  a.exit_code = worker_exit::kWireError;
  a.stderr_excerpt = "boom line one\nboom line two";
  a.wall = Millis(12);
  report.attempts.push_back(a);
  const std::string s = report.to_string();
  EXPECT_NE(s.find("1 retry"), std::string::npos) << s;
  EXPECT_NE(s.find("exit-nonzero"), std::string::npos) << s;
  EXPECT_NE(s.find("exit code 3 (wire/serialize error)"),
            std::string::npos)
      << s;
  EXPECT_NE(s.find("boom line one"), std::string::npos) << s;
  EXPECT_NE(s.find("boom line two"), std::string::npos) << s;
  EXPECT_FALSE(report.clean());
}

// --------------------------------------------------- stderr capture cap

TEST(DispatchFaults, StderrCapIsConfigurableAndTruncatesNotDrops) {
  const std::string worker = worker_or_skip();
  if (worker.empty()) GTEST_SKIP() << "xcp_sweep_shard binary not found";

  // Tiny cap via DistributedOptions: a stderr-flooding worker must yield a
  // truncated excerpt — the head of the stream plus the truncation marker
  // — never an empty one and never an uncapped flood in driver memory.
  DistributedOptions opts;
  opts.worker_path = worker;
  opts.dispatch = quick_dispatch();
  opts.dispatch.stderr_cap = 48;
  opts.dispatch.extra_worker_args = {"--fault", "huge-blob@1"};
  DispatchReport report;
  opts.report = &report;

  const MatrixCell single =
      run_matrix_cell(kFaultProtocol, kFaultRegime, kN, kSeeds);
  const MatrixCell swept = distributed_sweep(kFaultProtocol, kFaultRegime,
                                             kN, kSeeds, 2, 1, opts);
  expect_cells_identical(swept, single);

  constexpr const char* kMarker = "[stderr truncated]";
  bool saw_flooded_attempt = false;
  for (const AttemptRecord& a : report.attempts) {
    if (a.outcome != AttemptRecord::Outcome::kWireReject) continue;
    saw_flooded_attempt = true;
    const std::size_t marker_at = a.stderr_excerpt.find(kMarker);
    ASSERT_NE(marker_at, std::string::npos) << a.stderr_excerpt;
    // Truncated, not dropped: real worker bytes precede the marker...
    EXPECT_GT(marker_at, 0u);
    // ...and the total stays within cap + marker, nowhere near the flood.
    EXPECT_LE(a.stderr_excerpt.size(),
              opts.dispatch.stderr_cap + std::strlen(kMarker) + 1);
  }
  EXPECT_TRUE(saw_flooded_attempt);
}

// ----------------------------------------------- report rendering (golden)

TEST(Dispatcher, ReportToStringGoldenFormat) {
  // The exact rendering is an interface: operators grep these lines and
  // the docs quote them. Pin it byte-for-byte so drift is a deliberate,
  // reviewed change.
  DispatchReport report;
  report.shards = 2;
  report.launches = 4;
  report.retries = 2;
  report.timeouts = 1;
  report.crashes = 1;

  AttemptRecord timeout;
  timeout.shard = 0;
  timeout.attempt = 1;
  timeout.outcome = AttemptRecord::Outcome::kTimeout;
  timeout.term_signal = 9;
  timeout.detail = "deadline 250 ms";
  timeout.wall = Millis(251);
  timeout.stderr_excerpt = "late\nvery late";
  report.attempts.push_back(timeout);

  AttemptRecord ok;  // success records render nothing
  ok.shard = 1;
  ok.attempt = 1;
  ok.outcome = AttemptRecord::Outcome::kSuccess;
  ok.wall = Millis(3);
  report.attempts.push_back(ok);

  AttemptRecord crash;
  crash.shard = 0;
  crash.attempt = 2;
  crash.outcome = AttemptRecord::Outcome::kCrashed;
  crash.term_signal = 6;
  crash.wall = Millis(5);
  report.attempts.push_back(crash);

  AttemptRecord retried = ok;
  retried.shard = 0;
  retried.attempt = 3;
  report.attempts.push_back(retried);

  const std::string golden =
      "dispatch report: 2 shard(s), 4 launch(es), 2 retries, 1 timeout(s), "
      "1 crash(es), 0 wire reject(s), 0 meta mismatch(es), "
      "0 nonzero exit(s), 0 launch failure(s), 0 fallback(s)\n"
      "  shard 0 attempt 1: timeout, signal 9, deadline 250 ms after 251 ms\n"
      "    stderr: late\n"
      "    stderr: very late\n"
      "  shard 0 attempt 2: crashed, signal 6 after 5 ms";
  EXPECT_EQ(report.to_string(), golden);
}

// ------------------------------------------------------- EINTR hardening

#if !defined(_WIN32)
TEST(DispatchFaults, SignalStormDuringSweepIsByteIdentical) {
  const std::string worker = worker_or_skip();
  if (worker.empty()) GTEST_SKIP() << "xcp_sweep_shard binary not found";

  // EINTR hardening: a no-op SIGUSR1 handler installed WITHOUT SA_RESTART
  // makes every blocking poll()/read()/waitpid() in the dispatcher
  // eligible to return EINTR, and a storm of signals from a sidecar
  // thread makes sure plenty do. The sweep must neither fail nor drift.
  struct sigaction sa = {};
  struct sigaction old = {};
  sa.sa_handler = [](int) {};
  sigemptyset(&sa.sa_mask);
  sa.sa_flags = 0;  // deliberately no SA_RESTART
  ASSERT_EQ(::sigaction(SIGUSR1, &sa, &old), 0);

  std::atomic<bool> stop{false};
  const pthread_t victim = ::pthread_self();
  std::thread storm([&stop, victim] {
    while (!stop.load(std::memory_order_relaxed)) {
      ::pthread_kill(victim, SIGUSR1);
      std::this_thread::sleep_for(std::chrono::microseconds(200));
    }
  });

  DistributedOptions opts;
  opts.worker_path = worker;
  opts.dispatch = quick_dispatch();
  // Slow the workers down a touch so the dispatcher spends real time
  // blocked in poll() while signals land.
  opts.dispatch.extra_worker_args = {"--fault", "slow-start@99",
                                     "--fault-delay-ms", "50"};
  DispatchReport report;
  opts.report = &report;

  const MatrixCell single =
      run_matrix_cell(kFaultProtocol, kFaultRegime, kN, kSeeds);
  const MatrixCell swept = distributed_sweep(kFaultProtocol, kFaultRegime,
                                             kN, kSeeds, 3, 1, opts);

  stop.store(true);
  storm.join();
  ASSERT_EQ(::sigaction(SIGUSR1, &old, nullptr), 0);

  expect_cells_identical(swept, single);
  EXPECT_EQ(report.fallbacks, 0u) << report.to_string();
  EXPECT_EQ(report.crashes, 0u) << report.to_string();
}
#endif

// ------------------------------------------------------ worker exit codes

#if !defined(_WIN32)
TEST(WorkerTool, ExitCodesAreDistinct) {
  const std::string worker = worker_or_skip();
  if (worker.empty()) GTEST_SKIP() << "xcp_sweep_shard binary not found";

  const auto exit_of = [&](const std::string& args) {
    const std::string cmd =
        "'" + worker + "' " + args + " >/dev/null 2>/dev/null";
    const int status = std::system(cmd.c_str());
    return WIFEXITED(status) ? WEXITSTATUS(status) : -1;
  };
  EXPECT_EQ(exit_of("--help"), 0);
  EXPECT_EQ(exit_of("--bogus-flag"), worker_exit::kUsage);
  EXPECT_EQ(exit_of(""), worker_exit::kUsage);  // missing protocol/regime
  EXPECT_EQ(exit_of("--protocol time-bounded --regime synchrony --seeds x"),
            worker_exit::kUsage);
  // A deal needs at least one escrow: n = 0 is a bad flag value.
  EXPECT_EQ(exit_of("--protocol time-bounded --regime synchrony --n 0"),
            worker_exit::kUsage);
  // A clean tiny run exits 0 and emits a parseable blob (smoke).
  EXPECT_EQ(exit_of("--protocol time-bounded --regime synchrony --seeds 1"),
            0);
}
#endif

}  // namespace
}  // namespace xcp::exp
