#pragma once
// Fault-tolerant shard dispatch: the supervision layer between the sweep
// driver and the shard transport (exp/shard.hpp).
//
// PR 5's driver launched K workers with popen and read them sequentially —
// location-transparent but fragile: one hung worker blocked the driver
// forever and one failed shard threw away the whole sweep. This layer owns
// real pids (posix_spawn), multiplexes non-blocking pipe reads with poll(),
// and supervises every attempt:
//
//   deadline   a shard attempt exceeding its wall-clock deadline is killed
//              (SIGKILL) and counted as a timeout, never waited on forever;
//   retry      failed attempts (crash, nonzero exit, rejected blob, meta
//              mismatch, timeout) are re-issued up to max_attempts with
//              deterministic exponential backoff + jitter;
//   fallback   a shard that exhausts its attempts is run in-process by the
//              driver itself (still through the wire round-trip), so a bad
//              worker deploy degrades to PR 4's single-process sweep instead
//              of failing the experiment.
//
// Everything observable lands in a DispatchReport: one record per attempt
// (outcome, exit code / signal, captured stderr, wall-clock) plus summary
// counters. Per-attempt stderr capture replaces PR 5's interleaving of
// worker stderr onto the parent's.
//
// The WorkerLauncher seam is the test-substitution hook: the dispatcher
// talks to workers only through launch/terminate/reap and a pair of
// poll()-able fds, so tests substitute their own launchers without
// touching the supervision logic. See docs/ROBUSTNESS.md for the full
// policy and the determinism argument.

#include <chrono>
#include <cstdint>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "exp/shard.hpp"

namespace xcp::exp {

/// A shard attempt could not be dispatched at all, or a shard ended with no
/// result and in-process fallback was disabled. The message embeds the
/// relevant DispatchReport lines (attempt outcomes, exit codes, captured
/// stderr), so the failure is diagnosable from the exception alone.
class DispatchError : public std::runtime_error {
 public:
  explicit DispatchError(const std::string& what)
      : std::runtime_error("dispatch: " + what) {}
};

/// Exit codes of tools/xcp_sweep_shard, distinguished so the dispatcher
/// (and a human reading a DispatchReport) can tell a usage bug from a
/// serialization failure from a short write without parsing stderr.
namespace worker_exit {
inline constexpr int kUsage = 2;       // bad/missing flags
inline constexpr int kWireError = 3;   // serialize/parse failed (ByteError)
inline constexpr int kShortWrite = 4;  // stdout write came up short
inline constexpr int kInternal = 5;    // any other exception
}  // namespace worker_exit

/// A launched worker as the dispatcher sees it: an opaque id it can kill
/// and reap, plus poll()-able stream fds. For the local process launcher
/// these are a pid and pipe read ends.
struct WorkerHandle {
  long pid = -1;
  int stdout_fd = -1;
  int stderr_fd = -1;
};

/// The launch/terminate/reap seam between dispatch policy and transport.
/// Implementations must return non-blocking fds; the dispatcher never
/// issues a read that can block.
class WorkerLauncher {
 public:
  virtual ~WorkerLauncher() = default;

  /// Starts argv[0] with the given argument vector. Throws DispatchError if
  /// the worker cannot be started at all (the dispatcher treats that as a
  /// failed attempt, subject to the same retry budget).
  virtual WorkerHandle launch(const std::vector<std::string>& argv) = 0;

  /// Hard-kills the worker (SIGKILL for local processes). Idempotent; must
  /// leave the handle reapable.
  virtual void terminate(const WorkerHandle& w) = 0;

  /// Non-blocking reap: true (and the raw waitpid-style status) once the
  /// worker has exited, false while it is still running.
  virtual bool try_reap(const WorkerHandle& w, int& raw_status) = 0;

  /// Blocking reap, used only after terminate().
  virtual int reap(const WorkerHandle& w) = 0;
};

/// Default launcher: posix_spawn with stdout/stderr piped back on
/// O_NONBLOCK read ends. Replaces PR 5's popen (which hid the pid and could
/// deadlock in pclose against a worker blocked writing a full pipe).
class LocalProcessLauncher : public WorkerLauncher {
 public:
  WorkerHandle launch(const std::vector<std::string>& argv) override;
  void terminate(const WorkerHandle& w) override;
  bool try_reap(const WorkerHandle& w, int& raw_status) override;
  int reap(const WorkerHandle& w) override;
};

/// Supervision policy. Defaults are production-shaped (generous deadline,
/// three attempts, sub-second backoff); tests shrink the clocks.
struct DispatchOptions {
  /// Wall-clock budget per attempt; past it the worker is terminated and
  /// the attempt counts as a timeout.
  std::chrono::milliseconds shard_deadline{30'000};
  /// Total attempts per shard (first launch + retries).
  int max_attempts = 3;
  /// Backoff before retry k (k = 2, 3, ...): min(cap, base * mult^(k-2)),
  /// scaled by a deterministic jitter factor in [1 - jitter, 1 + jitter]
  /// drawn from Rng(jitter_seed ^ mix(shard, k)) — reproducible schedules,
  /// no synchronized thundering herd.
  std::chrono::milliseconds backoff_base{50};
  double backoff_multiplier = 2.0;
  std::chrono::milliseconds backoff_cap{2'000};
  double backoff_jitter = 0.25;
  std::uint64_t jitter_seed = 0x9e3779b97f4a7c15ull;
  /// After retry exhaustion, run the shard in-process (wire round-trip
  /// included) instead of failing the sweep. Disable to make exhaustion a
  /// DispatchError instead.
  bool fallback_in_process = true;
  /// Per-attempt stderr capture cap; beyond it the stream is drained but
  /// discarded (a worker flooding stderr can neither block nor OOM us).
  std::size_t stderr_cap = 4096;
  /// Reject (and kill) an attempt whose stdout exceeds this many bytes; a
  /// runaway worker must not OOM the driver.
  std::size_t max_blob_bytes = std::size_t{16} << 20;
  /// Extra argv appended verbatim to every worker launch — the
  /// fault-injection hook (--fault ...) and a forward path for new worker
  /// flags that predate dispatcher knowledge of them.
  std::vector<std::string> extra_worker_args;
  /// Launch transport. Null uses a process-local LocalProcessLauncher.
  WorkerLauncher* launcher = nullptr;
};

/// Everything that happened to one attempt of one shard.
struct AttemptRecord {
  /// How the attempt ended, as the dispatcher classified it.
  enum class Outcome {
    kSuccess,        // valid blob, meta verified
    kTimeout,        // deadline exceeded, worker killed
    kCrashed,        // exited on a signal
    kExitNonzero,    // clean exit with nonzero code
    kWireReject,     // exit 0 but blob rejected (ByteError / oversize)
    kMetaMismatch,   // blob parsed but describes different work
    kLaunchFailed,   // launcher could not start the worker
    kFallback,       // ran in-process after retry exhaustion
  };

  unsigned shard = 0;
  int attempt = 0;  // 1-based
  Outcome outcome = Outcome::kSuccess;
  int exit_code = -1;   // valid for kExitNonzero / kSuccess / kWireReject
  int term_signal = 0;  // valid for kCrashed / kTimeout
  std::string stderr_excerpt;  // captured per attempt, capped, may be empty
  std::string detail;          // parse/meta/launch error text
  std::chrono::milliseconds wall{0};
};

const char* attempt_outcome_name(AttemptRecord::Outcome o);

/// The sweep's flight recorder: per-attempt records plus the counters the
/// acceptance tests and the bench report read. Appended to across cells
/// when one report is threaded through several distributed_sweep calls.
struct DispatchReport {
  std::vector<AttemptRecord> attempts;
  std::size_t shards = 0;
  std::size_t launches = 0;
  std::size_t retries = 0;    // re-issues after a failed attempt
  std::size_t timeouts = 0;   // deadline kills
  std::size_t crashes = 0;    // signal exits (timeout kills not included)
  std::size_t wire_rejects = 0;
  std::size_t meta_mismatches = 0;
  std::size_t nonzero_exits = 0;
  std::size_t launch_failures = 0;
  std::size_t fallbacks = 0;  // shards that degraded to in-process

  /// True when every shard succeeded on its first attempt — the report of
  /// a healthy sweep.
  bool clean() const {
    return retries == 0 && fallbacks == 0 && launch_failures == 0;
  }

  /// Multi-line human-readable rendering (summary counters + one line per
  /// non-success attempt, stderr excerpts included). Used verbatim in
  /// DispatchError messages.
  std::string to_string() const;
};

/// The supervision engine. One instance dispatches one cell's shards at a
/// time (run_cell is not reentrant); construct per sweep or reuse serially.
class Dispatcher {
 public:
  Dispatcher(std::string worker_path, DispatchOptions opts = {});
  ~Dispatcher();

  Dispatcher(const Dispatcher&) = delete;
  Dispatcher& operator=(const Dispatcher&) = delete;

  /// Supervises every range of one matrix cell to completion and returns
  /// the per-shard accumulators merged in shard order (so the fold is
  /// independent of completion order by construction, on top of merge()'s
  /// own order-insensitivity). Appends to `report` when non-null. Throws
  /// DispatchError only when a shard ends with no result and in-process
  /// fallback is disabled (or the fallback itself throws).
  CellAccum run_cell(ProtocolKind protocol, Regime regime, int n,
                     const std::vector<ShardRange>& ranges,
                     const CellOptions& cell,
                     DispatchReport* report = nullptr);

  const DispatchOptions& options() const { return opts_; }

 private:
  std::string worker_path_;
  DispatchOptions opts_;
  std::unique_ptr<LocalProcessLauncher> default_launcher_;
};

/// Options for distributed_sweep (moved here from exp/shard.hpp when the
/// driver was rebased onto the Dispatcher — shard.hpp keeps the transport:
/// wire format, planning, tokens).
struct DistributedOptions {
  /// Path to the xcp_sweep_shard worker binary. Empty runs each shard
  /// in-process instead — the accumulator still round-trips through
  /// serialize -> parse -> merge, so the wire format and merge contract are
  /// exercised identically; only the process boundary (and therefore the
  /// supervision machinery) is elided.
  std::string worker_path;
  /// Forwarded to every shard's run_matrix_cell_accum.
  CellOptions cell;
  /// Supervision policy for the process transport.
  DispatchOptions dispatch;
  /// When non-null, attempt records and counters for the sweep are
  /// appended here (including synthetic kSuccess records for in-process
  /// shards, so the report always covers every shard).
  DispatchReport* report = nullptr;
};

/// Runs one matrix cell as `shards` supervised shard processes: partitions
/// the seed range with plan_shards, dispatches tools/xcp_sweep_shard per
/// shard through exp::Dispatcher (deadlines, retries with backoff,
/// in-process fallback), folds the per-shard accumulators with
/// CellAccum::merge, and finishes with cell_from_accum. Under any fault
/// schedule that leaves each shard one successful attempt — and under total
/// worker failure when fallback is enabled — the result is byte-identical
/// to run_matrix_cell over the same range (tests/test_dispatch.cpp proves
/// it per injected fault mode). Throws ByteError/DispatchError only when a
/// shard can produce no result at all.
MatrixCell distributed_sweep(ProtocolKind protocol, Regime regime, int n,
                             std::size_t seeds, unsigned shards,
                             std::uint64_t first_seed = 1,
                             const DistributedOptions& opts = {});

}  // namespace xcp::exp
