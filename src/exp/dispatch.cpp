#include "exp/dispatch.hpp"

// xcp-lint: allow-file(determinism-wall-clock) supervision layer:
// deadlines and retry backoff time real child processes; results stay
// deterministic because cell payloads never depend on these timestamps
// (test_dispatch byte-identity covers it).

#if !defined(_WIN32)
#include <fcntl.h>
#include <poll.h>
#include <signal.h>
#include <spawn.h>
#include <sys/wait.h>
#include <unistd.h>
#endif

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <utility>

#include "support/bytes.hpp"
#include "support/rng.hpp"
#include "support/status.hpp"

#if !defined(_WIN32)
extern char** environ;
#endif

namespace xcp::exp {

const char* attempt_outcome_name(AttemptRecord::Outcome o) {
  switch (o) {
    case AttemptRecord::Outcome::kSuccess: return "success";
    case AttemptRecord::Outcome::kTimeout: return "timeout";
    case AttemptRecord::Outcome::kCrashed: return "crashed";
    case AttemptRecord::Outcome::kExitNonzero: return "exit-nonzero";
    case AttemptRecord::Outcome::kWireReject: return "wire-reject";
    case AttemptRecord::Outcome::kMetaMismatch: return "meta-mismatch";
    case AttemptRecord::Outcome::kLaunchFailed: return "launch-failed";
    case AttemptRecord::Outcome::kFallback: return "in-process-fallback";
  }
  return "?";
}

namespace {

using Clock = std::chrono::steady_clock;
using Millis = std::chrono::milliseconds;

const char* worker_exit_name(int code) {
  switch (code) {
    case worker_exit::kUsage: return "usage";
    case worker_exit::kWireError: return "wire/serialize error";
    case worker_exit::kShortWrite: return "short write";
    case worker_exit::kInternal: return "internal error";
    default: return nullptr;
  }
}

std::string describe_exit_code(int code) {
  std::string s = "exit code " + std::to_string(code);
  if (const char* name = worker_exit_name(code)) {
    s += std::string(" (") + name + ")";
  }
  return s;
}

/// Folds one report's summary counters into another (attempt records are
/// appended separately so callers control their ordering).
void merge_counters(DispatchReport& into, const DispatchReport& from) {
  into.shards += from.shards;
  into.launches += from.launches;
  into.retries += from.retries;
  into.timeouts += from.timeouts;
  into.crashes += from.crashes;
  into.wire_rejects += from.wire_rejects;
  into.meta_mismatches += from.meta_mismatches;
  into.nonzero_exits += from.nonzero_exits;
  into.launch_failures += from.launch_failures;
  into.fallbacks += from.fallbacks;
}

}  // namespace

std::string DispatchReport::to_string() const {
  std::string s;
  s += "dispatch report: " + std::to_string(shards) + " shard(s), " +
       std::to_string(launches) + " launch(es), " +
       std::to_string(retries) + " retr" + (retries == 1 ? "y" : "ies") +
       ", " + std::to_string(timeouts) + " timeout(s), " +
       std::to_string(crashes) + " crash(es), " +
       std::to_string(wire_rejects) + " wire reject(s), " +
       std::to_string(meta_mismatches) + " meta mismatch(es), " +
       std::to_string(nonzero_exits) + " nonzero exit(s), " +
       std::to_string(launch_failures) + " launch failure(s), " +
       std::to_string(fallbacks) + " fallback(s)";
  for (const AttemptRecord& a : attempts) {
    if (a.outcome == AttemptRecord::Outcome::kSuccess) continue;
    s += "\n  shard " + std::to_string(a.shard) + " attempt " +
         std::to_string(a.attempt) + ": " + attempt_outcome_name(a.outcome);
    if (a.outcome == AttemptRecord::Outcome::kExitNonzero) {
      s += ", " + describe_exit_code(a.exit_code);
    }
    if (a.term_signal != 0) {
      s += ", signal " + std::to_string(a.term_signal);
    }
    if (!a.detail.empty()) s += ", " + a.detail;
    s += " after " + std::to_string(a.wall.count()) + " ms";
    if (!a.stderr_excerpt.empty()) {
      s += "\n    stderr: ";
      // One indented line per captured stderr line keeps the report
      // readable when a worker printed several.
      for (const char c : a.stderr_excerpt) {
        if (c == '\n') {
          s += "\n    stderr: ";
        } else {
          s += c;
        }
      }
    }
  }
  return s;
}

#if !defined(_WIN32)

// ------------------------------------------------------ LocalProcessLauncher

namespace {

void set_fd_flag(int fd, int get, int set, int flag) {
  const int cur = fcntl(fd, get);
  XCP_REQUIRE(cur != -1, "fcntl(get) failed");
  XCP_REQUIRE(fcntl(fd, set, cur | flag) != -1, "fcntl(set) failed");
}

void close_quietly(int& fd) {
  if (fd >= 0) {
    ::close(fd);
    fd = -1;
  }
}

}  // namespace

WorkerHandle LocalProcessLauncher::launch(
    const std::vector<std::string>& argv) {
  XCP_REQUIRE(!argv.empty(), "launch needs at least argv[0]");
  int out_pipe[2] = {-1, -1};
  int err_pipe[2] = {-1, -1};
  const auto close_pipes = [&] {
    close_quietly(out_pipe[0]);
    close_quietly(out_pipe[1]);
    close_quietly(err_pipe[0]);
    close_quietly(err_pipe[1]);
  };
  if (::pipe(out_pipe) != 0 || ::pipe(err_pipe) != 0) {
    const int err = errno;
    close_pipes();
    throw DispatchError(std::string("pipe failed: ") + std::strerror(err));
  }
  try {
    // CLOEXEC everywhere: the dup2 file actions below clear it on the
    // child's fds 1/2, and nothing else may leak into workers launched
    // concurrently from other attempts.
    for (const int fd : {out_pipe[0], out_pipe[1], err_pipe[0], err_pipe[1]}) {
      set_fd_flag(fd, F_GETFD, F_SETFD, FD_CLOEXEC);
    }
    // The dispatcher multiplexes reads with poll(); a blocking read would
    // let one chatty worker starve the rest.
    set_fd_flag(out_pipe[0], F_GETFL, F_SETFL, O_NONBLOCK);
    set_fd_flag(err_pipe[0], F_GETFL, F_SETFL, O_NONBLOCK);
  } catch (...) {
    close_pipes();
    throw;
  }

  posix_spawn_file_actions_t actions;
  posix_spawn_file_actions_init(&actions);
  posix_spawn_file_actions_adddup2(&actions, out_pipe[1], STDOUT_FILENO);
  posix_spawn_file_actions_adddup2(&actions, err_pipe[1], STDERR_FILENO);

  std::vector<char*> cargv;
  cargv.reserve(argv.size() + 1);
  for (const std::string& a : argv) {
    cargv.push_back(const_cast<char*>(a.c_str()));
  }
  cargv.push_back(nullptr);

  pid_t pid = -1;
  const int rc = ::posix_spawn(&pid, argv[0].c_str(), &actions, nullptr,
                               cargv.data(), environ);
  posix_spawn_file_actions_destroy(&actions);
  close_quietly(out_pipe[1]);
  close_quietly(err_pipe[1]);
  if (rc != 0) {
    close_quietly(out_pipe[0]);
    close_quietly(err_pipe[0]);
    throw DispatchError("posix_spawn failed for " + argv[0] + ": " +
                        std::strerror(rc));
  }
  WorkerHandle w;
  w.pid = pid;
  w.stdout_fd = out_pipe[0];
  w.stderr_fd = err_pipe[0];
  return w;
}

void LocalProcessLauncher::terminate(const WorkerHandle& w) {
  if (w.pid > 0) ::kill(static_cast<pid_t>(w.pid), SIGKILL);
}

bool LocalProcessLauncher::try_reap(const WorkerHandle& w, int& raw_status) {
  if (w.pid <= 0) return false;
  pid_t got;
  do {
    got = ::waitpid(static_cast<pid_t>(w.pid), &raw_status, WNOHANG);
  } while (got == -1 && errno == EINTR);
  return got == static_cast<pid_t>(w.pid);
}

int LocalProcessLauncher::reap(const WorkerHandle& w) {
  int status = 0;
  if (w.pid <= 0) return status;
  // xcp-lint: allow(loop-blocking) callers reap only after SIGKILL or a
  // WNOHANG-confirmed exit, so this wait cannot stall on a live child.
  while (::waitpid(static_cast<pid_t>(w.pid), &status, 0) == -1 &&
         errno == EINTR) {
  }
  return status;
}

// ----------------------------------------------------------- the supervisor

namespace {

using Outcome = AttemptRecord::Outcome;

/// One in-flight worker attempt.
struct Live {
  unsigned shard = 0;
  int attempt_no = 0;
  WorkerHandle w;
  std::vector<std::uint8_t> out;
  std::string err;            // capped capture
  std::size_t err_total = 0;  // uncapped byte count (for the cap marker)
  bool out_open = true;
  bool err_open = true;
  bool finished = false;   // marked for sweep-out at the end of a loop pass
  bool timed_out = false;  // killed at its deadline, awaiting the reap
  Clock::time_point start;
  Clock::time_point deadline;
};

struct ShardState {
  ShardMeta meta;
  ShardRange range;
  int attempts = 0;  // launched so far (first launch + retries)
  bool done = false;
  bool retry_pending = false;
  Clock::time_point retry_ready;
  CellAccum accum;
};

Millis elapsed_ms(Clock::time_point from, Clock::time_point to) {
  return std::chrono::duration_cast<Millis>(to - from);
}

/// The supervision event loop for one cell. A plain struct so the state
/// (live attempts, shard table, report) has one owner and the cleanup path
/// can kill and reap everything on the way out of any exception.
struct CellRun {
  const std::string& worker_path;
  const DispatchOptions& opts;
  WorkerLauncher& launcher;
  ProtocolKind protocol;
  Regime regime;
  int n;
  const CellOptions& cell;

  std::vector<ShardState> shards = {};
  std::vector<Live> live = {};
  DispatchReport report = {};

  ~CellRun() {
    // Exception path: never leak a running child or a zombie.
    for (Live& l : live) {
      if (l.finished) continue;
      launcher.terminate(l.w);
      launcher.reap(l.w);
      close_quietly(l.w.stdout_fd);
      close_quietly(l.w.stderr_fd);
    }
  }

  ShardMeta meta_for(const ShardRange& range) const {
    ShardMeta m;
    m.protocol = protocol;
    m.regime = regime;
    m.n = n;
    m.first_seed = range.first_seed;
    m.seed_count = range.count;
    m.online = cell.online.enabled;
    m.early_stop = cell.online.early_stop;
    return m;
  }

  std::vector<std::string> worker_argv(const ShardState& st,
                                       int attempt_no) const {
    std::vector<std::string> argv{
        worker_path,
        "--protocol", protocol_token(st.meta.protocol),
        "--regime", regime_token(st.meta.regime),
        "--n", std::to_string(st.meta.n),
        "--first-seed", std::to_string(st.meta.first_seed),
        "--seeds", std::to_string(st.meta.seed_count),
        "--online", st.meta.online ? "1" : "0",
        "--early-stop", st.meta.early_stop ? "1" : "0",
        // The attempt ordinal lets deterministic fault schedules (--fault
        // MODE@K) release a shard after K failed attempts; the blob itself
        // carries no attempt state.
        "--attempt", std::to_string(attempt_no),
    };
    argv.insert(argv.end(), opts.extra_worker_args.begin(),
                opts.extra_worker_args.end());
    return argv;
  }

  /// Deterministic exponential backoff with jitter before attempt k >= 2.
  Millis backoff_before(unsigned shard, int k) const {
    double ms = static_cast<double>(opts.backoff_base.count());
    for (int i = 2; i < k; ++i) ms *= opts.backoff_multiplier;
    ms = std::min(ms, static_cast<double>(opts.backoff_cap.count()));
    std::uint64_t mix = opts.jitter_seed ^
                        (0x9e3779b97f4a7c15ull * (shard + 1) +
                         static_cast<std::uint64_t>(k));
    Rng rng(splitmix64(mix));
    const double j = opts.backoff_jitter;
    ms *= (1.0 - j) + 2.0 * j * rng.next_double();
    return Millis(static_cast<std::int64_t>(ms < 0 ? 0 : ms));
  }

  void record(AttemptRecord rec) {
    switch (rec.outcome) {
      case Outcome::kTimeout: ++report.timeouts; break;
      case Outcome::kCrashed: ++report.crashes; break;
      case Outcome::kExitNonzero: ++report.nonzero_exits; break;
      case Outcome::kWireReject: ++report.wire_rejects; break;
      case Outcome::kMetaMismatch: ++report.meta_mismatches; break;
      case Outcome::kLaunchFailed: ++report.launch_failures; break;
      case Outcome::kFallback: ++report.fallbacks; break;
      case Outcome::kSuccess: break;
    }
    report.attempts.push_back(std::move(rec));
  }

  void launch_attempt(unsigned shard) {
    ShardState& st = shards[shard];
    const int attempt_no = ++st.attempts;
    ++report.launches;
    const Clock::time_point now = Clock::now();
    WorkerHandle w;
    try {
      w = launcher.launch(worker_argv(st, attempt_no));
    } catch (const DispatchError& e) {
      AttemptRecord rec;
      rec.shard = shard;
      rec.attempt = attempt_no;
      rec.outcome = Outcome::kLaunchFailed;
      rec.detail = e.what();
      rec.wall = Millis(0);
      record(std::move(rec));
      after_failure(shard);
      return;
    }
    Live l;
    l.shard = shard;
    l.attempt_no = attempt_no;
    l.w = w;
    l.start = now;
    l.deadline = now + opts.shard_deadline;
    live.push_back(std::move(l));
  }

  /// A failed attempt: schedule a retry if the budget allows. Exhaustion is
  /// implicit — a shard with no live attempt, no pending retry and no
  /// budget left is picked up by the fallback phase.
  void after_failure(unsigned shard) {
    ShardState& st = shards[shard];
    if (st.attempts >= opts.max_attempts) return;  // exhausted
    st.retry_pending = true;
    st.retry_ready = Clock::now() + backoff_before(shard, st.attempts + 1);
    ++report.retries;
  }

  /// The attempt's worker has exited (status in raw_status). Classifies
  /// the outcome — honoring a deadline kill — and advances the shard's
  /// state machine.
  void complete_attempt(Live& l, int raw_status) {
    l.finished = true;
    close_quietly(l.w.stdout_fd);
    close_quietly(l.w.stderr_fd);
    ShardState& st = shards[l.shard];

    AttemptRecord rec;
    rec.shard = l.shard;
    rec.attempt = l.attempt_no;
    rec.stderr_excerpt = std::move(l.err);
    rec.wall = elapsed_ms(l.start, Clock::now());

    if (l.timed_out) {
      rec.outcome = Outcome::kTimeout;
      rec.term_signal =
          WIFSIGNALED(raw_status) ? WTERMSIG(raw_status) : SIGKILL;
      rec.detail = "deadline of " +
                   std::to_string(opts.shard_deadline.count()) +
                   " ms exceeded";
    } else if (WIFSIGNALED(raw_status)) {
      rec.outcome = Outcome::kCrashed;
      rec.term_signal = WTERMSIG(raw_status);
    } else if (!WIFEXITED(raw_status) || WEXITSTATUS(raw_status) != 0) {
      rec.outcome = Outcome::kExitNonzero;
      rec.exit_code = WIFEXITED(raw_status) ? WEXITSTATUS(raw_status) : -1;
      rec.detail = describe_exit_code(rec.exit_code);
    } else {
      rec.exit_code = 0;
      try {
        ShardBlob parsed = parse_shard_blob(l.out.data(), l.out.size());
        if (!(parsed.meta == st.meta)) {
          rec.outcome = Outcome::kMetaMismatch;
          rec.detail = "blob meta does not match the assigned work";
        } else {
          rec.outcome = Outcome::kSuccess;
          // Each shard's result merges exactly once, whatever its attempt
          // history.
          if (!st.done) {
            st.done = true;
            st.accum = std::move(parsed.accum);
          }
        }
      } catch (const support::ByteError& e) {
        rec.outcome = Outcome::kWireReject;
        rec.detail = e.what();
      }
    }

    const bool succeeded = rec.outcome == Outcome::kSuccess;
    record(std::move(rec));
    if (!succeeded && !st.done) after_failure(l.shard);
  }

  /// Drains one fd; returns false once the stream hit EOF (or error).
  bool drain(Live& l, bool is_stdout) {
    const int fd = is_stdout ? l.w.stdout_fd : l.w.stderr_fd;
    std::uint8_t buf[65536];
    for (;;) {
      const ssize_t got = ::read(fd, buf, sizeof(buf));
      if (got > 0) {
        if (is_stdout) {
          // Cap the blob: a runaway worker must not OOM the driver. The
          // attempt fails below as a wire reject once the stream ends (or
          // immediately at the deadline).
          const std::size_t keep = l.out.size() < opts.max_blob_bytes
                                       ? std::min(opts.max_blob_bytes -
                                                      l.out.size(),
                                                  static_cast<std::size_t>(
                                                      got))
                                       : 0;
          l.out.insert(l.out.end(), buf, buf + keep);
        } else {
          const std::size_t keep = l.err_total < opts.stderr_cap
                                       ? std::min(opts.stderr_cap -
                                                      l.err_total,
                                                  static_cast<std::size_t>(
                                                      got))
                                       : 0;
          l.err.append(reinterpret_cast<const char*>(buf), keep);
          if (keep < static_cast<std::size_t>(got) &&
              l.err_total <= opts.stderr_cap) {
            l.err += "\n[stderr truncated]";
          }
          l.err_total += static_cast<std::size_t>(got);
        }
        continue;
      }
      if (got == 0) return false;  // EOF
      if (errno == EAGAIN || errno == EWOULDBLOCK) return true;
      if (errno == EINTR) continue;
      return false;  // treat read errors as end-of-stream
    }
  }

  void run() {
    report.shards += shards.size();
    for (unsigned i = 0; i < shards.size(); ++i) {
      launch_attempt(i);
    }

    // Runs until every shard is resolved AND every live attempt has been
    // reaped — a deadline kill is asynchronous, so a killed worker stays
    // live until its exit is reaped.
    for (;;) {
      Clock::time_point now = Clock::now();

      // Retries whose backoff has elapsed.
      for (unsigned i = 0; i < shards.size(); ++i) {
        ShardState& st = shards[i];
        if (st.retry_pending && !st.done && now >= st.retry_ready) {
          st.retry_pending = false;
          launch_attempt(i);
        }
      }

      // Deadline kills: one SIGKILL, then the normal loop drains and reaps
      // the worker.
      now = Clock::now();
      for (Live& l : live) {
        if (!l.finished && !l.timed_out && now >= l.deadline) {
          launcher.terminate(l.w);
          l.timed_out = true;
        }
      }

      // Anything left to wait for? (Retry scheduling above can finish shards
      // only via launch failures; re-check before polling.)
      bool any_pending_retry = false;
      Millis wait = Millis(3'600'000);
      now = Clock::now();
      for (const ShardState& st : shards) {
        if (st.retry_pending && !st.done) {
          any_pending_retry = true;
          wait = std::min(wait, std::max(Millis(0),
                                         elapsed_ms(now, st.retry_ready)));
        }
      }
      bool any_live = false;
      std::vector<pollfd> fds;
      std::vector<std::pair<std::size_t, bool>> fd_owner;  // (live idx, stdout?)
      for (std::size_t i = 0; i < live.size(); ++i) {
        Live& l = live[i];
        if (l.finished) continue;
        any_live = true;
        if (!l.timed_out) {
          wait = std::min(wait, std::max(Millis(0),
                                         elapsed_ms(now, l.deadline)));
        }
        if (l.out_open) {
          fds.push_back(pollfd{l.w.stdout_fd, POLLIN, 0});
          fd_owner.emplace_back(i, true);
        }
        if (l.err_open) {
          fds.push_back(pollfd{l.w.stderr_fd, POLLIN, 0});
          fd_owner.emplace_back(i, false);
        }
        if (!l.out_open && !l.err_open) {
          // Both streams hit EOF but the WNOHANG reap below has not
          // landed yet: the pipes report EOF the instant the worker
          // closes its stdio, which can beat the process becoming
          // waitable. This attempt has no fd to wake poll() on, so poll
          // at a short tick until the reap lands — without this the loop
          // sleeps until the shard deadline on an already-exited worker.
          wait = std::min(wait, Millis(2));
        }
      }
      if (!any_live && !any_pending_retry) break;  // exhausted -> fallback

      const int rc = ::poll(fds.empty() ? nullptr : fds.data(),
                            static_cast<nfds_t>(fds.size()),
                            static_cast<int>(wait.count()));
      if (rc < 0 && errno != EINTR) {
        throw DispatchError(std::string("poll failed: ") +
                            std::strerror(errno));
      }

      if (rc > 0) {
        for (std::size_t k = 0; k < fds.size(); ++k) {
          if ((fds[k].revents & (POLLIN | POLLHUP | POLLERR)) == 0) continue;
          Live& l = live[fd_owner[k].first];
          if (l.finished) continue;
          const bool is_stdout = fd_owner[k].second;
          if (!drain(l, is_stdout)) {
            if (is_stdout) {
              l.out_open = false;
            } else {
              l.err_open = false;
            }
          }
        }
      }

      // Attempts whose streams both hit EOF: reap without blocking — a
      // worker that closed its stdio but keeps running stays subject to
      // its deadline, never to an indefinite waitpid. Killed attempts take
      // the same path once their worker actually dies.
      for (Live& l : live) {
        if (l.finished || l.out_open || l.err_open) continue;
        int raw_status = 0;
        if (launcher.try_reap(l.w, raw_status)) {
          complete_attempt(l, raw_status);
        }
      }

      // Compact the finished entries so `live` stays small on long sweeps.
      live.erase(std::remove_if(live.begin(), live.end(),
                                [](const Live& l) { return l.finished; }),
                 live.end());
    }
  }

  /// Shards that exhausted their attempt budget: run them in the driver
  /// process — still through the serialize -> parse round-trip, so the
  /// transport semantics (and its validation) stay identical — or throw
  /// with the full report when fallback is disabled.
  void fallback_remaining() {
    for (unsigned i = 0; i < shards.size(); ++i) {
      ShardState& st = shards[i];
      if (st.done) continue;
      if (!opts.fallback_in_process) {
        throw DispatchError(
            "shard " + std::to_string(i) + " failed after " +
            std::to_string(st.attempts) +
            " attempt(s) and in-process fallback is disabled\n" +
            report.to_string());
      }
      const Clock::time_point t0 = Clock::now();
      const CellAccum acc = run_matrix_cell_accum(
          protocol, regime, n, static_cast<std::size_t>(st.range.count),
          st.range.first_seed, cell);
      ShardBlob parsed =
          parse_shard_blob(serialize_shard_blob(st.meta, acc));
      XCP_REQUIRE(parsed.meta == st.meta,
                  "in-process fallback blob failed its own meta check");
      st.accum = std::move(parsed.accum);
      st.done = true;
      AttemptRecord rec;
      rec.shard = i;
      rec.attempt = ++st.attempts;
      rec.outcome = Outcome::kFallback;
      rec.exit_code = 0;
      rec.wall = elapsed_ms(t0, Clock::now());
      record(std::move(rec));
    }
  }

  CellAccum merged() {
    CellAccum total;
    for (ShardState& st : shards) {
      total.merge(std::move(st.accum));
    }
    return total;
  }
};

}  // namespace

#endif  // !_WIN32

// ----------------------------------------------------------------- Dispatcher

Dispatcher::Dispatcher(std::string worker_path, DispatchOptions opts)
    : worker_path_(std::move(worker_path)), opts_(std::move(opts)) {
  if (opts_.launcher == nullptr) {
    default_launcher_ = std::make_unique<LocalProcessLauncher>();
    opts_.launcher = default_launcher_.get();
  }
  XCP_REQUIRE(opts_.max_attempts >= 1, "max_attempts must be at least 1");
  XCP_REQUIRE(opts_.shard_deadline.count() > 0,
              "shard_deadline must be positive");
}

Dispatcher::~Dispatcher() = default;

CellAccum Dispatcher::run_cell(ProtocolKind protocol, Regime regime, int n,
                               const std::vector<ShardRange>& ranges,
                               const CellOptions& cell,
                               DispatchReport* report) {
#if defined(_WIN32)
  (void)protocol;
  (void)regime;
  (void)n;
  (void)ranges;
  (void)cell;
  (void)report;
  throw DispatchError("process dispatch is POSIX-only");
#else
  CellRun run{.worker_path = worker_path_,
              .opts = opts_,
              .launcher = *opts_.launcher,
              .protocol = protocol,
              .regime = regime,
              .n = n,
              .cell = cell};
  run.shards.reserve(ranges.size());
  for (const ShardRange& range : ranges) {
    ShardState st;
    st.meta = run.meta_for(range);
    st.range = range;
    run.shards.push_back(std::move(st));
  }
  try {
    run.run();
    run.fallback_remaining();
  } catch (...) {
    // The report is the flight recorder; hand it over even when the sweep
    // dies (the CellRun destructor kills and reaps whatever still flies).
    if (report != nullptr) {
      report->attempts.insert(report->attempts.end(),
                              run.report.attempts.begin(),
                              run.report.attempts.end());
      merge_counters(*report, run.report);
    }
    throw;
  }
  CellAccum total = run.merged();
  if (report != nullptr) {
    report->attempts.insert(report->attempts.end(),
                            run.report.attempts.begin(),
                            run.report.attempts.end());
    merge_counters(*report, run.report);
  }
  return total;
#endif
}

// ----------------------------------------------------------- distributed_sweep

MatrixCell distributed_sweep(ProtocolKind protocol, Regime regime, int n,
                             std::size_t seeds, unsigned shards,
                             std::uint64_t first_seed,
                             const DistributedOptions& opts) {
  const std::vector<ShardRange> ranges =
      plan_shards(first_seed, seeds, shards);

  if (opts.worker_path.empty()) {
    // In-process shards: same partition, same wire round-trip, no process
    // boundary — and therefore nothing to supervise. The report still gets
    // one synthetic success record per shard so callers always see full
    // shard coverage.
    CellAccum total;
    if (opts.report != nullptr) opts.report->shards += ranges.size();
    for (unsigned i = 0; i < ranges.size(); ++i) {
      const ShardRange& range = ranges[i];
      const Clock::time_point t0 = Clock::now();
      ShardMeta m;
      m.protocol = protocol;
      m.regime = regime;
      m.n = n;
      m.first_seed = range.first_seed;
      m.seed_count = range.count;
      m.online = opts.cell.online.enabled;
      m.early_stop = opts.cell.online.early_stop;
      const CellAccum acc = run_matrix_cell_accum(
          protocol, regime, n, range.count, range.first_seed, opts.cell);
      ShardBlob parsed = parse_shard_blob(serialize_shard_blob(m, acc));
      if (!(parsed.meta == m)) {
        throw support::ByteError("shard " + std::to_string(i) +
                                     " meta does not match the work it was "
                                     "assigned",
                                 0);
      }
      total.merge(std::move(parsed.accum));
      if (opts.report != nullptr) {
        AttemptRecord rec;
        rec.shard = i;
        rec.attempt = 1;
        rec.outcome = AttemptRecord::Outcome::kSuccess;
        rec.exit_code = 0;
        rec.wall = std::chrono::duration_cast<Millis>(Clock::now() - t0);
        opts.report->attempts.push_back(std::move(rec));
        ++opts.report->launches;
      }
    }
    return cell_from_accum(protocol, regime, seeds, std::move(total));
  }

  Dispatcher dispatcher(opts.worker_path, opts.dispatch);
  CellAccum total = dispatcher.run_cell(protocol, regime, n, ranges,
                                        opts.cell, opts.report);
  return cell_from_accum(protocol, regime, seeds, std::move(total));
}

}  // namespace xcp::exp
