#pragma once
// Shared plumbing of the end-to-end benchmark program: run options, the
// result every workload fills in, the in-memory span log of a traced run,
// sample statistics, process resource readings and the fresh-process
// set-up probe.

#include <sys/types.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace xcp::bench {

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Tiny sizes for every workload (oracles stay on): the CI smoke shape.
  bool smoke = false;
  /// Sweep worker threads; 0 = min(4, hardware threads).
  unsigned workers = 0;
  /// Child mode: run only the workload's set-up, print "ready", exit.
  bool probe_setup = false;

  unsigned sweep_workers() const;
};

/// What one workload run reports. Metric names are the BENCHMARK.json
/// names; bench_e2e prints them in catalog order with their units.
struct Result {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  /// Cross-checks beyond the per-unit oracles (within-run determinism,
  /// event-count cross-checks); a false here fails the run like a unit.
  bool checks_ok = true;
  std::map<std::string, double> metrics;
  /// Deterministic values, printed as `exact <name> <value>` lines that
  /// the determinism check compares across runs and worker counts.
  std::map<std::string, std::string> exact;
  /// Human-readable lines (sample counts, failure diagnostics).
  std::vector<std::string> notes;

  void fail(const std::string& why);
  void note(const std::string& line) { notes.push_back(line); }
};

// ------------------------------------------------------------------ clock

/// Monotonic nanoseconds since the process started.
std::int64_t now_ns();

inline double ns_to_ms(std::int64_t ns) {
  return static_cast<double>(ns) / 1e6;
}

/// Deadline helper for the "measure for --seconds" loops.
class Stopwatch {
 public:
  Stopwatch() : start_(now_ns()) {}
  double seconds() const {
    return static_cast<double>(now_ns() - start_) / 1e9;
  }

 private:
  std::int64_t start_;
};

// ------------------------------------------------------------------ spans

/// One span of a traced run: a layer call timed from the benchmark's own
/// code. `key` is the seed (sweep) or deal index (sim, node) it belongs to.
struct Span {
  std::uint64_t id = 0;
  std::uint64_t parent = 0;  // 0 = root
  const char* name = "";     // static string
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  std::uint64_t key = 0;
};

/// Spans live in memory while the run measures and are written as JSON
/// lines when it ends. Ids come from one atomic counter so worker threads
/// can mint ids for spans they buffer locally and hand over later.
class SpanLog {
 public:
  std::uint64_t next_id() { return next_.fetch_add(1) + 1; }
  void add(const Span& s) { spans_.push_back(s); }
  void add_all(const std::vector<Span>& ss) {
    spans_.insert(spans_.end(), ss.begin(), ss.end());
  }
  /// Mints an id and records [start, end) under `parent`; returns the id.
  std::uint64_t record(const char* name, std::uint64_t parent,
                       std::int64_t start_ns, std::int64_t end_ns,
                       std::uint64_t key);
  void reserve(std::size_t n) { spans_.reserve(n); }
  std::size_t size() const { return spans_.size(); }
  /// Writes one JSON object per line; `key_name` is "seed" or "deal".
  bool write_jsonl(const std::string& path, const char* key_name) const;

 private:
  std::atomic<std::uint64_t> next_{0};
  std::vector<Span> spans_;
};

/// The part of [start, end) not covered by the union of `children`
/// (each clipped to the parent), in ns: a span's self time.
std::int64_t uncovered_ns(std::int64_t start, std::int64_t end,
                          std::vector<std::pair<std::int64_t, std::int64_t>>
                              children);

// ------------------------------------------------------------- statistics

/// Linear-interpolated quantile (q in [0, 1]) of an unsorted sample.
double quantile(std::vector<double> v, double q);
inline double median(std::vector<double> v) {
  return quantile(std::move(v), 0.5);
}
double mean(const std::vector<double>& v);

// ------------------------------------------------------------ host speed
//
// CPU-bound times on a shared host move with the neighbours: the CPU speed
// drifts (up to ±20% over minutes on the 4-vCPU VM this benchmark was tuned
// on) and memory-contention bursts slow whole seconds of work by up to 2x.
// The in-process workloads therefore repeat the same units of work (a
// sweep pass re-runs the same seeds, a sim window the same deals), scale
// each repetition to a reference speed, and report each unit's fastest
// repetition: its cost with the bursts filtered out.

/// Reference kernel time / measured kernel time, for a fixed integer
/// kernel timed now (best of three). A CPU-bound time measured next to it,
/// multiplied by the factor, is the time at the reference speed. Memory
/// contention does not slow the kernel; best-of-repetitions handles that.
double speed_factor();

/// CPU time of the calling thread, in ns.
std::int64_t thread_cpu_ns();

// ------------------------------------------------------ process resources

/// Peak resident set (VmHWM) of this process, in KiB.
double self_peak_rss_kb();

/// Spawns this executable in set-up probe mode and returns the seconds from
/// spawn to its "ready" line, at the reference speed. The probe is a fresh
/// process, so lazy and static initialisation are part of it. Workloads
/// probe once per window and report the median.
double probe_setup_seconds(const Options& opt);

/// Prints the probe handshake in the child.
void announce_ready();

/// Directory of the running executable (for the xcp_node sibling).
std::string self_dir();

/// splitmix64: derives independent per-unit seeds from the run seed.
std::uint64_t mix64(std::uint64_t x);

}  // namespace xcp::bench
