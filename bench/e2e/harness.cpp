#include "harness.hpp"

#include <fcntl.h>
#include <poll.h>
#include <signal.h>
#include <spawn.h>
#include <sys/wait.h>
#include <time.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <stdexcept>
#include <thread>

extern char** environ;

namespace xcp::bench {

unsigned Options::sweep_workers() const {
  if (workers != 0) return workers;
  return std::clamp(std::thread::hardware_concurrency(), 1u, 4u);
}

void Result::fail(const std::string& why) {
  ++failed;
  notes.push_back("FAIL " + why);
}

std::int64_t now_ns() {
  static const auto origin = std::chrono::steady_clock::now();
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now() - origin)
      .count();
}

std::uint64_t SpanLog::record(const char* name, std::uint64_t parent,
                              std::int64_t start_ns, std::int64_t end_ns,
                              std::uint64_t key) {
  const std::uint64_t id = next_id();
  spans_.push_back({id, parent, name, start_ns, end_ns, key});
  return id;
}

bool SpanLog::write_jsonl(const std::string& path, const char* key_name) const {
  std::error_code ec;
  std::filesystem::create_directories(
      std::filesystem::path(path).parent_path(), ec);
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  for (const Span& s : spans_) {
    std::fprintf(f,
                 "{\"id\":%llu,\"parent\":%llu,\"name\":\"%s\","
                 "\"start_ns\":%lld,\"end_ns\":%lld,\"%s\":%llu}\n",
                 static_cast<unsigned long long>(s.id),
                 static_cast<unsigned long long>(s.parent), s.name,
                 static_cast<long long>(s.start_ns),
                 static_cast<long long>(s.end_ns), key_name,
                 static_cast<unsigned long long>(s.key));
  }
  return std::fclose(f) == 0;
}

std::int64_t uncovered_ns(
    std::int64_t start, std::int64_t end,
    std::vector<std::pair<std::int64_t, std::int64_t>> children) {
  std::sort(children.begin(), children.end());
  std::int64_t covered = 0;
  std::int64_t cursor = start;
  for (auto [s, e] : children) {
    s = std::max(s, cursor);
    e = std::min(e, end);
    if (e > s) {
      covered += e - s;
      cursor = e;
    }
  }
  return (end - start) - covered;
}

double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return v[lo] + (v[hi] - v[lo]) * frac;
}

double mean(const std::vector<double>& v) {
  if (v.empty()) return 0.0;
  double s = 0.0;
  for (double x : v) s += x;
  return s / static_cast<double>(v.size());
}

double self_peak_rss_kb() {
  std::ifstream f("/proc/self/status");
  std::string line;
  while (std::getline(f, line)) {
    if (line.rfind("VmHWM:", 0) == 0) return std::stod(line.substr(6));
  }
  return 0.0;
}

std::string self_dir() {
  std::error_code ec;
  const auto exe = std::filesystem::read_symlink("/proc/self/exe", ec);
  return ec ? std::string(".") : exe.parent_path().string();
}

std::uint64_t mix64(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

double speed_factor() {
  // The kernel's time on the reference box at its usual speed.
  constexpr double kReferenceNs = 2.5e6;
  double best = 1e300;
  for (int rep = 0; rep < 3; ++rep) {
    const std::int64_t t0 = now_ns();
    std::uint64_t x = rep;
    for (int i = 0; i < 500'000; ++i) x = mix64(x);
    asm volatile("" : : "r"(x));  // keep the chain: its result is "used"
    best = std::min(best, static_cast<double>(now_ns() - t0));
  }
  return kReferenceNs / best;
}

std::int64_t thread_cpu_ns() {
  timespec ts{};
  ::clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<std::int64_t>(ts.tv_sec) * 1'000'000'000 + ts.tv_nsec;
}

void announce_ready() {
  std::fputs("ready\n", stdout);
  std::fflush(stdout);
}

namespace {

/// One probe: spawn, wait for the "ready" line, reap. Returns seconds from
/// spawn to ready; throws on a probe that fails or hangs.
double run_probe(const std::vector<std::string>& args) {
  int fds[2];
  if (::pipe2(fds, O_CLOEXEC) != 0) throw std::runtime_error("pipe failed");
  posix_spawn_file_actions_t actions;
  posix_spawn_file_actions_init(&actions);
  posix_spawn_file_actions_adddup2(&actions, fds[1], STDOUT_FILENO);
  std::vector<char*> argv;
  std::vector<std::string> owned = args;
  for (auto& s : owned) argv.push_back(s.data());
  argv.push_back(nullptr);
  const std::int64_t t0 = now_ns();
  pid_t pid = -1;
  const int rc = ::posix_spawn(&pid, "/proc/self/exe", &actions, nullptr,
                               argv.data(), environ);
  posix_spawn_file_actions_destroy(&actions);
  ::close(fds[1]);
  if (rc != 0) {
    ::close(fds[0]);
    throw std::runtime_error("set-up probe spawn failed");
  }
  std::string got;
  std::int64_t ready_ns = -1;
  pollfd pfd{fds[0], POLLIN, 0};
  while (ready_ns < 0 && ::poll(&pfd, 1, 60'000) > 0) {
    char buf[64];
    const ssize_t n = ::read(fds[0], buf, sizeof buf);
    if (n <= 0) break;
    got.append(buf, static_cast<std::size_t>(n));
    if (got.find('\n') != std::string::npos) ready_ns = now_ns();
  }
  ::close(fds[0]);
  if (ready_ns < 0) ::kill(pid, SIGKILL);
  int status = 0;
  ::waitpid(pid, &status, 0);
  if (ready_ns < 0 || got != "ready\n" || !WIFEXITED(status) ||
      WEXITSTATUS(status) != 0) {
    throw std::runtime_error("set-up probe failed (output '" + got + "')");
  }
  return static_cast<double>(ready_ns - t0) / 1e9;
}

}  // namespace

double probe_setup_seconds(const Options& opt) {
  std::vector<std::string> args = {
      "bench_e2e",  "--probe-setup", "--workload", opt.workload,
      "--seed",     std::to_string(opt.seed),    "--workers",
      std::to_string(opt.sweep_workers())};
  if (opt.smoke) args.push_back("--smoke");
  const double speed = speed_factor();
  return run_probe(args) * speed;
}

}  // namespace xcp::bench
