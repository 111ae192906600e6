// node-committee-unix / node-committee-tcp-wal: real xcp_node committees.
// One deal at a time, closed loop: spawn the 4 notaries, wait until every
// one listens, spawn the client, time it to its OUTCOME line, reap all 5
// processes and check the outcome. Oracle per deal: every process exits 0,
// the OUTCOME line equals run_standalone_sim's canonical outcome for the
// same scenario, the CERT verifies as a quorum certificate, every notary
// logs the same decision and (journaled mode) every journal holds it.

#include <fcntl.h>
#include <linux/inet_diag.h>
#include <linux/netlink.h>
#include <linux/sock_diag.h>
#include <netinet/in.h>
#include <poll.h>
#include <signal.h>
#include <spawn.h>
#include <sys/resource.h>
#include <sys/socket.h>
#include <sys/stat.h>
#include <sys/syscall.h>
#include <sys/wait.h>
#include <unistd.h>

#include <array>
#include <filesystem>
#include <fstream>
#include <set>
#include <sstream>
#include <utility>

#include "layers.hpp"
#include "net/wal.hpp"
#include "net/wire.hpp"
#include "workloads.hpp"

extern char** environ;

namespace xcp::bench {
namespace {

namespace fs = std::filesystem;

constexpr int kNotaries = 4;
constexpr int kNodes = kNotaries + 1;  // node kNotaries is the client
constexpr int kSetupAttempts = 3;
constexpr std::int64_t kListenTimeoutNs = 5'000'000'000;
constexpr std::int64_t kDealTimeoutNs = 10'000'000'000;

struct Sizes {
  std::size_t min_deals;    // per phase (untraced, traced)
  std::size_t exact_deals;  // prefix the exact values cover
};
Sizes sizes(const Options& o) { return o.smoke ? Sizes{4, 4} : Sizes{20, 8}; }

// ------------------------------------------------------ child processes

/// Pids of live children, for the fatal-signal handler: a bench_e2e killed
/// mid-deal must not leave notaries behind.
std::array<std::atomic<pid_t>, 16> g_live{};

void track(pid_t pid, bool live) {
  for (auto& slot : g_live) {
    pid_t expect = live ? 0 : pid;
    if (slot.compare_exchange_strong(expect, live ? pid : 0)) return;
  }
}

void kill_children_and_die(int sig) {
  for (auto& slot : g_live) {
    const pid_t pid = slot.load();
    if (pid > 0) ::kill(pid, SIGKILL);
  }
  ::signal(sig, SIG_DFL);
  ::raise(sig);
}

void install_child_cleanup() {
  struct sigaction sa {};
  sa.sa_handler = kill_children_and_die;
  for (int sig : {SIGINT, SIGTERM, SIGHUP}) ::sigaction(sig, &sa, nullptr);
}

/// /proc/PID/io write counters of one process. The kernel's task I/O
/// accounting covers read(2)/write(2)-family calls only: the transport's
/// send(2)/recv(2) on sockets never show here, journal and log writes do.
struct Io {
  double wchar = 0, syscw = 0;
};

Io read_proc_io(pid_t pid) {
  std::ifstream in("/proc/" + std::to_string(pid) + "/io");
  Io io;
  std::string key;
  double value = 0;
  while (in >> key >> value) {
    if (key == "wchar:") io.wchar = value;
    if (key == "syscw:") io.syscw = value;
  }
  return io;
}

/// Loopback traffic of the network namespace: bytes sent on `lo`
/// (/proc/net/dev) and TCP segments sent (/proc/net/snmp). Only the
/// committee talks over loopback while a deal runs, so a delta over the
/// deal is the committee's TCP traffic, headers and ACKs included.
struct NetCounters {
  double lo_bytes = 0, tcp_segments = 0;
};

NetCounters read_net_counters() {
  NetCounters c;
  std::ifstream dev("/proc/net/dev");
  std::string line;
  while (std::getline(dev, line)) {
    const std::size_t colon = line.find(':');
    if (colon == std::string::npos ||
        line.substr(0, colon).find("lo") == std::string::npos) {
      continue;
    }
    std::istringstream fields(line.substr(colon + 1));
    double v = 0;
    for (int i = 0; i < 9 && fields >> v; ++i) {
      if (i == 8) c.lo_bytes = v;  // the first transmit column
    }
  }
  std::ifstream snmp("/proc/net/snmp");
  std::string header;
  while (std::getline(snmp, header)) {
    if (header.rfind("Tcp:", 0) != 0 || !std::getline(snmp, line)) continue;
    std::istringstream names(header), values(line);
    std::string name, value;
    while (names >> name && values >> value) {
      if (name == "OutSegs") c.tcp_segments = std::stod(value);
    }
  }
  return c;
}

/// How a reaped child ended and what it used.
struct Exit {
  int code = -1;  // exit status, or 128 + signal
  double cpu_ms = 0;
  double voluntary_switches = 0;
  Io io;
};

/// A live process's own peak resident set (VmHWM), in KiB; 0 once it is
/// gone. (wait4's ru_maxrss is no use here: exec keeps the larger of the
/// old and new address spaces' high-water marks, and a posix_spawn child
/// execs from the spawner's address space, so every notary would report
/// at least bench_e2e's own peak.)
double vm_hwm_kb(pid_t pid) {
  std::ifstream in("/proc/" + std::to_string(pid) + "/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) return std::stod(line.substr(6));
  }
  return 0.0;
}

/// One spawned xcp_node. Killed and reaped on destruction if still there.
class Child {
 public:
  Child(pid_t pid, int pidfd) : pid_(pid), pidfd_(pidfd) { track(pid, true); }
  Child(Child&& o) noexcept
      : pid_(std::exchange(o.pid_, -1)), pidfd_(std::exchange(o.pidfd_, -1)) {}
  Child& operator=(Child&&) = delete;
  Child(const Child&) = delete;
  Child& operator=(const Child&) = delete;
  ~Child() {
    kill_and_reap();
    if (pidfd_ >= 0) ::close(pidfd_);
  }

  /// Waits until the process has exited, leaving it a zombie. False if it
  /// is still running at `deadline_ns`.
  bool wait_exited(std::int64_t deadline_ns) const {
    pollfd pfd{pidfd_, POLLIN, 0};
    for (;;) {
      const std::int64_t left = deadline_ns - now_ns();
      const int ms = left <= 0 ? 0 : static_cast<int>(left / 1'000'000) + 1;
      const int rc = ::poll(&pfd, 1, ms);
      if (rc > 0) return true;
      if (rc == 0 && left <= 0) return false;
    }
  }
  bool exited() const { return wait_exited(0); }
  pid_t pid() const { return pid_; }

  /// Collects an exited child: /proc/PID/io is read while it is still a
  /// zombie (waitid with WNOWAIT), then wait4 takes status and rusage.
  Exit reap(bool read_io) {
    Exit ex;
    siginfo_t info{};
    ::waitid(P_PID, static_cast<id_t>(pid_), &info, WEXITED | WNOWAIT);
    if (read_io) ex.io = read_proc_io(pid_);
    int status = 0;
    rusage ru{};
    ::wait4(pid_, &status, 0, &ru);
    track(pid_, false);
    pid_ = -1;
    ex.code = WIFEXITED(status)
                  ? WEXITSTATUS(status)
                  : 128 + (WIFSIGNALED(status) ? WTERMSIG(status) : 0);
    const auto ms = [](const timeval& tv) {
      return static_cast<double>(tv.tv_sec) * 1e3 +
             static_cast<double>(tv.tv_usec) / 1e3;
    };
    ex.cpu_ms = ms(ru.ru_utime) + ms(ru.ru_stime);
    ex.voluntary_switches = static_cast<double>(ru.ru_nvcsw);
    return ex;
  }

  void kill_and_reap() {
    if (pid_ <= 0) return;
    ::kill(pid_, SIGKILL);
    int status = 0;
    ::waitpid(pid_, &status, 0);
    track(pid_, false);
    pid_ = -1;
  }

 private:
  pid_t pid_ = -1;
  int pidfd_ = -1;
};

/// Spawns `bin args...` with stdout to `stdout_fd` (or `log` when -1) and
/// stderr to `log`.err. Adds the posix_spawn duration to `spawn_ns`.
Child spawn(const std::string& bin, const std::vector<std::string>& args,
            const std::string& log, int stdout_fd, std::int64_t& spawn_ns) {
  posix_spawn_file_actions_t fa;
  posix_spawn_file_actions_init(&fa);
  if (stdout_fd >= 0) {
    posix_spawn_file_actions_adddup2(&fa, stdout_fd, STDOUT_FILENO);
  } else {
    posix_spawn_file_actions_addopen(&fa, STDOUT_FILENO, log.c_str(),
                                     O_WRONLY | O_CREAT | O_TRUNC, 0644);
  }
  const std::string err = log + ".err";
  posix_spawn_file_actions_addopen(&fa, STDERR_FILENO, err.c_str(),
                                   O_WRONLY | O_CREAT | O_TRUNC, 0644);
  std::vector<std::string> owned = {bin};
  owned.insert(owned.end(), args.begin(), args.end());
  std::vector<char*> argv;
  for (auto& s : owned) argv.push_back(s.data());
  argv.push_back(nullptr);
  pid_t pid = -1;
  const std::int64_t t0 = now_ns();
  const int rc =
      ::posix_spawn(&pid, bin.c_str(), &fa, nullptr, argv.data(), environ);
  spawn_ns += now_ns() - t0;
  posix_spawn_file_actions_destroy(&fa);
  if (rc != 0) throw std::runtime_error("posix_spawn " + bin + " failed");
  const int pidfd = static_cast<int>(::syscall(SYS_pidfd_open, pid, 0));
  if (pidfd < 0) {
    ::kill(pid, SIGKILL);
    ::waitpid(pid, nullptr, 0);
    throw std::runtime_error("pidfd_open failed");
  }
  return Child(pid, pidfd);
}

// --------------------------------------------------------- deal layout

/// Where one attempt of one deal lives: a scratch directory (sockets,
/// logs, journals) and, over TCP, five loopback ports.
struct Layout {
  NodeMode mode = NodeMode::kUnix;
  std::string dir;
  std::array<int, kNodes> ports{};

  std::string sock(int node) const {
    return dir + "/node-" + std::to_string(node) + ".sock";
  }
  std::string tcp(int node) const {
    return "tcp:127.0.0.1:" +
           std::to_string(ports[static_cast<std::size_t>(node)]);
  }
  std::string log(int node) const {
    return dir + "/out-" + std::to_string(node);
  }
  std::string journal(int node) const {
    return dir + "/state/node-" + std::to_string(node) + ".wal";
  }
};

/// Loopback ports from bind(0) probes, all held until every one is chosen
/// so the five are distinct.
std::array<int, kNodes> pick_ports() {
  std::array<int, kNodes> ports{};
  std::array<int, kNodes> fds{};
  fds.fill(-1);
  bool ok = true;
  for (int k = 0; k < kNodes && ok; ++k) {
    fds[k] = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
    sockaddr_in sa{};
    sa.sin_family = AF_INET;
    sa.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    socklen_t len = sizeof sa;
    ok = fds[k] >= 0 &&
         ::bind(fds[k], reinterpret_cast<sockaddr*>(&sa), sizeof sa) == 0 &&
         ::getsockname(fds[k], reinterpret_cast<sockaddr*>(&sa), &len) == 0;
    ports[k] = ntohs(sa.sin_port);
  }
  for (int fd : fds) {
    if (fd >= 0) ::close(fd);
  }
  if (!ok) throw std::runtime_error("port probe failed");
  return ports;
}

/// Ports in LISTEN state on IPv4, from a sock_diag netlink dump filtered
/// to listeners in the kernel (/proc/net/tcp would also list every
/// TIME_WAIT socket earlier deals left behind, and grows with the run).
std::set<int> tcp_listening_ports() {
  const int fd =
      ::socket(AF_NETLINK, SOCK_DGRAM | SOCK_CLOEXEC, NETLINK_SOCK_DIAG);
  if (fd < 0) throw std::runtime_error("sock_diag socket failed");
  struct {
    nlmsghdr nlh;
    inet_diag_req_v2 req;
  } msg{};
  msg.nlh.nlmsg_len = sizeof msg;
  msg.nlh.nlmsg_type = SOCK_DIAG_BY_FAMILY;
  msg.nlh.nlmsg_flags = NLM_F_REQUEST | NLM_F_DUMP;
  msg.req.sdiag_family = AF_INET;
  msg.req.sdiag_protocol = IPPROTO_TCP;
  msg.req.idiag_states = 1u << 10;  // TCP_LISTEN
  std::set<int> out;
  bool done = ::send(fd, &msg, sizeof msg, 0) != sizeof msg;
  alignas(nlmsghdr) char buf[16384];
  while (!done) {
    ssize_t len = ::recv(fd, buf, sizeof buf, 0);
    if (len <= 0) break;
    for (auto* h = reinterpret_cast<nlmsghdr*>(buf); NLMSG_OK(h, len);
         h = NLMSG_NEXT(h, len)) {
      if (h->nlmsg_type == NLMSG_DONE || h->nlmsg_type == NLMSG_ERROR) {
        done = true;
        break;
      }
      const auto* m = static_cast<const inet_diag_msg*>(NLMSG_DATA(h));
      out.insert(ntohs(m->id.idiag_sport));
    }
  }
  ::close(fd);
  return out;
}

bool listening(const Layout& l, int node) {
  if (l.mode == NodeMode::kUnix) {
    struct stat st {};
    return ::stat(l.sock(node).c_str(), &st) == 0 && S_ISSOCK(st.st_mode);
  }
  return tcp_listening_ports().count(
             l.ports[static_cast<std::size_t>(node)]) > 0;
}

// ---------------------------------------------------------------- deals

struct DealSpec {
  std::uint64_t index = 0;
  consensus::StandaloneCommittee sc;
};

/// Deal i of a run: its id, scenario seed and evidence derive from the run
/// seed; evidence is commit for three of every four consecutive deals.
DealSpec deal_spec(const Options& opt, std::uint64_t i) {
  DealSpec d;
  d.index = i;
  d.sc.notaries = kNotaries;
  d.sc.n = 2;
  d.sc.deal_id = 1 + (opt.seed % 100'000) * 1'000 + i % 1'000;
  d.sc.seed = mix64(opt.seed * 0x100000001b3ull + i);
  d.sc.evidence = (i + opt.seed) % 4 == 3 ? consensus::Value::kAbort
                                          : consensus::Value::kCommit;
  return d;
}

std::vector<std::string> node_args(const DealSpec& d, const Layout& l,
                                   int node) {
  const bool client = node == kNotaries;
  std::vector<std::string> a = {
      "--node-id", std::to_string(node),
      "--notaries", std::to_string(kNotaries),
      "--n", std::to_string(d.sc.n),
      "--deal", std::to_string(d.sc.deal_id),
      "--seed", std::to_string(d.sc.seed),
      "--value", consensus::value_name(d.sc.evidence),
      "--linger-ms", client ? "0" : "50",
      "--wall-limit-ms", "10000"};
  if (l.mode == NodeMode::kUnix) {
    a.insert(a.end(), {"--sock-dir", l.dir});
    return a;
  }
  a.insert(a.end(), {"--listen", l.tcp(node)});
  for (int peer = 0; peer < kNodes; ++peer) {
    if (peer != node) {
      a.insert(a.end(), {"--peer", std::to_string(peer) + "=" + l.tcp(peer)});
    }
  }
  if (!client) a.insert(a.end(), {"--state-dir", l.dir + "/state"});
  return a;
}

/// Everything measured about one deal.
struct DealRun {
  std::uint64_t index = 0;
  double speed = 1.0;  // host speed factor (harness.hpp), sampled each second
  bool ok = false;
  std::string why;
  std::int64_t t_spawn = 0, t_ready = 0, t_client = 0, t_client_listen = -1,
               t_outcome = -1, t_reaped = 0;
  std::array<Exit, kNodes> exits{};
  /// Each notary's VmHWM when the OUTCOME line arrived (the notaries are
  /// lingering then); 0 for one that had already exited.
  std::array<double, kNotaries> notary_hwm_kb{};
  std::int64_t spawn_ns = 0;
  NetCounters net;  // traced: loopback traffic over the deal
  std::string outcome_line, cert_hex;
  std::uint64_t wal_records = 0, wal_bytes = 0;

  double setup_ms() const { return ns_to_ms(t_ready - t_spawn); }
  double deal_ms() const { return ns_to_ms(t_outcome - t_client); }
};

std::string line_with_prefix(const std::string& text, const std::string& p) {
  std::istringstream in(text);
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind(p, 0) == 0) return line;
  }
  return {};
}

std::string slurp(const std::string& path) {
  std::ifstream in(path);
  std::stringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

std::vector<std::uint8_t> from_hex(const std::string& hex) {
  std::vector<std::uint8_t> out;
  for (std::size_t i = 0; i + 1 < hex.size(); i += 2) {
    out.push_back(static_cast<std::uint8_t>(
        std::stoul(hex.substr(i, 2), nullptr, 16)));
  }
  return out;
}

/// The client's CERT line, decoded with the committee roster of `sc`.
crypto::Certificate parse_cert_hex(const consensus::StandaloneCommittee& sc,
                                   const std::string& hex) {
  net::WireContext wctx;
  const std::vector<sim::ProcessId> roster = sc.notary_pids();
  wctx.roster = &roster;
  return net::parse_certificate(from_hex(hex), wctx);
}

struct Runner {
  const Options& opt;
  NodeMode mode;
  std::string bin;
  std::string root;  // this run's scratch directory
  std::uint64_t setup_retries = 0;

  /// Spawns the notaries of one attempt and waits until each listens.
  /// False (with the notaries killed) when one exits or stays deaf.
  bool start_notaries(const DealSpec& d, const Layout& l, DealRun& run,
                      std::vector<Child>& notaries) {
    run.t_spawn = now_ns();
    for (int k = 0; k < kNotaries; ++k) {
      notaries.push_back(
          spawn(bin, node_args(d, l, k), l.log(k), -1, run.spawn_ns));
    }
    const std::int64_t deadline = now_ns() + kListenTimeoutNs;
    std::array<bool, kNotaries> up{};
    for (;;) {
      bool all = true;
      for (int k = 0; k < kNotaries; ++k) {
        up[k] = up[k] || listening(l, k);
        all = all && up[k];
      }
      if (all) break;
      for (const Child& c : notaries) {
        if (c.exited()) return false;
      }
      if (now_ns() > deadline) return false;
      ::usleep(50);
    }
    run.t_ready = now_ns();
    return true;
  }

  /// Runs the client to completion: reads its stdout, stamps the OUTCOME
  /// line, and in a traced run also stamps when the client starts
  /// listening (the end of its own start-up).
  void run_client(const DealSpec& d, const Layout& l, bool traced,
                  DealRun& run, std::vector<Child>& procs) {
    int fds[2];
    if (::pipe2(fds, O_CLOEXEC) != 0) throw std::runtime_error("pipe failed");
    run.t_client = now_ns();
    procs.push_back(spawn(bin, node_args(d, l, kNotaries), l.log(kNotaries),
                          fds[1], run.spawn_ns));
    ::close(fds[1]);
    const std::int64_t deadline = run.t_client + kDealTimeoutNs;
    std::string out;
    pollfd pfd{fds[0], POLLIN, 0};
    for (;;) {
      if (traced && run.t_client_listen < 0 && listening(l, kNotaries)) {
        run.t_client_listen = now_ns();
      }
      const bool watch = traced && run.t_client_listen < 0;
      const timespec wait{0, watch ? 100'000L : 20'000'000L};
      if (::ppoll(&pfd, 1, &wait, nullptr) > 0) {
        char buf[4096];
        const ssize_t n = ::read(fds[0], buf, sizeof buf);
        if (n <= 0) break;  // EOF: the client closed stdout (exited)
        out.append(buf, static_cast<std::size_t>(n));
        if (run.t_outcome < 0) {
          const std::size_t at = out.find("OUTCOME ");
          if (at != std::string::npos &&
              out.find('\n', at) != std::string::npos) {
            run.t_outcome = now_ns();
            for (int k = 0; k < kNotaries; ++k) {
              run.notary_hwm_kb[k] =
                  vm_hwm_kb(procs[static_cast<std::size_t>(k)].pid());
            }
          }
        }
      }
      if (now_ns() > deadline) {
        run.why = "client produced no outcome within the deal timeout";
        break;
      }
    }
    ::close(fds[0]);
    run.outcome_line = line_with_prefix(out, "OUTCOME ");
    const std::string cert = line_with_prefix(out, "CERT ");
    if (!cert.empty()) run.cert_hex = cert.substr(5);
  }

  /// The per-deal oracle (see the file comment).
  std::string check(const DealSpec& d, const Layout& l, const DealRun& run) {
    for (int k = 0; k < kNodes; ++k) {
      if (run.exits[k].code != 0) {
        return "node " + std::to_string(k) + " exited " +
               std::to_string(run.exits[k].code) + ": " +
               slurp(l.log(k) + ".err");
      }
    }
    const consensus::CommitteeOutcome ref = consensus::run_standalone_sim(d.sc);
    if (run.outcome_line != "OUTCOME " + ref.canonical()) {
      return "outcome '" + run.outcome_line + "' != reference '" +
             ref.canonical() + "'";
    }
    const crypto::KeyRegistry keys = d.sc.make_keys();
    const auto config = d.sc.make_config(keys);
    try {
      const crypto::Certificate cert = parse_cert_hex(d.sc, run.cert_hex);
      if (cert.kind != ref.cert.kind || cert.deal_id != ref.cert.deal_id ||
          cert.issuer != ref.cert.issuer ||
          !crypto::verify_quorum_cert(
              keys, cert, config->members,
              static_cast<std::size_t>(config->quorum()))) {
        return "CERT does not verify as the reference decision";
      }
    } catch (const std::exception& e) {
      return std::string("CERT does not parse: ") + e.what();
    }
    const std::string decided =
        std::string("DECIDED value=") + consensus::value_name(d.sc.evidence);
    for (int k = 0; k < kNotaries; ++k) {
      if (slurp(l.log(k)).find(decided + " node=" + std::to_string(k)) ==
          std::string::npos) {
        return "notary " + std::to_string(k) + " did not log '" + decided + "'";
      }
    }
    return {};
  }

  /// Scans the notaries' journals: every one must hold the decision.
  std::string scan_journals(const DealSpec& d, const Layout& l, DealRun& run) {
    for (int k = 0; k < kNotaries; ++k) {
      const std::vector<std::uint8_t> bytes = read_file(l.journal(k));
      const net::WalRecoverResult rec = net::WriteAheadLog::scan(bytes);
      run.wal_records += rec.records.size();
      run.wal_bytes += bytes.size();
      bool decided = false;
      for (const net::WalRecord& r : rec.records) {
        decided = decided ||
                  (r.kind == net::WalRecordKind::kDecide &&
                   r.value == static_cast<std::uint8_t>(d.sc.evidence));
      }
      if (!decided || rec.truncated) {
        return "journal of notary " + std::to_string(k) +
               " lacks the decision";
      }
    }
    return {};
  }

  /// One deal; `spans` is null for an untraced deal.
  DealRun run_deal(const DealSpec& d, SpanLog* spans,
                   const std::string& keep_journal) {
    const bool traced = spans != nullptr;
    DealRun run;
    run.index = d.index;
    for (int attempt = 0; attempt < kSetupAttempts; ++attempt) {
      Layout l;
      l.mode = mode;
      l.dir = root + "/d" + std::to_string(d.index) + "." +
              std::to_string(attempt);
      fs::create_directories(l.dir + "/state");
      if (mode == NodeMode::kTcpJournal) l.ports = pick_ports();
      std::vector<Child> procs;
      procs.reserve(kNodes);
      const NetCounters net0 = traced ? read_net_counters() : NetCounters{};
      if (!start_notaries(d, l, run, procs)) {
        procs.clear();  // kills and reaps
        ++setup_retries;
        run.why = "notaries did not all listen (" +
                  std::to_string(attempt + 1) +
                  " attempts): " + slurp(l.log(0) + ".err");
        fs::remove_all(l.dir);
        continue;
      }
      run.why.clear();
      run_client(d, l, traced, run, procs);
      const std::int64_t deadline = now_ns() + kDealTimeoutNs;
      for (int k = 0; k < kNodes; ++k) {
        if (!procs[static_cast<std::size_t>(k)].wait_exited(deadline)) {
          if (run.why.empty()) run.why = "node " + std::to_string(k) + " hung";
          procs[static_cast<std::size_t>(k)].kill_and_reap();
          run.exits[k].code = 128 + SIGKILL;
          continue;
        }
        run.exits[k] = procs[static_cast<std::size_t>(k)].reap(traced);
      }
      run.t_reaped = now_ns();
      if (traced) {
        const NetCounters net1 = read_net_counters();
        run.net = {net1.lo_bytes - net0.lo_bytes,
                   net1.tcp_segments - net0.tcp_segments};
      }
      if (run.why.empty()) run.why = check(d, l, run);
      if (run.why.empty() && mode == NodeMode::kTcpJournal) {
        run.why = scan_journals(d, l, run);
        if (run.why.empty() && !keep_journal.empty()) {
          fs::copy_file(l.journal(0), keep_journal,
                        fs::copy_options::overwrite_existing);
        }
      }
      run.ok = run.why.empty();
      if (spans != nullptr && run.ok) {
        const std::uint64_t root_id =
            spans->record("node.deal", 0, run.t_spawn, run.t_reaped, d.index);
        spans->record("node.setup", root_id, run.t_spawn, run.t_ready, d.index);
        const std::uint64_t client = spans->record(
            "node.client", root_id, run.t_client, run.t_outcome, d.index);
        if (run.t_client_listen >= 0) {
          spans->record("node.client_start", client, run.t_client,
                        run.t_client_listen, d.index);
        }
        spans->record("node.drain", root_id, run.t_outcome, run.t_reaped,
                      d.index);
      }
      fs::remove_all(l.dir);
      return run;
    }
    return run;
  }
};

struct Phase {
  std::vector<DealRun> deals;  // successful deals only
  double wall_s = 0;
};

/// Runs deals until --seconds is spent (at least min_deals per phase).
/// Traced, blocks of deals alternate untraced / traced, so host drift hits
/// both kinds alike. Returns the untraced and the traced deals.
std::pair<Phase, Phase> run_deals(Runner& rn, SpanLog& spans,
                                  const std::string& keep_journal, Result& r) {
  const Options& opt = rn.opt;
  const Sizes sz = sizes(opt);
  Phase plain, traced;
  const Stopwatch sw;
  double speed = 1.0;
  double speed_at = -1.0;
  for (std::uint64_t i = 0;
       i < (opt.trace ? 2 : 1) * sz.min_deals || sw.seconds() < opt.seconds;
       ++i) {
    if (speed_at < 0 || sw.seconds() - speed_at >= 1.0) {
      speed = speed_factor();
      speed_at = sw.seconds();
    }
    // Blocks of 4 deals (3 commit + 1 abort) alternate, so both phases
    // get the same evidence mix.
    const bool trace_this = opt.trace && (i / 4) % 2 == 1;
    Phase& ph = trace_this ? traced : plain;
    const DealSpec d = deal_spec(opt, i);
    // The first successful deal's journal is kept for the WAL probes.
    DealRun run = rn.run_deal(d, trace_this ? &spans : nullptr,
                              plain.deals.empty() ? keep_journal : "");
    run.speed = speed;
    ++r.attempted;
    if (!run.ok) {
      r.fail("deal " + std::to_string(i) + " (" +
             consensus::value_name(d.sc.evidence) + "): " + run.why);
      continue;
    }
    ph.deals.push_back(std::move(run));
  }
  plain.wall_s = traced.wall_s = sw.seconds();
  return {std::move(plain), std::move(traced)};
}

template <typename F>
std::vector<double> collect(const Phase& ph, F&& f) {
  std::vector<double> out;
  for (const DealRun& d : ph.deals) out.push_back(f(d));
  return out;
}

double notary_sum(const DealRun& d, double Exit::*field) {
  double s = 0;
  for (int k = 0; k < kNotaries; ++k) s += d.exits[k].*field;
  return s;
}

double notary_io_sum(const DealRun& d, double Io::*field) {
  double s = 0;
  for (int k = 0; k < kNotaries; ++k) s += d.exits[k].io.*field;
  return s;
}

}  // namespace

Result run_node_committee(const Options& opt, SpanLog& spans, NodeMode mode) {
  install_child_cleanup();
  const Sizes sz = sizes(opt);
  Runner rn{opt, mode, self_dir() + "/xcp_node",
            "build-bench/tmp/" + std::to_string(::getpid())};
  if (::access(rn.bin.c_str(), X_OK) != 0) {
    throw std::runtime_error("xcp_node not found at " + rn.bin);
  }
  fs::create_directories(rn.root);
  struct RemoveRoot {
    std::string path;
    ~RemoveRoot() {
      std::error_code ec;
      fs::remove_all(path, ec);
    }
  } remove_root{rn.root};

  Result r;
  const std::string keep_journal = rn.root + "/first-deal.wal";
  const auto [plain, traced] = run_deals(
      rn, spans, mode == NodeMode::kTcpJournal ? keep_journal : "", r);
  if (plain.deals.empty() || (opt.trace && traced.deals.empty())) {
    r.checks_ok = false;
    r.note("FAIL no deal succeeded");
    return r;
  }
  const double deals = static_cast<double>(plain.deals.size());
  r.note("sample: " + std::to_string(plain.deals.size()) + " untraced + " +
         std::to_string(traced.deals.size()) + " traced deals, " +
         std::to_string(kNotaries) + " notaries + 1 client per deal, " +
         (mode == NodeMode::kUnix ? "unix sockets" : "loopback TCP + journal"));

  // Exact values over the deal prefix, in deal order (the prefix succeeded
  // in full when the run is correct, so every run covers the same deals).
  // Journal sizes are not among them: a notary that receives the decision
  // certificate before its own precommit quorum journals fewer records, so
  // they depend on socket timing.
  std::vector<const DealRun*> ordered;
  for (const Phase* ph : {&plain, &traced}) {
    for (const DealRun& d : ph->deals) ordered.push_back(&d);
  }
  std::sort(ordered.begin(), ordered.end(),
            [](const DealRun* a, const DealRun* b) {
              return a->index < b->index;
            });
  std::uint64_t outcomes = 0;
  const std::size_t prefix = std::min(sz.exact_deals, ordered.size());
  for (std::size_t i = 0; i < prefix; ++i) {
    for (char ch : ordered[i]->outcome_line) {
      outcomes = mix64(outcomes ^ static_cast<unsigned char>(ch));
    }
    outcomes = mix64(outcomes ^ ordered[i]->cert_hex.size());
  }
  r.exact["prefix_deals"] = std::to_string(prefix);
  r.exact["prefix_outcome_digest"] = std::to_string(outcomes);
  r.exact["cert_bytes"] = std::to_string(ordered.front()->cert_hex.size() / 2);

  if (!opt.trace) {
    r.metrics["setup_s"] = median(collect(plain, [](const DealRun& d) {
                             return d.setup_ms() * d.speed;
                           })) /
                           1e3;
    r.metrics["deals_per_s"] = deals / plain.wall_s;
    const std::vector<double> lat =
        collect(plain, [](const DealRun& d) { return d.deal_ms(); });
    r.metrics["deal_ms_p50"] = quantile(lat, 0.50);
    r.metrics["deal_ms_p95"] = quantile(lat, 0.95);
    // CPU is summed over the 5 processes of a deal; peak RSS is a notary's.
    // Medians, so one slow exec does not move them. Set-up and CPU are CPU
    // work, scaled to the reference speed; deal latency and throughput are
    // set by timers (dial backoff, linger) and stay as measured.
    r.metrics["cpu_ms_per_deal"] = median(collect(plain, [](const DealRun& d) {
      return (notary_sum(d, &Exit::cpu_ms) + d.exits[kNotaries].cpu_ms) *
             d.speed;
    }));
    std::vector<double> notary_rss_kb;
    for (const DealRun& d : plain.deals) {
      for (double kb : d.notary_hwm_kb) {
        if (kb > 0) notary_rss_kb.push_back(kb);
      }
    }
    r.metrics["peak_rss_mb"] = median(std::move(notary_rss_kb)) / 1024.0;
    return r;
  }

  const auto per_notary = [&](auto f) {
    return mean(collect(traced, f)) / kNotaries;
  };
  r.metrics["node.spawn_ms"] = mean(collect(traced, [](const DealRun& d) {
    return ns_to_ms(d.spawn_ns) / kNodes * d.speed;
  }));
  r.metrics["node.notary_cpu_ms"] = per_notary(
      [](const DealRun& d) { return notary_sum(d, &Exit::cpu_ms) * d.speed; });
  r.metrics["node.client_cpu_ms"] = mean(collect(traced, [](const DealRun& d) {
    return d.exits[kNotaries].cpu_ms * d.speed;
  }));
  r.metrics["node.notary_wakeups"] = per_notary([](const DealRun& d) {
    return notary_sum(d, &Exit::voluntary_switches);
  });
  r.metrics["node.notary_maxrss_kb"] = 0;
  for (const DealRun& d : traced.deals) {
    for (double kb : d.notary_hwm_kb) {
      r.metrics["node.notary_maxrss_kb"] =
          std::max(r.metrics["node.notary_maxrss_kb"], kb);
    }
  }
  r.metrics["node.setup_retries"] = static_cast<double>(rn.setup_retries);
  r.metrics["node.notary_file_writes"] =
      per_notary([](const DealRun& d) { return notary_io_sum(d, &Io::syscw); });
  r.metrics["node.notary_file_bytes_written"] =
      per_notary([](const DealRun& d) { return notary_io_sum(d, &Io::wchar); });
  if (mode == NodeMode::kTcpJournal) {
    const auto traced_mean = [&](auto f) { return mean(collect(traced, f)); };
    r.metrics["net.loopback_bytes_per_deal"] =
        traced_mean([](const DealRun& d) { return d.net.lo_bytes; });
    r.metrics["net.tcp_segments_per_deal"] =
        traced_mean([](const DealRun& d) { return d.net.tcp_segments; });
    r.metrics["wal.records_per_deal"] = traced_mean(
        [](const DealRun& d) { return static_cast<double>(d.wal_records); });
    r.metrics["wal.bytes_per_deal"] = traced_mean(
        [](const DealRun& d) { return static_cast<double>(d.wal_bytes); });
  }
  const auto latency = [](const DealRun& d) { return d.deal_ms(); };
  r.metrics["trace_overhead_pct"] =
      (median(collect(traced, latency)) / median(collect(plain, latency)) -
       1.0) *
      100.0;
  r.metrics["unattributed_pct"] =
      mean(collect(traced, [](const DealRun& d) {
        std::vector<std::pair<std::int64_t, std::int64_t>> children;
        if (d.t_client_listen >= 0) {
          children.emplace_back(d.t_client, d.t_client_listen);
        }
        return static_cast<double>(
                   uncovered_ns(d.t_client, d.t_outcome, children)) /
               static_cast<double>(d.t_outcome - d.t_client);
      })) *
      100.0;

  // The layer probes on this workload's own artifacts: the first deal's
  // certificate and (journaled mode) its first notary's journal.
  const DealRun& first_run = plain.deals.front();
  const DealSpec first = deal_spec(opt, first_run.index);
  measure_cert_layers(first.sc, parse_cert_hex(first.sc, first_run.cert_hex),
                      r);
  if (mode == NodeMode::kTcpJournal) {
    measure_wal_layers(keep_journal, rn.root, r);
  }
  return r;
}

}  // namespace xcp::bench
