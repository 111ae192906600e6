#include "net/socket_transport.hpp"

// xcp-lint: allow-file(determinism-wall-clock) socket supervision
// (connect retries, heartbeat cadence, peer liveness) is inherently
// wall-clock; protocol state transitions consume only message payloads.

#include <arpa/inet.h>
#include <fcntl.h>
#include <linux/sockios.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/ioctl.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstdlib>
#include <cstring>
#include <span>
#include <stdexcept>

#include "support/rng.hpp"

namespace xcp::net {
namespace {

[[noreturn]] void sys_fail(const std::string& what) {
  throw std::runtime_error("socket transport: " + what + ": " +
                           std::strerror(errno));
}

void set_nonblock_cloexec(int fd) {
  int flags = ::fcntl(fd, F_GETFL, 0);
  if (flags < 0 || ::fcntl(fd, F_SETFL, flags | O_NONBLOCK) < 0) {
    sys_fail("fcntl(O_NONBLOCK)");
  }
  int fdflags = ::fcntl(fd, F_GETFD, 0);
  if (fdflags < 0 || ::fcntl(fd, F_SETFD, fdflags | FD_CLOEXEC) < 0) {
    sys_fail("fcntl(FD_CLOEXEC)");
  }
}

/// Nagle batching only adds round-trip latency here: frames are small and
/// consensus progress is gated on their delivery, never on bulk throughput.
void set_tcp_nodelay(int fd) {
  int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
}

int make_socket(const SocketAddress& addr) {
  const int fd =
      ::socket(addr.is_unix ? AF_UNIX : AF_INET, SOCK_STREAM, 0);
  if (fd < 0) sys_fail("socket");
  set_nonblock_cloexec(fd);
  if (!addr.is_unix) set_tcp_nodelay(fd);
  return fd;
}

/// Fills a sockaddr storage for the address; returns its size.
socklen_t fill_sockaddr(const SocketAddress& addr, sockaddr_storage& out) {
  std::memset(&out, 0, sizeof out);
  if (addr.is_unix) {
    auto* sun = reinterpret_cast<sockaddr_un*>(&out);
    sun->sun_family = AF_UNIX;
    if (addr.path.size() + 1 > sizeof sun->sun_path) {
      throw std::runtime_error("socket transport: unix path too long: " +
                               addr.path);
    }
    std::memcpy(sun->sun_path, addr.path.c_str(), addr.path.size() + 1);
    return static_cast<socklen_t>(sizeof(sockaddr_un));
  }
  auto* sin = reinterpret_cast<sockaddr_in*>(&out);
  sin->sin_family = AF_INET;
  sin->sin_port = htons(addr.port);
  if (::inet_pton(AF_INET, addr.ip.c_str(), &sin->sin_addr) != 1) {
    throw std::runtime_error("socket transport: bad IPv4 address: " +
                             addr.ip);
  }
  return static_cast<socklen_t>(sizeof(sockaddr_in));
}

void close_quietly(int& fd) {
  if (fd >= 0) {
    ::close(fd);
    fd = -1;
  }
}

/// Closes a connection for good. A TCP one with nothing left unacknowledged
/// resets instead of sending a FIN: no byte can be lost, and neither end
/// keeps the connection in TIME_WAIT. A TIME_WAIT entry holds a local port
/// for a minute, so committees run back to back (20 connections each, a
/// few ms apart) would otherwise use up the ephemeral port range. With bytes
/// still in flight it closes gracefully, so they arrive.
void close_for_good(int& fd, bool tcp) {
  int unacked = 0;
  if (tcp && fd >= 0 && ::ioctl(fd, SIOCOUTQ, &unacked) == 0 &&
      unacked == 0) {
    const ::linger reset{1, 0};
    ::setsockopt(fd, SOL_SOCKET, SO_LINGER, &reset, sizeof reset);
  }
  close_quietly(fd);
}

}  // namespace

SocketAddress SocketAddress::parse(const std::string& spec) {
  SocketAddress a;
  if (spec.rfind("unix:", 0) == 0) {
    a.is_unix = true;
    a.path = spec.substr(5);
    if (a.path.empty()) {
      throw std::runtime_error("socket transport: empty unix path in \"" +
                               spec + "\"");
    }
    return a;
  }
  if (spec.rfind("tcp:", 0) == 0) {
    a.is_unix = false;
    const std::string rest = spec.substr(4);
    const std::size_t colon = rest.rfind(':');
    if (colon == std::string::npos || colon == 0 ||
        colon + 1 >= rest.size()) {
      throw std::runtime_error(
          "socket transport: expected tcp:<ipv4>:<port> in \"" + spec +
          "\"");
    }
    a.ip = rest.substr(0, colon);
    const std::string port = rest.substr(colon + 1);
    char* end = nullptr;
    const long v = std::strtol(port.c_str(), &end, 10);
    if (end == nullptr || *end != '\0' || v <= 0 || v > 65535) {
      throw std::runtime_error("socket transport: bad port in \"" + spec +
                               "\"");
    }
    a.port = static_cast<std::uint16_t>(v);
    return a;
  }
  throw std::runtime_error(
      "socket transport: address must start with unix: or tcp: — got \"" +
      spec + "\"");
}

SocketTransport::SocketTransport(std::uint32_t self_node,
                                 const std::string& listen_addr,
                                 SocketTransportOptions opts)
    : self_(self_node),
      listen_addr_(SocketAddress::parse(listen_addr)),
      opts_(opts) {
  if (listen_addr_.is_unix) ::unlink(listen_addr_.path.c_str());
  listen_fd_ = make_socket(listen_addr_);
  if (!listen_addr_.is_unix) {
    int one = 1;
    ::setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof one);
  }
  sockaddr_storage ss;
  const socklen_t len = fill_sockaddr(listen_addr_, ss);
  if (::bind(listen_fd_, reinterpret_cast<sockaddr*>(&ss), len) < 0) {
    sys_fail("bind " + listen_addr);
  }
  if (::listen(listen_fd_, 64) < 0) sys_fail("listen");
  next_heartbeat_ = Clock::now() + opts_.heartbeat_interval;
}

SocketTransport::~SocketTransport() { close(); }

void SocketTransport::close() {
  if (closed_) return;
  closed_ = true;
  close_quietly(listen_fd_);
  for (Peer& p : peers_) close_for_good(p.fd, !p.addr.is_unix);
  for (InConn& c : conns_) close_for_good(c.fd, !listen_addr_.is_unix);
  conns_.clear();
  if (listen_addr_.is_unix) ::unlink(listen_addr_.path.c_str());
}

void SocketTransport::add_peer(std::uint32_t node, const std::string& addr) {
  Peer p;
  p.node = node;
  p.addr = SocketAddress::parse(addr);
  const auto now = Clock::now();
  p.next_dial = now;
  p.last_heard = now;  // grace: the death clock starts at registration
  peers_.push_back(std::move(p));
}

void SocketTransport::map_pid(sim::ProcessId pid, std::uint32_t node) {
  pid_to_node_[pid.value()] = node;
}

SocketTransport::Peer* SocketTransport::peer_for(std::uint32_t node) {
  for (Peer& p : peers_) {
    if (p.node == node) return &p;
  }
  return nullptr;
}

const SocketTransport::Peer* SocketTransport::peer_for(
    std::uint32_t node) const {
  for (const Peer& p : peers_) {
    if (p.node == node) return &p;
  }
  return nullptr;
}

bool SocketTransport::peer_up(std::uint32_t node) const {
  const Peer* p = peer_for(node);
  return p != nullptr && !p->down;
}

bool SocketTransport::peer_connected(std::uint32_t node) const {
  const Peer* p = peer_for(node);
  return p != nullptr && p->fd >= 0 && !p->connecting;
}

std::chrono::milliseconds dial_backoff(const SocketTransportOptions& opts,
                                       std::uint32_t node, int attempt) {
  // Deterministic backoff: exponential in the attempt number, capped, with
  // seeded multiplicative jitter keyed by (peer node, attempt) so schedules
  // are reproducible per deployment.
  // The exponentiation stops the moment the cap is reached and the jitter
  // key saturates with it, so a peer that has been unreachable for days
  // costs the same as one that failed a handful of times.
  const int k = std::max(1, attempt);
  const double cap = static_cast<double>(opts.reconnect_cap.count());
  double ms = static_cast<double>(opts.reconnect_base.count());
  int steps = 1;
  for (; steps < k && ms < cap; ++steps) ms *= opts.reconnect_multiplier;
  ms = std::min(ms, cap);
  const int jitter_key = std::min(k, steps + 1);  // saturated with the cap
  if (opts.reconnect_jitter > 0.0) {
    std::uint64_t state =
        opts.jitter_seed ^
        (0x9e3779b97f4a7c15ull * (static_cast<std::uint64_t>(node) + 1) +
         static_cast<std::uint64_t>(jitter_key));
    Rng rng(splitmix64(state));
    ms *= rng.next_double(1.0 - opts.reconnect_jitter,
                          1.0 + opts.reconnect_jitter);
  }
  return std::chrono::milliseconds(
      std::max<std::int64_t>(1, static_cast<std::int64_t>(ms)));
}

SocketTransport::Millis SocketTransport::backoff_before(const Peer& p) const {
  return dial_backoff(opts_, p.node, p.attempt);
}

int SocketTransport::reconnect_attempt(std::uint32_t node) const {
  const Peer* p = peer_for(node);
  return p == nullptr ? -1 : p->attempt;
}

void SocketTransport::dial(Peer& p, Clock::time_point now) {
  ++stats_.dial_attempts;
  if (p.attempt > 0) ++stats_.reconnects;
  int fd = -1;
  try {
    fd = make_socket(p.addr);
    sockaddr_storage ss;
    const socklen_t len = fill_sockaddr(p.addr, ss);
    const int rc = ::connect(fd, reinterpret_cast<sockaddr*>(&ss), len);
    if (rc == 0) {
      p.fd = fd;
      on_dialed(p, now);
      return;
    }
    if (errno == EINPROGRESS) {
      p.fd = fd;
      p.connecting = true;
      return;
    }
  } catch (const std::runtime_error&) {
    // fall through to failure handling
  }
  close_quietly(fd);
  dial_failed(p, now);
}

void SocketTransport::on_dialed(Peer& p, Clock::time_point now) {
  p.connecting = false;
  p.attempt = 0;
  // The hello frame must precede anything queued before the connection
  // existed; tx_off is 0 here (cleared on every disconnect).
  ControlFrame hello;
  hello.kind = WireKind::kHello;
  hello.a = self_;
  hello.b = hello_status_;
  std::vector<std::uint8_t> payload;
  serialize_control(hello, payload);
  std::vector<std::uint8_t> framed;
  append_stream_frame(framed, payload.data(), payload.size());
  p.tx.insert(p.tx.begin(), framed.begin(), framed.end());
  ++stats_.frames_sent;
  // A rejoiner repeats its catch-up request on every fresh connection: the
  // first peers it reaches may themselves be undecided, and re-dials after
  // a disconnect must not silently drop the request.
  if (catchup_instance_) {
    ControlFrame cu;
    cu.kind = WireKind::kCatchUp;
    cu.a = *catchup_instance_;
    cu.b = hello_status_;
    queue_control(p, cu, now);
    ++stats_.catchup_requests_sent;
  }
  flush(p, now);
}

void SocketTransport::queue_control(Peer& p, const ControlFrame& f,
                                    Clock::time_point now) {
  std::vector<std::uint8_t> payload;
  serialize_control(f, payload);
  queue_frame(p, payload, now);
}

void SocketTransport::set_hello_status(std::uint64_t status) {
  if (hello_status_ == status) return;
  hello_status_ = status;
  // Re-announce on every established connection so peers see the
  // transition without waiting for a redial.
  const auto now = Clock::now();
  ControlFrame hello;
  hello.kind = WireKind::kHello;
  hello.a = self_;
  hello.b = hello_status_;
  for (Peer& p : peers_) {
    if (p.fd >= 0 && !p.connecting) queue_control(p, hello, now);
  }
}

void SocketTransport::request_catchup(std::uint64_t instance) {
  catchup_instance_ = instance;
  const auto now = Clock::now();
  ControlFrame cu;
  cu.kind = WireKind::kCatchUp;
  cu.a = instance;
  cu.b = hello_status_;
  for (Peer& p : peers_) {
    if (p.fd >= 0 && !p.connecting) {
      queue_control(p, cu, now);
      ++stats_.catchup_requests_sent;
    }
  }
}

void SocketTransport::dial_failed(Peer& p, Clock::time_point now) {
  close_quietly(p.fd);
  p.connecting = false;
  p.attempt += 1;
  p.next_dial = now + backoff_before(p);
}

void SocketTransport::disconnect(Peer& p, Clock::time_point now) {
  ++stats_.disconnects;
  close_quietly(p.fd);
  p.connecting = false;
  // Bytes already handed to a broken connection are in an unknown state;
  // resuming mid-frame would corrupt the stream, so pending output is
  // dropped (real message loss — the protocols tolerate it) and the next
  // connection starts clean.
  p.tx.clear();
  p.tx_off = 0;
  p.attempt = std::max(1, p.attempt + 1);
  p.next_dial = now + backoff_before(p);
}

void SocketTransport::queue_frame(Peer& p,
                                  const std::vector<std::uint8_t>& payload,
                                  Clock::time_point now) {
  const std::size_t pending = p.tx.size() - p.tx_off;
  if (pending + payload.size() + 4 > opts_.max_queued_bytes) {
    ++stats_.sends_dropped;
    return;
  }
  append_stream_frame(p.tx, payload.data(), payload.size());
  ++stats_.frames_sent;
  if (p.fd >= 0 && !p.connecting) flush(p, now);
}

void SocketTransport::flush(Peer& p, Clock::time_point now) {
  while (p.tx_off < p.tx.size()) {
    const std::size_t left = p.tx.size() - p.tx_off;
#ifdef MSG_NOSIGNAL
    const ssize_t n =
        ::send(p.fd, p.tx.data() + p.tx_off, left, MSG_NOSIGNAL);
#else
    const ssize_t n = ::write(p.fd, p.tx.data() + p.tx_off, left);
#endif
    if (n > 0) {
      p.tx_off += static_cast<std::size_t>(n);
      continue;
    }
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) return;
    if (n < 0 && errno == EINTR) continue;
    disconnect(p, now);
    return;
  }
  p.tx.clear();
  p.tx_off = 0;
}

void SocketTransport::send(const Message& m) {
  const auto it = pid_to_node_.find(m.to.value());
  if (it == pid_to_node_.end()) {
    ++stats_.sends_dropped;
    return;
  }
  const std::uint32_t node = it->second;
  std::vector<std::uint8_t> payload;
  try {
    serialize_message(m, payload, opts_.wire);
  } catch (const support::ByteError&) {
    ++stats_.sends_dropped;
    return;
  }
  if (node == self_) {
    // Loopback through the codec so local and remote delivery agree.
    try {
      Message copy = parse_message(payload.data(), payload.size(), opts_.wire);
      ++stats_.messages_sent;
      ++stats_.messages_received;
      if (receive_) receive_(std::move(copy));
    } catch (const support::ByteError&) {
      ++stats_.wire_rejects;
    }
    return;
  }
  Peer* p = peer_for(node);
  if (p == nullptr || p->down) {
    // A down peer is the paper's crashed participant: sends evaporate.
    ++stats_.sends_dropped;
    return;
  }
  ++stats_.messages_sent;
  queue_frame(*p, payload, Clock::now());
}

void SocketTransport::heard_from(std::int64_t node, Clock::time_point now,
                                 bool hello) {
  if (node < 0) return;
  Peer* p = peer_for(static_cast<std::uint32_t>(node));
  if (p == nullptr) return;
  p->last_heard = now;
  if (p->down) {
    p->down = false;
    ++stats_.peers_resurrected;
  }
  // A Hello proves the peer is alive with its listener bound (a transport
  // binds before it ever dials): if our link to it is idle, dial now instead
  // of sitting out the backoff. Success resets the attempt count; failure
  // resumes the backoff where it was. Heartbeats and messages never trigger
  // this, so a peer we cannot reach costs at most one extra dial per Hello
  // it sends, not one per heartbeat.
  if (hello && p->fd < 0) p->next_dial = now;
}

bool SocketTransport::read_conn(InConn& c, Clock::time_point now) {
  for (;;) {
    // drain_frames leaves less than one whole frame, so there is room.
    const std::size_t room = rx_capacity() - c.rx_len;
    const ssize_t n = ::recv(c.fd, c.rx.get() + c.rx_len, room, 0);
    if (n > 0) {
      c.rx_len += static_cast<std::size_t>(n);
      if (!drain_frames(c, now)) return false;
      if (static_cast<std::size_t>(n) < room) return true;
      continue;
    }
    if (n == 0) return false;  // EOF
    if (errno == EAGAIN || errno == EWOULDBLOCK) return true;
    if (errno == EINTR) continue;
    return false;
  }
}

bool SocketTransport::drain_frames(InConn& c, Clock::time_point now) {
  std::size_t off = 0;
  std::span<const std::uint8_t> frame;
  try {
    while (extract_stream_frame({c.rx.get(), c.rx_len}, off, frame,
                                opts_.max_frame_bytes)) {
      ParsedFrame pf = parse_frame(frame.data(), frame.size(), opts_.wire);
      ++stats_.frames_received;
      if (pf.is_control()) {
        if (pf.control.kind == WireKind::kHello) {
          c.node = static_cast<std::int64_t>(pf.control.a);
          ++stats_.hellos_received;
          heard_from(c.node, now, /*hello=*/true);
          if (peer_status_ && c.node >= 0) {
            peer_status_(static_cast<std::uint32_t>(c.node), pf.control.b);
          }
        } else if (pf.control.kind == WireKind::kCatchUp) {
          ++stats_.catchup_requests_received;
          heard_from(c.node, now);
          // A catch-up from a connection that never said Hello has no
          // identity to answer to; ignore it (the protocol requires Hello
          // first and our dialer always sends it first).
          if (catchup_ && c.node >= 0) {
            catchup_(static_cast<std::uint32_t>(c.node), pf.control.a,
                     pf.control.b);
          }
        } else {
          ++stats_.heartbeats_received;
          heard_from(c.node, now);
        }
      } else {
        ++stats_.messages_received;
        heard_from(c.node, now);
        if (receive_) receive_(std::move(pf.message));
      }
    }
  } catch (const support::ByteError&) {
    // A corrupting peer looks like a crashing one: count it, drop the
    // connection, keep the process alive.
    ++stats_.wire_rejects;
    return false;
  }
  if (off > 0) {
    c.rx_len -= off;
    std::memmove(c.rx.get(), c.rx.get() + off, c.rx_len);
  }
  return true;
}

void SocketTransport::emit_heartbeats(Clock::time_point now) {
  if (now < next_heartbeat_) return;
  ControlFrame hb;
  hb.kind = WireKind::kHeartbeat;
  hb.a = heartbeat_seq_++;
  heartbeat_payload_.clear();
  serialize_control(hb, heartbeat_payload_);
  for (Peer& p : peers_) {
    if (p.fd < 0 || p.connecting) continue;
    queue_frame(p, heartbeat_payload_, now);
    ++stats_.heartbeats_sent;
  }
  next_heartbeat_ = now + opts_.heartbeat_interval;
}

void SocketTransport::check_deadlines(Clock::time_point now) {
  for (Peer& p : peers_) {
    if (p.down) continue;
    const auto silent =
        std::chrono::duration_cast<Millis>(now - p.last_heard);
    if (silent > opts_.peer_timeout) {
      p.down = true;
      ++stats_.peers_down;
      if (peer_down_) peer_down_(p.node, silent);
    }
  }
}

bool SocketTransport::pump(Millis max_wait) {
  if (closed_) return false;
  auto now = Clock::now();

  for (Peer& p : peers_) {
    if (p.fd < 0 && now >= p.next_dial) dial(p, now);
  }
  emit_heartbeats(now);
  check_deadlines(now);

  // poll set: listener, accepted conns, dialed conns (member scratch).
  std::vector<pollfd>& fds = poll_fds_;
  std::vector<std::pair<Slot, std::size_t>>& slots = poll_slots_;
  fds.clear();
  slots.clear();
  if (listen_fd_ >= 0) {
    fds.push_back({listen_fd_, POLLIN, 0});
    slots.emplace_back(Slot::kListener, 0);
  }
  for (std::size_t i = 0; i < conns_.size(); ++i) {
    fds.push_back({conns_[i].fd, POLLIN, 0});
    slots.emplace_back(Slot::kConn, i);
  }
  for (std::size_t i = 0; i < peers_.size(); ++i) {
    Peer& p = peers_[i];
    if (p.fd < 0) continue;
    short events = POLLIN;
    if (p.connecting || p.tx_off < p.tx.size()) events |= POLLOUT;
    fds.push_back({p.fd, events, 0});
    slots.emplace_back(Slot::kPeer, i);
  }

  // Wake in time for the nearest scheduled obligation: a due dial, the
  // next heartbeat, or a peer-death deadline. The wait rounds up, so one
  // under a millisecond away is slept through (firing at most 1 ms late)
  // instead of being polled for with zero timeouts until it is due.
  std::int64_t wait_ms = max_wait.count();
  auto consider = [&](Clock::time_point at) {
    const auto d = std::chrono::ceil<Millis>(at - now).count();
    wait_ms = std::min(wait_ms, std::max<std::int64_t>(0, d));
  };
  consider(next_heartbeat_);
  for (const Peer& p : peers_) {
    if (p.fd < 0) consider(p.next_dial);
    if (!p.down) consider(p.last_heard + opts_.peer_timeout + Millis(1));
  }

  const std::uint64_t received_before = stats_.messages_received;
  const int rc =
      ::poll(fds.data(), static_cast<nfds_t>(fds.size()),
             static_cast<int>(std::clamp<std::int64_t>(wait_ms, 0, 60'000)));
  now = Clock::now();
  if (rc > 0) {
    for (std::size_t i = 0; i < fds.size(); ++i) {
      const short got = fds[i].revents;
      if (got == 0) continue;
      const auto [slot, idx] = slots[i];
      switch (slot) {
        case Slot::kListener: {
          for (;;) {
            const int cfd = ::accept(listen_fd_, nullptr, nullptr);
            if (cfd < 0) break;
            set_nonblock_cloexec(cfd);
            if (!listen_addr_.is_unix) set_tcp_nodelay(cfd);
            InConn c;
            c.fd = cfd;
            c.rx = std::make_unique_for_overwrite<std::uint8_t[]>(
                rx_capacity());
            conns_.push_back(std::move(c));
          }
          break;
        }
        case Slot::kConn: {
          InConn& c = conns_[idx];
          if (!read_conn(c, now)) {
            close_quietly(c.fd);  // compacted below
          }
          break;
        }
        case Slot::kPeer: {
          Peer& p = peers_[idx];
          if (p.fd < 0) break;
          if (p.connecting) {
            if (got & (POLLOUT | POLLERR | POLLHUP)) {
              int err = 0;
              socklen_t len = sizeof err;
              ::getsockopt(p.fd, SOL_SOCKET, SO_ERROR, &err, &len);
              if (err == 0 && !(got & (POLLERR | POLLHUP))) {
                on_dialed(p, now);
              } else {
                dial_failed(p, now);
              }
            }
            break;
          }
          if (got & (POLLERR | POLLHUP)) {
            disconnect(p, now);
            break;
          }
          if (got & POLLIN) {
            // The remote never sends protocol frames on our dialed
            // connection; readable here means EOF or stray bytes. Drain
            // and detect close.
            std::uint8_t buf[256];
            const ssize_t n = ::recv(p.fd, buf, sizeof buf, 0);
            if (n == 0 ||
                (n < 0 && errno != EAGAIN && errno != EWOULDBLOCK &&
                 errno != EINTR)) {
              disconnect(p, now);
              break;
            }
          }
          if (got & POLLOUT) flush(p, now);
          break;
        }
      }
    }
  }
  // Compact closed accepted connections.
  conns_.erase(std::remove_if(conns_.begin(), conns_.end(),
                              [](const InConn& c) { return c.fd < 0; }),
               conns_.end());

  emit_heartbeats(now);
  check_deadlines(now);
  return stats_.messages_received > received_before;
}

}  // namespace xcp::net
