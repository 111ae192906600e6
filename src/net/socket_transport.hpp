#pragma once
// The supervised socket backend of the net::Transport seam: real
// non-blocking sockets between processes, multiplexed by one poll() loop.
//
// Topology: every node listens on one address and dials one outbound
// connection to each peer. Sends travel only on the dialed connection;
// accepted connections are receive-only and identify themselves with a
// Hello control frame. Two simplex channels per pair keeps connection
// management trivially race-free (no simultaneous-open dedup).
//
// Supervision:
//  - length-prefix framing survives partial reads and short writes (frames
//    are reassembled per-connection; writes keep a bounded pending buffer);
//  - a failed or broken dial retries with bounded deterministic
//    exponential backoff + jitter (splitmix64-seeded, so schedules are
//    reproducible); a Hello from a peer whose outbound link is idle cuts
//    that backoff short and dials it at once, so links come up when the
//    peer does (only Hellos do this, never heartbeats or messages, and a
//    failed Hello dial resumes the backoff where it was);
//  - liveness is heartbeat-based: every established outbound connection
//    carries a Heartbeat control frame each heartbeat_interval, and a peer
//    from which nothing (hello/heartbeat/message) has been heard for
//    peer_timeout is declared down — once, via the peer-down handler;
//  - degradation is graceful: sends to a down peer are counted and
//    dropped, which is exactly the paper's crashed-participant semantics
//    (the protocol tolerates f such crashes); a peer that speaks again is
//    resurrected (and redialled at once if it speaks with a Hello).
//
// Everything malformed on a connection raises/absorbs support::ByteError and
// drops that connection (never the process): a byte-corrupting peer looks
// like a crashing one.
//
// Single-threaded by design: pump() runs one poll iteration; the caller
// (net/node_runtime.hpp) interleaves pumps with simulator slices.

#include <poll.h>

#include <chrono>
#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "net/network.hpp"
#include "net/wire.hpp"

namespace xcp::net {

/// "unix:<path>" or "tcp:<ipv4>:<port>" (numeric only; this is a lab
/// transport, not a resolver).
struct SocketAddress {
  bool is_unix = true;
  std::string path;  // unix form
  std::string ip;    // tcp form
  std::uint16_t port = 0;

  /// Throws std::runtime_error on anything it cannot parse.
  static SocketAddress parse(const std::string& spec);
};

struct SocketTransportOptions {
  std::chrono::milliseconds heartbeat_interval{100};
  /// Silence longer than this declares the peer down (grace-started at
  /// add_peer time, so slow-starting peers are not declared dead early).
  std::chrono::milliseconds peer_timeout{1000};
  std::chrono::milliseconds reconnect_base{25};
  double reconnect_multiplier = 2.0;
  std::chrono::milliseconds reconnect_cap{1000};
  double reconnect_jitter = 0.25;  // +/- fraction of the backoff
  std::uint64_t jitter_seed = 0x9e3779b97f4a7c15ull;
  std::size_t max_frame_bytes = kMaxWireFrame;
  /// Per-peer pending outbound cap; sends past it are dropped (counted).
  std::size_t max_queued_bytes = std::size_t{8} << 20;
  WireContext wire;  // committee roster for participation-bitmap certs
};

struct SocketTransportStats {
  std::uint64_t frames_sent = 0;
  std::uint64_t frames_received = 0;
  std::uint64_t messages_sent = 0;
  std::uint64_t messages_received = 0;
  std::uint64_t heartbeats_sent = 0;
  std::uint64_t heartbeats_received = 0;
  std::uint64_t wire_rejects = 0;     // ByteError on an inbound frame
  std::uint64_t dial_attempts = 0;
  std::uint64_t reconnects = 0;       // dial attempts after the first
  std::uint64_t disconnects = 0;      // established connections lost
  std::uint64_t peers_down = 0;       // heartbeat deadline expiries
  std::uint64_t peers_resurrected = 0;
  std::uint64_t sends_dropped = 0;    // to down/unmapped peers or over cap
  std::uint64_t catchup_requests_sent = 0;
  std::uint64_t catchup_requests_received = 0;
  std::uint64_t hellos_received = 0;
};

/// The deterministic dial backoff: exponential in `attempt` (>= 1) from
/// reconnect_base, hard-capped at reconnect_cap (the loop exits as soon as
/// the cap is reached, so arbitrarily large attempt counts neither overflow
/// nor cost O(attempt) work), with splitmix64 jitter keyed by (node,
/// attempt). Exposed as a free function so the plateau is testable without
/// thousands of real failed dials.
std::chrono::milliseconds dial_backoff(const SocketTransportOptions& opts,
                                       std::uint32_t node, int attempt);

class SocketTransport final : public Transport {
 public:
  using Clock = std::chrono::steady_clock;
  using Millis = std::chrono::milliseconds;

  /// Binds the listener immediately; throws std::runtime_error on failure.
  SocketTransport(std::uint32_t self_node, const std::string& listen_addr,
                  SocketTransportOptions opts = {});
  ~SocketTransport() override;

  SocketTransport(const SocketTransport&) = delete;
  SocketTransport& operator=(const SocketTransport&) = delete;

  /// Declares a peer node and its listen address. Dialing starts at the
  /// next pump().
  void add_peer(std::uint32_t node, const std::string& addr);

  /// Routes a protocol process id to a peer node (or to self, for ids
  /// hosted here — such sends are handed to the receive handler directly).
  void map_pid(sim::ProcessId pid, std::uint32_t node);

  void set_receive_handler(std::function<void(Message&&)> handler) {
    receive_ = std::move(handler);
  }
  /// Called exactly once per down transition, with how long the peer had
  /// been silent when declared.
  void set_peer_down_handler(
      std::function<void(std::uint32_t node, Millis silent)> handler) {
    peer_down_ = std::move(handler);
  }

  // --- crash-recovery extension (docs/ROBUSTNESS.md, crash-recovery rung)

  /// Sets the status word carried in every Hello this node sends (its
  /// journaled protocol state; see docs/WIRE.md for the bit layout). A
  /// change is re-announced immediately on every established connection, so
  /// peers track state transitions (e.g. voted -> decided) without a redial.
  void set_hello_status(std::uint64_t status);
  std::uint64_t hello_status() const { return hello_status_; }

  /// Called for every Hello received, with the sender's status word —
  /// including re-announcements. This is how a survivor notices that a
  /// resurrected peer came back behind (and owes it a state transfer).
  void set_peer_status_handler(
      std::function<void(std::uint32_t node, std::uint64_t status)> handler) {
    peer_status_ = std::move(handler);
  }

  /// Starts requesting catch-up for `instance`: a CatchUp control frame
  /// (carrying the current hello status) goes out on every established
  /// connection now and on every future dial until cancel_catchup(). The
  /// answers arrive as ordinary protocol messages.
  void request_catchup(std::uint64_t instance);
  void cancel_catchup() { catchup_instance_.reset(); }
  bool catchup_active() const { return catchup_instance_.has_value(); }

  /// Called when a peer asks to be caught up on `instance`; `status` is the
  /// requester's announced state.
  void set_catchup_handler(
      std::function<void(std::uint32_t node, std::uint64_t instance,
                         std::uint64_t status)>
          handler) {
    catchup_ = std::move(handler);
  }

  /// Dial attempts since the last successful connect to `node` (-1 when the
  /// node is unknown). Test accessor for the backoff/reset regressions.
  int reconnect_attempt(std::uint32_t node) const;

  // Transport:
  void send(const Message& m) override;

  /// One supervision + multiplexing step: dials due peers, flushes pending
  /// writes, reads and dispatches inbound frames, emits due heartbeats,
  /// applies the peer-death deadline. Blocks in poll() at most `max_wait`,
  /// and less when a dial, heartbeat or peer deadline falls due sooner; that
  /// wait is rounded up to whole milliseconds, so an obligation fires at
  /// most 1 ms late and a pump never spins on one that is not yet due.
  /// Returns true if at least one protocol message was received.
  bool pump(Millis max_wait);

  /// True until the peer's heartbeat deadline expires (and again after a
  /// resurrection).
  bool peer_up(std::uint32_t node) const;
  bool peer_connected(std::uint32_t node) const;

  const SocketTransportStats& stats() const { return stats_; }
  std::uint32_t self_node() const { return self_; }

  /// Closes every fd (listener, dialed, accepted). Idempotent; the
  /// destructor calls it. A TCP connection with nothing unacknowledged is
  /// reset rather than shut down, so it leaves no TIME_WAIT entry behind.
  void close();

 private:
  struct Peer {
    std::uint32_t node = 0;
    SocketAddress addr;
    int fd = -1;
    bool connecting = false;
    std::vector<std::uint8_t> tx;  // pending outbound bytes
    std::size_t tx_off = 0;        // bytes of tx already written
    int attempt = 0;               // dial attempts since last success
    Clock::time_point next_dial;
    Clock::time_point last_heard;
    bool down = false;
  };

  /// An accepted (receive-only) connection; `node` is unknown (-1) until
  /// the Hello frame arrives. `rx` is allocated once, at accept, with room
  /// for the largest legal frame (rx_capacity()): recv fills its free tail,
  /// whole frames are parsed in place and the partial frame left over moves
  /// to the front. However many frames pile up in the socket, the buffer
  /// never grows; its pages are touched only as bytes arrive.
  struct InConn {
    int fd = -1;
    std::unique_ptr<std::uint8_t[]> rx;
    std::size_t rx_len = 0;
    std::int64_t node = -1;
  };

  Peer* peer_for(std::uint32_t node);
  const Peer* peer_for(std::uint32_t node) const;
  void dial(Peer& p, Clock::time_point now);
  void on_dialed(Peer& p, Clock::time_point now);
  void dial_failed(Peer& p, Clock::time_point now);
  void disconnect(Peer& p, Clock::time_point now);
  Millis backoff_before(const Peer& p) const;
  void flush(Peer& p, Clock::time_point now);
  void queue_frame(Peer& p, const std::vector<std::uint8_t>& payload,
                   Clock::time_point now);
  void queue_control(Peer& p, const ControlFrame& f, Clock::time_point now);
  std::size_t rx_capacity() const { return 4 + opts_.max_frame_bytes; }
  bool read_conn(InConn& c, Clock::time_point now);  // false = drop conn
  bool drain_frames(InConn& c, Clock::time_point now);  // false = drop conn
  void heard_from(std::int64_t node, Clock::time_point now,
                  bool hello = false);
  void check_deadlines(Clock::time_point now);
  void emit_heartbeats(Clock::time_point now);

  std::uint32_t self_;
  SocketAddress listen_addr_;
  int listen_fd_ = -1;
  SocketTransportOptions opts_;
  std::vector<Peer> peers_;
  std::vector<InConn> conns_;
  std::unordered_map<std::uint32_t, std::uint32_t> pid_to_node_;
  std::function<void(Message&&)> receive_;
  std::function<void(std::uint32_t, Millis)> peer_down_;
  std::function<void(std::uint32_t, std::uint64_t)> peer_status_;
  std::function<void(std::uint32_t, std::uint64_t, std::uint64_t)> catchup_;
  std::uint64_t hello_status_ = 0;
  std::optional<std::uint64_t> catchup_instance_;
  Clock::time_point next_heartbeat_;
  std::uint64_t heartbeat_seq_ = 0;
  // Per-pump scratch, kept for its capacity (an idle pump allocates nothing).
  enum class Slot { kListener, kConn, kPeer };
  std::vector<pollfd> poll_fds_;
  std::vector<std::pair<Slot, std::size_t>> poll_slots_;
  std::vector<std::uint8_t> heartbeat_payload_;
  SocketTransportStats stats_;
  bool closed_ = false;
};

}  // namespace xcp::net
