// Transport-seam tests: gateway interception semantics, the in-sim
// SimTransport differential, supervised SocketTransport behaviour
// (framing, reconnect, heartbeat death, resurrection, garbage rejection)
// between two in-process endpoints, and the multi-process committee
// differential that spawns real xcp_node processes over unix sockets —
// including the kill -9 degradation demanded by the robustness criteria.

#include <gtest/gtest.h>

#include <signal.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <chrono>
#include <cstdint>
#include <cstring>
#include <functional>
#include <limits>
#include <memory>
#include <optional>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "consensus/standalone.hpp"
#include "net/node_runtime.hpp"
#include "net/socket_transport.hpp"
#include "net/transport.hpp"
#include "net/wire.hpp"
#include "node_process.hpp"
#include "proto/bodies.hpp"

namespace xcp {
namespace {

using namespace std::chrono_literals;
using net::Message;

// ------------------------------------------------------------- helpers

class SeamSink final : public net::Actor {
 public:
  void on_message(const Message& m) override { received.push_back(m); }
  std::vector<Message> received;
};

class RecordingTransport final : public net::Transport {
 public:
  void send(const Message& m) override { sent.push_back(m); }
  std::vector<Message> sent;
};

/// Pumps every transport in turn until `pred` holds or `budget` elapses.
bool pump_until(std::vector<net::SocketTransport*> ts,
                const std::function<bool()>& pred,
                std::chrono::milliseconds budget) {
  const auto deadline = std::chrono::steady_clock::now() + budget;
  while (std::chrono::steady_clock::now() < deadline) {
    for (auto* t : ts) t->pump(2ms);
    if (pred()) return true;
  }
  return pred();
}

Message money_message(std::uint64_t id, std::uint32_t from, std::uint32_t to,
                      std::int64_t units) {
  Message m;
  m.id = id;
  m.from = sim::ProcessId(from);
  m.to = sim::ProcessId(to);
  m.kind = net::kinds::money;
  auto body = net::make_body<proto::MoneyMsg>();
  body->deal_id = 13;
  body->receipt = id;
  body->amount = Amount(units, Currency::generic());
  m.body = body;
  return m;
}

// ------------------------------------------------------- gateway seam

TEST(GatewaySeam, InterceptsOnlyUnattachedDestinations) {
  sim::Simulator sim(1);
  net::Network network(sim,
                       net::DelayModel::synchronous(Duration::millis(1)));
  auto& local_a = sim.spawn<SeamSink>("local_a");
  auto& local_b = sim.spawn<SeamSink>("local_b");
  network.attach(local_a);
  network.attach(local_b);
  RecordingTransport gateway;
  network.set_gateway(&gateway);

  network.send(local_a.id(), local_b.id(), net::kinds::claim, nullptr);
  network.send(local_a.id(), sim::ProcessId(77), net::kinds::claim, nullptr);
  sim.run_until(TimePoint::origin() + Duration::seconds(1));

  // Local destination: delivered in-sim, gateway never consulted.
  ASSERT_EQ(local_b.received.size(), 1u);
  // Unattached destination: left through the gateway with the full message.
  ASSERT_EQ(gateway.sent.size(), 1u);
  EXPECT_EQ(gateway.sent[0].to, sim::ProcessId(77));
  EXPECT_EQ(network.stats().messages_gatewayed, 1u);

  // Remote arrival: inject() schedules normal delivery at the current
  // instant with a fresh local id.
  Message incoming;
  incoming.id = 0;
  incoming.from = sim::ProcessId(77);
  incoming.to = local_a.id();
  incoming.kind = net::kinds::claim;
  network.inject(incoming);
  sim.run_until(TimePoint::origin() + Duration::seconds(2));
  ASSERT_EQ(local_a.received.size(), 1u);
  EXPECT_EQ(local_a.received[0].from, sim::ProcessId(77));
  EXPECT_NE(local_a.received[0].id, 0u);
  EXPECT_EQ(network.stats().messages_injected, 1u);
}

TEST(GatewaySeam, NoGatewayMeansNoBehaviourChange) {
  // The seam must be invisible when unused: stats stay zero and nothing
  // about delivery changes (the pre-seam drop of unattached sends).
  sim::Simulator sim(1);
  net::Network network(sim,
                       net::DelayModel::synchronous(Duration::millis(1)));
  auto& sink = sim.spawn<SeamSink>("sink");
  network.attach(sink);
  network.send(sink.id(), sim::ProcessId(99), net::kinds::claim, nullptr);
  sim.run_until(TimePoint::origin() + Duration::seconds(1));
  EXPECT_EQ(network.stats().messages_gatewayed, 0u);
  EXPECT_EQ(network.stats().messages_injected, 0u);
}

// ------------------------------------------- SimTransport differential

TEST(SimTransportDifferential, OutcomeIdenticalWithAndWithoutSeam) {
  for (const auto value : {consensus::Value::kCommit,
                           consensus::Value::kAbort}) {
    consensus::StandaloneCommittee sc;
    sc.evidence = value;
    const auto direct = run_standalone_sim(sc);
    const auto seamed = run_standalone_sim(sc, [](net::Network& n) {
      return std::make_unique<net::SimTransport>(n);
    });
    ASSERT_TRUE(direct.value.has_value());
    EXPECT_EQ(direct.canonical(), seamed.canonical());
    // Fully deterministic in-sim: even the certificates match byte for
    // byte once wire-encoded.
    EXPECT_EQ(net::serialize_certificate(direct.cert),
              net::serialize_certificate(seamed.cert));
  }
}

// ------------------------------------------------ socket transport

net::SocketTransportOptions fast_opts() {
  net::SocketTransportOptions o;
  o.heartbeat_interval = 20ms;
  o.peer_timeout = 500ms;
  o.reconnect_base = 10ms;
  o.reconnect_cap = 50ms;
  return o;
}

TEST(SocketTransport, DeliversMessagesAndHeartbeats) {
  TempDir dir;
  net::SocketTransport a(0, "unix:" + dir.file("a.sock"), fast_opts());
  net::SocketTransport b(1, "unix:" + dir.file("b.sock"), fast_opts());
  a.add_peer(1, "unix:" + dir.file("b.sock"));
  b.add_peer(0, "unix:" + dir.file("a.sock"));
  a.map_pid(sim::ProcessId(5), 1);

  std::vector<Message> got;
  b.set_receive_handler([&](Message&& m) { got.push_back(std::move(m)); });

  a.send(money_message(9, 4, 5, 1234));
  ASSERT_TRUE(pump_until({&a, &b}, [&] { return !got.empty(); }, 3000ms));
  ASSERT_EQ(got.size(), 1u);
  EXPECT_EQ(got[0].id, 9u);
  EXPECT_EQ(got[0].from, sim::ProcessId(4));
  EXPECT_EQ(got[0].to, sim::ProcessId(5));
  const auto* body = got[0].body_as<proto::MoneyMsg>();
  ASSERT_NE(body, nullptr);
  EXPECT_EQ(body->amount, Amount(1234, Currency::generic()));

  // Heartbeats flow on both dialed connections and both peers stay up.
  EXPECT_TRUE(pump_until({&a, &b},
                         [&] {
                           return a.stats().heartbeats_received > 0 &&
                                  b.stats().heartbeats_received > 0;
                         },
                         3000ms));
  EXPECT_TRUE(a.peer_up(1));
  EXPECT_TRUE(b.peer_up(0));
  EXPECT_GT(a.stats().heartbeats_sent, 0u);
  EXPECT_EQ(a.stats().messages_sent, 1u);
  EXPECT_EQ(b.stats().messages_received, 1u);

  // Self-mapped pids loop back through the codec to the local handler.
  std::vector<Message> local;
  a.set_receive_handler([&](Message&& m) { local.push_back(std::move(m)); });
  a.map_pid(sim::ProcessId(6), 0);
  a.send(money_message(10, 5, 6, 1));
  ASSERT_EQ(local.size(), 1u);
  EXPECT_EQ(local[0].id, 10u);

  // Unmapped destination pids are a counted drop, not an error.
  const auto dropped_before = a.stats().sends_dropped;
  a.send(money_message(11, 5, 1000, 1));
  EXPECT_EQ(a.stats().sends_dropped, dropped_before + 1);
}

TEST(SocketTransport, QueuedSendsSurviveLateListenerViaReconnect) {
  TempDir dir;
  auto opts = fast_opts();
  net::SocketTransport a(0, "unix:" + dir.file("a.sock"), opts);
  a.add_peer(1, "unix:" + dir.file("b.sock"));
  a.map_pid(sim::ProcessId(5), 1);
  a.send(money_message(21, 4, 5, 7));

  // Dial the absent peer long enough to burn several backoff rungs.
  (void)pump_until({&a}, [] { return false; }, 150ms);
  EXPECT_GT(a.stats().dial_attempts, 1u);
  EXPECT_GT(a.stats().reconnects, 0u);
  EXPECT_FALSE(a.peer_connected(1));

  // Now the listener appears; the pre-connect queue must drain to it.
  net::SocketTransport b(1, "unix:" + dir.file("b.sock"), opts);
  b.add_peer(0, "unix:" + dir.file("a.sock"));
  std::vector<Message> got;
  b.set_receive_handler([&](Message&& m) { got.push_back(std::move(m)); });
  ASSERT_TRUE(pump_until({&a, &b}, [&] { return !got.empty(); }, 3000ms));
  EXPECT_EQ(got[0].id, 21u);
  EXPECT_TRUE(a.peer_connected(1));
}

TEST(SocketTransport, HeartbeatDeathThenResurrection) {
  TempDir dir;
  auto opts = fast_opts();
  opts.peer_timeout = 150ms;
  net::SocketTransport a(0, "unix:" + dir.file("a.sock"), opts);
  a.add_peer(1, "unix:" + dir.file("b.sock"));
  a.map_pid(sim::ProcessId(5), 1);
  std::vector<std::pair<std::uint32_t, long>> downs;
  a.set_peer_down_handler([&](std::uint32_t node,
                              std::chrono::milliseconds silent) {
    downs.emplace_back(node, static_cast<long>(silent.count()));
  });

  std::optional<net::SocketTransport> b;
  b.emplace(1, "unix:" + dir.file("b.sock"), opts);
  b->add_peer(0, "unix:" + dir.file("a.sock"));
  ASSERT_TRUE(pump_until({&a, &*b}, [&] { return a.peer_up(1) &&
                                                 a.peer_connected(1); },
                         3000ms));

  // Kill B. A must declare it down by heartbeat silence, exactly once,
  // reporting at least the configured deadline of silence.
  b.reset();
  ASSERT_TRUE(pump_until({&a}, [&] { return !a.peer_up(1); }, 3000ms));
  ASSERT_EQ(downs.size(), 1u);
  EXPECT_EQ(downs[0].first, 1u);
  EXPECT_GE(downs[0].second, 150);
  EXPECT_EQ(a.stats().peers_down, 1u);

  // Crashed-participant semantics: sends to the dead peer are dropped.
  const auto dropped_before = a.stats().sends_dropped;
  a.send(money_message(31, 4, 5, 7));
  EXPECT_EQ(a.stats().sends_dropped, dropped_before + 1);

  // A reborn peer that speaks again is resurrected.
  b.emplace(1, "unix:" + dir.file("b.sock"), opts);
  b->add_peer(0, "unix:" + dir.file("a.sock"));
  ASSERT_TRUE(pump_until({&a, &*b}, [&] { return a.peer_up(1); }, 3000ms));
  EXPECT_EQ(a.stats().peers_resurrected, 1u);
  ASSERT_EQ(downs.size(), 1u) << "down handler must fire once per epoch";
}

TEST(SocketTransport, GarbageConnectionIsDroppedWithoutHarm) {
  TempDir dir;
  net::SocketTransport a(0, "unix:" + dir.file("a.sock"), fast_opts());

  // A rogue client frames 16 bytes of garbage: the transport must count a
  // wire reject and drop that connection — never the process.
  const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  ASSERT_GE(fd, 0);
  sockaddr_un sa{};
  sa.sun_family = AF_UNIX;
  std::snprintf(sa.sun_path, sizeof(sa.sun_path), "%s",
                dir.file("a.sock").c_str());
  ASSERT_EQ(::connect(fd, reinterpret_cast<sockaddr*>(&sa), sizeof(sa)), 0);
  std::vector<std::uint8_t> evil = {16, 0, 0, 0};
  for (int i = 0; i < 16; ++i) evil.push_back(0xa5);
  ASSERT_EQ(::write(fd, evil.data(), evil.size()),
            static_cast<ssize_t>(evil.size()));

  ASSERT_TRUE(
      pump_until({&a}, [&] { return a.stats().wire_rejects > 0; }, 3000ms));

  // The transport hung up on the rogue connection...
  char buf[8];
  ssize_t n = -1;
  const auto deadline = std::chrono::steady_clock::now() + 3s;
  while (std::chrono::steady_clock::now() < deadline) {
    n = ::recv(fd, buf, sizeof(buf), MSG_DONTWAIT);
    if (n == 0) break;  // orderly EOF from the transport
    a.pump(2ms);
  }
  EXPECT_EQ(n, 0);
  ::close(fd);

  // ...and its listener still accepts new connections.
  const int fd2 = ::socket(AF_UNIX, SOCK_STREAM, 0);
  ASSERT_GE(fd2, 0);
  EXPECT_EQ(::connect(fd2, reinterpret_cast<sockaddr*>(&sa), sizeof(sa)), 0);
  ::close(fd2);
}

TEST(SocketTransport, ManyMessagesReassembleAcrossPartialReads) {
  // Enough queued traffic to overflow any single recv() (the transport
  // reads 64 KiB at a time): frames necessarily split across reads and
  // must reassemble in order.
  TempDir dir;
  net::SocketTransport a(0, "unix:" + dir.file("a.sock"), fast_opts());
  net::SocketTransport b(1, "unix:" + dir.file("b.sock"), fast_opts());
  a.add_peer(1, "unix:" + dir.file("b.sock"));
  b.add_peer(0, "unix:" + dir.file("a.sock"));
  a.map_pid(sim::ProcessId(5), 1);

  std::vector<std::uint64_t> got_ids;
  b.set_receive_handler([&](Message&& m) { got_ids.push_back(m.id); });

  constexpr std::uint64_t kCount = 3000;
  for (std::uint64_t i = 0; i < kCount; ++i) {
    a.send(money_message(i, 4, 5, static_cast<std::int64_t>(i)));
  }
  ASSERT_TRUE(
      pump_until({&a, &b}, [&] { return got_ids.size() >= kCount; }, 10000ms));
  ASSERT_EQ(got_ids.size(), kCount);
  for (std::uint64_t i = 0; i < kCount; ++i) {
    ASSERT_EQ(got_ids[i], i) << "out-of-order delivery at " << i;
  }
}

// ------------------------------------- reconnect backoff regressions

TEST(SocketTransport, DialBackoffPlateausAtCapWithoutOverflow) {
  // The backoff schedule is a pure function (net/socket_transport.hpp
  // dial_backoff): exponential from reconnect_base, hard-capped. Repeated
  // dial failures must plateau — huge attempt counts can neither overflow
  // the multiplication nor escape the cap via jitter drift.
  net::SocketTransportOptions o;
  o.reconnect_base = 10ms;
  o.reconnect_multiplier = 2.0;
  o.reconnect_cap = 1000ms;
  o.reconnect_jitter = 0.25;
  const auto ceiling = std::chrono::milliseconds(
      static_cast<long>(1000 * (1.0 + o.reconnect_jitter)) + 1);

  std::chrono::milliseconds at_saturation{0};
  for (int attempt = 1; attempt <= 100'000;
       attempt = attempt < 64 ? attempt + 1 : attempt * 7) {
    const auto d = net::dial_backoff(o, /*node=*/3, attempt);
    EXPECT_GE(d, 1ms) << attempt;
    EXPECT_LE(d, ceiling) << attempt;
    // Deterministic: the same (options, node, attempt) always maps to the
    // same delay.
    EXPECT_EQ(d, net::dial_backoff(o, 3, attempt)) << attempt;
    if (attempt >= 64) {
      // Far past saturation the schedule is frozen: one fixed plateau
      // value, not a random walk under the cap.
      if (at_saturation.count() == 0) at_saturation = d;
      EXPECT_EQ(d, at_saturation) << attempt;
    }
  }

  // INT_MAX attempts: still finite, still capped (the historical failure
  // mode was O(attempt) doubling work and double overflow to inf).
  EXPECT_LE(net::dial_backoff(o, 3, std::numeric_limits<int>::max()),
            ceiling);
}

TEST(SocketTransport, ResurrectedPeerResetsDialBackoff) {
  TempDir dir;
  auto opts = fast_opts();
  opts.peer_timeout = 150ms;
  net::SocketTransport a(0, "unix:" + dir.file("a.sock"), opts);
  a.add_peer(1, "unix:" + dir.file("b.sock"));

  // No listener: dial failures accumulate and the backoff climbs.
  ASSERT_TRUE(
      pump_until({&a}, [&] { return a.reconnect_attempt(1) >= 4; }, 5000ms));
  ASSERT_TRUE(pump_until({&a}, [&] { return !a.peer_up(1); }, 3000ms));
  const int burned = a.reconnect_attempt(1);
  ASSERT_GE(burned, 4);

  // The peer comes back and dials us: hearing from it must reset the
  // accumulated attempts so our redial is prompt, not at the capped rung.
  net::SocketTransport b(1, "unix:" + dir.file("b.sock"), opts);
  b.add_peer(0, "unix:" + dir.file("a.sock"));
  ASSERT_TRUE(pump_until({&a, &b},
                         [&] { return a.peer_up(1) && a.peer_connected(1); },
                         3000ms));
  EXPECT_EQ(a.stats().peers_resurrected, 1u);
  // Connected again: the attempt counter is back at zero.
  EXPECT_EQ(a.reconnect_attempt(1), 0);
  EXPECT_EQ(a.reconnect_attempt(9), -1);  // unknown node sentinel
}

/// Options whose backoff alone would keep a failed peer undialled for the
/// whole test: every link that comes up early came up on a Hello.
net::SocketTransportOptions slow_redial_opts() {
  auto o = fast_opts();
  o.reconnect_base = 5s;
  o.reconnect_cap = 5s;
  return o;
}

TEST(SocketTransport, NeverUpPeerIsDialedOnItsHello) {
  TempDir dir;
  const auto opts = slow_redial_opts();
  net::SocketTransport a(0, "unix:" + dir.file("a.sock"), opts);
  a.add_peer(1, "unix:" + dir.file("b.sock"));
  a.map_pid(sim::ProcessId(5), 1);
  a.send(money_message(41, 4, 5, 7));

  // b does not exist yet: a's first dial fails and its next one is >= 3.75 s
  // away. The peer never was up, so this is not a resurrection.
  ASSERT_TRUE(
      pump_until({&a}, [&] { return a.stats().dial_attempts >= 1; }, 500ms));
  ASSERT_EQ(a.reconnect_attempt(1), 1);
  ASSERT_FALSE(a.peer_connected(1));

  // b starts and dials a; its Hello must make a dial back at once.
  net::SocketTransport b(1, "unix:" + dir.file("b.sock"), opts);
  b.add_peer(0, "unix:" + dir.file("a.sock"));
  std::vector<Message> got;
  b.set_receive_handler([&](Message&& m) { got.push_back(std::move(m)); });
  ASSERT_TRUE(pump_until({&a, &b}, [&] { return a.peer_connected(1); },
                         500ms));
  EXPECT_EQ(a.reconnect_attempt(1), 0);
  EXPECT_EQ(a.stats().peers_resurrected, 0u);

  // The message queued before b existed rides the new link.
  ASSERT_TRUE(pump_until({&a, &b}, [&] { return !got.empty(); }, 500ms));
  EXPECT_EQ(got[0].id, 41u);
}

TEST(SocketTransport, StaggeredStartMeshConvergesOnHellos) {
  // A committee starting one process at a time: each node's dials to the
  // not-yet-started ones fail, and with a 5 s backoff only the later
  // nodes' Hellos can bring those links up within the budget.
  TempDir dir;
  const auto opts = slow_redial_opts();
  constexpr std::uint32_t kNodes = 4;
  const auto addr = [&](std::uint32_t k) {
    return "unix:" + dir.file("n" + std::to_string(k) + ".sock");
  };
  std::vector<std::unique_ptr<net::SocketTransport>> nodes;
  std::vector<net::SocketTransport*> started;
  for (std::uint32_t k = 0; k < kNodes; ++k) {
    nodes.push_back(std::make_unique<net::SocketTransport>(k, addr(k), opts));
    for (std::uint32_t j = 0; j < kNodes; ++j) {
      if (j != k) nodes.back()->add_peer(j, addr(j));
    }
    started.push_back(nodes.back().get());
    (void)pump_until(started, [] { return false; }, 20ms);
  }
  const auto all_linked = [&] {
    for (std::uint32_t k = 0; k < kNodes; ++k) {
      for (std::uint32_t j = 0; j < kNodes; ++j) {
        if (j != k && !nodes[k]->peer_connected(j)) return false;
      }
    }
    return true;
  };
  EXPECT_TRUE(pump_until(started, all_linked, 1000ms));
}

TEST(SocketTransport, UnreachablePeerRedialsOncePerHelloNotPerHeartbeat) {
  // a holds a wrong address for b, so every dial of a's fails. b reaches a
  // fine and keeps sending heartbeats. Hellos may each buy one extra dial;
  // heartbeats must buy none.
  TempDir dir;
  const auto opts = slow_redial_opts();
  net::SocketTransport a(0, "unix:" + dir.file("a.sock"), opts);
  a.add_peer(1, "unix:" + dir.file("nowhere.sock"));
  ASSERT_TRUE(
      pump_until({&a}, [&] { return a.stats().dial_attempts >= 1; }, 500ms));
  // The plain backoff schedule owes exactly this one dial for the test's
  // duration (its next rung is >= 3.75 s away).
  const std::uint64_t scheduled = a.stats().dial_attempts;
  ASSERT_EQ(scheduled, 1u);

  net::SocketTransport b(1, "unix:" + dir.file("b.sock"), opts);
  b.add_peer(0, "unix:" + dir.file("a.sock"));
  ASSERT_TRUE(pump_until({&a, &b},
                         [&] { return a.stats().hellos_received >= 1; },
                         500ms));
  (void)pump_until({&a, &b}, [] { return false; }, 20ms);  // the redial
  // Exactly one extra dial for b's one Hello: the rule applies, once.
  EXPECT_EQ(a.stats().dial_attempts, scheduled + a.stats().hellos_received);
  EXPECT_FALSE(a.peer_connected(1));
  // The failed extra dial climbs the backoff ladder like any other failure
  // instead of restarting it at reconnect_base.
  EXPECT_EQ(a.reconnect_attempt(1), static_cast<int>(a.stats().dial_attempts));

  // Heartbeats alone: a stream of them and not one more dial.
  const std::uint64_t dials = a.stats().dial_attempts;
  const std::uint64_t heartbeats = a.stats().heartbeats_received;
  ASSERT_TRUE(pump_until(
      {&a, &b},
      [&] { return a.stats().heartbeats_received >= heartbeats + 5; },
      1000ms));
  EXPECT_EQ(a.stats().dial_attempts, dials);
  EXPECT_TRUE(a.peer_up(1));  // heartbeats still prove liveness

  // A status re-announcement is a Hello: at most one more dial for it.
  const std::uint64_t hellos = a.stats().hellos_received;
  b.set_hello_status(net::hello_status_word(2, false));
  ASSERT_TRUE(pump_until({&a, &b},
                         [&] { return a.stats().hellos_received > hellos; },
                         500ms));
  (void)pump_until({&a, &b}, [] { return false; }, 20ms);
  EXPECT_LE(a.stats().dial_attempts, dials + 1);
  EXPECT_LE(a.stats().dial_attempts, scheduled + a.stats().hellos_received);
}

// ------------------------------------ hello status & catch-up frames

TEST(SocketTransport, HelloStatusIsAnnouncedAndReannounced) {
  TempDir dir;
  net::SocketTransport a(0, "unix:" + dir.file("a.sock"), fast_opts());
  net::SocketTransport b(1, "unix:" + dir.file("b.sock"), fast_opts());
  a.add_peer(1, "unix:" + dir.file("b.sock"));
  b.add_peer(0, "unix:" + dir.file("a.sock"));

  a.set_hello_status(net::hello_status_word(1, true));
  std::vector<std::pair<std::uint32_t, std::uint64_t>> seen;
  b.set_peer_status_handler([&](std::uint32_t node, std::uint64_t status) {
    seen.emplace_back(node, status);
  });
  ASSERT_TRUE(pump_until({&a, &b}, [&] { return !seen.empty(); }, 3000ms));
  EXPECT_EQ(seen[0].first, 0u);
  EXPECT_EQ(net::hello_status_tier(seen[0].second), 1u);
  EXPECT_TRUE(net::hello_status_recovered(seen[0].second));

  // A status change is re-announced on the live connection (no redial).
  a.set_hello_status(net::hello_status_word(2, true));
  ASSERT_TRUE(pump_until({&a, &b}, [&] { return seen.size() >= 2; }, 3000ms));
  EXPECT_EQ(net::hello_status_tier(seen.back().second), 2u);
  EXPECT_GE(b.stats().hellos_received, 2u);
}

TEST(SocketTransport, CatchUpRequestReachesPeerAndRepeatsOnRedial) {
  TempDir dir;
  auto opts = fast_opts();
  opts.peer_timeout = 150ms;
  net::SocketTransport a(0, "unix:" + dir.file("a.sock"), opts);
  a.add_peer(1, "unix:" + dir.file("b.sock"));
  a.set_hello_status(net::hello_status_word(1, true));
  a.request_catchup(13);
  EXPECT_TRUE(a.catchup_active());

  std::vector<std::pair<std::uint64_t, std::uint64_t>> asks;
  auto arm = [&](net::SocketTransport& t) {
    t.set_catchup_handler(
        [&](std::uint32_t node, std::uint64_t instance, std::uint64_t status) {
          EXPECT_EQ(node, 0u);
          asks.emplace_back(instance, status);
        });
  };

  // The request was made before any connection existed: it must go out on
  // the first successful dial.
  std::optional<net::SocketTransport> b;
  b.emplace(1, "unix:" + dir.file("b.sock"), opts);
  b->add_peer(0, "unix:" + dir.file("a.sock"));
  arm(*b);
  ASSERT_TRUE(pump_until({&a, &*b}, [&] { return !asks.empty(); }, 3000ms));
  EXPECT_EQ(asks[0].first, 13u);
  EXPECT_EQ(net::hello_status_tier(asks[0].second), 1u);

  // The peer restarts; while catch-up is active the request repeats on the
  // fresh dial — a rejoiner keeps asking until it converges.
  b.reset();
  ASSERT_TRUE(pump_until({&a}, [&] { return !a.peer_up(1); }, 3000ms));
  b.emplace(1, "unix:" + dir.file("b.sock"), opts);
  b->add_peer(0, "unix:" + dir.file("a.sock"));
  arm(*b);
  ASSERT_TRUE(pump_until({&a, &*b}, [&] { return asks.size() >= 2; }, 5000ms));

  // cancel_catchup stops the stream: a third restart sees no request.
  a.cancel_catchup();
  EXPECT_FALSE(a.catchup_active());
  const std::size_t before = asks.size();
  b.reset();
  ASSERT_TRUE(pump_until({&a}, [&] { return !a.peer_up(1); }, 3000ms));
  b.emplace(1, "unix:" + dir.file("b.sock"), opts);
  b->add_peer(0, "unix:" + dir.file("a.sock"));
  arm(*b);
  ASSERT_TRUE(pump_until({&a, &*b},
                         [&] { return a.peer_connected(1) && a.peer_up(1); },
                         3000ms));
  (void)pump_until({&a, &*b}, [] { return false; }, 100ms);
  EXPECT_EQ(asks.size(), before);
}

// ------------------------------------------ runtime pacing vs the clock

TEST(NodeRuntime, WallClockJumpDeliversEveryMissedTickInOrder) {
  // A suspended/paused process misses a burst of wall ticks; on resume the
  // runtime must absorb the jump as one run_until — every pending
  // simulation event fires, in order, exactly once, with no busy-spin
  // re-polling and no skipped events.
  TempDir dir;
  sim::Simulator sim(1);
  net::Network network(sim,
                       net::DelayModel::synchronous(Duration::millis(1)));
  net::SocketTransport transport(0, "unix:" + dir.file("rt.sock"),
                                 fast_opts());
  net::NodeRuntime runtime(sim, network, transport);

  // Injected clock: starts at an arbitrary origin, advances only when the
  // test says so. Count calls to bound the loop's polling behaviour.
  const auto origin = std::chrono::steady_clock::now();
  std::chrono::milliseconds fake_elapsed{0};
  int clock_calls = 0;
  runtime.set_clock([&] {
    ++clock_calls;
    return origin + fake_elapsed;
  });

  std::vector<int> fired;
  for (int i = 1; i <= 50; ++i) {
    sim.schedule_at(TimePoint::origin() + Duration::millis(10 * i),
                    [&fired, i] { fired.push_back(i); });
  }

  // First slice: clock at 25ms — only events 1..2 are due.
  bool done = runtime.run(std::chrono::milliseconds(0),
                          [&] { return fired.size() >= 2; });
  fake_elapsed = std::chrono::milliseconds(25);
  done = runtime.run(std::chrono::milliseconds(50),
                     [&] { return fired.size() >= 2; });
  ASSERT_TRUE(done);
  EXPECT_EQ(fired, (std::vector<int>{1, 2}));

  // The clock now leaps 10 wall-minutes past every scheduled event (a
  // suspend, an NTP step, a debugger pause). One run must deliver all 48
  // remaining events in order — not skip them, not replay 1 and 2.
  fake_elapsed = std::chrono::minutes(10);
  const int calls_before = clock_calls;
  done = runtime.run(std::chrono::milliseconds(1000),
                     [&] { return fired.size() >= 50; });
  ASSERT_TRUE(done);
  ASSERT_EQ(fired.size(), 50u);
  for (int i = 1; i <= 50; ++i) EXPECT_EQ(fired[i - 1], i);
  // Absorbing the jump is O(1) loop iterations, not one poll per missed
  // tick: a generous bound still catches a 48-iteration busy-spin.
  EXPECT_LE(clock_calls - calls_before, 24);

  // A backwards step (the wall clock is supposed to be steady, but be
  // defensive) clamps to "no progress" instead of underflowing.
  fake_elapsed = std::chrono::milliseconds(5);
  done = runtime.run(std::chrono::milliseconds(0), [&] { return true; });
  EXPECT_TRUE(done);
  EXPECT_EQ(fired.size(), 50u);  // nothing re-fired
}

// ------------------------------------------- pacing: sleep, don't spin

/// Calls pump(5ms) back to back for 30 ms of wall time; returns the count.
int pumps_in_30ms(net::SocketTransport& t) {
  int pumps = 0;
  const auto end = std::chrono::steady_clock::now() + 30ms;
  while (std::chrono::steady_clock::now() < end) {
    t.pump(5ms);
    ++pumps;
  }
  return pumps;
}

TEST(SocketTransport, SubMillisecondObligationIsSleptThroughNotSpunOn) {
  // With a 1 ms heartbeat the next heartbeat is under a millisecond away
  // after every pump; with a 1 ms redial backoff to a peer that never
  // listens, so is the next dial. pump() rounds that wait up to whole
  // milliseconds and sleeps, so 30 ms of pumping is O(30) calls. Rounding
  // it down to poll(..., 0) instead spins thousands of times.
  TempDir dir;
  net::SocketTransportOptions hb = fast_opts();
  hb.heartbeat_interval = 1ms;
  net::SocketTransport heartbeats(0, "unix:" + dir.file("hb.sock"), hb);
  EXPECT_LE(pumps_in_30ms(heartbeats), 100);

  net::SocketTransportOptions redial = fast_opts();
  redial.heartbeat_interval = 1s;
  redial.reconnect_base = 1ms;
  redial.reconnect_cap = 1ms;
  net::SocketTransport dialer(0, "unix:" + dir.file("dialer.sock"), redial);
  dialer.add_peer(1, "unix:" + dir.file("nobody.sock"));
  EXPECT_LE(pumps_in_30ms(dialer), 100);
  // Sleeping did not starve the obligation: the dials still went out.
  EXPECT_GE(dialer.stats().dial_attempts, 5u);
}

TEST(NodeRuntime, SubMillisecondVirtualEventIsSleptThroughNotSpunOn) {
  // A timer that re-arms itself 0.5 ms out keeps the next virtual event
  // under a millisecond away for the whole run. The runtime must round
  // that gap up and sleep in pump(), making O(wall ms) loop iterations,
  // while every tick still fires as virtual time follows the wall clock.
  TempDir dir;
  sim::Simulator sim(1);
  net::Network network(sim,
                       net::DelayModel::synchronous(Duration::millis(1)));
  net::SocketTransportOptions o = fast_opts();
  o.heartbeat_interval = 1s;
  net::SocketTransport transport(0, "unix:" + dir.file("rt.sock"), o);
  net::NodeRuntime runtime(sim, network, transport);

  int ticks = 0;
  std::function<void()> tick = [&] {
    ++ticks;
    sim.schedule_after(Duration::micros(500), tick);
  };
  sim.schedule_after(Duration::micros(500), tick);

  int iterations = 0;  // run() asks done() once per loop iteration
  const auto end = std::chrono::steady_clock::now() + 30ms;
  const bool done = runtime.run(1000ms, [&] {
    ++iterations;
    return std::chrono::steady_clock::now() >= end;
  });
  ASSERT_TRUE(done);
  EXPECT_LE(iterations, 100);
  EXPECT_GE(ticks, 30);  // 30 ms of virtual time at one tick per 0.5 ms
}

// ----------------------------------------------- TCP endpoints

/// A loopback port range unlikely to collide across concurrent test runs.
int tcp_base_port() { return 20'000 + static_cast<int>(::getpid() % 20'000); }

TEST(SocketTransport, TcpEndpointsDeliverMessagesAndHeartbeats) {
  // The transport logic is address-family-agnostic; this pins the tcp:
  // scheme end to end — bind, non-blocking connect, framing, heartbeats —
  // on real loopback TCP sockets.
  const int base = tcp_base_port();
  const std::string addr_a = "tcp:127.0.0.1:" + std::to_string(base);
  const std::string addr_b = "tcp:127.0.0.1:" + std::to_string(base + 1);
  net::SocketTransport a(0, addr_a, fast_opts());
  net::SocketTransport b(1, addr_b, fast_opts());
  a.add_peer(1, addr_b);
  b.add_peer(0, addr_a);
  a.map_pid(sim::ProcessId(5), 1);

  std::vector<Message> got;
  b.set_receive_handler([&](Message&& m) { got.push_back(std::move(m)); });

  a.send(money_message(9, 4, 5, 1234));
  ASSERT_TRUE(pump_until({&a, &b}, [&] { return !got.empty(); }, 3000ms));
  ASSERT_EQ(got.size(), 1u);
  EXPECT_EQ(got[0].id, 9u);
  const auto* body = got[0].body_as<proto::MoneyMsg>();
  ASSERT_NE(body, nullptr);
  EXPECT_EQ(body->amount, Amount(1234, Currency::generic()));

  EXPECT_TRUE(pump_until({&a, &b},
                         [&] {
                           return a.stats().heartbeats_received > 0 &&
                                  b.stats().heartbeats_received > 0;
                         },
                         3000ms));
  EXPECT_TRUE(a.peer_up(1));
  EXPECT_TRUE(b.peer_up(0));
}

/// How many IPv4 TCP sockets in TIME_WAIT have `port` at either end
/// (/proc/net/tcp: "sl local rem st ...", addresses as HEXIP:HEXPORT, state
/// 06 = TIME_WAIT).
int time_wait_entries(int port) {
  std::istringstream in(slurp("/proc/net/tcp"));
  std::string line;
  std::getline(in, line);  // header
  int n = 0;
  while (std::getline(in, line)) {
    std::istringstream f(line);
    std::string sl, local, remote, state;
    f >> sl >> local >> remote >> state;
    const auto port_of = [](const std::string& a) {
      return std::stoi(a.substr(a.find(':') + 1), nullptr, 16);
    };
    if (state == "06" && (port_of(local) == port || port_of(remote) == port)) {
      ++n;
    }
  }
  return n;
}

TEST(SocketTransport, TcpCloseLeavesNoTimeWait) {
  // Every committee opens 20 loopback connections. Closed with a FIN, each
  // holds a local port in TIME_WAIT for a minute, and committees run back
  // to back use up the ephemeral range. A quiet connection therefore
  // closes with a reset, which leaves no TIME_WAIT at either end.
  const int base = tcp_base_port() + 2;  // clear of the test above
  const std::string addr_a = "tcp:127.0.0.1:" + std::to_string(base);
  const std::string addr_b = "tcp:127.0.0.1:" + std::to_string(base + 1);
  {
    net::SocketTransport a(0, addr_a, fast_opts());
    net::SocketTransport b(1, addr_b, fast_opts());
    a.add_peer(1, addr_b);
    b.add_peer(0, addr_a);
    a.map_pid(sim::ProcessId(5), 1);
    std::vector<Message> got;
    b.set_receive_handler([&](Message&& m) { got.push_back(std::move(m)); });
    a.send(money_message(9, 4, 5, 1234));
    ASSERT_TRUE(pump_until({&a, &b},
                           [&] {
                             return !got.empty() &&
                                    a.stats().heartbeats_received > 0 &&
                                    b.stats().heartbeats_received > 0;
                           },
                           3000ms));
    a.close();
    b.close();
  }
  EXPECT_EQ(time_wait_entries(base), 0);
  EXPECT_EQ(time_wait_entries(base + 1), 0);
}

// --------------------------------------- multi-process differential

std::vector<std::uint8_t> from_hex(const std::string& hex) {
  std::vector<std::uint8_t> out;
  for (std::size_t i = 0; i + 1 < hex.size(); i += 2) {
    out.push_back(static_cast<std::uint8_t>(
        std::stoul(hex.substr(i, 2), nullptr, 16)));
  }
  return out;
}

TEST(NodeCommittee, SocketOutcomeMatchesInSimReference) {
  const std::string bin = node_bin_or_skip();
  if (bin.empty()) GTEST_SKIP() << "xcp_node binary not found";

  for (const char* value : {"commit", "abort"}) {
    consensus::StandaloneCommittee sc;
    sc.evidence = std::strcmp(value, "commit") == 0
                      ? consensus::Value::kCommit
                      : consensus::Value::kAbort;
    const auto ref = run_standalone_sim(sc);
    ASSERT_TRUE(ref.value.has_value()) << "reference run undecided";
    ASSERT_TRUE(ref.cert_valid);

    TempDir dir;
    const std::vector<std::string> common = {
        "--sock-dir",       dir.path, "--value", value,
        "--wall-limit-ms",  "30000"};
    std::vector<pid_t> notary_pids;
    for (int k = 0; k < sc.notaries; ++k) {
      auto args = common;
      args.insert(args.end(), {"--node-id", std::to_string(k)});
      const pid_t pid =
          spawn_node(bin, args, dir.file("out-" + std::to_string(k)));
      ASSERT_GT(pid, 0);
      notary_pids.push_back(pid);
    }
    auto client_args = common;
    client_args.insert(client_args.end(),
                       {"--node-id", std::to_string(sc.notaries)});
    const pid_t client = spawn_node(bin, client_args, dir.file("out-client"));
    ASSERT_GT(client, 0);

    EXPECT_EQ(wait_exit(client), 0) << slurp(dir.file("out-client.err"));
    for (int k = 0; k < sc.notaries; ++k) {
      EXPECT_EQ(wait_exit(notary_pids[k]), 0)
          << slurp(dir.file("out-" + std::to_string(k) + ".err"));
    }

    // The protocol outcome over real sockets must equal the in-sim
    // reference (canonical() excludes the exact signer subset — over
    // sockets a different valid 2f+1 subset may sign).
    const std::string out = slurp(dir.file("out-client"));
    EXPECT_EQ(line_with_prefix(out, "OUTCOME "),
              "OUTCOME " + ref.canonical())
        << out;

    // And the printed certificate must wire-decode and verify against the
    // independently derived key registry.
    const std::string cert_line = line_with_prefix(out, "CERT ");
    ASSERT_FALSE(cert_line.empty()) << out;
    crypto::KeyRegistry keys = sc.make_keys();
    auto config = sc.make_config(keys);
    net::WireContext wctx;
    wctx.roster = &config->members;
    const crypto::Certificate cert =
        net::parse_certificate(from_hex(cert_line.substr(5)), wctx);
    EXPECT_EQ(cert.kind, ref.cert.kind);
    EXPECT_EQ(cert.deal_id, ref.cert.deal_id);
    EXPECT_EQ(cert.issuer, ref.cert.issuer);
    EXPECT_TRUE(crypto::verify_quorum_cert(
        keys, cert, config->members,
        static_cast<std::size_t>(config->quorum())));
  }
}

TEST(NodeCommittee, TcpAddressedCommitteeMatchesInSimReference) {
  const std::string bin = node_bin_or_skip();
  if (bin.empty()) GTEST_SKIP() << "xcp_node binary not found";

  // The same multi-process differential over explicit tcp: endpoints
  // (--listen / --peer) instead of the --sock-dir unix scheme — the
  // deployment shape a real multi-host committee uses.
  consensus::StandaloneCommittee sc;
  const auto ref = run_standalone_sim(sc);
  ASSERT_TRUE(ref.value.has_value()) << "reference run undecided";

  const int base = tcp_base_port() + 100;  // clear of the in-process test
  const auto addr = [&](int node) {
    return "tcp:127.0.0.1:" + std::to_string(base + node);
  };

  TempDir dir;  // only for output capture files
  std::vector<pid_t> pids;
  for (int k = 0; k <= sc.notaries; ++k) {
    std::vector<std::string> args = {"--node-id",       std::to_string(k),
                                     "--listen",        addr(k),
                                     "--value",         "commit",
                                     "--wall-limit-ms", "30000"};
    for (int j = 0; j <= sc.notaries; ++j) {
      if (j == k) continue;
      args.insert(args.end(), {"--peer", std::to_string(j) + "=" + addr(j)});
    }
    const pid_t pid =
        spawn_node(bin, args, dir.file("out-" + std::to_string(k)));
    ASSERT_GT(pid, 0);
    pids.push_back(pid);
  }
  for (int k = 0; k <= sc.notaries; ++k) {
    EXPECT_EQ(wait_exit(pids[static_cast<std::size_t>(k)]), 0)
        << slurp(dir.file("out-" + std::to_string(k) + ".err"));
  }
  const std::string out =
      slurp(dir.file("out-" + std::to_string(sc.notaries)));
  EXPECT_EQ(line_with_prefix(out, "OUTCOME "), "OUTCOME " + ref.canonical())
      << out;
}

TEST(NodeCommittee, SurvivesKillNineOfOneNotary) {
  const std::string bin = node_bin_or_skip();
  if (bin.empty()) GTEST_SKIP() << "xcp_node binary not found";

  consensus::StandaloneCommittee sc;  // m=4 tolerates f=1 crash
  TempDir dir;
  const std::vector<std::string> common = {
      "--sock-dir",        dir.path, "--base-round-ms", "400",
      "--heartbeat-ms",    "40",     "--peer-timeout-ms", "250",
      "--wall-limit-ms",   "30000"};
  std::vector<pid_t> notary_pids;
  for (int k = 0; k < sc.notaries; ++k) {
    auto args = common;
    args.insert(args.end(), {"--node-id", std::to_string(k)});
    const pid_t pid =
        spawn_node(bin, args, dir.file("out-" + std::to_string(k)));
    ASSERT_GT(pid, 0);
    notary_pids.push_back(pid);
  }

  // Let the committee mesh come up, then kill -9 the last notary — an
  // abrupt crash with no goodbye, exactly the paper's crashed participant.
  std::this_thread::sleep_for(500ms);
  const int victim = sc.notaries - 1;
  ASSERT_EQ(::kill(notary_pids[victim], SIGKILL), 0);

  auto client_args = common;
  client_args.insert(client_args.end(),
                     {"--node-id", std::to_string(sc.notaries)});
  const pid_t client = spawn_node(bin, client_args, dir.file("out-client"));
  ASSERT_GT(client, 0);

  // The run must still certify: f=1 crash is within tolerance.
  EXPECT_EQ(wait_exit(client), 0) << slurp(dir.file("out-client.err"));
  const std::string out = slurp(dir.file("out-client"));
  const std::string outcome = line_with_prefix(out, "OUTCOME ");
  EXPECT_NE(outcome.find("quorum=valid"), std::string::npos) << out;

  // Survivors detect the death by heartbeat within the configured
  // deadline and print the supervision line.
  EXPECT_EQ(wait_exit(notary_pids[victim]), 128 + SIGKILL);
  bool seen_peer_down = false;
  for (int k = 0; k < victim; ++k) {
    EXPECT_EQ(wait_exit(notary_pids[k]), 0)
        << slurp(dir.file("out-" + std::to_string(k) + ".err"));
    const std::string nout = slurp(dir.file("out-" + std::to_string(k)));
    if (nout.find("PEER-DOWN node=" + std::to_string(victim)) !=
        std::string::npos) {
      seen_peer_down = true;
    }
  }
  EXPECT_TRUE(seen_peer_down)
      << "no survivor reported the killed notary down";
}

// ------------------------------------------ decide-and-exit (linger cap)

/// What became of one spawned node: its exit code and when it was first
/// seen gone, in ms since the test's reference instant.
struct TimedExit {
  int code = -1;
  std::int64_t at_ms = -1;
};

std::int64_t ms_since(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration_cast<std::chrono::milliseconds>(
             std::chrono::steady_clock::now() - t0)
      .count();
}

/// Reaps every pid, polling every 2 ms so each exit time is stamped when
/// it happens rather than when a blocking wait on an earlier pid returns.
/// `each_poll` runs once per poll (e.g. to watch an output file).
std::vector<TimedExit> reap_timed(const std::vector<pid_t>& pids,
                                  std::chrono::steady_clock::time_point t0,
                                  const std::function<void()>& each_poll) {
  std::vector<TimedExit> out(pids.size());
  std::size_t left = pids.size();
  while (left > 0) {
    each_poll();
    for (std::size_t i = 0; i < pids.size(); ++i) {
      if (out[i].at_ms >= 0) continue;
      int status = 0;
      const pid_t r = ::waitpid(pids[i], &status, WNOHANG);
      if (r == 0) continue;
      out[i].at_ms = ms_since(t0);
      if (r == pids[i] && WIFEXITED(status)) out[i].code = WEXITSTATUS(status);
      if (r == pids[i] && WIFSIGNALED(status)) {
        out[i].code = 128 + WTERMSIG(status);
      }
      --left;
    }
    std::this_thread::sleep_for(2ms);
  }
  each_poll();
  return out;
}

TEST(NodeCommittee, DecidedCommitteeExitsLongBeforeItsLingerCap) {
  const std::string bin = node_bin_or_skip();
  if (bin.empty()) GTEST_SKIP() << "xcp_node binary not found";

  // Every node announces "decided" in its Hello status word, so once the
  // client has certified nobody waits for anybody: the whole committee is
  // gone in a deal's time, not after the 5 s cap.
  consensus::StandaloneCommittee sc;
  const auto ref = run_standalone_sim(sc);
  ASSERT_TRUE(ref.value.has_value()) << "reference run undecided";
  constexpr std::int64_t kCapMs = 5000;
  TempDir dir;
  const std::vector<std::string> common = {
      "--sock-dir",      dir.path, "--linger-ms", std::to_string(kCapMs),
      "--wall-limit-ms", "30000"};
  const auto t0 = std::chrono::steady_clock::now();
  std::vector<pid_t> pids;
  for (int k = 0; k <= sc.notaries; ++k) {
    auto args = common;
    args.insert(args.end(), {"--node-id", std::to_string(k)});
    const pid_t pid =
        spawn_node(bin, args, dir.file("out-" + std::to_string(k)));
    ASSERT_GT(pid, 0);
    pids.push_back(pid);
  }
  const std::vector<TimedExit> exits = reap_timed(pids, t0, [] {});
  const std::string decided =
      std::string("DECIDED value=") + consensus::value_name(*ref.value);
  for (int k = 0; k <= sc.notaries; ++k) {
    SCOPED_TRACE("node " + std::to_string(k));
    EXPECT_EQ(exits[k].code, 0)
        << slurp(dir.file("out-" + std::to_string(k) + ".err"));
    EXPECT_LT(exits[k].at_ms, 1500) << "waited toward the " << kCapMs
                                    << " ms cap with every peer decided";
    const std::string out = slurp(dir.file("out-" + std::to_string(k)));
    if (k < sc.notaries) {
      EXPECT_NE(out.find(decided + " node=" + std::to_string(k)),
                std::string::npos)
          << out;
    } else {
      EXPECT_EQ(line_with_prefix(out, "OUTCOME "),
                "OUTCOME " + ref.canonical())
          << out;
    }
  }
}

TEST(NodeCommittee, SilentPeerHoldsSurvivorsToTheirLingerCap) {
  const std::string bin = node_bin_or_skip();
  if (bin.empty()) GTEST_SKIP() << "xcp_node binary not found";

  // A notary killed with kill -9 never announces "decided", so every
  // survivor (and the client) stays up the whole cap to serve it catch-up
  // should it come back. The client still prints its outcome at once: only
  // the exit waits.
  consensus::StandaloneCommittee sc;
  constexpr std::int64_t kCapMs = 2000;
  TempDir dir;
  const std::vector<std::string> common = {
      "--sock-dir",      dir.path, "--linger-ms", std::to_string(kCapMs),
      "--wall-limit-ms", "30000"};
  std::vector<pid_t> pids;
  for (int k = 0; k < sc.notaries; ++k) {
    auto args = common;
    args.insert(args.end(), {"--node-id", std::to_string(k)});
    const pid_t pid =
        spawn_node(bin, args, dir.file("out-" + std::to_string(k)));
    ASSERT_GT(pid, 0);
    pids.push_back(pid);
  }
  std::this_thread::sleep_for(500ms);  // let the notary mesh come up
  const int victim = sc.notaries - 1;
  ASSERT_EQ(::kill(pids[victim], SIGKILL), 0);
  EXPECT_EQ(wait_exit(pids[victim]), 128 + SIGKILL);
  pids.erase(pids.begin() + victim);

  // Every survivor decides after the client starts, so none may exit
  // sooner than the cap after this instant.
  const auto t_client = std::chrono::steady_clock::now();
  auto client_args = common;
  client_args.insert(client_args.end(),
                     {"--node-id", std::to_string(sc.notaries)});
  const pid_t client = spawn_node(bin, client_args, dir.file("out-client"));
  ASSERT_GT(client, 0);
  pids.push_back(client);
  std::int64_t outcome_ms = -1;
  const std::vector<TimedExit> exits = reap_timed(pids, t_client, [&] {
    if (outcome_ms < 0 &&
        !line_with_prefix(slurp(dir.file("out-client")), "CERT ").empty()) {
      outcome_ms = ms_since(t_client);
    }
  });

  const std::string out = slurp(dir.file("out-client"));
  EXPECT_NE(line_with_prefix(out, "OUTCOME ").find("quorum=valid"),
            std::string::npos)
      << out;
  EXPECT_GE(outcome_ms, 0);
  EXPECT_LT(outcome_ms, kCapMs / 2)
      << "the outcome waited for the silent peer's cap";
  for (std::size_t i = 0; i < pids.size(); ++i) {
    const bool is_client = i + 1 == pids.size();
    const std::string name =
        is_client ? "out-client" : "out-" + std::to_string(i);
    SCOPED_TRACE(name);
    EXPECT_EQ(exits[i].code, 0) << slurp(dir.file(name + ".err"));
    EXPECT_GE(exits[i].at_ms, kCapMs) << "left before the linger cap";
    if (!is_client) {
      EXPECT_NE(slurp(dir.file(name)).find("DECIDED value=commit"),
                std::string::npos);
    }
  }
}

}  // namespace
}  // namespace xcp
