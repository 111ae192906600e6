// Proves the event core is allocation-free in steady state. This TU
// overrides the global allocation functions with counting versions; the
// tests warm the relevant pools/slabs up, then assert that push/pop cycles
// with <=64-byte captures, timer churn, pooled message bodies, idle
// socket-transport pumps and the committee vote path (digests, quorum
// certificate checks) perform zero heap allocations, and that a whole
// 64-notary committee deal and one seed of each property-matrix cell stay
// within fixed allocation budgets.

#include <gtest/gtest.h>
#include <unistd.h>

#include <chrono>
#include <cstdint>
#include <cstdlib>
#include <new>
#include <string>

#include "consensus/messages.hpp"
#include "crypto/certificate.hpp"
#include "crypto/signature.hpp"
#include "exp/runner.hpp"
#include "exp/scenario.hpp"
#include "net/message.hpp"
#include "net/msg_kind.hpp"
#include "net/socket_transport.hpp"
#include "proto/bodies.hpp"
#include "props/checkers.hpp"
#include "props/label.hpp"
#include "props/online.hpp"
#include "props/trace.hpp"
#include "proto/weak/protocol.hpp"
#include "sim/event_queue.hpp"
#include "sim/stop_token.hpp"
#include "support/pool.hpp"

namespace {
std::uint64_t g_allocations = 0;
}

void* operator new(std::size_t n) {
  ++g_allocations;
  if (void* p = std::malloc(n)) return p;
  throw std::bad_alloc();
}

void* operator new[](std::size_t n) {
  ++g_allocations;
  if (void* p = std::malloc(n)) return p;
  throw std::bad_alloc();
}

void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

namespace xcp {
namespace {

TEST(ZeroAlloc, EventQueuePushPopSteadyState) {
  sim::EventQueue q;
  std::uint64_t sink = 0;

  // Warm-up: grow the slab and heap vector to their high-water mark.
  for (int round = 0; round < 2; ++round) {
    for (int i = 0; i < 256; ++i) {
      q.push(TimePoint::micros(i), [&sink, i] { sink += static_cast<std::uint64_t>(i); });
    }
    while (!q.empty()) q.pop().fn();
  }

  // Steady state: pushes with <=64-byte captures must not touch the heap.
  const std::uint64_t before = g_allocations;
  for (int round = 0; round < 10; ++round) {
    for (int i = 0; i < 256; ++i) {
      q.push(TimePoint::micros(i), [&sink, i] { sink += static_cast<std::uint64_t>(i); });
    }
    while (!q.empty()) q.pop().fn();
  }
  const std::uint64_t after = g_allocations;
  EXPECT_EQ(after, before);
  EXPECT_GT(sink, 0u);
}

TEST(ZeroAlloc, EventQueueCancelSteadyState) {
  sim::EventQueue q;
  sim::EventId ids[128] = {};

  for (int round = 0; round < 2; ++round) {
    for (int i = 0; i < 128; ++i) ids[i] = q.push(TimePoint::micros(i), [] {});
    for (int i = 0; i < 128; i += 2) q.cancel(ids[i]);
    while (!q.empty()) q.pop().fn();
  }

  const std::uint64_t before = g_allocations;
  for (int round = 0; round < 10; ++round) {
    for (int i = 0; i < 128; ++i) ids[i] = q.push(TimePoint::micros(i), [] {});
    for (int i = 0; i < 128; i += 2) q.cancel(ids[i]);
    while (!q.empty()) q.pop().fn();
  }
  const std::uint64_t after = g_allocations;
  EXPECT_EQ(after, before);
}

TEST(ZeroAlloc, OversizedCapturesDoAllocate) {
  // Sanity check that the counter actually observes the spill path.
  sim::EventQueue q;
  std::array<std::uint64_t, 16> big{};  // 128 bytes > inline capacity
  const std::uint64_t before = g_allocations;
  q.push(TimePoint::micros(1), [big] { (void)big; });
  EXPECT_GT(g_allocations, before);
  q.pop().fn();
}

TEST(ZeroAlloc, PooledBodiesReuseStorage) {
  // Warm-up charges the size-class pool.
  for (int i = 0; i < 64; ++i) {
    auto b = net::make_body<proto::MoneyMsg>();
    b->deal_id = static_cast<std::uint64_t>(i);
  }

  const std::uint64_t before = g_allocations;
  for (int i = 0; i < 1000; ++i) {
    auto b = net::make_body<proto::MoneyMsg>();
    b->deal_id = static_cast<std::uint64_t>(i);
    net::BodyPtr erased = std::move(b);  // the shape every send produces
    erased.reset();
  }
  const std::uint64_t after = g_allocations;
  EXPECT_EQ(after, before);
}

TEST(ZeroAlloc, InternedKindLookupIsAllocationFree) {
  const net::MsgKind first = net::kind("alloc-test-kind");  // interns (may allocate)
  const std::uint64_t before = g_allocations;
  net::MsgKind k;
  for (int i = 0; i < 1000; ++i) k = net::kind("alloc-test-kind");
  const std::uint64_t after = g_allocations;
  EXPECT_EQ(after, before);
  EXPECT_EQ(k, first);
}

// ------------------------------------------------- trace pipeline proofs

namespace {

/// Records a committee-run-shaped stream: sends/delivers (interned message
/// kinds), escrow movements with amounts, cert issuance, one decide, and
/// terminations. Enough events to cross several chunk boundaries.
void record_run_shape(props::TraceRecorder& t, int events) {
  using props::EventKind;
  // Shared id space with the MsgKind interner: a kind's wire value IS its
  // label id — no interner lookup at all.
  const props::Label kinds[] = {props::Label::from_wire(net::kinds::g.value()),
                                props::Label::from_wire(net::kinds::p.value()),
                                props::Label::from_wire(net::kinds::money.value()),
                                props::Label::from_wire(net::kinds::chi.value())};
  for (int i = 0; i < events; ++i) {
    props::TraceEvent e;
    e.at = TimePoint::micros(i);
    e.local_at = e.at;
    e.actor = sim::ProcessId(static_cast<std::uint32_t>(i % 7));
    e.peer = sim::ProcessId(static_cast<std::uint32_t>((i + 1) % 7));
    switch (i % 8) {
      case 0: case 1: case 2:
        e.kind = EventKind::kSend;
        e.label = kinds[i % 4];
        break;
      case 3: case 4:
        e.kind = EventKind::kDeliver;
        e.label = kinds[i % 4];
        break;
      case 5:
        e.kind = EventKind::kTransfer;
        e.amount = Amount(100, Currency::generic());
        break;
      case 6:
        e.kind = EventKind::kCertIssued;
        e.label = props::labels::chi;
        break;
      default:
        e.kind = EventKind::kTerminate;
        break;
    }
    t.record(e);
  }
  props::TraceEvent d;
  d.kind = EventKind::kDecide;
  d.label = props::labels::commit;
  t.record(d);
}

/// Runs the checker-style query matrix the property checkers issue.
std::size_t query_matrix(const props::TraceRecorder& t) {
  using props::EventKind;
  std::size_t sink = 0;
  for (std::size_t k = 0; k < props::kEventKindCount; ++k) {
    sink += t.count(static_cast<EventKind>(k));
  }
  for (std::uint32_t a = 0; a < 7; ++a) {
    sink += t.count(EventKind::kTransfer, sim::ProcessId(a));
    sink += (t.first(EventKind::kTerminate, sim::ProcessId(a)) != nullptr);
  }
  sink += t.count_label(EventKind::kSend, props::labels::chi);
  for (const props::TraceEvent* e : t.all(EventKind::kDecide)) {
    sink += (e->label == props::labels::commit);
  }
  return sink;
}

}  // namespace

TEST(ZeroAlloc, TraceRecordAndQuerySteadyState) {
  props::TraceRecorder t;
  // Warm-up: grow event and index chunks to their high-water mark.
  record_run_shape(t, 600);
  std::size_t expect = query_matrix(t);
  t.clear();

  const std::uint64_t before = g_allocations;
  std::size_t sink = 0;
  for (int round = 0; round < 10; ++round) {
    record_run_shape(t, 600);  // recording: pure bump-pointer stores
    sink += query_matrix(t);   // checking: indexed lookups, range walks
    t.clear();                 // chunks retained for the next round
  }
  const std::uint64_t after = g_allocations;
  EXPECT_EQ(after, before);
  EXPECT_EQ(sink, 10 * expect);
}

TEST(ZeroAlloc, FullRecordCheckCycleSteadyState) {
  // A full record→check cycle over a RunRecord: refill the trace, then
  // evaluate real checkers (certificate consistency over the kDecide index,
  // weak liveness over the kAbortRequested count). The record itself is
  // built once; the measured loop must not touch the heap.
  proto::RunRecord r;
  r.protocol = "synthetic";
  r.spec = proto::DealSpec::uniform(1, 2, 100, 5);
  for (std::uint32_t i = 0; i <= 2; ++i) {
    r.parts.customers.push_back(sim::ProcessId(i));
  }
  for (std::uint32_t i = 3; i <= 4; ++i) {
    r.parts.escrows.push_back(sim::ProcessId(i));
  }
  for (std::uint32_t i = 0; i <= 4; ++i) {
    proto::ParticipantOutcome p;
    p.pid = sim::ProcessId(i);
    p.role = i <= 2 ? "customer" : "escrow";
    p.is_escrow = i >= 3;
    p.terminated = true;
    r.participants.push_back(std::move(p));
  }
  r.participants[2].final_holdings = {Amount(100, Currency::generic())};
  r.stats.drained = true;

  const props::CheckOptions opts;
  // Warm-up round (also warms the trace chunks).
  record_run_shape(r.trace, 600);
  ASSERT_TRUE(props::check_certificate_consistency(r).holds);
  ASSERT_TRUE(props::check_weak_liveness(r, opts).holds);
  r.trace.clear();

  const std::uint64_t before = g_allocations;
  bool ok = true;
  for (int round = 0; round < 10; ++round) {
    record_run_shape(r.trace, 600);
    ok = ok && props::check_certificate_consistency(r).holds;
    ok = ok && props::check_weak_liveness(r, opts).holds;
    r.trace.clear();
  }
  const std::uint64_t after = g_allocations;
  EXPECT_EQ(after, before);
  EXPECT_TRUE(ok);
}

TEST(ZeroAlloc, OnlineMonitorOnEventSteadyState) {
  // The online-checking hot path: every record() also feeds the attached
  // OnlineMonitor (kind-indexed dispatch, interned-label compares, plain
  // counters). Setup allocates (the cast list); the observed stream must
  // not. One monitor per round, as runners use one per seed — monitor
  // construction is part of the measured loop only through its fixed-size
  // members, so warm one first to charge the cast vector's allocation
  // pattern, then require the recording rounds stay clean.
  props::OnlineMonitor::Config cfg;
  cfg.deal_id = 1;
  cfg.bob = sim::ProcessId(2);
  cfg.last_hop = Amount(100, Currency::generic());
  for (std::uint32_t i = 0; i <= 4; ++i) cfg.cast.push_back(sim::ProcessId(i));

  props::TraceRecorder t;
  {
    // Warm-up: chunks to high-water mark, one full observed stream.
    props::OnlineMonitor monitor(cfg);
    t.set_sink(&monitor);
    record_run_shape(t, 600);
    t.set_sink(nullptr);
    t.clear();
  }

  props::OnlineMonitor monitor(cfg);  // constructed before the measurement
  sim::StopToken token;
  monitor.arm_stop(&token);
  t.set_sink(&monitor);
  const std::uint64_t before = g_allocations;
  record_run_shape(t, 600);  // every record() dispatches through the sink
  const std::uint64_t after = g_allocations;
  t.set_sink(nullptr);
  EXPECT_EQ(after, before);
  // The stream terminates actors 0..6, so the 5-member cast quiesced and
  // the verdict telemetry is live — proving the measured path did the work.
  EXPECT_TRUE(monitor.quiescent());
  EXPECT_TRUE(token.stop_requested);
  EXPECT_EQ(monitor.outcome().events_seen, 601u);
}

TEST(ZeroAlloc, SocketTransportIdlePumpSteadyState) {
  // A connected pair with nothing to say but heartbeats: every pump polls,
  // and the ones that find a heartbeat due queue, flush, read and parse a
  // frame. After warm-up none of that may touch the heap — not even when
  // one side stops reading for a while and the heartbeats it missed arrive
  // together in one burst.
  using namespace std::chrono_literals;
  char tmpl[] = "/tmp/xcp_alloc.XXXXXX";
  ASSERT_NE(::mkdtemp(tmpl), nullptr);
  const std::string dir = tmpl;
  net::SocketTransportOptions opts;
  opts.heartbeat_interval = 1ms;
  {
    net::SocketTransport a(0, "unix:" + dir + "/a.sock", opts);
    net::SocketTransport b(1, "unix:" + dir + "/b.sock", opts);
    a.add_peer(1, "unix:" + dir + "/b.sock");
    b.add_peer(0, "unix:" + dir + "/a.sock");
    const auto pump_pair_for = [&](std::chrono::milliseconds span) {
      const auto end = std::chrono::steady_clock::now() + span;
      while (std::chrono::steady_clock::now() < end) {
        a.pump(1ms);
        b.pump(1ms);
      }
    };
    // Warm-up: both links up, every scratch buffer at its high-water mark.
    pump_pair_for(200ms);
    ASSERT_TRUE(a.peer_connected(1));
    ASSERT_TRUE(b.peer_connected(0));

    const std::uint64_t heartbeats = a.stats().heartbeats_received;
    const std::uint64_t before = g_allocations;
    pump_pair_for(50ms);
    // Burst: only `a` pumps, so its heartbeats pile up unread in b's
    // socket; b's next pump then reads and parses them all at once.
    const std::uint64_t a_sent = a.stats().heartbeats_sent;
    const auto burst_end = std::chrono::steady_clock::now() + 2s;
    while (a.stats().heartbeats_sent < a_sent + 20 &&
           std::chrono::steady_clock::now() < burst_end) {
      a.pump(1ms);
    }
    const std::uint64_t burst_before = b.stats().heartbeats_received;
    b.pump(1ms);
    const std::uint64_t burst = b.stats().heartbeats_received - burst_before;
    pump_pair_for(50ms);
    const std::uint64_t after = g_allocations;
    EXPECT_EQ(after, before);
    // The measured pumps did exchange heartbeats, and b's one pump read
    // the burst.
    EXPECT_GT(a.stats().heartbeats_received, heartbeats);
    EXPECT_GE(burst, 20u);
  }
  ::rmdir(dir.c_str());
}

// ------------------------------------------------ committee vote path

namespace {

/// The sim-committee-64 benchmark deal: Thm 3 weak protocol, 64-notary
/// committee, conforming synchronous environment, online early stop.
proto::weak::WeakConfig committee64_deal(std::uint64_t seed) {
  proto::weak::WeakConfig cfg =
      exp::thm3_config(proto::weak::TmKind::kNotaryCommittee, 2, seed);
  cfg.env = exp::conforming_env(exp::default_timing());
  cfg.notary_count = 64;
  cfg.online = props::OnlineOptions{/*enabled=*/true, /*early_stop=*/true};
  return cfg;
}

}  // namespace

TEST(ZeroAlloc, CommitteeVotePath) {
  // Every vote a notary signs or verifies hashes a statement; every
  // decision relay verifies a 2f+1 quorum certificate. With m = 64 that is
  // the O(m^2) inner loop of a committee deal, so none of it may allocate.
  crypto::KeyRegistry keys(64);
  std::vector<sim::ProcessId> members;
  for (std::uint32_t i = 0; i < 64; ++i) {
    members.push_back(sim::ProcessId(i));
    keys.signer_for(members.back());
  }
  const sim::ProcessId committee(3'000'013);
  const crypto::Certificate chi =
      crypto::make_payment_cert(keys.signer_for(sim::ProcessId(100)), 13);
  const std::uint64_t digest =
      consensus::decision_digest(13, committee, consensus::Value::kCommit);
  std::vector<crypto::Signature> sigs;
  for (std::uint32_t i = 0; i < 43; ++i) {
    sigs.push_back(keys.signer_for(members[i]).sign(digest));
  }
  const crypto::Certificate cert = crypto::make_quorum_cert(
      crypto::CertKind::kCommit, 13, committee, std::move(sigs), &chi);

  std::uint64_t sink = 0;
  bool ok = true;
  const auto vote_path = [&](int round) {
    sink ^= crypto::statement_digest("escrowed", 13, members[5], 7);
    sink ^= consensus::prevote_digest(13, round, consensus::Value::kAbort);
    sink ^= consensus::decision_digest(13, committee, consensus::Value::kCommit);
    ok = ok && crypto::verify_quorum_cert(keys, cert, members, 43);
  };
  vote_path(0);  // warm-up

  const std::uint64_t before = g_allocations;
  for (int round = 0; round < 100; ++round) vote_path(round);
  const std::uint64_t after = g_allocations;
  EXPECT_EQ(after, before);
  EXPECT_TRUE(ok);
  EXPECT_NE(sink, 0u);

  // A whole m = 64 deal: set-up (actors, keys, config, trace chunks) still
  // allocates, but nothing per vote does: ~1,040 allocations, where
  // per-vote allocation cost 32,250. The count is deterministic, so the
  // gate is a plain ceiling; it only moves with set-up. The first deal
  // warms process-wide pools and labels.
  ASSERT_TRUE(proto::weak::run_weak(committee64_deal(1)).bob_paid());
  const proto::weak::WeakConfig cfg = committee64_deal(2);
  const std::uint64_t deal_before = g_allocations;
  const proto::RunRecord rec = proto::weak::run_weak(cfg);
  const std::uint64_t deal_allocations = g_allocations - deal_before;
  EXPECT_TRUE(rec.bob_paid());
  EXPECT_TRUE(rec.online.early_stopped);
  EXPECT_LE(deal_allocations, 2500u);
  RecordProperty("deal_allocations", static_cast<int>(deal_allocations));
}

TEST(ZeroAlloc, SweepSeedBudget) {
  // One seed of each of the 24 matrix cells (n = 2), the way the sweep
  // benchmark runs them: run_matrix_cell_accum(..., 1, seed). A seed still
  // builds its world (simulator, network, ledger, actors, trace), but
  // nothing that is the same for every seed: the Fig. 2 automata come from
  // the thread's cache, and the worker count is asked for once. The counts
  // are deterministic, so each gate is a plain ceiling.
  using exp::ProtocolKind;
  using exp::Regime;
  struct Row {
    ProtocolKind kind;
    const char* name;
    std::uint64_t ceiling;
  };
  // Today: 111-118 time-bounded and universal (248-260 when every seed
  // built its five automata and ran them on string-keyed slots and deque
  // buffers), 131-133 atomic, 128-132 weak-trusted, 143-153 weak-contract,
  // 199-216 weak-committee.
  constexpr Row kRows[] = {
      {ProtocolKind::kTimeBounded, "time-bounded", 130},
      {ProtocolKind::kUniversalNaive, "universal", 130},
      {ProtocolKind::kInterledgerAtomic, "atomic", 140},
      {ProtocolKind::kWeakTrusted, "weak-trusted", 140},
      {ProtocolKind::kWeakContract, "weak-contract", 160},
      {ProtocolKind::kWeakCommittee, "weak-committee", 225},
  };
  constexpr std::pair<Regime, const char*> kCols[] = {
      {Regime::kSynchronyConforming, "synchrony"},
      {Regime::kSynchronyHighDrift, "synchrony-drift"},
      {Regime::kPartialSynchrony, "partial"},
      {Regime::kPartialSynchronyAdversarial, "partial-adversary"},
  };
  for (const Row& row : kRows) {
    for (const auto& [regime, regime_name] : kCols) {
      // Warm-up: process-wide pools, labels, the automata cache.
      for (std::uint64_t seed = 1; seed <= 4; ++seed) {
        exp::run_matrix_cell_accum(row.kind, regime, 2, 1, seed);
      }
      const std::uint64_t before = g_allocations;
      const exp::CellAccum acc =
          exp::run_matrix_cell_accum(row.kind, regime, 2, 1, /*seed=*/5);
      const std::uint64_t allocations = g_allocations - before;
      EXPECT_GT(acc.events_total, 0u);
      EXPECT_LE(allocations, row.ceiling) << row.name << " " << regime_name;
      RecordProperty(std::string("seed_allocations.") + row.name + "." +
                         regime_name,
                     static_cast<int>(allocations));
    }
  }
}

}  // namespace
}  // namespace xcp
