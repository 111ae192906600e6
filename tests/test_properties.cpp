// Unit tests of the property checkers themselves: each checker must fire on
// hand-built violating records and stay quiet on clean ones. A checker that
// cannot detect a planted violation would silently bless broken protocols.

#include <gtest/gtest.h>

#include <optional>
#include <random>
#include <sstream>
#include <string>
#include <vector>

#include "props/checkers.hpp"
#include "props/label.hpp"
#include "props/online.hpp"

namespace xcp::props {
namespace {

using proto::ParticipantOutcome;
using proto::RunRecord;

Amount gen(std::int64_t u) { return Amount(u, Currency::generic()); }

/// Builds a minimal clean record: n = 2 (alice, chloe_1, bob + two escrows),
/// successful payment with commission 5 (alice -105, chloe +5, bob +100).
RunRecord clean_record() {
  RunRecord r;
  r.protocol = "synthetic";
  r.spec = proto::DealSpec::uniform(1, 2, 100, 5);
  for (std::uint32_t i = 0; i <= 2; ++i) {
    r.parts.customers.push_back(sim::ProcessId(i));
  }
  for (std::uint32_t i = 3; i <= 4; ++i) {
    r.parts.escrows.push_back(sim::ProcessId(i));
  }
  auto add = [&](std::uint32_t pid, std::string role, bool is_escrow,
                 std::int64_t initial, std::int64_t final_units) {
    ParticipantOutcome p;
    p.pid = sim::ProcessId(pid);
    p.role = std::move(role);
    p.is_escrow = is_escrow;
    p.terminated = true;
    p.terminated_global = TimePoint::origin() + Duration::seconds(1);
    p.terminated_local = p.terminated_global;
    p.final_state = "done";
    if (initial != 0) p.initial_holdings = {gen(initial)};
    if (final_units != 0) p.final_holdings = {gen(final_units)};
    r.participants.push_back(std::move(p));
  };
  add(0, "alice", false, 105, 0);
  add(1, "chloe_1", false, 100, 105);
  add(2, "bob", false, 0, 100);
  add(3, "escrow_0", true, 0, 0);
  add(4, "escrow_1", true, 0, 0);
  // Alice holds chi; bob issued it.
  r.participants[0].received_payment_cert = true;
  r.participants[2].issued_payment_cert = true;
  r.stats.drained = true;
  r.stats.end_time = TimePoint::origin() + Duration::seconds(2);
  return r;
}

TEST(Checkers, CleanRecordPassesEverything) {
  const RunRecord r = clean_record();
  EXPECT_TRUE(check_conservation(r).holds);
  EXPECT_TRUE(check_escrow_security(r).holds);
  EXPECT_TRUE(check_cs1(r, false).holds);
  EXPECT_TRUE(check_cs2(r, false).holds);
  EXPECT_TRUE(check_cs3(r).holds);
  CheckOptions opts;
  opts.time_bounded = false;  // synthetic record has no schedule
  EXPECT_TRUE(check_strong_liveness(r, opts).holds);
  EXPECT_TRUE(check_certificate_consistency(r).holds);
}

TEST(Checkers, ConservationHandlesManyCurrencies) {
  // Past the 64-currency inline accumulator: the spill path must still
  // produce a verdict (the old std::map handled any count), and report
  // violations in currency-id order across the inline/overflow boundary.
  RunRecord r = clean_record();
  for (std::uint16_t c = 100; c < 200; ++c) {
    r.participants[0].initial_holdings.push_back(Amount(1, Currency(c)));
    r.participants[1].final_holdings.push_back(Amount(1, Currency(c)));
  }
  EXPECT_TRUE(check_conservation(r).holds);
  // Unbalance one inline-region currency (120: among the first 64 seen)
  // and one overflow-region currency (199): both must be reported, lowest
  // id first — the order the old std::map walk produced.
  RunRecord bad = clean_record();
  for (std::uint16_t c = 100; c < 200; ++c) {
    bad.participants[0].initial_holdings.push_back(Amount(1, Currency(c)));
    bad.participants[1].final_holdings.push_back(Amount(1, Currency(c)));
  }
  bad.participants[1].final_holdings.pop_back(); // CUR199 short -1 (overflow)
  bad.participants[2].final_holdings.push_back(
      Amount(2, Currency(120)));                 // CUR120 minted +2 (inline)
  const auto res = check_conservation(bad);
  EXPECT_FALSE(res.holds);
  ASSERT_EQ(res.violations.size(), 2u);
  EXPECT_NE(res.violations[0].find("CUR120"), std::string::npos)
      << res.violations[0];
  EXPECT_NE(res.violations[0].find("net 2"), std::string::npos)
      << res.violations[0];
  EXPECT_NE(res.violations[1].find("CUR199"), std::string::npos)
      << res.violations[1];
  EXPECT_NE(res.violations[1].find("net -1"), std::string::npos)
      << res.violations[1];
}

TEST(Checkers, ConservationDetectsMintedValue) {
  RunRecord r = clean_record();
  r.participants[2].final_holdings = {gen(150)};  // bob magically richer
  const auto res = check_conservation(r);
  EXPECT_FALSE(res.holds);
  EXPECT_FALSE(res.violations.empty());
}

TEST(Checkers, EscrowSecurityDetectsEscrowLoss) {
  RunRecord r = clean_record();
  r.participants[3].initial_holdings = {gen(50)};
  r.participants[3].final_holdings = {gen(20)};  // escrow_0 lost 30
  EXPECT_FALSE(check_escrow_security(r).holds);
}

TEST(Checkers, EscrowSecuritySkipsByzantineEscrows) {
  RunRecord r = clean_record();
  r.participants[3].initial_holdings = {gen(50)};
  r.participants[3].final_holdings = {gen(20)};
  r.participants[3].abiding = false;  // its own fault
  EXPECT_TRUE(check_escrow_security(r).holds);
}

TEST(Checkers, Cs1FiresOnMoneyGoneWithoutCert) {
  RunRecord r = clean_record();
  r.participants[0].received_payment_cert = false;  // alice paid, no chi
  EXPECT_FALSE(check_cs1(r, false).holds);
  // But not applicable when her escrow deviates.
  r.participants[3].abiding = false;
  EXPECT_FALSE(check_cs1(r, false).applicable);
}

TEST(Checkers, Cs1NotEvaluatedBeforeTermination) {
  RunRecord r = clean_record();
  r.participants[0].received_payment_cert = false;
  r.participants[0].terminated = false;  // "upon termination" only
  EXPECT_TRUE(check_cs1(r, false).holds);
}

TEST(Checkers, Cs2FiresWhenBobIssuedButUnpaid) {
  RunRecord r = clean_record();
  r.participants[2].final_holdings.clear();  // unpaid
  EXPECT_FALSE(check_cs2(r, false).holds);
  // If he never issued chi, being unpaid is fine.
  r.participants[2].issued_payment_cert = false;
  EXPECT_TRUE(check_cs2(r, false).holds);
}

TEST(Checkers, Cs2WeakFormAcceptsAbortCert) {
  RunRecord r = clean_record();
  r.participants[2].final_holdings.clear();
  r.participants[2].received_abort_cert = true;
  EXPECT_TRUE(check_cs2(r, true).holds);
  r.participants[2].received_abort_cert = false;
  EXPECT_FALSE(check_cs2(r, true).holds);
}

TEST(Checkers, Cs3FiresOnConnectorLoss) {
  RunRecord r = clean_record();
  r.participants[1].final_holdings = {gen(40)};  // chloe down 60
  EXPECT_FALSE(check_cs3(r).holds);
}

TEST(Checkers, Cs3AcceptsRefundOutcome) {
  RunRecord r = clean_record();
  r.participants[1].final_holdings = {gen(100)};  // net 0: refunded
  EXPECT_TRUE(check_cs3(r).holds);
}

TEST(Checkers, Cs3CrossCurrencyPaidThrough) {
  RunRecord r = clean_record();
  r.spec = proto::DealSpec::explicit_hops(
      1, {Amount(105, Currency::usd()), Amount(100, Currency::eur())});
  // chloe paid 100 EUR out, received 105 USD.
  r.participants[1].initial_holdings = {Amount(100, Currency::eur())};
  r.participants[1].final_holdings = {Amount(105, Currency::usd())};
  EXPECT_TRUE(check_cs3(r).holds);
  // chloe paid out but upstream never delivered: violation.
  r.participants[1].final_holdings = {};
  EXPECT_FALSE(check_cs3(r).holds);
}

TEST(Checkers, StrongLivenessOnlyAppliesWhenAllAbide) {
  RunRecord r = clean_record();
  r.participants[2].final_holdings.clear();  // bob unpaid
  CheckOptions opts;
  EXPECT_FALSE(check_strong_liveness(r, opts).holds);
  r.participants[1].abiding = false;
  EXPECT_FALSE(check_strong_liveness(r, opts).applicable);
  r.participants[1].abiding = true;
  opts.environment_conforms = false;
  EXPECT_FALSE(check_strong_liveness(r, opts).applicable);
}

TEST(Checkers, CertificateConsistencyDetectsBoth) {
  RunRecord r = clean_record();
  TraceEvent commit;
  commit.kind = EventKind::kDecide;
  commit.label = "commit";
  TraceEvent abort;
  abort.kind = EventKind::kDecide;
  abort.label = "abort";
  r.trace.record(commit);
  EXPECT_TRUE(check_certificate_consistency(r).holds);
  r.trace.record(abort);
  EXPECT_FALSE(check_certificate_consistency(r).holds);
}

TEST(Checkers, CertificateConsistencyDetectsConflictingHoldings) {
  RunRecord r = clean_record();
  r.participants[0].received_commit_cert = true;
  r.participants[2].received_abort_cert = true;
  EXPECT_FALSE(check_certificate_consistency(r).holds);
}

TEST(Checkers, TerminationRequiresPayersToTerminate) {
  RunRecord r = clean_record();
  // alice made a payment (trace transfer) but never terminated.
  TraceEvent t;
  t.kind = EventKind::kTransfer;
  t.actor = r.parts.customers[0];
  r.trace.record(t);
  r.participants[0].terminated = false;
  CheckOptions opts;
  opts.time_bounded = false;
  EXPECT_FALSE(check_termination(r, opts).holds);
  r.participants[0].terminated = true;
  EXPECT_TRUE(check_termination(r, opts).holds);
}

TEST(Checkers, TerminationNotApplicableWhenNobodyActed) {
  RunRecord r = clean_record();
  CheckOptions opts;
  opts.time_bounded = false;
  // No transfers or cert issuance in the trace at all.
  r.participants[2].issued_payment_cert = false;
  EXPECT_FALSE(check_termination(r, opts).applicable);
}

TEST(Checkers, WeakLivenessSkippedAfterAbortRequest) {
  RunRecord r = clean_record();
  r.participants[2].final_holdings.clear();  // bob unpaid
  CheckOptions opts;
  EXPECT_FALSE(check_weak_liveness(r, opts).holds);
  TraceEvent e;
  e.kind = EventKind::kAbortRequested;
  r.trace.record(e);
  EXPECT_FALSE(check_weak_liveness(r, opts).applicable);
}

TEST(Checkers, ReportAggregation) {
  RunRecord r = clean_record();
  CheckOptions opts;
  opts.time_bounded = false;
  auto report = check_definition1(r, opts);
  EXPECT_TRUE(report.all_hold()) << report.str();
  EXPECT_TRUE(report.failed().empty());

  r.participants[1].final_holdings = {gen(40)};
  r.participants[2].final_holdings = {gen(165)};  // keep conservation intact
  report = check_definition1(r, opts);
  EXPECT_FALSE(report.all_hold());
  const auto failed = report.failed();
  EXPECT_NE(std::find(failed.begin(), failed.end(), "CS3"), failed.end());
}

// ------------------------------------------------ label/arena differential

namespace legacy {

/// The seed implementation of the trace pipeline, kept verbatim as the
/// reference side of the differential tests: string labels, one monolithic
/// vector, O(n) scans. The arena/interner rebuild must render and answer
/// queries byte-identically to this.
struct Event {
  EventKind kind = EventKind::kCustom;
  TimePoint at;
  TimePoint local_at;
  sim::ProcessId actor;
  sim::ProcessId peer;
  std::string label;
  std::optional<Amount> amount;
  std::uint64_t deal_id = 0;

  std::string str() const {
    std::ostringstream os;
    os << at.str() << " " << event_kind_name(kind) << " actor=p"
       << actor.value();
    if (peer.valid()) os << " peer=p" << peer.value();
    if (!label.empty()) os << " [" << label << "]";
    if (amount) os << " " << amount->str();
    return os.str();
  }
};

struct Recorder {
  std::vector<Event> events;

  void record(Event e) { events.push_back(std::move(e)); }
  std::size_t count(EventKind kind) const {
    std::size_t n = 0;
    for (const auto& e : events) n += (e.kind == kind);
    return n;
  }
  std::size_t count(EventKind kind, sim::ProcessId actor) const {
    std::size_t n = 0;
    for (const auto& e : events) n += (e.kind == kind && e.actor == actor);
    return n;
  }
  std::size_t count_label(EventKind kind, const std::string& label) const {
    std::size_t n = 0;
    for (const auto& e : events) n += (e.kind == kind && e.label == label);
    return n;
  }
  const Event* first(EventKind kind, sim::ProcessId actor) const {
    for (const auto& e : events) {
      if (e.kind == kind && e.actor == actor) return &e;
    }
    return nullptr;
  }
  std::vector<const Event*> all(EventKind kind) const {
    std::vector<const Event*> out;
    for (const auto& e : events) {
      if (e.kind == kind) out.push_back(&e);
    }
    return out;
  }
  std::string render(std::size_t max_lines = 200) const {
    std::ostringstream os;
    std::size_t n = 0;
    for (const auto& e : events) {
      if (n++ >= max_lines) {
        os << "... (" << events.size() - max_lines << " more)\n";
        break;
      }
      os << e.str() << "\n";
    }
    return os.str();
  }
};

}  // namespace legacy

/// A deterministic event stream shaped like a protocol run, fed to both
/// recorders. Exercises every kind, multi-chunk storage (the count spans
/// several 16 KB chunks), optional amounts, deal ids and repeated labels.
template <typename RecordFn>
void feed_scenario(RecordFn&& rec) {
  const char* labels[] = {"G", "P", "$", "chi", "chi_c", "chi_a",
                          "commit", "abort", "await_chi", "done"};
  for (int i = 0; i < 1500; ++i) {
    const auto kind = static_cast<EventKind>(i % kEventKindCount);
    TimePoint at = TimePoint::micros(17 * i);
    sim::ProcessId actor(static_cast<std::uint32_t>(i % 9));
    sim::ProcessId peer;
    if (i % 3 != 0) peer = sim::ProcessId(static_cast<std::uint32_t>(i % 5));
    std::optional<Amount> amount;
    if (i % 4 == 0) amount = Amount(i, Currency::usd());
    const char* label = (i % 2 == 0) ? labels[i % 10] : "";
    rec(kind, at, actor, peer, label, amount,
        static_cast<std::uint64_t>(i % 3));
  }
}

TEST(Trace, DifferentialAgainstLegacyStringRecorder) {
  TraceRecorder now;
  legacy::Recorder then;
  feed_scenario([&](EventKind kind, TimePoint at, sim::ProcessId actor,
                    sim::ProcessId peer, const char* label,
                    std::optional<Amount> amount, std::uint64_t deal) {
    TraceEvent e;
    e.kind = kind;
    e.at = at;
    e.local_at = at;
    e.actor = actor;
    e.peer = peer;
    e.label = label[0] == '\0' ? Label() : Label(label);
    e.amount = amount;
    e.deal_id = deal;
    now.record(e);
    legacy::Event o;
    o.kind = kind;
    o.at = at;
    o.local_at = at;
    o.actor = actor;
    o.peer = peer;
    o.label = label;
    o.amount = amount;
    o.deal_id = deal;
    then.record(std::move(o));
  });

  // Rendering must be byte-identical (the interned label resolves to the
  // same text), for the default line cap and for full dumps.
  ASSERT_EQ(now.size(), then.events.size());
  EXPECT_EQ(now.render(), then.render());
  EXPECT_EQ(now.render(100000), then.render(100000));

  // Every query form must agree with the legacy O(n) scans.
  for (std::size_t k = 0; k < kEventKindCount; ++k) {
    const auto kind = static_cast<EventKind>(k);
    EXPECT_EQ(now.count(kind), then.count(kind)) << k;
    EXPECT_EQ(now.all(kind).size(), then.all(kind).size()) << k;
    for (std::uint32_t a = 0; a < 9; ++a) {
      const sim::ProcessId actor(a);
      EXPECT_EQ(now.count(kind, actor), then.count(kind, actor));
      const TraceEvent* f = now.first(kind, actor);
      const legacy::Event* g = then.first(kind, actor);
      ASSERT_EQ(f == nullptr, g == nullptr);
      if (f != nullptr) EXPECT_EQ(f->str(), g->str());
    }
    for (const char* l : {"G", "chi", "commit", "abort", "nope"}) {
      EXPECT_EQ(now.count_label(kind, l), then.count_label(kind, l));
    }
  }

  // all() walks the kind index in record order, mirroring the legacy scan.
  const auto now_decides = now.all(EventKind::kDecide);
  const auto then_decides = then.all(EventKind::kDecide);
  ASSERT_EQ(now_decides.size(), then_decides.size());
  for (std::size_t i = 0; i < now_decides.size(); ++i) {
    EXPECT_EQ(now_decides[i]->str(), then_decides[i]->str());
  }
}

TEST(Trace, EventListIndexingAndIterationAgree) {
  TraceRecorder t;
  for (int i = 0; i < 1200; ++i) {  // > 2 chunks of events
    TraceEvent e;
    e.kind = EventKind::kSend;
    e.at = TimePoint::micros(i);
    e.actor = sim::ProcessId(static_cast<std::uint32_t>(i));
    t.record(e);
  }
  const auto list = t.events();
  ASSERT_EQ(list.size(), 1200u);
  std::size_t i = 0;
  for (const TraceEvent& e : list) {
    EXPECT_EQ(e.actor.value(), i);
    EXPECT_EQ(&e, &list[i]);
    ++i;
  }
  EXPECT_EQ(i, 1200u);
}

TEST(Trace, ClearRetainsChunksAndCloneRebuildsIndexes) {
  TraceRecorder t;
  TraceEvent e;
  e.kind = EventKind::kDecide;
  e.label = labels::commit;
  t.record(e);
  const TraceRecorder copy = t.clone();
  t.clear();
  EXPECT_EQ(t.size(), 0u);
  EXPECT_EQ(t.count(EventKind::kDecide), 0u);
  EXPECT_EQ(copy.size(), 1u);
  EXPECT_EQ(copy.count(EventKind::kDecide), 1u);
  EXPECT_EQ(copy.all(EventKind::kDecide)[0]->label, labels::commit);
  // Refill after clear: indexes rebuild from scratch.
  t.record(e);
  t.record(e);
  EXPECT_EQ(t.count(EventKind::kDecide), 2u);
}

TEST(Trace, KindRangeIndexingMatchesIteration) {
  // The allocation-free KindRange replaced the all_vector() shim outright;
  // this pins the contract the shim's test used to pin: record order, one
  // entry per matching event, operator[] consistent with iteration — across
  // a chunk boundary of the pointer index (> kPtrsPerChunk sends).
  TraceRecorder t;
  const int kSends = 3000;  // > one 16 KB pointer chunk of index entries
  for (int i = 0; i < 2 * kSends; ++i) {
    TraceEvent e;
    e.kind = (i % 2 == 0) ? EventKind::kSend : EventKind::kDeliver;
    e.actor = sim::ProcessId(static_cast<std::uint32_t>(i));
    t.record(e);
  }
  const auto range = t.all(EventKind::kSend);
  ASSERT_EQ(range.size(), static_cast<std::size_t>(kSends));
  std::size_t i = 0;
  for (const TraceEvent* e : range) {
    EXPECT_EQ(e->actor.value(), 2 * i);  // record order preserved
    EXPECT_EQ(range[i], e);              // operator[] agrees with iteration
    ++i;
  }
  EXPECT_EQ(i, static_cast<std::size_t>(kSends));
}

TEST(Trace, FindIsNonInsertingAndMatchesNothingWhenAbsent) {
  TraceRecorder t;
  TraceEvent unlabeled;
  unlabeled.kind = EventKind::kSend;
  t.record(unlabeled);  // label id 0 (empty)
  TraceEvent labeled;
  labeled.kind = EventKind::kSend;
  labeled.label = "find-test-present";
  t.record(labeled);

  // A known name resolves to the same label without inserting anything.
  EXPECT_EQ(Label::find("find-test-present"), Label("find-test-present"));
  EXPECT_EQ(t.count_label(EventKind::kSend, Label::find("find-test-present")),
            1u);

  // A never-interned probe matches nothing — in particular NOT the
  // unlabeled (id 0) event — and does not grow the table: a second find
  // still comes back absent.
  const Label absent = Label::find("find-test-never-interned");
  EXPECT_NE(absent, Label());
  EXPECT_EQ(t.count_label(EventKind::kSend, absent), 0u);
  EXPECT_EQ(t.first_label(EventKind::kSend, absent), nullptr);
  EXPECT_EQ(Label::find("find-test-never-interned"), absent);
  EXPECT_EQ(Label::find("find-test-never-interned").value(),
            support::kNameNotFound);
}

// ------------------------------------------------- online checker fuzzing

/// Randomized differential: 1000+ fuzzed traces, each fed (a) incrementally
/// through an OnlineMonitor — the live path — and (b) to an independent
/// straight-line reimplementation of each property in this test. Verdicts,
/// decided-at times and deciding event ordinals must match exactly; the
/// batch checkers must agree wherever they consume the same evidence. This
/// is the guarantee that lets early-stopped runs claim post-mortem
/// verdicts.
TEST(Online, FuzzedTraceDifferential) {
  std::mt19937_64 rng(0xA11CE);
  constexpr int kTraces = 1200;

  for (int t = 0; t < kTraces; ++t) {
    // A random cast of 2..8 participants; Bob is the last one.
    const std::uint32_t cast_n = 2 + static_cast<std::uint32_t>(rng() % 7);
    const sim::ProcessId bob(cast_n - 1);
    const Amount last_hop(100 + static_cast<std::int64_t>(rng() % 50),
                          Currency::generic());
    const std::uint64_t deal = 1 + rng() % 3;

    OnlineMonitor::Config cfg;
    cfg.deal_id = deal;
    cfg.bob = bob;
    cfg.last_hop = last_hop;
    for (std::uint32_t p = 0; p < cast_n; ++p) {
      cfg.cast.push_back(sim::ProcessId(p));
    }
    OnlineMonitor monitor(cfg);

    // A random event stream, weighted towards the checker-relevant kinds,
    // with a noise floor of sends/delivers.
    const int len = 16 + static_cast<int>(rng() % 150);
    std::vector<TraceEvent> stream;
    for (int i = 0; i < len; ++i) {
      TraceEvent e;
      e.at = TimePoint::micros(17 * i + static_cast<std::int64_t>(rng() % 5));
      e.local_at = e.at;
      e.actor = sim::ProcessId(static_cast<std::uint32_t>(rng() % (cast_n + 2)));
      e.peer = sim::ProcessId(static_cast<std::uint32_t>(rng() % (cast_n + 2)));
      switch (rng() % 8) {
        case 0:
          e.kind = EventKind::kTerminate;
          break;
        case 1: {
          e.kind = EventKind::kTransfer;
          const bool other_currency = rng() % 4 == 0;
          e.amount = Amount(static_cast<std::int64_t>(rng() % 120),
                            other_currency ? Currency::usd()
                                           : Currency::generic());
          break;
        }
        case 2:
          e.kind = EventKind::kDecide;
          e.label = (rng() % 2 == 0) ? labels::commit : labels::abort_;
          e.deal_id = rng() % 4;  // 0 = unscoped, may or may not match
          break;
        case 3:
          e.kind = EventKind::kAbortRequested;
          break;
        default:
          e.kind = (rng() % 2 == 0) ? EventKind::kSend : EventKind::kDeliver;
          e.label = labels::chi;
          break;
      }
      stream.push_back(e);
      monitor.on_record(e);
    }

    // Independent straight-line evaluation of each property.
    // Termination: earliest index after which every cast pid terminated.
    {
      std::vector<bool> seen(cast_n, false);
      std::size_t pending = cast_n;
      std::int64_t decide_ix = -1;
      for (std::size_t i = 0; i < stream.size() && decide_ix < 0; ++i) {
        const TraceEvent& e = stream[i];
        if (e.kind == EventKind::kTerminate && e.actor.value() < cast_n &&
            !seen[e.actor.value()]) {
          seen[e.actor.value()] = true;
          if (--pending == 0) decide_ix = static_cast<std::int64_t>(i);
        }
      }
      const auto& term = monitor.termination();
      if (decide_ix >= 0) {
        EXPECT_EQ(term.verdict(), Verdict::kHolds);
        EXPECT_EQ(term.decided_seq(), static_cast<std::uint64_t>(decide_ix));
        EXPECT_EQ(term.decided_at(),
                  stream[static_cast<std::size_t>(decide_ix)].at);
      } else {
        EXPECT_EQ(term.verdict(), Verdict::kUndecided);
        EXPECT_EQ(term.final_verdict(), Verdict::kViolated);
      }
    }
    // Liveness: earliest index where Bob's running net inflow in the hop
    // currency reaches the hop amount.
    {
      std::int64_t net = 0;
      std::int64_t decide_ix = -1;
      for (std::size_t i = 0; i < stream.size() && decide_ix < 0; ++i) {
        const TraceEvent& e = stream[i];
        if (e.kind != EventKind::kTransfer || !e.amount ||
            e.amount->currency() != last_hop.currency()) {
          continue;
        }
        if (e.peer == bob) net += e.amount->units();
        if (e.actor == bob) net -= e.amount->units();
        if (net >= last_hop.units()) decide_ix = static_cast<std::int64_t>(i);
      }
      const auto& live = monitor.liveness();
      if (decide_ix >= 0) {
        EXPECT_EQ(live.verdict(), Verdict::kHolds);
        EXPECT_EQ(live.decided_seq(), static_cast<std::uint64_t>(decide_ix));
        EXPECT_EQ(live.decided_at(),
                  stream[static_cast<std::size_t>(decide_ix)].at);
      } else {
        EXPECT_EQ(live.final_verdict(), Verdict::kViolated);
      }
    }
    // CC: earliest index where both commit and abort were decided in scope.
    {
      bool commit = false;
      bool abort_seen = false;
      std::int64_t decide_ix = -1;
      for (std::size_t i = 0; i < stream.size() && decide_ix < 0; ++i) {
        const TraceEvent& e = stream[i];
        if (e.kind != EventKind::kDecide) continue;
        if (e.deal_id != 0 && e.deal_id != deal) continue;
        commit = commit || e.label == labels::commit;
        abort_seen = abort_seen || e.label == labels::abort_;
        if (commit && abort_seen) decide_ix = static_cast<std::int64_t>(i);
      }
      const auto& cc = monitor.cert_consistency();
      if (decide_ix >= 0) {
        EXPECT_EQ(cc.verdict(), Verdict::kViolated);
        EXPECT_EQ(cc.decided_seq(), static_cast<std::uint64_t>(decide_ix));
      } else {
        EXPECT_EQ(cc.final_verdict(), Verdict::kHolds);
      }
    }
    // Abort freedom: the first abort request decides.
    {
      std::int64_t decide_ix = -1;
      for (std::size_t i = 0; i < stream.size(); ++i) {
        if (stream[i].kind == EventKind::kAbortRequested) {
          decide_ix = static_cast<std::int64_t>(i);
          break;
        }
      }
      const auto& aborts = monitor.abort_freedom();
      if (decide_ix >= 0) {
        EXPECT_EQ(aborts.verdict(), Verdict::kViolated);
        EXPECT_EQ(aborts.decided_seq(), static_cast<std::uint64_t>(decide_ix));
      } else {
        EXPECT_EQ(aborts.final_verdict(), Verdict::kHolds);
      }
    }
    // Batch agreement: the thin-replay batch checkers answer from the same
    // evidence — build a RunRecord around the trace and cross-check.
    {
      proto::RunRecord r;
      r.spec = proto::DealSpec::uniform(deal, 2, 100, 5);
      for (const TraceEvent& e : stream) r.trace.record(e);
      const auto cc_batch = check_certificate_consistency(r);
      EXPECT_EQ(cc_batch.holds,
                monitor.cert_consistency().final_verdict() == Verdict::kHolds)
          << "trace " << t;
      EXPECT_EQ(r.trace.count(EventKind::kAbortRequested) > 0,
                monitor.abort_freedom().final_verdict() == Verdict::kViolated);
    }
  }
}

TEST(Online, MonitorRidesTraceRecorderSink) {
  // The monitor observes through TraceRecorder::record() — the exact wiring
  // the runners use — not by being fed separately.
  OnlineMonitor::Config cfg;
  cfg.bob = sim::ProcessId(1);
  cfg.last_hop = Amount(100, Currency::generic());
  cfg.cast = {sim::ProcessId(0), sim::ProcessId(1)};
  OnlineMonitor monitor(cfg);

  sim::StopToken token;
  monitor.arm_stop(&token);

  TraceRecorder trace;
  trace.set_sink(&monitor);

  TraceEvent pay;
  pay.kind = EventKind::kTransfer;
  pay.at = TimePoint::micros(10);
  pay.actor = sim::ProcessId(0);
  pay.peer = sim::ProcessId(1);
  pay.amount = Amount(100, Currency::generic());
  trace.record(pay);
  EXPECT_EQ(monitor.liveness().verdict(), Verdict::kHolds);
  EXPECT_FALSE(token.stop_requested);  // cast not yet quiescent

  TraceEvent done;
  done.kind = EventKind::kTerminate;
  done.at = TimePoint::micros(20);
  done.actor = sim::ProcessId(0);
  trace.record(done);
  EXPECT_FALSE(token.stop_requested);
  done.actor = sim::ProcessId(1);
  done.at = TimePoint::micros(30);
  trace.record(done);
  // The second terminate completes the cast: the stop latches with the
  // deciding event's timestamp.
  EXPECT_TRUE(token.stop_requested);
  EXPECT_EQ(token.requested_at, TimePoint::micros(30));
  EXPECT_TRUE(monitor.quiescent());
  const OnlineOutcome o = monitor.outcome();
  EXPECT_TRUE(o.early_stopped);
  EXPECT_EQ(o.termination, Verdict::kHolds);
  EXPECT_EQ(o.liveness, Verdict::kHolds);
  EXPECT_EQ(o.cert_consistency, Verdict::kHolds);
  EXPECT_EQ(o.abort_freedom, Verdict::kHolds);
  EXPECT_EQ(o.decided_at, TimePoint::micros(30));
  EXPECT_EQ(o.events_seen, 3u);
  trace.set_sink(nullptr);
}

TEST(Trace, QueryHelpers) {
  TraceRecorder t;
  TraceEvent a;
  a.kind = EventKind::kSend;
  a.actor = sim::ProcessId(1);
  a.label = "chi";
  t.record(a);
  TraceEvent b;
  b.kind = EventKind::kSend;
  b.actor = sim::ProcessId(2);
  b.label = "G";
  t.record(b);
  EXPECT_EQ(t.count(EventKind::kSend), 2u);
  EXPECT_EQ(t.count(EventKind::kSend, sim::ProcessId(1)), 1u);
  EXPECT_EQ(t.count_label(EventKind::kSend, "chi"), 1u);
  ASSERT_NE(t.first(EventKind::kSend, sim::ProcessId(2)), nullptr);
  EXPECT_EQ(t.first(EventKind::kSend, sim::ProcessId(2))->label, "G");
  EXPECT_EQ(t.all(EventKind::kSend).size(), 2u);
  EXPECT_EQ(t.first_label(EventKind::kSend, "nope"), nullptr);
}

}  // namespace
}  // namespace xcp::props
