// Fuzz-style randomized robustness tests.
//
// The paper's safety requirements (ES, CS, CC, conservation) are
// *unconditional*: they must survive any Byzantine behaviour of the other
// participants and any legal network timing. These tests search that space
// randomly — random timing adversaries within the synchrony envelope, random
// Byzantine strategy assignments, and (beyond the model) message loss — and
// assert that no abiding participant is ever harmed. Each failure would
// replay exactly from its printed seed.

#include <gtest/gtest.h>

#include "anta/analysis.hpp"
#include "exp/scenario.hpp"
#include "net/adversary.hpp"
#include "props/checkers.hpp"
#include "proto/figure2.hpp"
#include "proto/timebounded.hpp"
#include "proto/weak/protocol.hpp"

namespace xcp {
namespace {

/// Builds a random rule-based adversary: holds random (kind, target) message
/// classes until random times. All proposals are clamped by the network to
/// the synchrony model's envelope, so these are always legal schedules.
proto::AdversaryFactory random_adversary(std::uint64_t seed) {
  return [seed](const proto::Participants& parts,
                const proto::TimelockSchedule& schedule)
             -> std::unique_ptr<net::Adversary> {
    Rng rng(seed ^ 0xfeedface);
    auto adv = std::make_unique<net::RuleBasedAdversary>();
    const std::vector<std::string> kinds{"G", "P", "$", "chi"};
    const int rules = static_cast<int>(rng.next_int(1, 6));
    const Duration horizon = schedule.horizon();
    for (int k = 0; k < rules; ++k) {
      const std::string kind =
          kinds[static_cast<std::size_t>(rng.next_int(0, 3))];
      std::vector<net::RuleBasedAdversary::Predicate> preds{
          net::RuleBasedAdversary::kind_is(kind)};
      if (rng.next_bool(0.5)) {
        const auto& pool = rng.next_bool(0.5) ? parts.customers : parts.escrows;
        preds.push_back(net::RuleBasedAdversary::to_process(
            pool[static_cast<std::size_t>(
                rng.next_int(0, static_cast<std::int64_t>(pool.size()) - 1))]));
      }
      const TimePoint release =
          TimePoint::origin() +
          Duration::micros(rng.next_int(0, 3 * horizon.count()));
      adv->hold_until(net::RuleBasedAdversary::all_of(std::move(preds)),
                      release);
    }
    return adv;
  };
}

TEST(Fuzz, TimeBoundedSafetyUnderRandomTimingAdversaries) {
  // Partial synchrony with a random griefing adversary: liveness may die,
  // safety may not.
  for (std::uint64_t seed = 1; seed <= 60; ++seed) {
    auto cfg = exp::thm1_config(static_cast<int>(1 + seed % 4), seed);
    cfg.env = exp::partial_env(cfg.assumed, /*gst_seconds=*/60,
                               Duration::millis(200));
    cfg.adversary = random_adversary(seed);
    cfg.extra_horizon = Duration::seconds(120);
    const auto record = proto::run_time_bounded(cfg);

    const auto ctx = "seed=" + std::to_string(seed);
    EXPECT_TRUE(props::check_conservation(record).holds) << ctx;
    EXPECT_TRUE(props::check_escrow_security(record).holds) << ctx;
    const auto cs1 = props::check_cs1(record, false);
    EXPECT_TRUE(!cs1.applicable || cs1.holds) << ctx << cs1.str();
    const auto cs2 = props::check_cs2(record, false);
    EXPECT_TRUE(!cs2.applicable || cs2.holds) << ctx << cs2.str();
    const auto cs3 = props::check_cs3(record);
    EXPECT_TRUE(!cs3.applicable || cs3.holds)
        << ctx << cs3.str() << record.summary();
  }
}

TEST(Fuzz, TimeBoundedSafetyUnderRandomByzantineCombos) {
  const std::vector<proto::ByzStrategy> strategies{
      proto::ByzStrategy::kCrashAtStart, proto::ByzStrategy::kWithholdMoney,
      proto::ByzStrategy::kWithholdCert, proto::ByzStrategy::kDelayCert,
      proto::ByzStrategy::kFakeCert,     proto::ByzStrategy::kMute};
  for (std::uint64_t seed = 1; seed <= 60; ++seed) {
    Rng rng(seed * 131);
    const int n = static_cast<int>(rng.next_int(2, 5));
    auto cfg = exp::thm1_config(n, seed);
    cfg.extra_horizon = Duration::seconds(30);
    // Corrupt a random subset (possibly several participants).
    const int corrupt = static_cast<int>(rng.next_int(1, 3));
    for (int k = 0; k < corrupt; ++k) {
      proto::ByzantineAssignment b;
      b.is_escrow = rng.next_bool(0.4);
      b.index = static_cast<int>(
          rng.next_int(0, b.is_escrow ? n - 1 : n));
      b.strategy =
          strategies[static_cast<std::size_t>(rng.next_int(0, 5))];
      b.delay = Duration::millis(rng.next_int(1, 5000));
      b.crash_at = TimePoint::origin() + Duration::millis(rng.next_int(0, 2000));
      if (b.strategy == proto::ByzStrategy::kCrashAt) {
        // normalize: kCrashAt not in list, keep as-is
      }
      cfg.byzantine.push_back(b);
    }
    const auto record = proto::run_time_bounded(cfg);
    const auto ctx = "seed=" + std::to_string(seed);
    EXPECT_TRUE(props::check_conservation(record).holds) << ctx;
    const auto es = props::check_escrow_security(record);
    EXPECT_TRUE(es.holds) << ctx << es.str() << record.summary();
    const auto cs1 = props::check_cs1(record, false);
    EXPECT_TRUE(!cs1.applicable || cs1.holds) << ctx << cs1.str();
    const auto cs2 = props::check_cs2(record, false);
    EXPECT_TRUE(!cs2.applicable || cs2.holds) << ctx << cs2.str();
    const auto cs3 = props::check_cs3(record);
    EXPECT_TRUE(!cs3.applicable || cs3.holds)
        << ctx << cs3.str() << record.summary();
  }
}

TEST(Fuzz, WeakProtocolSafetyUnderRandomByzantineCombos) {
  const std::vector<proto::weak::WeakByz> strategies{
      proto::weak::WeakByz::kCrash,     proto::weak::WeakByz::kNoDeposit,
      proto::weak::WeakByz::kNoReport,  proto::weak::WeakByz::kNoResolve,
      proto::weak::WeakByz::kNoChi,     proto::weak::WeakByz::kEagerAbort};
  const std::vector<proto::weak::TmKind> tms{
      proto::weak::TmKind::kTrustedParty,
      proto::weak::TmKind::kSmartContract,
      proto::weak::TmKind::kNotaryCommittee};
  for (std::uint64_t seed = 1; seed <= 45; ++seed) {
    Rng rng(seed * 733);
    const int n = static_cast<int>(rng.next_int(1, 4));
    auto cfg = exp::thm3_config(
        tms[static_cast<std::size_t>(seed % tms.size())], n, seed);
    cfg.patience = Duration::seconds(15);
    cfg.horizon = Duration::seconds(120);
    const int corrupt = static_cast<int>(rng.next_int(1, 2));
    for (int k = 0; k < corrupt; ++k) {
      proto::weak::WeakByzAssignment b;
      b.is_escrow = rng.next_bool(0.4);
      b.index =
          static_cast<int>(rng.next_int(0, b.is_escrow ? n - 1 : n));
      b.behaviour = strategies[static_cast<std::size_t>(rng.next_int(0, 5))];
      cfg.byzantine.push_back(b);
    }
    const auto record = proto::weak::run_weak(cfg);
    const auto ctx = "seed=" + std::to_string(seed);
    EXPECT_TRUE(props::check_conservation(record).holds) << ctx;
    const auto es = props::check_escrow_security(record);
    EXPECT_TRUE(es.holds) << ctx << es.str();
    EXPECT_TRUE(props::check_certificate_consistency(record).holds) << ctx;
    const auto cs3 = props::check_cs3(record);
    EXPECT_TRUE(!cs3.applicable || cs3.holds)
        << ctx << cs3.str() << record.summary();
  }
}

TEST(Fuzz, MessageLossBreaksOnlyLiveness) {
  // The model assumes reliable delivery. Violate it: drop each message with
  // probability p. Deliveries that *do* happen are still authentic, so
  // safety must hold; liveness degrades with p.
  int lively = 0;
  for (std::uint64_t seed = 1; seed <= 30; ++seed) {
    Rng rng(seed * 11);
    auto cfg = exp::thm1_config(3, seed);
    cfg.extra_horizon = Duration::seconds(30);
    cfg.env.drop_probability = rng.next_double(0.05, 0.5);
    const auto record = proto::run_time_bounded(cfg);
    const auto ctx = "seed=" + std::to_string(seed);
    EXPECT_TRUE(props::check_conservation(record).holds) << ctx;
    EXPECT_TRUE(props::check_escrow_security(record).holds) << ctx;
    const auto cs3 = props::check_cs3(record);
    EXPECT_TRUE(!cs3.applicable || cs3.holds) << ctx << record.summary();
    if (record.bob_paid()) ++lively;
  }
  // Some runs survive light loss, heavy loss kills progress; both extremes
  // all-30 would make the test vacuous.
  EXPECT_GT(lively, 0);
  EXPECT_LT(lively, 30);
}

TEST(Fuzz, WeakProtocolRidesOutModerateLoss) {
  // The weak protocol broadcasts its evidence and certificates redundantly
  // (escrows relay certs to customers); with moderate loss it usually still
  // decides — and is always safe.
  int decided = 0;
  for (std::uint64_t seed = 1; seed <= 20; ++seed) {
    auto cfg = exp::thm3_config(proto::weak::TmKind::kTrustedParty, 2, seed);
    cfg.env.drop_probability = 0.10;
    cfg.patience = Duration::seconds(20);
    cfg.horizon = Duration::seconds(120);
    const auto record = proto::weak::run_weak(cfg);
    const auto ctx = "seed=" + std::to_string(seed);
    EXPECT_TRUE(props::check_conservation(record).holds) << ctx;
    EXPECT_TRUE(props::check_escrow_security(record).holds) << ctx;
    EXPECT_TRUE(props::check_certificate_consistency(record).holds) << ctx;
    decided += (record.trace.count(props::EventKind::kDecide) > 0);
  }
  EXPECT_GT(decided, 0);
}

TEST(Fuzz, Figure2AutomataAreStructurallyClean) {
  // Static analysis of every generated automaton across deal sizes: all
  // states reachable, and every state can reach a final state (the
  // structural half of requirement C).
  for (int n : {1, 2, 3, 8}) {
    auto ctx = std::make_shared<proto::Fig2Context>();
    ctx->spec = proto::DealSpec::uniform(1, n, 100, 1);
    for (int i = 0; i <= n; ++i) {
      ctx->parts.customers.push_back(
          sim::ProcessId(static_cast<std::uint32_t>(i)));
    }
    for (int i = 0; i < n; ++i) {
      ctx->parts.escrows.push_back(
          sim::ProcessId(static_cast<std::uint32_t>(n + 1 + i)));
    }
    ctx->schedule =
        proto::TimelockSchedule::drift_compensated(n, exp::default_timing());

    for (int i = 0; i <= n; ++i) {
      const auto a = proto::build_customer_automaton(ctx, i);
      const auto report = anta::analyze(*a);
      EXPECT_TRUE(report.clean()) << report.str(*a);
    }
    for (int i = 0; i < n; ++i) {
      const auto a = proto::build_escrow_automaton(ctx, i);
      const auto report = anta::analyze(*a);
      EXPECT_TRUE(report.clean()) << report.str(*a);
    }
  }
}

TEST(Fuzz, AnalysisDetectsPlantedDefects) {
  // The analyzer must fire on planted structural bugs.
  anta::Automaton a("defective");
  const auto s0 = a.add_state("start", anta::StateKind::kInput);
  const auto s1 = a.add_state("island", anta::StateKind::kInput);  // unreachable
  const auto s2 = a.add_state("trap", anta::StateKind::kInput);    // dead end
  const auto s3 = a.add_state("done", anta::StateKind::kFinal);
  a.set_initial(s0);
  a.add_receive(s0, s2, sim::ProcessId(0), "x");
  a.add_receive(s0, s3, sim::ProcessId(0), "y");
  a.add_receive(s2, s2, sim::ProcessId(0), "loop");
  a.add_receive(s1, s3, sim::ProcessId(0), "z");
  a.validate();
  const auto report = anta::analyze(a);
  EXPECT_FALSE(report.clean());
  ASSERT_EQ(report.unreachable.size(), 1u);
  EXPECT_EQ(report.unreachable[0], s1);
  ASSERT_EQ(report.dead_ends.size(), 1u);
  EXPECT_EQ(report.dead_ends[0], s2);
}

}  // namespace
}  // namespace xcp
