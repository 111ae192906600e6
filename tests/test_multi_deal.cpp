// Concurrent deals on shared substrates: isolation, global conservation,
// per-deal certificate consistency, shared-chain behaviour.

#include <gtest/gtest.h>

#include "exp/scenario.hpp"
#include "props/checkers.hpp"
#include "proto/weak/protocol.hpp"

namespace xcp::proto::weak {
namespace {

MultiWeakConfig base(TmKind tm, std::uint64_t seed, int deals, int n) {
  MultiWeakConfig cfg;
  cfg.seed = seed;
  cfg.tm = tm;
  cfg.env = exp::partial_env(exp::default_timing(), /*gst_seconds=*/2,
                             Duration::millis(500));
  for (int d = 0; d < deals; ++d) {
    DealSetup setup;
    setup.spec = DealSpec::uniform(/*deal_id=*/100 + d, n, /*base=*/1000 + d,
                                   /*commission=*/5);
    setup.patience = Duration::seconds(60);
    cfg.deals.push_back(std::move(setup));
  }
  return cfg;
}

class MultiDealTest : public ::testing::TestWithParam<TmKind> {};

TEST_P(MultiDealTest, AllDealsCommitIndependently) {
  const auto records = run_weak_multi(base(GetParam(), 5, 4, 2));
  ASSERT_EQ(records.size(), 4u);
  for (const auto& r : records) {
    EXPECT_TRUE(r.bob_paid()) << r.protocol << " deal " << r.spec.deal_id
                              << "\n" << r.summary();
    const auto report = props::check_definition2(r, props::CheckOptions{});
    EXPECT_TRUE(report.all_hold())
        << "deal " << r.spec.deal_id << "\n" << report.str();
  }
}

TEST_P(MultiDealTest, AbortInOneDealDoesNotTouchOthers) {
  auto cfg = base(GetParam(), 6, 3, 2);
  // Deal #1's Alice aborts immediately; deals #0 and #2 must still commit.
  cfg.deals[1].patience_overrides.push_back({0, Duration::millis(1)});
  const auto records = run_weak_multi(cfg);
  EXPECT_TRUE(records[0].bob_paid()) << records[0].summary();
  EXPECT_FALSE(records[1].bob_paid()) << records[1].summary();
  EXPECT_TRUE(records[2].bob_paid()) << records[2].summary();
  for (const auto& r : records) {
    // Per-deal CC: the shared trace contains both commit and abort events,
    // but scoped by deal id each record sees at most one kind.
    EXPECT_TRUE(props::check_certificate_consistency(r).holds)
        << "deal " << r.spec.deal_id;
    const auto report = props::check_definition2(r, props::CheckOptions{});
    EXPECT_TRUE(report.all_hold())
        << "deal " << r.spec.deal_id << "\n" << report.str();
  }
}

TEST_P(MultiDealTest, GlobalConservationAcrossDeals) {
  auto cfg = base(GetParam(), 7, 5, 3);
  cfg.deals[2].byzantine.push_back(
      WeakByzAssignment::customer(1, WeakByz::kCrash));
  cfg.deals[4].patience_overrides.push_back({2, Duration::millis(10)});
  const auto records = run_weak_multi(cfg);
  // Sum net changes over *all* participants of *all* deals: zero.
  std::int64_t total = 0;
  for (const auto& r : records) {
    for (const auto& p : r.participants) {
      total += p.net_units(Currency::generic());
    }
  }
  EXPECT_EQ(total, 0);
}

TEST_P(MultiDealTest, RunEndsWhenTheLastAbidingParticipantTerminates) {
  // The batch stops at the event that terminates the last abiding
  // participant of any deal; every record carries that end time.
  auto cfg = base(GetParam(), 7, 5, 3);
  cfg.deals[2].byzantine.push_back(
      WeakByzAssignment::customer(1, WeakByz::kCrash));
  cfg.deals[4].patience_overrides.push_back({2, Duration::millis(10)});
  const auto records = run_weak_multi(cfg);
  TimePoint last;
  for (const auto& r : records) {
    for (const auto& p : r.participants) {
      if (!p.abiding) continue;
      ASSERT_TRUE(p.terminated) << "deal " << r.spec.deal_id << " " << p.role;
      last = std::max(last, p.terminated_global);
    }
  }
  for (const auto& r : records) {
    EXPECT_EQ(r.stats.end_time, last) << "deal " << r.spec.deal_id;
    EXPECT_TRUE(r.stats.drained);
  }
}

INSTANTIATE_TEST_SUITE_P(Tms, MultiDealTest,
                         ::testing::Values(TmKind::kTrustedParty,
                                           TmKind::kSmartContract),
                         [](const auto& info) {
                           return info.param == TmKind::kTrustedParty
                                      ? "TrustedParty"
                                      : "SharedChain";
                         });

TEST(MultiDeal, SharedChainHostsManyContracts) {
  // 8 deals through one blockchain: every deal decided, chain accepted the
  // txs of all of them.
  const auto records = run_weak_multi(base(TmKind::kSmartContract, 9, 8, 1));
  ASSERT_EQ(records.size(), 8u);
  for (const auto& r : records) {
    EXPECT_TRUE(r.bob_paid()) << "deal " << r.spec.deal_id;
  }
  // All commits present in the shared trace, one per deal.
  std::size_t commits = 0;
  for (const auto& e : records[0].trace.events()) {
    commits += (e.kind == props::EventKind::kDecide &&
                e.label == std::string("commit"));
  }
  EXPECT_EQ(commits, 8u);
}

TEST(MultiDeal, RejectsDuplicateDealIds) {
  auto cfg = base(TmKind::kSmartContract, 3, 2, 1);
  cfg.deals[1].spec.deal_id = cfg.deals[0].spec.deal_id;
  EXPECT_THROW(run_weak_multi(cfg), std::logic_error);
}

TEST(MultiDeal, DeterministicAcrossRuns) {
  const auto a = run_weak_multi(base(TmKind::kSmartContract, 11, 3, 2));
  const auto b = run_weak_multi(base(TmKind::kSmartContract, 11, 3, 2));
  ASSERT_EQ(a[0].trace.events().size(), b[0].trace.events().size());
  for (std::size_t i = 0; i < a[0].trace.events().size(); ++i) {
    EXPECT_EQ(a[0].trace.events()[i].str(), b[0].trace.events()[i].str()) << i;
  }
}

}  // namespace
}  // namespace xcp::proto::weak
