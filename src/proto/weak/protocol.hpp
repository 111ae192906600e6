#pragma once
// Runner for the weak-liveness protocol (Thm 3): wires participants, the
// chosen transaction-manager back-end, synchrony model, drift, patience and
// Byzantine assignments; executes; extracts a RunRecord compatible with the
// Definition-2 property checkers. One runner serves a single deal
// (run_weak) and concurrent deals on shared substrates (run_weak_multi).

#include <utility>
#include <vector>

#include "consensus/notary.hpp"
#include "proto/outcome.hpp"
#include "proto/run.hpp"
#include "proto/weak/participants.hpp"

namespace xcp::proto::weak {

struct WeakByzAssignment {
  bool is_escrow = false;
  int index = 0;
  WeakByz behaviour = WeakByz::kHonest;

  static WeakByzAssignment customer(int i, WeakByz b) { return {false, i, b}; }
  static WeakByzAssignment escrow(int i, WeakByz b) { return {true, i, b}; }
};

struct WeakConfig {
  std::uint64_t seed = 1;
  DealSpec spec = DealSpec::uniform(/*deal_id=*/1, /*n=*/2, /*base=*/1000,
                                    /*commission=*/10);
  /// Default environment: partial synchrony (the regime Thm 3 targets).
  EnvironmentConfig env = [] {
    EnvironmentConfig e;
    e.synchrony = SynchronyKind::kPartiallySynchronous;
    return e;
  }();

  TmKind tm = TmKind::kTrustedParty;

  // Notary-committee back-end.
  int notary_count = 4;
  int byzantine_notaries = 0;
  consensus::NotaryBehaviour notary_byz = consensus::NotaryBehaviour::kSilent;
  Duration notary_base_round = Duration::millis(500);

  // Smart-contract back-end.
  Duration block_interval = Duration::millis(500);

  /// Trusted-party back-end only: a fixed local abort deadline (the
  /// Interledger atomic-protocol notary [4]). Unset = the paper's TM, which
  /// only aborts on customer petitions.
  std::optional<Duration> tm_abort_deadline;

  /// Local-clock patience before an unterminated customer petitions abort.
  Duration patience = Duration::seconds(60);
  /// Per-customer overrides (index, patience) — the "impatient" scenarios.
  std::vector<std::pair<int, Duration>> patience_overrides;

  std::vector<WeakByzAssignment> byzantine;

  /// Observation window (no a-priori schedule bound exists here).
  Duration horizon = Duration::seconds(240);

  /// An adversary factory over the participant ids (timing attacks).
  std::function<std::unique_ptr<net::Adversary>(const Participants&)> adversary;

  /// Online checking (see props/online.hpp): `enabled` exports the
  /// monitor's verdicts into RunRecord::online. The TM infrastructure
  /// (block timer, notary rounds) never drains on its own, so the run ends
  /// at the event that terminates the last abiding member — unless a
  /// watch-only monitor ({true, false}) asks for the full horizon.
  props::OnlineOptions online;
};

RunRecord run_weak(const WeakConfig& config);

/// One deal of a concurrent batch.
struct DealSetup {
  DealSpec spec;  // deal_id must be unique across the batch
  Duration patience = Duration::seconds(60);
  std::vector<std::pair<int, Duration>> patience_overrides;
  std::vector<WeakByzAssignment> byzantine;
};

/// Concurrent deals over one simulator, one ledger and — for the
/// smart-contract back-end — one blockchain hosting a TM contract per deal
/// (the trusted-party back-end runs one TM per deal). Tests isolation (an
/// abort in one deal never touches another), global conservation across
/// deals and the shared chain's throughput.
struct MultiWeakConfig {
  std::uint64_t seed = 1;
  TmKind tm = TmKind::kSmartContract;  // kTrustedParty or kSmartContract
  EnvironmentConfig env = [] {
    EnvironmentConfig e;
    e.synchrony = SynchronyKind::kPartiallySynchronous;
    return e;
  }();
  Duration block_interval = Duration::millis(500);
  std::vector<DealSetup> deals;
  Duration horizon = Duration::seconds(240);
};

/// Runs all deals concurrently; returns one RunRecord per deal (in input
/// order). Each record carries the full shared trace and the run's stats;
/// the per-deal checkers scope certificate consistency by deal id and
/// everything else by the deal's participants.
std::vector<RunRecord> run_weak_multi(const MultiWeakConfig& config);

}  // namespace xcp::proto::weak
