#pragma once
// A notary: one member of the committee transaction manager. It plays two
// roles at once:
//  - report collector: participants broadcast "escrowed" statements, Bob's
//    chi and abort petitions to every notary; from these each notary forms
//    its preference (commit once the full escrow evidence is in; abort once
//    any petition arrives);
//  - consensus participant: rotating-leader rounds with prevote/precommit
//    quorums and value locking (consensus/messages.hpp for the scheme).
//
// On deciding, a notary assembles the 2f+1 precommit signatures into a
// quorum certificate and broadcasts it to all parties in `config.notify`.
//
// Byzantine notary behaviours (for fault-injection tests and the TM bench):
// silent (crashes immediately) and equivocator (prevotes and precommits both
// values, and proposes whichever value it can when leader).

#include <array>
#include <map>
#include <memory>
#include <optional>
#include <vector>

#include "consensus/committee.hpp"
#include "net/network.hpp"
#include "net/wal.hpp"
#include "props/trace.hpp"
#include "support/index_set.hpp"

namespace xcp::consensus {

enum class NotaryBehaviour { kHonest, kSilent, kEquivocator };

class Notary : public net::Actor {
 public:
  Notary(std::shared_ptr<const CommitteeConfig> config,
         crypto::KeyRegistry& keys,
         NotaryBehaviour behaviour = NotaryBehaviour::kHonest);

  bool decided() const { return decided_.has_value(); }
  std::optional<Value> decision() const { return decided_; }
  /// The quorum certificate this notary assembled or adopted; set exactly
  /// when decided(). Catch-up responders (tools/xcp_node) serve it to
  /// rejoining peers.
  const std::optional<crypto::Certificate>& decision_cert() const {
    return cert_;
  }
  int rounds_entered() const { return round_ + 1; }

  // --- crash recovery (net/wal.hpp; docs/ROBUSTNESS.md crash-recovery rung)

  /// Attaches the write-ahead journal: every prevote, precommit and
  /// decision is appended (and fsync'd) BEFORE the corresponding broadcast
  /// leaves this notary, so a crash can lose an unsent vote but never sends
  /// an unjournaled one. Honest notaries only; Byzantine behaviours ignore
  /// the journal by design.
  void set_wal(net::WriteAheadLog* wal) { wal_ = wal; }

  /// Replays journal records from a previous life (WriteAheadLog::open()).
  /// Call after construction, before the simulation starts. Amnesia-safety
  /// afterwards: this notary refuses to prevote a different value in any
  /// round it already prevoted, refuses to precommit a value conflicting
  /// with a journaled precommit (precommits sign the round-independent
  /// decision digest), and a journaled decision is immediately final —
  /// on_start re-broadcasts its certificate instead of rejoining rounds.
  void restore(const std::vector<net::WalRecord>& records);

  void on_start() override;
  void on_message(const net::Message& m) override;
  void on_timer(std::uint64_t token) override;

 private:
  // --- report collection / preference formation ---
  void ingest_report(const net::Message& m);
  std::optional<Value> preference() const;
  Justification justification_for(Value v) const;

  // --- consensus core ---
  bool is_leader(int round) const;
  void enter_round(int round);
  void maybe_propose();
  void handle_proposal(const ProposalMsg& p, sim::ProcessId from);
  void handle_vote(const VoteMsg& v, sim::ProcessId from);
  void handle_new_round(const NewRoundMsg& nr, sim::ProcessId from);
  void handle_decision(const DecisionMsg& d);
  void broadcast_to_committee(net::MsgKind kind, net::BodyPtr body);
  void send_prevote(Value v);
  void send_precommit(Value v);
  void decide(Value v);
  void record_decide_event(Value v);
  void journal(net::WalRecordKind kind, int round, Value v,
               const crypto::Certificate* cert = nullptr);

  std::shared_ptr<const CommitteeConfig> config_;
  crypto::KeyRegistry& keys_;
  NotaryBehaviour behaviour_;
  crypto::Signer signer_;
  int self_index_ = -1;

  // Collected application evidence.
  std::map<std::uint32_t, SignedStatement> escrowed_;  // by escrow pid
  std::optional<crypto::Certificate> chi_;
  std::optional<SignedStatement> petition_;

  // Round state.
  int round_ = 0;
  bool proposed_this_round_ = false;
  bool prevoted_this_round_ = false;
  bool precommitted_this_round_ = false;
  std::optional<Value> locked_;
  int lock_round_ = -1;
  sim::TimerId round_timer_ = 0;

  // Vote bookkeeping, by committee member index (the roster position
  // handle_vote's membership lookup yields), so tallying allocates nothing.
  //  - Prevotes: a voter bitmap per (round, value). Quorums are only
  //    checked for the current round, so tallies are kept for round_ and
  //    the later rounds votes arrived early for; a tally for a round behind
  //    round_ is dead and its entry is reused.
  //  - Precommits: one signature slot per (value, member), accumulated
  //    across rounds (they sign the round-independent decision digest).
  //    decide() takes the slots in ascending signer-pid order.
  struct PrevoteTally {
    int round = -1;
    std::array<IndexSet, 2> voters;  // by Value
  };
  struct PrecommitTally {
    std::vector<std::optional<crypto::Signature>> sigs;  // by member index
    int count = 0;
  };
  PrevoteTally& prevote_tally(int round);
  std::vector<PrevoteTally> prevotes_;
  std::array<PrecommitTally, 2> precommits_;  // by Value
  // Highest locked value reported by peers entering the current round.
  std::optional<Value> reported_lock_;
  int reported_lock_round_ = -1;

  std::optional<Value> decided_;
  std::optional<crypto::Certificate> cert_;

  // Crash-recovery state: the journal (may be null) and what it already
  // holds — the amnesia-safety guards consult these before signing.
  net::WriteAheadLog* wal_ = nullptr;
  std::map<int, Value> journaled_prevotes_;  // round -> value signed
  std::optional<Value> journaled_precommit_;
  bool restored_decided_ = false;
};

}  // namespace xcp::consensus
