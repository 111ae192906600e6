#include "consensus/notary.hpp"

#include <algorithm>

#include "net/wire.hpp"
#include "proto/bodies.hpp"
#include "support/log.hpp"
#include "support/status.hpp"

namespace xcp::consensus {

namespace {
constexpr std::uint64_t kRoundTimerToken = 1;
}  // namespace

Notary::Notary(std::shared_ptr<const CommitteeConfig> config,
               crypto::KeyRegistry& keys, NotaryBehaviour behaviour)
    : config_(std::move(config)), keys_(keys), behaviour_(behaviour) {
  XCP_REQUIRE(config_ != nullptr, "null committee config");
  XCP_REQUIRE(!config_->members.empty(), "empty committee");
  for (PrecommitTally& tally : precommits_) {
    tally.sigs.resize(config_->members.size());
  }
}

void Notary::on_start() {
  signer_ = keys_.signer_for(id());
  for (std::size_t i = 0; i < config_->members.size(); ++i) {
    if (config_->members[i] == id()) self_index_ = static_cast<int>(i);
  }
  XCP_REQUIRE(self_index_ >= 0, "notary not a committee member");
  if (behaviour_ == NotaryBehaviour::kSilent) return;  // crashed from birth
  if (restored_decided_ && decided_) {
    // A journaled decision is final: no rounds to rejoin. Re-broadcast the
    // certificate so peers and participants that missed it converge
    // (idempotent for receivers), then serve catch-ups from decision_cert().
    if (cert_) {
      auto body = net::make_body<DecisionMsg>();
      body->cert = *cert_;
      for (sim::ProcessId pid : config_->notify) {
        send(pid, net::kinds::tm_cert, body);
      }
      broadcast_to_committee(net::kinds::bft_decision, body);
    }
    return;
  }
  enter_round(0);
}

void Notary::restore(const std::vector<net::WalRecord>& records) {
  XCP_REQUIRE(!decided_, "restore on a notary that already decided");
  for (const net::WalRecord& r : records) {
    if (r.instance != config_->instance) continue;  // another deal's records
    const Value v = static_cast<Value>(r.value != 0);
    switch (r.kind) {
      case net::WalRecordKind::kPrevote:
        journaled_prevotes_.emplace(r.round, v);  // first write wins
        break;
      case net::WalRecordKind::kPrecommit:
        // Precommits sign the round-independent decision digest, so one
        // journaled precommit pins this notary's lock for good.
        if (!journaled_precommit_) journaled_precommit_ = v;
        if (r.round >= lock_round_) {
          locked_ = *journaled_precommit_;
          lock_round_ = r.round;
        }
        break;
      case net::WalRecordKind::kDecide: {
        decided_ = v;
        restored_decided_ = true;
        if (!r.cert.empty()) {
          net::WireContext ctx;
          ctx.roster = &config_->members;
          cert_ = net::parse_certificate(r.cert, ctx);
        }
        break;
      }
      case net::WalRecordKind::kInvalid:
        break;
    }
  }
}

void Notary::journal(net::WalRecordKind kind, int round, Value v,
                     const crypto::Certificate* cert) {
  if (wal_ == nullptr || behaviour_ != NotaryBehaviour::kHonest) return;
  net::WalRecord r;
  r.kind = kind;
  r.instance = config_->instance;
  r.round = round;
  r.value = static_cast<std::uint8_t>(v);
  if (cert != nullptr) {
    // Serialized only here, with a journal attached: in-sim notaries never
    // pay for certificate bytes nobody stores.
    net::WireContext ctx;
    ctx.roster = &config_->members;
    r.cert = net::serialize_certificate(*cert, ctx);
  }
  wal_->append(r);
}

bool Notary::is_leader(int round) const {
  return config_->leader_of_round(round) == self_index_;
}

void Notary::enter_round(int round) {
  round_ = round;
  proposed_this_round_ = false;
  prevoted_this_round_ = false;
  precommitted_this_round_ = false;
  if (round_timer_ != 0) cancel_timer(round_timer_);
  round_timer_ =
      set_timer_local_after(config_->round_duration(round), kRoundTimerToken);
  // Tell the round's leader (and everyone, for simplicity) what we have
  // locked, so the leader re-proposes a locked value.
  auto nr = net::make_body<NewRoundMsg>();
  nr->instance = config_->instance;
  nr->round = round;
  nr->locked = locked_;
  nr->lock_round = lock_round_;
  broadcast_to_committee(net::kinds::bft_newround, nr);
  maybe_propose();
}

void Notary::maybe_propose() {
  if (decided_ || proposed_this_round_ || !is_leader(round_)) return;

  // Choose the value: a lock (own or reported) takes priority; otherwise the
  // preference formed from collected reports. With no evidence at all there
  // is nothing valid to propose yet.
  std::optional<Value> value = locked_;
  if (!value && reported_lock_) value = reported_lock_;
  if (!value) value = preference();
  if (!value) return;

  Justification just = justification_for(*value);
  if (!config_->validity.valid(*value, just)) {
    // A locked/reported value is always re-justifiable by whoever locked it,
    // but this notary may lack the evidence (e.g. reported lock without the
    // underlying reports). Fall back to its own preference if valid.
    value = preference();
    if (!value) return;
    just = justification_for(*value);
    if (!config_->validity.valid(*value, just)) return;
  }

  proposed_this_round_ = true;
  auto p = net::make_body<ProposalMsg>();
  p->instance = config_->instance;
  p->round = round_;
  p->value = *value;
  p->just = std::move(just);
  p->sig = signer_.sign(proposal_digest(p->instance, p->round, p->value));
  broadcast_to_committee(net::kinds::bft_proposal, p);

  if (behaviour_ == NotaryBehaviour::kEquivocator) {
    // Also propose the opposite value if it can be justified.
    const Value other = *value == Value::kCommit ? Value::kAbort : Value::kCommit;
    Justification oj = justification_for(other);
    if (config_->validity.valid(other, oj)) {
      auto p2 = net::make_body<ProposalMsg>();
      p2->instance = config_->instance;
      p2->round = round_;
      p2->value = other;
      p2->just = std::move(oj);
      p2->sig = signer_.sign(proposal_digest(p2->instance, p2->round, other));
      broadcast_to_committee(net::kinds::bft_proposal, p2);
    }
  }
}

std::optional<Value> Notary::preference() const {
  // Abort preference as soon as any petition is in hand; commit preference
  // once the full escrow evidence plus chi is assembled. When both are
  // available, prefer commit (the petitioner is covered either way; CC is
  // enforced by agreement, not by preference).
  const bool commit_ready =
      chi_.has_value() &&
      escrowed_.size() >= config_->validity.expected_escrows.size();
  if (commit_ready) return Value::kCommit;
  if (petition_) return Value::kAbort;
  return std::nullopt;
}

Justification Notary::justification_for(Value v) const {
  Justification j;
  if (v == Value::kCommit) {
    j.chi = chi_;
    for (const auto& [pid, s] : escrowed_) j.statements.push_back(s);
  } else if (petition_) {
    j.statements.push_back(*petition_);
  }
  return j;
}

void Notary::ingest_report(const net::Message& m) {
  if (m.kind == net::kinds::tm_chi) {
    const auto* body = m.body_as<proto::CertMsg>();
    if (body == nullptr) return;
    const crypto::Certificate& cert = body->cert;
    if (cert.kind == crypto::CertKind::kPayment &&
        cert.deal_id == config_->instance &&
        cert.issuer == config_->validity.bob &&
        crypto::verify_cert(keys_, cert)) {
      chi_ = cert;
    }
    return;
  }
  const auto* body = m.body_as<ReportMsg>();
  if (body == nullptr) return;
  const SignedStatement& s = body->statement;
  if (s.deal_id != config_->instance || !s.verify(keys_)) return;
  if (s.kind == "escrowed") {
    const auto& expected = config_->validity.expected_escrows;
    if (std::find(expected.begin(), expected.end(), s.subject) != expected.end()) {
      escrowed_.emplace(s.subject.value(), s);
    }
  } else if (s.kind == "abort-petition") {
    const auto& customers = config_->validity.expected_customers;
    if (std::find(customers.begin(), customers.end(), s.subject) !=
        customers.end()) {
      if (!petition_) petition_ = s;
    }
  }
}

void Notary::handle_proposal(const ProposalMsg& p, sim::ProcessId from) {
  if (p.instance != config_->instance || p.round != round_) return;
  if (from != config_->members[static_cast<std::size_t>(
                  config_->leader_of_round(p.round))]) {
    return;  // not from this round's leader
  }
  if (!keys_.verify(p.sig, proposal_digest(p.instance, p.round, p.value))) return;
  if (!config_->validity.valid(p.value, p.just)) return;
  if (prevoted_this_round_ && behaviour_ != NotaryBehaviour::kEquivocator) return;
  // Locked notaries only prevote their locked value.
  if (locked_ && *locked_ != p.value &&
      behaviour_ != NotaryBehaviour::kEquivocator) {
    return;
  }
  // Adopt the justification so this notary can re-propose later if it
  // becomes leader while locked.
  if (p.value == Value::kCommit) {
    if (p.just.chi) chi_ = p.just.chi;
    for (const auto& s : p.just.statements) {
      if (s.kind == "escrowed" && s.verify(keys_)) {
        escrowed_.emplace(s.subject.value(), s);
      }
    }
  } else {
    for (const auto& s : p.just.statements) {
      if (s.kind == "abort-petition" && s.verify(keys_) && !petition_) {
        petition_ = s;
      }
    }
  }
  prevoted_this_round_ = true;
  send_prevote(p.value);
}

void Notary::send_prevote(Value v) {
  if (behaviour_ == NotaryBehaviour::kHonest) {
    // Amnesia-safety: a journaled prevote for this round pins the value a
    // previous life signed. Re-sending the same vote is harmless (receivers
    // dedup by signer); signing a different one would be equivocation.
    const auto it = journaled_prevotes_.find(round_);
    if (it != journaled_prevotes_.end() && it->second != v) return;
    if (it == journaled_prevotes_.end()) {
      journal(net::WalRecordKind::kPrevote, round_, v);
      journaled_prevotes_.emplace(round_, v);
    }
  }
  auto vote = net::make_body<VoteMsg>();
  vote->instance = config_->instance;
  vote->round = round_;
  vote->value = v;
  vote->phase = VoteMsg::Phase::kPrevote;
  vote->sig = signer_.sign(prevote_digest(config_->instance, round_, v));
  broadcast_to_committee(net::kinds::bft_vote, vote);
  if (behaviour_ == NotaryBehaviour::kEquivocator) {
    const Value other = v == Value::kCommit ? Value::kAbort : Value::kCommit;
    auto vote2 = net::make_body<VoteMsg>();
    vote2->instance = config_->instance;
    vote2->round = round_;
    vote2->value = other;
    vote2->phase = VoteMsg::Phase::kPrevote;
    vote2->sig = signer_.sign(prevote_digest(config_->instance, round_, other));
    broadcast_to_committee(net::kinds::bft_vote, vote2);
  }
}

void Notary::send_precommit(Value v) {
  if (behaviour_ == NotaryBehaviour::kHonest) {
    // Precommits sign the round-independent decision digest: one journaled
    // precommit for the other value forbids this one forever.
    if (journaled_precommit_ && *journaled_precommit_ != v) return;
    if (!journaled_precommit_) {
      journal(net::WalRecordKind::kPrecommit, round_, v);
      journaled_precommit_ = v;
    }
  }
  auto vote = net::make_body<VoteMsg>();
  vote->instance = config_->instance;
  vote->round = round_;
  vote->value = v;
  vote->phase = VoteMsg::Phase::kPrecommit;
  vote->sig = signer_.sign(
      decision_digest(config_->instance, config_->committee_identity, v));
  broadcast_to_committee(net::kinds::bft_vote, vote);
}

Notary::PrevoteTally& Notary::prevote_tally(int round) {
  PrevoteTally* reuse = nullptr;
  for (PrevoteTally& t : prevotes_) {
    if (t.round == round) return t;
    if (reuse == nullptr && t.round < round_) reuse = &t;
  }
  if (reuse == nullptr) reuse = &prevotes_.emplace_back();
  reuse->round = round;
  for (IndexSet& voters : reuse->voters) voters.reset(config_->members.size());
  return *reuse;
}

void Notary::handle_vote(const VoteMsg& v, sim::ProcessId from) {
  if (v.instance != config_->instance) return;
  const auto& members = config_->members;
  const auto it = std::find(members.begin(), members.end(), from);
  if (it == members.end() || from != v.sig.signer) return;
  const auto member = static_cast<std::size_t>(it - members.begin());
  const auto value = static_cast<std::size_t>(v.value);

  if (v.phase == VoteMsg::Phase::kPrevote) {
    // A prevote quorum only acts in the current round, and round_ never
    // decreases: votes for earlier rounds can no longer matter.
    if (v.round < round_) return;
    if (!keys_.verify(v.sig, prevote_digest(v.instance, v.round, v.value))) return;
    IndexSet& voters = prevote_tally(v.round).voters[value];
    voters.add(member);
    if (v.round == round_ &&
        static_cast<int>(voters.size()) >= config_->quorum() &&
        !precommitted_this_round_) {
      if (behaviour_ == NotaryBehaviour::kHonest && journaled_precommit_ &&
          *journaled_precommit_ != v.value) {
        // A previous life precommitted the other value; adopting this
        // quorum's lock would let us sign a conflicting decision digest.
        return;
      }
      // Lock and precommit.
      locked_ = v.value;
      lock_round_ = v.round;
      precommitted_this_round_ = true;
      send_precommit(v.value);
      if (behaviour_ == NotaryBehaviour::kEquivocator) {
        send_precommit(v.value == Value::kCommit ? Value::kAbort
                                                 : Value::kCommit);
      }
    }
    return;
  }

  // Precommit: signature over the decision digest.
  const std::uint64_t digest =
      decision_digest(v.instance, config_->committee_identity, v.value);
  if (!keys_.verify(v.sig, digest)) return;
  PrecommitTally& tally = precommits_[value];
  if (!tally.sigs[member]) {  // a signer's first precommit is the one kept
    tally.sigs[member] = v.sig;
    ++tally.count;
  }
  if (tally.count >= config_->quorum() && !decided_) decide(v.value);
}

void Notary::handle_new_round(const NewRoundMsg& nr, sim::ProcessId from) {
  if (nr.instance != config_->instance) return;
  const bool member =
      std::find(config_->members.begin(), config_->members.end(), from) !=
      config_->members.end();
  if (!member) return;
  if (nr.locked && nr.lock_round > reported_lock_round_) {
    reported_lock_ = nr.locked;
    reported_lock_round_ = nr.lock_round;
  }
  maybe_propose();
}

void Notary::decide(Value v) {
  if (v == Value::kCommit && !chi_.has_value()) {
    // A recovered notary can reach a commit precommit quorum before it has
    // re-collected chi (the in-memory evidence died with the old process).
    // Without chi it cannot assemble a valid commit certificate, so it waits
    // for a bft_decision relay or catch-up response instead.
    return;
  }
  decided_ = v;
  if (round_timer_ != 0) cancel_timer(round_timer_);

  // Assemble the quorum certificate from the collected precommit
  // signatures: the first 2f+1 in ascending signer-pid order, whatever the
  // roster order, so every notary holding the same votes builds the same
  // certificate bytes.
  std::vector<crypto::Signature> sigs;
  for (const auto& sig : precommits_[static_cast<std::size_t>(v)].sigs) {
    if (sig) sigs.push_back(*sig);
  }
  std::sort(sigs.begin(), sigs.end(),
            [](const crypto::Signature& a, const crypto::Signature& b) {
              return a.signer.value() < b.signer.value();
            });
  sigs.resize(std::min(sigs.size(), static_cast<std::size_t>(config_->quorum())));
  const crypto::Certificate* chi_ptr = nullptr;
  crypto::Certificate chi_store;
  if (v == Value::kCommit) {
    XCP_REQUIRE(chi_.has_value(), "committing without chi in hand");
    chi_store = *chi_;
    chi_ptr = &chi_store;
  }
  cert_ = crypto::make_quorum_cert(cert_kind_of(v), config_->instance,
                                   config_->committee_identity,
                                   std::move(sigs), chi_ptr);
  journal(net::WalRecordKind::kDecide, round_, v, &*cert_);

  record_decide_event(v);

  auto body = net::make_body<DecisionMsg>();
  body->cert = *cert_;
  for (sim::ProcessId pid : config_->notify) send(pid, net::kinds::tm_cert, body);
  broadcast_to_committee(net::kinds::bft_decision, body);
}

void Notary::record_decide_event(Value v) {
  if (net().trace() == nullptr) return;
  props::TraceEvent e;
  e.kind = props::EventKind::kDecide;
  e.at = global_now();
  e.local_at = local_now();
  e.actor = id();
  e.label = value_label(v);
  e.deal_id = config_->instance;
  net().trace()->record(e);
}

void Notary::handle_decision(const DecisionMsg& d) {
  if (decided_) return;
  const crypto::Certificate& cert = d.cert;
  if (cert.deal_id != config_->instance) return;
  if (cert.issuer != config_->committee_identity) return;
  if (cert.kind != crypto::CertKind::kCommit &&
      cert.kind != crypto::CertKind::kAbort) {
    return;
  }
  if (!crypto::verify_quorum_cert(keys_, cert, config_->members,
                                  static_cast<std::size_t>(config_->quorum()))) {
    return;
  }
  decided_ = cert.kind == crypto::CertKind::kCommit ? Value::kCommit
                                                    : Value::kAbort;
  cert_ = cert;
  journal(net::WalRecordKind::kDecide, round_, *decided_, &cert);
  if (round_timer_ != 0) cancel_timer(round_timer_);
  // Relay to participants (helps when the original decider's sends were
  // slow); decision relays are idempotent for receivers.
  auto body = net::make_body<DecisionMsg>(d);
  for (sim::ProcessId pid : config_->notify) send(pid, net::kinds::tm_cert, body);
}

void Notary::on_message(const net::Message& m) {
  if (behaviour_ == NotaryBehaviour::kSilent) return;
  if (decided_ && m.kind != net::kinds::bft_decision) return;

  if (m.kind == net::kinds::tm_report || m.kind == net::kinds::tm_chi) {
    ingest_report(m);
    maybe_propose();
    return;
  }
  if (m.kind == net::kinds::bft_proposal) {
    if (const auto* p = m.body_as<ProposalMsg>()) handle_proposal(*p, m.from);
    return;
  }
  if (m.kind == net::kinds::bft_vote) {
    if (const auto* v = m.body_as<VoteMsg>()) handle_vote(*v, m.from);
    return;
  }
  if (m.kind == net::kinds::bft_newround) {
    if (const auto* nr = m.body_as<NewRoundMsg>()) handle_new_round(*nr, m.from);
    return;
  }
  if (m.kind == net::kinds::bft_decision) {
    if (const auto* d = m.body_as<DecisionMsg>()) handle_decision(*d);
    return;
  }
}

void Notary::on_timer(std::uint64_t token) {
  if (behaviour_ == NotaryBehaviour::kSilent || decided_) return;
  if (token == kRoundTimerToken) enter_round(round_ + 1);
}

void Notary::broadcast_to_committee(net::MsgKind kind, net::BodyPtr body) {
  for (sim::ProcessId pid : config_->members) {
    if (pid == id()) continue;
    send(pid, kind, body);
  }
  // Self-delivery without the network: process own votes/proposals inline.
  net::Message self;
  self.from = id();
  self.to = id();
  self.kind = kind;
  self.body = std::move(body);
  on_message(self);
}

}  // namespace xcp::consensus
