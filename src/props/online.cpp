#include "props/online.hpp"

#include "support/status.hpp"

namespace xcp::props {

// ----------------------------------------------------- TerminationOnline

void TerminationOnline::expect(sim::ProcessId pid) {
  XCP_REQUIRE(!decided(), "expect() after the verdict decided");
  for (std::uint32_t v : expected_) {
    if (v == pid.value()) return;
  }
  expected_.push_back(pid.value());
  seen_.push_back(0);
  ++pending_;
}

Verdict TerminationOnline::step(const TraceEvent& e) {
  // Linear scan over the cast: a run's cast is small (2n+1 participants),
  // and the scan touches one contiguous array — no hashing, no allocation.
  for (std::size_t i = 0; i < expected_.size(); ++i) {
    if (expected_[i] == e.actor.value()) {
      if (seen_[i] == 0) {
        seen_[i] = 1;
        if (--pending_ == 0) return Verdict::kHolds;
      }
      break;
    }
  }
  return Verdict::kUndecided;
}

// -------------------------------------------------------- LivenessOnline

Verdict LivenessOnline::step(const TraceEvent& e) {
  if (!e.amount || e.amount->currency() != currency_) {
    return Verdict::kUndecided;
  }
  if (e.peer == bob_) net_ += e.amount->units();
  if (e.actor == bob_) net_ -= e.amount->units();
  return net_ >= target_ ? Verdict::kHolds : Verdict::kUndecided;
}

// ------------------------------------------------- CertConsistencyOnline

Verdict CertConsistencyOnline::step(const TraceEvent& e) {
  if (e.deal_id != 0 && deal_id_ != 0 && e.deal_id != deal_id_) {
    return Verdict::kUndecided;
  }
  if (e.label == labels::commit) commit_ = true;
  if (e.label == labels::abort_) abort_ = true;
  return (commit_ && abort_) ? Verdict::kViolated : Verdict::kUndecided;
}

// --------------------------------------------------- AbortFreedomOnline

Verdict AbortFreedomOnline::step(const TraceEvent&) {
  // Any abort request decides: patience was lost, and that cannot be
  // retracted.
  return Verdict::kViolated;
}

// ---------------------------------------------------------- OnlineMonitor

OnlineMonitor::OnlineMonitor(const Config& cfg)
    : liveness_(cfg.bob, cfg.last_hop), cc_(cfg.deal_id) {
  for (sim::ProcessId pid : cfg.cast) termination_.expect(pid);

  OnlineChecker* const all[] = {&termination_, &liveness_, &cc_, &aborts_};
  for (OnlineChecker* c : all) {
    for (std::size_t k = 0; k < kEventKindCount; ++k) {
      if ((c->kind_mask() & (std::uint32_t{1} << k)) == 0) continue;
      auto& list = by_kind_[k];
      std::size_t i = 0;
      while (i < kMaxPerKind && list[i] != nullptr) ++i;
      XCP_REQUIRE(i < kMaxPerKind, "too many checkers for one event kind");
      list[i] = c;
    }
  }
}

void OnlineMonitor::on_record(const TraceEvent& e) {
  const std::uint64_t seq = seq_++;
  const auto& list = by_kind_[static_cast<std::size_t>(e.kind)];
  for (OnlineChecker* c : list) {
    if (c == nullptr) break;
    c->on_event(e, seq);
  }
  if (stop_ != nullptr && termination_.verdict() == Verdict::kHolds) {
    stop_->request(e.at);
  }
}

OnlineOutcome OnlineMonitor::outcome() const {
  OnlineOutcome o;
  o.attached = true;
  o.early_stopped = stop_ != nullptr && stop_->stop_requested;
  o.termination = termination_.final_verdict();
  o.liveness = liveness_.final_verdict();
  o.cert_consistency = cc_.final_verdict();
  o.abort_freedom = aborts_.final_verdict();
  o.decided_at = termination_.decided_at();
  o.decided_seq = termination_.decided_seq();
  o.events_seen = seq_;
  return o;
}

}  // namespace xcp::props
