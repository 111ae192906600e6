#pragma once
// Online (incremental) property checking.
//
// The batch checkers (props/checkers.hpp) evaluate a finished RunRecord.
// Most runs, however, decide their verdict a fraction of the way in: the
// cast reaches agreement and terminates, a conflicting certificate shows
// up, Bob's payment lands. This header provides the incremental form — an
// OnlineChecker is a small state machine with an
//
//   on_event(const TraceEvent&) -> Verdict{Undecided, Holds, Violated}
//
// step, fed straight from TraceRecorder::record() via the TraceSink hook.
// Verdicts are *monotone by construction*: every machine here only latches
// on evidence that later events cannot retract (a terminate event cannot
// un-happen, issued certificates cannot be unissued, Bob's cumulative
// inflow for the paid check only matters once it crosses the target), so a
// decided verdict is final and an absence-based verdict is resolved at
// quiescence (final_verdict()). That is what makes early run termination
// semantics-preserving: once the OnlineMonitor's stop rule fires — every
// abiding participant has terminated, freezing holdings, certificates and
// termination state — the post-mortem checkers applied to the stopped
// record produce the verdicts the full-horizon run would have produced.
//
// Allocation discipline: configuration (the cast list) allocates at setup;
// the on_event hot path performs no allocation — kind-indexed dispatch
// over a fixed table, interned-label integer compares, plain counters
// (test_alloc.cpp proves it with the counting allocator).

#include <array>
#include <cstdint>
#include <vector>

#include "props/label.hpp"
#include "props/trace.hpp"
#include "sim/stop_token.hpp"
#include "support/amount.hpp"

namespace xcp::props {

enum class Verdict : std::uint8_t { kUndecided = 0, kHolds, kViolated };

/// Bit for one EventKind in a checker's subscription mask.
constexpr std::uint32_t kind_bit(EventKind k) {
  return std::uint32_t{1} << static_cast<unsigned>(k);
}
static_assert(kEventKindCount <= 32, "kind mask is a uint32");

/// An incremental property state machine. Feed events in record order;
/// the verdict latches at the first deciding event (later events are
/// ignored), capturing the deciding event's timestamp and ordinal.
class OnlineChecker {
 public:
  virtual ~OnlineChecker() = default;

  const char* name() const { return name_; }
  std::uint32_t kind_mask() const { return kind_mask_; }

  Verdict verdict() const { return verdict_; }
  bool decided() const { return verdict_ != Verdict::kUndecided; }
  /// Valid once decided(): virtual time / trace ordinal of the deciding
  /// event.
  TimePoint decided_at() const { return decided_at_; }
  std::uint64_t decided_seq() const { return decided_seq_; }

  /// One step. `seq` is the event's ordinal in the observed stream.
  void on_event(const TraceEvent& e, std::uint64_t seq) {
    if (verdict_ != Verdict::kUndecided) return;
    const Verdict v = step(e);
    if (v != Verdict::kUndecided) {
      verdict_ = v;
      decided_at_ = e.at;
      decided_seq_ = seq;
    }
  }

  /// The verdict once no further events will arrive: the latched verdict,
  /// or the absence-based resolution (e.g. "no conflicting certificate was
  /// ever issued" => holds).
  Verdict final_verdict() const {
    return decided() ? verdict_ : at_quiescence();
  }

 protected:
  OnlineChecker(const char* name, std::uint32_t kind_mask)
      : name_(name), kind_mask_(kind_mask) {}

  /// Examines one event; returns kUndecided to keep watching.
  virtual Verdict step(const TraceEvent& e) = 0;
  /// Resolves a still-undecided verdict at quiescence.
  virtual Verdict at_quiescence() const { return Verdict::kHolds; }

 private:
  const char* name_;
  std::uint32_t kind_mask_;
  Verdict verdict_ = Verdict::kUndecided;
  TimePoint decided_at_;
  std::uint64_t decided_seq_ = 0;
};

/// Cast quiescence (the stop rule, and the online form of the matrix's
/// termination bit): holds once every expected participant has recorded a
/// kTerminate event. Expected pids are registered at setup (the abiding
/// cast — Byzantine members may never terminate by design and must not
/// hold the verdict hostage). Resolves to Violated at quiescence: someone
/// never terminated within the observation window.
class TerminationOnline final : public OnlineChecker {
 public:
  TerminationOnline()
      : OnlineChecker("termination", kind_bit(EventKind::kTerminate)) {}

  /// Setup-time (allocates); duplicates are ignored.
  void expect(sim::ProcessId pid);

  std::size_t pending() const { return pending_; }

 protected:
  Verdict step(const TraceEvent& e) override;
  Verdict at_quiescence() const override { return Verdict::kViolated; }

 private:
  std::vector<std::uint32_t> expected_;  // pid values
  std::vector<std::uint8_t> seen_;       // parallel to expected_
  std::size_t pending_ = 0;
};

/// Bob-paid (the core of L and Lw): tracks Bob's cumulative ledger flow in
/// the last hop's currency over kTransfer events and holds once the net
/// inflow reaches the hop amount — the trace-stream form of
/// RunRecord::bob_paid() (final minus initial holdings are exactly the
/// traced transfers). Violated at quiescence: the run ended with Bob
/// unpaid.
class LivenessOnline final : public OnlineChecker {
 public:
  LivenessOnline(sim::ProcessId bob, Amount last_hop)
      : OnlineChecker("liveness", kind_bit(EventKind::kTransfer)),
        bob_(bob),
        currency_(last_hop.currency()),
        target_(last_hop.units()) {}

 protected:
  Verdict step(const TraceEvent& e) override;
  Verdict at_quiescence() const override { return Verdict::kViolated; }

 private:
  sim::ProcessId bob_;
  Currency currency_;
  std::int64_t target_ = 0;
  std::int64_t net_ = 0;
};

/// CC, incrementally: violated the moment conflicting decisions (commit
/// and abort) have both been issued for this deal. Deal-scoped exactly
/// like the batch checker: unscoped decide events (deal_id 0) count, so
/// shared-substrate runs stay distinguishable. Holds at quiescence.
class CertConsistencyOnline final : public OnlineChecker {
 public:
  explicit CertConsistencyOnline(std::uint64_t deal_id)
      : OnlineChecker("cert-consistency", kind_bit(EventKind::kDecide)),
        deal_id_(deal_id) {}

  bool commit_issued() const { return commit_; }
  bool abort_issued() const { return abort_; }

 protected:
  Verdict step(const TraceEvent& e) override;

 private:
  std::uint64_t deal_id_ = 0;
  bool commit_ = false;
  bool abort_ = false;
};

/// Lw's applicability clause, incrementally: "violated" records that some
/// customer lost patience (a kAbortRequested event) — weak liveness is
/// then not claimable. Holds at quiescence (everyone stayed patient).
class AbortFreedomOnline final : public OnlineChecker {
 public:
  AbortFreedomOnline()
      : OnlineChecker("abort-freedom", kind_bit(EventKind::kAbortRequested)) {}

 protected:
  Verdict step(const TraceEvent& e) override;
};

/// How a run wires online checking (member of the run configs).
struct OnlineOptions {
  /// Attach an OnlineMonitor to the run's trace; verdicts and decided-at
  /// timestamps land in RunRecord::online.
  bool enabled = false;
  /// Additionally terminate the run the moment the stop rule decides
  /// (every abiding participant terminated): the simulator's remaining
  /// queue is abandoned. Checker-visible outcomes are frozen by then, so
  /// post-mortem verdicts are unchanged; stats (events_executed, end_time,
  /// delivery counts) reflect the shorter run.
  bool early_stop = false;
};

/// What the monitor observed, exported into the RunRecord.
struct OnlineOutcome {
  bool attached = false;
  bool early_stopped = false;              // the stop rule fired in time
  Verdict termination = Verdict::kUndecided;
  Verdict liveness = Verdict::kUndecided;
  Verdict cert_consistency = Verdict::kUndecided;
  Verdict abort_freedom = Verdict::kUndecided;
  TimePoint decided_at;        // when the stop rule decided (if it did)
  std::uint64_t decided_seq = 0;
  std::uint64_t events_seen = 0;  // trace events observed in total
};

/// The per-run harness: owns the paper's online checkers, dispatches each
/// recorded event to the machines subscribed to its kind (a fixed
/// kind-indexed table — the trace pipeline's index discipline applied to
/// dispatch), and requests the simulator stop when the stop rule decides.
class OnlineMonitor final : public TraceSink {
 public:
  struct Config {
    std::uint64_t deal_id = 0;
    sim::ProcessId bob;
    Amount last_hop;
    /// The abiding cast whose termination freezes all checker inputs
    /// (customers and escrows; TM infrastructure excluded).
    std::vector<sim::ProcessId> cast;
  };

  explicit OnlineMonitor(const Config& cfg);

  /// Arms early termination: when the stop rule fires, `token` is
  /// requested with the deciding event's timestamp.
  void arm_stop(sim::StopToken* token) { stop_ = token; }

  // TraceSink: the record() hot path. No allocation.
  void on_record(const TraceEvent& e) override;

  /// The stop rule: every expected participant has terminated.
  bool quiescent() const {
    return termination_.verdict() == Verdict::kHolds;
  }

  const TerminationOnline& termination() const { return termination_; }
  const LivenessOnline& liveness() const { return liveness_; }
  const CertConsistencyOnline& cert_consistency() const { return cc_; }
  const AbortFreedomOnline& abort_freedom() const { return aborts_; }
  std::uint64_t events_seen() const { return seq_; }

  /// Snapshot for the RunRecord, resolving absence-based verdicts.
  OnlineOutcome outcome() const;

 private:
  static constexpr std::size_t kMaxPerKind = 4;

  TerminationOnline termination_;
  LivenessOnline liveness_;
  CertConsistencyOnline cc_;
  AbortFreedomOnline aborts_;
  sim::StopToken* stop_ = nullptr;  // not owned
  std::uint64_t seq_ = 0;
  // by_kind_[k] lists the checkers subscribed to EventKind k,
  // null-terminated (counts_[k] live checkers).
  std::array<std::array<OnlineChecker*, kMaxPerKind>, kEventKindCount>
      by_kind_{};
};

}  // namespace xcp::props
