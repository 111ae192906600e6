#pragma once
// Run outcomes: what the property checkers and benches consume. Both the
// time-bounded and the weak-liveness runners produce a RunRecord.

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "ledger/escrow.hpp"
#include "net/network.hpp"
#include "proto/byzantine.hpp"
#include "proto/deal_spec.hpp"
#include "proto/timelock_schedule.hpp"
#include "props/online.hpp"
#include "props/trace.hpp"

namespace xcp::proto {

struct ParticipantOutcome {
  sim::ProcessId pid;
  std::string role;            // alice / bob / chloe_i / escrow_i / tm / ...
  bool abiding = true;         // false if assigned a Byzantine strategy
  bool is_escrow = false;

  bool terminated = false;     // reached a final state
  TimePoint terminated_local;  // on its own clock
  TimePoint terminated_global;
  TimePoint local_at_start;    // its clock's reading at global time zero, so
                               // local elapsed time is well-defined
  std::string final_state;     // name of the state it ended in

  std::vector<Amount> initial_holdings;
  std::vector<Amount> final_holdings;

  bool issued_payment_cert = false;   // Bob signed chi
  bool received_payment_cert = false; // verified chi in hand at some point
  bool received_commit_cert = false;  // chi_c (weak protocol)
  bool received_abort_cert = false;   // chi_a (weak protocol)

  /// Net balance change in `c` (final - initial).
  std::int64_t net_units(Currency c) const;
};

struct RunStats {
  std::uint64_t messages_sent = 0;
  std::uint64_t messages_delivered = 0;
  std::uint64_t messages_dropped = 0;
  std::uint64_t events_executed = 0;
  TimePoint end_time;
  bool drained = false;  // event queue emptied before the horizon
};

/// Everything recorded about one protocol execution.
struct RunRecord {
  std::string protocol;  // "time-bounded", "weak:<tm>", baseline names
  DealSpec spec;
  Participants parts;
  std::optional<TimelockSchedule> schedule;  // time-bounded family only
  std::vector<ParticipantOutcome> participants;
  std::vector<ledger::EscrowDeal> escrow_deals;
  props::TraceRecorder trace;
  RunStats stats;
  /// Mid-run verdicts from the online monitor, when the run attached one
  /// (props::OnlineOptions::enabled). attached == false otherwise.
  props::OnlineOutcome online;

  const ParticipantOutcome* find(sim::ProcessId pid) const;
  const ParticipantOutcome& customer(int i) const;
  const ParticipantOutcome& escrow(int i) const;
  const ParticipantOutcome& alice() const { return customer(0); }
  const ParticipantOutcome& bob() const { return customer(spec.n); }

  /// True iff Bob's balance increased by the last hop amount.
  bool bob_paid() const;

  /// One row per participant; for examples and debugging.
  std::string summary() const;
};

/// The scalar online-monitor configuration every run derives from its
/// deal: deal id, Bob and the last hop amount. One definition for the
/// live runners (run_time_bounded / run_weak) and the post-mortem replay
/// (exp::runner's differential), so they can never drift apart; callers
/// append the abiding cast, which is contextual.
props::OnlineMonitor::Config base_online_config(const DealSpec& spec,
                                                const Participants& parts);

}  // namespace xcp::proto
