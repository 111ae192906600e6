#pragma once
// Runner for the time-bounded protocol (Fig. 2 / Thm 1) and its baseline
// variants. A run wires up: simulator, network with a chosen synchrony
// model, ledger + escrow registry, key registry, the Fig. 2 automata, clock
// drift, Byzantine strategies and an optional timing adversary — then
// executes to the schedule's horizon and extracts a RunRecord.
//
// The config deliberately separates what the protocol *assumes*
// (TimingParams -> TimelockSchedule) from what the environment *does*
// (EnvironmentConfig): Theorem 1 runs have the environment within the
// assumptions; the ablation and impossibility experiments deliberately break
// them (actual drift above rho, partial synchrony with delays beyond Delta).

#include <functional>
#include <memory>
#include <vector>

#include "net/adversary.hpp"
#include "proto/byzantine.hpp"
#include "proto/deal_spec.hpp"
#include "proto/outcome.hpp"
#include "proto/run.hpp"
#include "proto/timelock_schedule.hpp"

namespace xcp::proto {

/// Builds a timing adversary once participant ids are known. The returned
/// adversary is owned by the run for its duration.
using AdversaryFactory = std::function<std::unique_ptr<net::Adversary>(
    const Participants&, const TimelockSchedule&)>;

struct TimeBoundedConfig {
  std::uint64_t seed = 1;
  DealSpec spec = DealSpec::uniform(/*deal_id=*/1, /*n=*/2, /*base=*/1000,
                                    /*commission=*/10);
  TimingParams assumed;      // the bounds the schedule is derived from
  bool compensated = true;   // drift-compensated (paper) vs naive [4]
  EnvironmentConfig env;
  std::vector<ByzantineAssignment> byzantine;
  AdversaryFactory adversary;          // may be null
  Duration extra_horizon = Duration::zero();  // extend the observation window

  /// The "impatient" protocol variant (Thm 2's option B): customers give up
  /// after this local-clock wait in money-awaiting states. Terminates where
  /// the paper's protocol would hang — at the price of CS3 (the checkers
  /// catch it). Unset = the paper's protocol.
  std::optional<Duration> customer_giveup;

  /// Online checking: attach an OnlineMonitor to the run's trace (verdicts
  /// land in RunRecord::online) and optionally terminate the run the moment
  /// every abiding participant has terminated — checker-visible outcomes
  /// are frozen by then, so post-mortem verdicts are unchanged while the
  /// residual queue (dead timers, horizon padding) is never executed.
  props::OnlineOptions online;
};

RunRecord run_time_bounded(const TimeBoundedConfig& config);

}  // namespace xcp::proto
