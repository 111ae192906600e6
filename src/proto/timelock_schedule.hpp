#pragma once
// The timelock parameters a_i (escrow acceptance windows) and d_i (refund
// promises) of the time-bounded protocol, derived from the environment
// bounds. This is the paper's "universal protocol of [4], but fine-tuned to
// work correctly in the presence of clock drift": the *naive* schedule uses
// the true-time windows directly, while the *drift-compensated* schedule
// inflates them so that local-clock measurement error can never close a
// window early.
//
// Derivation (true time; Delta = max message delay, eps = max processing
// time, S = slack > 0):
//
//   A_{n-1} = 2*(Delta+eps) + S                    (P to Bob, chi back)
//   A_i     = A_{i+1} + 4*(Delta+eps)              (relay down, chi back up)
//
// The chain: from the instant U_i at which escrow e_i issues P(a_i), the
// promise reaches c_{i+1} (<= Delta), c_{i+1} pays (<= eps), the money
// reaches e_{i+1} (<= Delta), e_{i+1} issues P(a_{i+1}) (<= eps) — so
// U_{i+1} <= U_i + 2*(Delta+eps); inductively chi reaches e_{i+1} by
// U_{i+1} + A_{i+1}, is forwarded to c_{i+1} (<= Delta+eps) and on to e_i
// (<= Delta+eps): chi reaches e_i by U_i + A_i - S, strictly inside the
// window (the slack covers the strict inequality "v < now + a" and the
// simultaneous-event tie-break that favours the refund timeout).
//
// A clock of rate r in [1-rho, 1+rho] reads a true interval A as up to
// A*(1+rho), so the escrow's local window must be
//
//   a_i = ceil(A_i * (1 + rho))      (compensated; naive uses a_i = A_i)
//
// and the refund promise must cover processing both ends of the window on
// the escrow's own clock:
//
//   d_i = a_i + ceil(2 * eps * (1 + rho)).
//
// The a-priori termination bound of requirement T, in true time from the
// protocol's start, is exported per customer (customer_termination_bound)
// and overall (horizon); property tests check measured terminations against
// these bounds under randomized conforming environments.

#include <vector>

#include "support/time.hpp"

namespace xcp::proto {

/// Environment bounds the schedule is computed from.
struct TimingParams {
  Duration delta_max = Duration::millis(100);  // max message delay (Delta)
  Duration processing = Duration::millis(5);   // max computation time (eps)
  double rho = 1e-3;                           // clock drift bound
  Duration slack = Duration::millis(10);       // S > 0

  Duration step() const { return delta_max + processing; }  // Delta + eps

  bool operator==(const TimingParams&) const = default;
};

class TimelockSchedule {
 public:
  /// Empty schedule (n() == 0); placeholder until a real one is assigned.
  TimelockSchedule() = default;

  /// The paper's schedule (Thm 1): windows inflated by (1+rho).
  static TimelockSchedule drift_compensated(int n, const TimingParams& p);

  /// The universal-protocol baseline [4]: same recurrence, no drift term.
  static TimelockSchedule naive(int n, const TimingParams& p);

  int n() const { return static_cast<int>(a_.size()); }

  /// Escrow e_i's local acceptance window (the a of P(a_i)).
  Duration a(int i) const { return a_.at(static_cast<std::size_t>(i)); }
  /// Escrow e_i's local refund promise (the d of G(d_i)).
  Duration d(int i) const { return d_.at(static_cast<std::size_t>(i)); }
  /// The true-time window A_i underlying a_i.
  Duration true_window(int i) const { return A_.at(static_cast<std::size_t>(i)); }

  /// A-priori true-time bound on customer c_i's termination, measured from
  /// protocol start, valid when the environment honours TimingParams and
  /// c_i's escrows abide (requirement T).
  Duration customer_termination_bound(int i) const;

  /// The same bound as measured on the *customer's own clock* (requirement
  /// T promises an a-priori period the customer can check herself): the
  /// true-time bound inflated by the worst-case fast rate (1 + rho).
  Duration customer_termination_bound_local(int i) const {
    return customer_termination_bound(i).scaled_up(1.0 + params_.rho);
  }

  /// True-time bound by which *every* abiding participant has terminated in
  /// a conforming environment; used as the simulation horizon.
  Duration horizon() const;

  const TimingParams& params() const { return params_; }
  bool compensated() const { return compensated_; }

  bool operator==(const TimelockSchedule&) const = default;

 private:
  TimelockSchedule(int n, const TimingParams& p, bool compensated);

  TimingParams params_;
  bool compensated_ = true;
  std::vector<Duration> A_;  // true-time windows
  std::vector<Duration> a_;  // local acceptance windows
  std::vector<Duration> d_;  // local refund promises
};

}  // namespace xcp::proto
