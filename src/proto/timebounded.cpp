#include "proto/timebounded.hpp"

#include <memory>

#include "anta/interpreter.hpp"
#include "proto/figure2.hpp"

namespace xcp::proto {

RunRecord run_time_bounded(const TimeBoundedConfig& config) {
  const int n = config.spec.n;

  RunRecord record;
  record.protocol = config.compensated ? "time-bounded" : "universal-naive";
  record.spec = config.spec;

  // The bindings outlive the world whose interpreters point at them.
  Fig2Run bindings;
  SimRun world(config.seed, /*key_salt=*/0x9e3779b97f4a7c15ULL, config.env,
               record.trace);
  record.parts = world.add_deal(config.spec);
  const Participants& parts = record.parts;
  record.schedule =
      config.compensated
          ? TimelockSchedule::drift_compensated(n, config.assumed)
          : TimelockSchedule::naive(n, config.assumed);

  const Fig2Automata& automata = shared_fig2_automata(
      config.spec, parts, *record.schedule, config.customer_giveup);
  bindings.ledger = &world.ledger;
  bindings.escrows = &world.escrows;
  bindings.keys = &world.keys;
  bindings.trace = &record.trace;
  bindings.bob_signer = world.keys.signer_for(parts.bob());

  // A participant is abiding unless assigned a Byzantine strategy (the
  // last assignment to it wins).
  const auto abiding = [&](bool is_escrow, int index) {
    bool result = true;
    for (const ByzantineAssignment& b : config.byzantine) {
      if (b.is_escrow == is_escrow && b.index == index) {
        result = b.strategy == ByzStrategy::kNone;
      }
    }
    return result;
  };
  for (int i = 0; i <= n; ++i) {
    world.spawn_member<anta::Interpreter>(
        parts.customer(i), parts.role_name(parts.customer(i)),
        abiding(false, i), automata.customers[static_cast<std::size_t>(i)],
        config.env.processing, &bindings);
  }
  for (int i = 0; i < n; ++i) {
    world.spawn_member<anta::Interpreter>(
        parts.escrow(i), parts.role_name(parts.escrow(i)), abiding(true, i),
        automata.escrows[static_cast<std::size_t>(i)], config.env.processing,
        &bindings);
  }
  world.start();

  for (const ByzantineAssignment& b : config.byzantine) {
    const sim::ProcessId pid =
        b.is_escrow ? parts.escrow(b.index) : parts.customer(b.index);
    apply_byzantine(static_cast<anta::Interpreter&>(world.member(pid.value())),
                    b, automata.ctx);
  }

  // Timing adversary (within the synchrony model's envelope).
  std::unique_ptr<net::Adversary> adversary;
  if (config.adversary) {
    adversary = config.adversary(parts, *record.schedule);
    world.network.set_adversary(adversary.get());
  }

  // Every timer of the protocol lies within the schedule's horizon, so a
  // run without a monitor ends there; with early_stop it ends at the
  // event that terminates the last abiding participant.
  world.run(TimePoint::origin() + record.schedule->horizon() +
                config.extra_horizon,
            base_online_config(config.spec, parts), config.online,
            /*stop=*/config.online.enabled && config.online.early_stop,
            record);

  for (std::size_t k = 0; k < 2 * static_cast<std::size_t>(n) + 1; ++k) {
    const auto& in = static_cast<const anta::Interpreter&>(world.member(k));
    ParticipantOutcome p = world.outcome(k, parts);
    p.terminated = in.finished();
    p.terminated_local = in.terminated_local();
    p.terminated_global = in.terminated_global();
    p.final_state = in.automaton().state_name(in.state());
    p.issued_payment_cert =
        record.trace.count(props::EventKind::kCertIssued, p.pid) > 0;
    p.received_payment_cert =
        record.trace.count(props::EventKind::kCertReceived, p.pid) > 0;
    record.participants.push_back(std::move(p));
  }
  record.escrow_deals = world.escrows.deals();
  return record;
}

}  // namespace xcp::proto
