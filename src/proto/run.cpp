#include "proto/run.hpp"

#include <optional>

namespace xcp::proto {

std::unique_ptr<net::DelayModel> make_delay_model(
    const EnvironmentConfig& env) {
  switch (env.synchrony) {
    case SynchronyKind::kSynchronous:
      if (env.delta_min == env.delta_max) {
        return net::DelayModel::synchronous(env.delta_max);
      }
      return std::make_unique<net::SynchronousModel>(env.delta_min,
                                                     env.delta_max);
    case SynchronyKind::kPartiallySynchronous:
      return std::make_unique<net::PartialSynchronyModel>(
          env.gst, env.delta_max, env.pre_gst_typical);
    case SynchronyKind::kAsynchronous:
      return std::make_unique<net::AsynchronousModel>(env.async_typical,
                                                      env.async_cap);
  }
  XCP_REQUIRE(false, "unreachable synchrony kind");
  return nullptr;
}

SimRun::SimRun(std::uint64_t seed, std::uint64_t key_salt,
               const EnvironmentConfig& env, props::TraceRecorder& trace)
    : simulator(seed),
      network(simulator, make_delay_model(env), &trace),
      ledger(&trace),
      escrows(ledger, &trace),
      keys(seed ^ key_salt),
      trace_(trace),
      actual_rho_(env.actual_rho),
      clock_offset_max_(env.clock_offset_max) {
  network.set_drop_probability(env.drop_probability);
}

Participants SimRun::add_deal(const DealSpec& spec) {
  spec.validate();
  Participants parts;
  for (int i = 0; i <= spec.n; ++i) parts.customers.push_back(reserve());
  for (int i = 0; i < spec.n; ++i) parts.escrows.push_back(reserve());
  for (int i = 0; i < spec.n; ++i) {
    funding_.emplace_back(parts.customer(i), spec.hop_amount(i));
  }
  members_.reserve(next_id_);
  return parts;
}

void SimRun::start() {
  Rng clock_rng = simulator.rng().fork();
  for (std::uint32_t pid = 0; pid < simulator.process_count(); ++pid) {
    simulator.set_clock(sim::ProcessId(pid),
                        sim::DriftClock::sample(clock_rng, actual_rho_,
                                                clock_offset_max_));
  }
  for (const auto& [pid, amount] : funding_) ledger.mint(pid, amount);
  for (Member& m : members_) m.initial = ledger.holdings(m.actor->id());
}

void SimRun::run(TimePoint deadline, props::OnlineMonitor::Config monitor,
                 const props::OnlineOptions& online, bool stop,
                 RunRecord& record) {
  std::optional<props::OnlineMonitor> watcher;
  if (online.enabled || stop) {
    for (const Member& m : members_) {
      if (m.abiding) monitor.cast.push_back(m.actor->id());
    }
    watcher.emplace(monitor);
    if (stop) watcher->arm_stop(&simulator.stop_token());
    trace_.set_sink(&*watcher);
  }
  // A stopped run is quiescent for every checker input: it counts as
  // drained.
  const bool drained =
      simulator.run_until(deadline) || simulator.stop_requested();
  if (watcher) {
    trace_.set_sink(nullptr);
    if (online.enabled) record.online = watcher->outcome();
  }

  record.stats.messages_sent = network.stats().messages_sent;
  record.stats.messages_delivered = network.stats().messages_delivered;
  record.stats.messages_dropped = network.stats().messages_dropped;
  record.stats.events_executed = simulator.events_executed();
  record.stats.end_time = simulator.now();
  record.stats.drained = drained;
}

ParticipantOutcome SimRun::outcome(std::size_t k,
                                   const Participants& parts) const {
  const Member& m = members_[k];
  ParticipantOutcome p;
  p.pid = m.actor->id();
  p.role = parts.role_name(p.pid);
  p.abiding = m.abiding;
  p.is_escrow = parts.is_escrow(p.pid);
  p.local_at_start = m.actor->clock().to_local(TimePoint::origin());
  p.initial_holdings = m.initial;
  p.final_holdings = ledger.holdings(p.pid);
  return p;
}

}  // namespace xcp::proto
