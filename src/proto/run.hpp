#pragma once
// The scaffold every simulated protocol run is wired on. A runner (the
// time-bounded runner, the weak runner over one or more deals) creates one
// SimRun, then:
//
//   1. add_deal() per deal: reserves the deal's cast ids (customers
//      c_0..c_n, then escrows e_0..e_{n-1}); reserve() for TM processes;
//   2. spawn() / spawn_member() in reserved-id order: each process is
//      checked against its predicted id and attached to the network;
//      members are the deal participants whose outcomes are extracted;
//   3. start(): drift clocks for every process (one forked RNG stream, pid
//      order), each deal's paying customers funded with their hop amount,
//      the members' initial holdings snapshotted;
//   4. run(): executes to the deadline with the OnlineMonitor's stop rule
//      and fills the record's stats and online verdicts;
//   5. outcome() per member, completed with the runner's own fields.
//
// The order of these steps is part of every run's byte-identity: key salt,
// spawn order and the clock RNG fork position all feed the trace.

#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "crypto/identity.hpp"
#include "ledger/escrow.hpp"
#include "net/delay_model.hpp"
#include "net/network.hpp"
#include "props/online.hpp"
#include "proto/deal_spec.hpp"
#include "proto/outcome.hpp"
#include "sim/simulator.hpp"
#include "support/status.hpp"

namespace xcp::proto {

enum class SynchronyKind { kSynchronous, kPartiallySynchronous, kAsynchronous };

struct EnvironmentConfig {
  SynchronyKind synchrony = SynchronyKind::kSynchronous;

  // Synchronous model: delays uniform in [delta_min, delta_max].
  Duration delta_min = Duration::millis(1);
  Duration delta_max = Duration::millis(100);

  // Partially synchronous model.
  TimePoint gst = TimePoint::origin() + Duration::seconds(10);
  Duration pre_gst_typical = Duration::seconds(5);

  // Asynchronous model.
  Duration async_typical = Duration::millis(100);
  Duration async_cap = Duration::seconds(300);

  // Clocks: rates sampled in [1-actual_rho, 1+actual_rho], offsets in
  // [-clock_offset_max, +clock_offset_max].
  double actual_rho = 0.0;
  Duration clock_offset_max = Duration::zero();

  // True-time bound on output-state computation actually exhibited.
  Duration processing = Duration::millis(5);

  // Message loss probability. The paper's models assume reliable links
  // (default 0); non-zero values deliberately step outside the model for
  // robustness experiments — safety must still hold, liveness need not.
  double drop_probability = 0.0;
};

/// The network delay model an environment describes. A synchronous
/// environment with delta_min == delta_max is the deterministic-delay
/// preset (exp::deterministic_env): a fixed delay with no per-message RNG
/// draw, so same-instant replies coalesce through batched delivery.
std::unique_ptr<net::DelayModel> make_delay_model(const EnvironmentConfig& env);

class SimRun {
 public:
  /// Every substrate records into `trace`, which must outlive the run.
  /// The key registry is seeded with `seed ^ key_salt`.
  SimRun(std::uint64_t seed, std::uint64_t key_salt,
         const EnvironmentConfig& env, props::TraceRecorder& trace);
  SimRun(const SimRun&) = delete;
  SimRun& operator=(const SimRun&) = delete;

  sim::Simulator simulator;
  net::Network network;
  ledger::Ledger ledger;
  ledger::EscrowRegistry escrows;
  crypto::KeyRegistry keys;

  /// Validates `spec`, reserves its cast and queues its funding for
  /// start().
  Participants add_deal(const DealSpec& spec);

  /// Reserves the next process id.
  sim::ProcessId reserve() { return sim::ProcessId(next_id_++); }

  /// Spawns a P named `name`, requires it to land on the reserved `pid`
  /// and attaches it to the network.
  template <typename P, typename... Args>
  P& spawn(sim::ProcessId pid, std::string name, Args&&... args) {
    P& p = simulator.spawn<P>(std::move(name), std::forward<Args>(args)...);
    XCP_REQUIRE(p.id() == pid, "process id prediction broken");
    network.attach(p);
    return p;
  }

  /// spawn() for a deal participant. The stop rule waits for every
  /// abiding member to terminate; Byzantine members may never terminate
  /// by design.
  template <typename P, typename... Args>
  P& spawn_member(sim::ProcessId pid, std::string name, bool abiding,
                  Args&&... args) {
    P& p = spawn<P>(pid, std::move(name), std::forward<Args>(args)...);
    members_.push_back({&p, abiding, {}});
    return p;
  }

  /// The k-th spawned member.
  net::Actor& member(std::size_t k) { return *members_[k].actor; }

  /// Clocks, funding and the initial-holdings snapshot (see the header
  /// comment). Call once, after every spawn.
  void start();

  /// Runs until `deadline` and fills `record.stats`. An OnlineMonitor over
  /// `monitor` plus the abiding members' ids rides the trace when
  /// `online.enabled` (its verdicts land in `record.online`) or when `stop`
  /// is set: the run then ends at the event that terminates the last
  /// abiding member.
  void run(TimePoint deadline, props::OnlineMonitor::Config monitor,
           const props::OnlineOptions& online, bool stop, RunRecord& record);

  /// The k-th member's pid, role, abiding flag, local clock start and
  /// holdings; the runner adds termination, final state and certificates.
  ParticipantOutcome outcome(std::size_t k, const Participants& parts) const;

 private:
  struct Member {
    net::Actor* actor = nullptr;
    bool abiding = true;
    std::vector<Amount> initial;  // holdings at start()
  };

  props::TraceRecorder& trace_;
  double actual_rho_;
  Duration clock_offset_max_;
  std::uint32_t next_id_ = 0;
  std::vector<std::pair<sim::ProcessId, Amount>> funding_;
  std::vector<Member> members_;
};

}  // namespace xcp::proto
