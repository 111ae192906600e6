#pragma once
// NodeRuntime: runs one process's slice of a protocol deployment in real
// time. The discrete-event simulator stays the execution engine (timers,
// local delivery, tracing all unchanged); the runtime advances virtual
// time in lockstep with the wall clock and interleaves socket-transport
// pumps, so remote messages injected between slices land at the current
// virtual instant.
//
// Wiring (done in the constructor):
//  - network.set_gateway(&transport): sends to non-local pids leave
//    through the socket transport;
//  - transport receive handler -> network.inject: inbound messages are
//    scheduled into the local event loop at the current virtual time.
//
// The mapping is 1 virtual microsecond = 1 wall microsecond from the
// moment run() starts.

#include <chrono>
#include <functional>

#include "net/socket_transport.hpp"

namespace xcp::net {

class NodeRuntime {
 public:
  using Millis = std::chrono::milliseconds;
  using WallClock = std::function<std::chrono::steady_clock::time_point()>;

  NodeRuntime(sim::Simulator& sim, Network& network,
              SocketTransport& transport);

  /// Replaces the wall-clock source (default: steady_clock::now). The
  /// clock-jump regression tests inject a clock that leaps forward; the
  /// pacing contract is that a burst of missed wall ticks is absorbed as
  /// one run_until to the new instant — every pending simulation event
  /// still fires, in order, with no busy-spin re-polling. Must be set
  /// before the first run().
  void set_clock(WallClock clock);

  /// Runs until `done()` returns true or `wall_limit` elapses. Returns
  /// true iff done() fired. The simulator's virtual clock tracks the wall
  /// clock; between event slices the transport is pumped with a wait sized
  /// by the next pending virtual event, rounded up to whole milliseconds
  /// (an event fires at most 1 ms late; the loop never spins toward it).
  /// Called again after a first run() returned, it continues on the same
  /// clock: xcp_node's post-decision wait is run(linger cap, every peer
  /// announced "decided").
  bool run(Millis wall_limit, const std::function<bool()>& done);

 private:
  void advance_to_wall();
  std::chrono::steady_clock::time_point wall_now() const;

  sim::Simulator& sim_;
  Network& network_;
  SocketTransport& transport_;
  WallClock clock_;  // empty = steady_clock::now
  std::chrono::steady_clock::time_point wall_origin_;
  TimePoint virtual_origin_;
  bool started_ = false;
};

}  // namespace xcp::net
