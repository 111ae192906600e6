#include "net/node_runtime.hpp"

#include <algorithm>

namespace xcp::net {

namespace {
// Upper bound on one transport pump: keeps the loop responsive to virtual
// timers even when the next pending event is far away, and bounds how
// stale the heartbeat/death bookkeeping can get.
constexpr std::chrono::milliseconds kMaxPump{5};
}  // namespace

NodeRuntime::NodeRuntime(sim::Simulator& sim, Network& network,
                         SocketTransport& transport)
    : sim_(sim), network_(network), transport_(transport) {
  network_.set_gateway(&transport_);
  transport_.set_receive_handler(
      [this](Message&& m) { network_.inject(std::move(m)); });
}

void NodeRuntime::set_clock(WallClock clock) { clock_ = std::move(clock); }

std::chrono::steady_clock::time_point NodeRuntime::wall_now() const {
  // xcp-lint: allow(determinism-wall-clock) this IS the injectable seam:
  // the one sanctioned real-clock read, overridden via set_clock in tests.
  return clock_ ? clock_() : std::chrono::steady_clock::now();
}

void NodeRuntime::advance_to_wall() {
  const auto elapsed = std::chrono::duration_cast<std::chrono::microseconds>(
      wall_now() - wall_origin_);
  // A wall clock that jumped far ahead (suspend/resume, NTP step, a
  // debugger pause) is absorbed as one run_until: the simulator delivers
  // every event between the old and new instants in order, so missed ticks
  // are processed, never skipped — and never re-polled one by one.
  sim_.run_until(virtual_origin_ +
                 Duration::micros(std::max<std::int64_t>(0, elapsed.count())));
}

bool NodeRuntime::run(Millis wall_limit, const std::function<bool()>& done) {
  if (!started_) {
    wall_origin_ = wall_now();
    virtual_origin_ = sim_.now();
    started_ = true;
  }
  const auto deadline = wall_now() + wall_limit;
  for (;;) {
    advance_to_wall();
    if (done()) return true;
    const auto now = wall_now();
    if (now >= deadline) return false;

    // Sleep inside poll() until the next virtual event is due, capped so
    // inbound traffic and supervision stay fresh. The gap rounds up: an
    // event under a millisecond away fires at most 1 ms late instead of
    // being waited for with zero-timeout pumps; one already due waits 0.
    Millis wait = kMaxPump;
    if (auto next = sim_.next_event_time()) {
      const std::int64_t gap_us =
          next->count() -
          (virtual_origin_ +
           Duration::micros(std::chrono::duration_cast<
                                std::chrono::microseconds>(now - wall_origin_)
                                .count()))
              .count();
      wait = std::clamp(std::chrono::ceil<Millis>(
                            std::chrono::microseconds(gap_us)),
                        Millis(0), kMaxPump);
    }
    wait = std::min(wait, std::chrono::ceil<Millis>(deadline - now));
    transport_.pump(wait);
  }
}

}  // namespace xcp::net
