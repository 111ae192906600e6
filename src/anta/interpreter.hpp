#pragma once
// Runs one Automaton instance as a network Actor.
//
// Semantics implemented (matching the paper's informal description):
//  - Entering an output state starts a computation lasting a bounded random
//    true-time duration in [0, processing_bound]; the state is then left by
//    performing its send action.
//  - Entering an input state first replays buffered messages (the network
//    may deliver a message while the automaton is busy elsewhere; ANTA
//    message channels are asynchronous and non-blocking), then arms a timer
//    for the earliest time-out guard, if any.
//  - A receive transition fires on the first buffered or arriving message
//    whose (sender, kind) matches and whose accept-callback passes.
//  - Reaching a final state records a Terminate trace event and invokes the
//    completion callback with the local/global termination times.
//
// Byzantine strategies are interposed via a SendInterceptor: a deviating
// participant runs the honest automaton but its sends can be dropped,
// delayed or substituted (see proto/byzantine.hpp). This mirrors the model:
// a Byzantine process may do anything *except* forge signatures or receipts.
//
// The automaton is shared and read-only: many interpreters, across runs,
// may run one validated Automaton. What differs between runs (a ledger, a
// key registry, a trace) reaches the transition callbacks through the
// interpreter's Bindings.

#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <utility>
#include <vector>

#include "anta/automaton.hpp"
#include "net/network.hpp"
#include "props/trace.hpp"

namespace xcp::anta {

/// What a send interceptor decides about an outgoing message.
struct SendAction {
  enum class Kind { kAllow, kDrop, kDelay, kHalt, kSubstitute };
  Kind kind = Kind::kAllow;
  Duration delay;           // for kDelay: extra true-time before the send
  net::BodyPtr substitute;  // for kSubstitute: body sent instead of make_body

  static SendAction allow() { return {Kind::kAllow, Duration::zero(), nullptr}; }
  static SendAction drop() { return {Kind::kDrop, Duration::zero(), nullptr}; }
  static SendAction delayed(Duration d) { return {Kind::kDelay, d, nullptr}; }
  static SendAction halt() { return {Kind::kHalt, Duration::zero(), nullptr}; }
  static SendAction substituted(net::BodyPtr body) {
    return {Kind::kSubstitute, Duration::zero(), std::move(body)};
  }
};

/// Base of the per-run objects a protocol's callbacks act on. anta never
/// looks inside: a callback casts back with Interpreter::bindings<B>().
class Bindings {
 protected:
  Bindings() = default;
  ~Bindings() = default;
};

class Interpreter : public net::Actor {
 public:
  /// `processing_bound` is the true-time bound on output-state computation
  /// (the paper's epsilon); the interpreter samples uniformly within it.
  /// `automaton` must already be validated; `bindings` (may be null when
  /// no callback asks for them) must outlive the interpreter.
  Interpreter(std::shared_ptr<const Automaton> automaton,
              Duration processing_bound, Bindings* bindings = nullptr);

  // --- configuration (before the simulation starts) ---

  using SendInterceptor =
      std::function<SendAction(const Transition&, Interpreter&)>;
  void set_send_interceptor(SendInterceptor f) { interceptor_ = std::move(f); }

  using CompletionFn = std::function<void(Interpreter&)>;
  void set_on_final(CompletionFn f) { on_final_ = std::move(f); }

  /// Crash the participant at a given global time (stops all activity).
  void schedule_crash_at(TimePoint global_time);

  // --- runtime state accessible to transition callbacks ---

  /// Clock variables (x := now).
  TimePoint var(VarId v) const;
  void assign_now(VarId v);

  /// Per-instance integer slots for protocol data (receipt ids, escrow
  /// deal ids), declared with Automaton::add_slot. Reading an unset slot
  /// throws.
  std::uint64_t slot(SlotId s) const;
  bool has_slot(SlotId s) const;
  void set_slot(SlotId s, std::uint64_t value);

  /// The run's bindings, as the protocol's own type B.
  template <typename B>
  B& bindings() const {
    XCP_REQUIRE(bindings_ != nullptr, "interpreter has no run bindings");
    return static_cast<B&>(*bindings_);
  }

  /// Retained message bodies, keyed by message kind (e.g. the received
  /// certificate, to be forwarded later).
  net::BodyPtr stashed(net::MsgKind key) const;
  void stash(net::MsgKind key, net::BodyPtr body);

  StateId state() const { return state_; }
  bool finished() const { return finished_; }
  bool halted() const { return halted_; }
  TimePoint terminated_local() const { return terminated_local_; }
  TimePoint terminated_global() const { return terminated_global_; }
  const Automaton& automaton() const { return *automaton_; }

  /// Count of state transitions taken; used by liveness diagnostics.
  std::size_t steps_taken() const { return steps_; }

  /// The process's RNG stream, exposed for interceptors (e.g. forging a
  /// junk signature deterministically).
  Rng& runtime_rng() { return rng(); }

  // --- Actor interface ---
  void on_start() override;
  void on_message(const net::Message& m) override;
  void on_timer(std::uint64_t token) override;

 private:
  /// Outcome of offering a message to the current input state.
  enum class Consume {
    kNoMatch,    // no transition matched; caller should buffer
    kDiscarded,  // shape matched but content invalid; message dropped
    kTaken,      // a transition fired (and the next state was entered)
  };

  void enter(StateId s);
  void arm_timeouts();
  void disarm_timeouts();
  Consume try_consume(const net::Message& m);
  void perform_send(const Transition& t);
  void take(const Transition& t);
  void record_terminate();

  std::shared_ptr<const Automaton> automaton_;
  Duration processing_bound_;
  Bindings* bindings_;
  StateId state_ = kNoState;
  std::vector<TimePoint> vars_;
  std::vector<std::optional<std::uint64_t>> slots_;
  // A handful of kinds per automaton: a linear scan beats hashing.
  std::vector<std::pair<net::MsgKind, net::BodyPtr>> stash_;
  std::vector<net::Message> pending_;  // buffered arrivals, oldest first
  std::vector<sim::TimerId> armed_timers_;
  SendInterceptor interceptor_;
  CompletionFn on_final_;
  bool finished_ = false;
  bool halted_ = false;
  TimePoint terminated_local_;
  TimePoint terminated_global_;
  std::size_t steps_ = 0;

  // Timer token space: low values = timeout transition index; high = send.
  static constexpr std::uint64_t kSendToken = 1ull << 62;
  static constexpr std::uint64_t kCrashToken = 1ull << 63;
  const Transition* pending_send_ = nullptr;
};

}  // namespace xcp::anta
