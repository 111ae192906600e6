#pragma once
// Asynchronous Networks of Timed Automata (ANTA) — the specification
// formalism the paper introduces and uses to present the time-bounded
// protocol (Fig. 2).
//
// Faithful to the paper's description:
//  - each automaton has a finite set of states; *output* states (grey) spend
//    a bounded amount of time calculating and are left by sending a message;
//    *input* states (white) are left when an outgoing transition becomes
//    enabled: either a message of the awaited shape arrives (r(id, m)) or a
//    time-out guard over the local clock becomes true (now >= x + d);
//  - transitions may carry assignments x := now recording the local time at
//    which they are taken;
//  - every automaton reads time from its own (drifting) clock.
//
// An Automaton is a pure description; the Interpreter (anta/interpreter.hpp)
// runs one instance of it as a network actor. Effects and validations attach
// to transitions as callbacks, so protocol semantics (ledger movements,
// certificate verification) live with the protocol builder, not the engine.
// validate() checks the structure once and indexes each state's exits, so
// one validated automaton can back any number of interpreters and runs.

#include <cstdint>
#include <functional>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "net/message.hpp"
#include "props/label.hpp"
#include "support/status.hpp"
#include "support/time.hpp"

namespace xcp::anta {

class Interpreter;

using StateId = int;
using VarId = int;
using SlotId = int;
inline constexpr StateId kNoState = -1;

enum class StateKind {
  kInput,   // white: waits for a receive or time-out transition
  kOutput,  // grey: computes for bounded time, then sends
  kFinal,   // terminal: the participant has terminated
};

/// Time-out guard: enabled when the local clock reads >= var + offset.
struct TimeGuard {
  VarId var = -1;
  Duration offset;
};

struct Transition {
  enum class Kind { kReceive, kTimeout, kSend };
  Kind kind = Kind::kReceive;
  StateId from = kNoState;
  StateId to = kNoState;
  std::string label;  // for rendering / traces

  // --- kReceive ---
  sim::ProcessId expect_from;  // r(id, m): the awaited sender
  net::MsgKind expect_kind;    // the awaited message tag (interned)
  /// Optional extra validation (verify a receipt, a certificate, a promise).
  /// A message matching (from, kind) but failing `accept` is *consumed and
  /// ignored* — the paper's automata simply never react to ill-formed input.
  std::function<bool(const net::Message&, Interpreter&)> accept;

  // --- kTimeout ---
  std::optional<TimeGuard> guard;

  // --- kSend (the unique exit of an output state) ---
  sim::ProcessId send_to;
  net::MsgKind send_kind;
  /// Builds the payload at send time (may consult interpreter slots).
  std::function<net::BodyPtr(Interpreter&)> make_body;

  /// Effect executed when the transition is taken (after accept / guard).
  /// Typical uses: x := now assignments, storing payload fields in slots,
  /// ledger transfers.
  std::function<void(Interpreter&)> effect;
};

class Automaton {
 public:
  explicit Automaton(std::string name) : name_(std::move(name)) {}
  // A copy's exit index would point into the original's transitions.
  Automaton(const Automaton&) = delete;
  Automaton& operator=(const Automaton&) = delete;

  StateId add_state(std::string name, StateKind kind);
  VarId add_var(std::string name);
  /// A per-instance integer slot for protocol data (a receipt id, an
  /// escrow deal id); see Interpreter::slot.
  SlotId add_slot(std::string name);

  void set_initial(StateId s);

  /// Adds r(sender, kind) transition from an input state.
  Transition& add_receive(StateId from, StateId to, sim::ProcessId sender,
                          net::MsgKind kind, std::string label = "");

  /// Adds a time-out transition (now >= var + offset) from an input state.
  Transition& add_timeout(StateId from, StateId to, TimeGuard guard,
                          std::string label = "");

  /// Sets the send action leaving an output state: s(dest, kind).
  Transition& set_send(StateId from, StateId to, sim::ProcessId dest,
                       net::MsgKind kind, std::string label = "");

  const std::string& name() const { return name_; }
  StateId initial() const { return initial_; }
  StateKind state_kind(StateId s) const { return states_.at(s).kind; }
  const std::string& state_name(StateId s) const { return states_.at(s).name; }
  std::size_t state_count() const { return states_.size(); }
  std::size_t var_count() const { return vars_.size(); }
  const std::string& var_name(VarId v) const { return vars_.at(v); }
  std::size_t slot_count() const { return slots_.size(); }
  const std::string& slot_name(SlotId s) const { return slots_.at(s); }

  /// Transitions leaving `s`, in declaration order (matching priority).
  /// A view into the index validate() built; requires validated().
  std::span<const Transition* const> out_of(StateId s) const {
    XCP_REQUIRE(validated_, "out_of on an unvalidated automaton");
    return {exits_.data() + exit_begin_[s],
            exits_.data() + exit_begin_[s + 1]};
  }
  const std::vector<Transition>& transitions() const { return transitions_; }

  /// Structural validation: initial set, output states have exactly one
  /// send exit, receive/timeout only leave input states, all targets exist.
  /// On success, indexes every state's exits and marks the automaton
  /// validated; a later add_state, transition or set_initial clears the
  /// mark.
  void validate();
  bool validated() const { return validated_; }

  /// The Terminate trace label of final state `s`, interned by validate()
  /// so that a termination does not look its name up again.
  props::Label final_label(StateId s) const { return final_labels_.at(s); }

 private:
  struct State {
    std::string name;
    StateKind kind;
  };
  std::string name_;
  std::vector<State> states_;
  std::vector<std::string> vars_;
  std::vector<std::string> slots_;
  std::vector<Transition> transitions_;
  StateId initial_ = kNoState;
  // Exits of state s: exits_[exit_begin_[s] .. exit_begin_[s + 1]).
  std::vector<const Transition*> exits_;
  std::vector<std::size_t> exit_begin_;
  std::vector<props::Label> final_labels_;  // default for non-final states
  bool validated_ = false;
};

}  // namespace xcp::anta
