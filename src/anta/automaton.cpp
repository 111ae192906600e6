#include "anta/automaton.hpp"

#include "support/status.hpp"

namespace xcp::anta {

StateId Automaton::add_state(std::string name, StateKind kind) {
  validated_ = false;
  states_.push_back(State{std::move(name), kind});
  return static_cast<StateId>(states_.size() - 1);
}

VarId Automaton::add_var(std::string name) {
  vars_.push_back(std::move(name));
  return static_cast<VarId>(vars_.size() - 1);
}

SlotId Automaton::add_slot(std::string name) {
  slots_.push_back(std::move(name));
  return static_cast<SlotId>(slots_.size() - 1);
}

void Automaton::set_initial(StateId s) {
  XCP_REQUIRE(s >= 0 && static_cast<std::size_t>(s) < states_.size(),
              "bad initial state");
  validated_ = false;
  initial_ = s;
}

Transition& Automaton::add_receive(StateId from, StateId to,
                                   sim::ProcessId sender, net::MsgKind kind,
                                   std::string label) {
  Transition t;
  t.kind = Transition::Kind::kReceive;
  t.from = from;
  t.to = to;
  t.expect_from = sender;
  t.expect_kind = kind;
  t.label = label.empty() ? "r(p" + std::to_string(sender.value()) + "," +
                                kind.str() + ")"
                          : std::move(label);
  validated_ = false;
  transitions_.push_back(std::move(t));
  return transitions_.back();
}

Transition& Automaton::add_timeout(StateId from, StateId to, TimeGuard guard,
                                   std::string label) {
  Transition t;
  t.kind = Transition::Kind::kTimeout;
  t.from = from;
  t.to = to;
  t.guard = guard;
  t.label = label.empty() ? "now >= " + vars_.at(guard.var) + " + " +
                                guard.offset.str()
                          : std::move(label);
  validated_ = false;
  transitions_.push_back(std::move(t));
  return transitions_.back();
}

Transition& Automaton::set_send(StateId from, StateId to, sim::ProcessId dest,
                                net::MsgKind kind, std::string label) {
  Transition t;
  t.kind = Transition::Kind::kSend;
  t.from = from;
  t.to = to;
  t.send_to = dest;
  t.send_kind = kind;
  t.label = label.empty()
                ? "s(p" + std::to_string(dest.value()) + "," + kind.str() + ")"
                : std::move(label);
  validated_ = false;
  transitions_.push_back(std::move(t));
  return transitions_.back();
}

void Automaton::validate() {
  validated_ = false;
  XCP_REQUIRE(initial_ != kNoState, "automaton '" + name_ + "' has no initial state");
  for (const auto& t : transitions_) {
    XCP_REQUIRE(t.from >= 0 && static_cast<std::size_t>(t.from) < states_.size(),
                "transition from unknown state");
    XCP_REQUIRE(t.to >= 0 && static_cast<std::size_t>(t.to) < states_.size(),
                "transition to unknown state");
    const StateKind from_kind = states_[t.from].kind;
    switch (t.kind) {
      case Transition::Kind::kSend:
        XCP_REQUIRE(from_kind == StateKind::kOutput,
                    "send transition must leave an output state");
        break;
      case Transition::Kind::kReceive:
      case Transition::Kind::kTimeout:
        XCP_REQUIRE(from_kind == StateKind::kInput,
                    "receive/timeout must leave an input state");
        break;
    }
    if (t.guard) {
      XCP_REQUIRE(t.guard->var >= 0 &&
                      static_cast<std::size_t>(t.guard->var) < vars_.size(),
                  "guard references unknown clock variable");
    }
  }

  // Index the exits, grouped by source state and stable within a state
  // (declaration order is matching priority): a counting sort.
  exit_begin_.assign(states_.size() + 1, 0);
  for (const auto& t : transitions_) ++exit_begin_[t.from + 1];
  for (std::size_t s = 0; s < states_.size(); ++s) {
    exit_begin_[s + 1] += exit_begin_[s];
  }
  exits_.assign(transitions_.size(), nullptr);
  std::vector<std::size_t> fill(exit_begin_.begin(), exit_begin_.end() - 1);
  for (const auto& t : transitions_) exits_[fill[t.from]++] = &t;

  final_labels_.assign(states_.size(), props::Label());
  for (StateId s = 0; static_cast<std::size_t>(s) < states_.size(); ++s) {
    const std::size_t exits = exit_begin_[s + 1] - exit_begin_[s];
    if (states_[s].kind == StateKind::kOutput) {
      // Every exit of an output state is a send (checked above).
      XCP_REQUIRE(exits == 1, "output state '" + states_[s].name +
                                  "' must have exactly one send exit");
    }
    if (states_[s].kind == StateKind::kFinal) {
      XCP_REQUIRE(exits == 0, "final state must have no exits");
      final_labels_[s] = props::Label(states_[s].name);
    }
  }
  validated_ = true;
}

}  // namespace xcp::anta
