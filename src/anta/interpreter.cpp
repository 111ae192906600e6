#include "anta/interpreter.hpp"

#include <algorithm>

#include "support/log.hpp"
#include "support/status.hpp"

namespace xcp::anta {

Interpreter::Interpreter(std::shared_ptr<const Automaton> automaton,
                         Duration processing_bound, Bindings* bindings)
    : automaton_(std::move(automaton)),
      processing_bound_(processing_bound),
      bindings_(bindings) {
  XCP_REQUIRE(automaton_ != nullptr, "null automaton");
  XCP_REQUIRE(automaton_->validated(),
              "automaton '" + automaton_->name() + "' is not validated");
  vars_.assign(automaton_->var_count(), TimePoint::origin());
  slots_.assign(automaton_->slot_count(), std::nullopt);
}

TimePoint Interpreter::var(VarId v) const {
  XCP_REQUIRE(v >= 0 && static_cast<std::size_t>(v) < vars_.size(), "bad var");
  return vars_[v];
}

void Interpreter::assign_now(VarId v) {
  XCP_REQUIRE(v >= 0 && static_cast<std::size_t>(v) < vars_.size(), "bad var");
  vars_[v] = local_now();
}

std::uint64_t Interpreter::slot(SlotId s) const {
  XCP_REQUIRE(has_slot(s), "missing slot: " + automaton_->slot_name(s));
  return *slots_[static_cast<std::size_t>(s)];
}

bool Interpreter::has_slot(SlotId s) const {
  XCP_REQUIRE(s >= 0 && static_cast<std::size_t>(s) < slots_.size(),
              "bad slot");
  return slots_[static_cast<std::size_t>(s)].has_value();
}

void Interpreter::set_slot(SlotId s, std::uint64_t value) {
  XCP_REQUIRE(s >= 0 && static_cast<std::size_t>(s) < slots_.size(),
              "bad slot");
  slots_[static_cast<std::size_t>(s)] = value;
}

net::BodyPtr Interpreter::stashed(net::MsgKind key) const {
  for (const auto& [kind, body] : stash_) {
    if (kind == key) return body;
  }
  return nullptr;
}

void Interpreter::stash(net::MsgKind key, net::BodyPtr body) {
  for (auto& [kind, held] : stash_) {
    if (kind == key) {
      held = std::move(body);
      return;
    }
  }
  stash_.emplace_back(key, std::move(body));
}

void Interpreter::schedule_crash_at(TimePoint global_time) {
  sim().schedule_at(global_time, [this] {
    halted_ = true;
    disarm_timeouts();
  });
}

void Interpreter::on_start() { enter(automaton_->initial()); }

void Interpreter::enter(StateId s) {
  XCP_REQUIRE(!finished_, "entering state after termination");
  state_ = s;
  ++steps_;
  XCP_LOG(LogLevel::kTrace, name() << " enters " << automaton_->state_name(s));

  switch (automaton_->state_kind(s)) {
    case StateKind::kFinal: {
      finished_ = true;
      terminated_local_ = local_now();
      terminated_global_ = global_now();
      disarm_timeouts();
      record_terminate();
      if (on_final_) on_final_(*this);
      return;
    }
    case StateKind::kOutput: {
      // Bounded computation, then the unique send exit (validate() made
      // sure there is exactly one).
      pending_send_ = automaton_->out_of(s).front();
      const Duration d =
          rng().next_duration(Duration::zero(), processing_bound_);
      sim().schedule_after(d, [this] { on_timer(kSendToken); });
      return;
    }
    case StateKind::kInput: {
      // First drain anything already buffered, oldest first. The message is
      // removed before consumption so the recursive enter() of the next
      // state re-scans a buffer that no longer contains it.
      for (std::size_t i = 0; i < pending_.size();) {
        net::Message m = std::move(pending_[i]);
        pending_.erase(pending_.begin() + static_cast<std::ptrdiff_t>(i));
        const Consume outcome = try_consume(m);
        if (outcome == Consume::kTaken) return;  // next state already entered
        if (outcome == Consume::kNoMatch) {
          pending_.insert(pending_.begin() + static_cast<std::ptrdiff_t>(i),
                          std::move(m));
          ++i;
        }
        // kDiscarded: invalid content; drop it and keep scanning at i.
      }
      arm_timeouts();
      return;
    }
  }
}

void Interpreter::arm_timeouts() {
  disarm_timeouts();
  const std::span<const Transition* const> outs = automaton_->out_of(state_);
  for (std::size_t i = 0; i < outs.size(); ++i) {
    const Transition* t = outs[i];
    if (t->kind != Transition::Kind::kTimeout) continue;
    const TimePoint deadline = var(t->guard->var) + t->guard->offset;
    armed_timers_.push_back(set_timer_local_at(deadline, i));
  }
}

void Interpreter::disarm_timeouts() {
  for (sim::TimerId id : armed_timers_) cancel_timer(id);
  armed_timers_.clear();
}

Interpreter::Consume Interpreter::try_consume(const net::Message& m) {
  if (automaton_->state_kind(state_) != StateKind::kInput) {
    return Consume::kNoMatch;
  }
  for (const Transition* t : automaton_->out_of(state_)) {
    if (t->kind != Transition::Kind::kReceive) continue;
    if (t->expect_from != m.from || t->expect_kind != m.kind) continue;
    if (t->accept && !t->accept(m, *this)) {
      // Shape matched but content invalid (bad receipt / signature): the
      // automaton ignores it, as an abiding participant must.
      XCP_LOG(LogLevel::kDebug,
              name() << " rejected " << m.describe() << " (accept failed)");
      return Consume::kDiscarded;
    }
    // Matched: stash the body under the message kind so effects/forwards can
    // use it, run the effect, move on.
    if (m.body) stash(m.kind, m.body);
    disarm_timeouts();
    take(*t);
    return Consume::kTaken;
  }
  return Consume::kNoMatch;
}

void Interpreter::take(const Transition& t) {
  if (t.effect) t.effect(*this);
  enter(t.to);
}

void Interpreter::perform_send(const Transition& t) {
  SendAction action = SendAction::allow();
  if (interceptor_) action = interceptor_(t, *this);

  switch (action.kind) {
    case SendAction::Kind::kHalt:
      halted_ = true;
      disarm_timeouts();
      return;
    case SendAction::Kind::kDrop:
      // The (Byzantine) participant silently skips the send but continues.
      take(t);
      return;
    case SendAction::Kind::kDelay: {
      const Transition* tp = &t;
      sim().schedule_after(action.delay, [this, tp] {
        if (halted_ || finished_) return;
        net::BodyPtr body = tp->make_body ? tp->make_body(*this) : nullptr;
        send(tp->send_to, tp->send_kind, std::move(body));
        take(*tp);
      });
      return;
    }
    case SendAction::Kind::kSubstitute:
      // The deviating participant sends a forged/garbled body instead of the
      // honest payload; honest receivers must reject it in `accept`.
      send(t.send_to, t.send_kind, std::move(action.substitute));
      take(t);
      return;
    case SendAction::Kind::kAllow:
      break;
  }
  net::BodyPtr body = t.make_body ? t.make_body(*this) : nullptr;
  send(t.send_to, t.send_kind, std::move(body));
  take(t);
}

void Interpreter::on_message(const net::Message& m) {
  if (finished_ || halted_) return;
  if (try_consume(m) == Consume::kNoMatch) {
    pending_.push_back(m);
  }
}

void Interpreter::on_timer(std::uint64_t token) {
  if (finished_ || halted_) return;
  if (token == kSendToken) {
    XCP_REQUIRE(pending_send_ != nullptr, "send timer without pending send");
    const Transition* t = pending_send_;
    pending_send_ = nullptr;
    perform_send(*t);
    return;
  }
  // Timeout transition #token of the current input state; verify the guard
  // actually holds now (it does by construction of to_global, but a stale
  // timer could race with a state change — armed timers are cancelled on
  // transition, so reaching here means the state is unchanged).
  const std::span<const Transition* const> outs = automaton_->out_of(state_);
  XCP_REQUIRE(token < outs.size(), "stale timeout token");
  const Transition* t = outs[token];
  XCP_REQUIRE(t->kind == Transition::Kind::kTimeout, "token not a timeout");
  XCP_REQUIRE(local_now() >= var(t->guard->var) + t->guard->offset,
              "timeout fired before guard holds");
  disarm_timeouts();
  take(*t);
}

void Interpreter::record_terminate() {
  if (net().trace() == nullptr) return;
  props::TraceEvent e;
  e.kind = props::EventKind::kTerminate;
  e.at = terminated_global_;
  e.local_at = terminated_local_;
  e.actor = id();
  e.label = automaton_->final_label(state_);
  net().trace()->record(e);
}

}  // namespace xcp::anta
