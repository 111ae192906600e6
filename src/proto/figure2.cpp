#include "proto/figure2.hpp"

#include "anta/interpreter.hpp"
#include "proto/bodies.hpp"
#include "support/status.hpp"

namespace xcp::proto {

namespace {

Fig2Run& run_of(anta::Interpreter& in) { return in.bindings<Fig2Run>(); }

void record_cert_event(props::EventKind kind, anta::Interpreter& in,
                       const crypto::Certificate& cert) {
  props::TraceRecorder* trace = run_of(in).trace;
  if (trace == nullptr) return;
  props::TraceEvent e;
  e.kind = kind;
  e.at = in.global_now();
  e.local_at = in.local_now();
  e.actor = in.id();
  e.label = crypto::cert_kind_label(cert.kind);
  trace->record(e);
}

/// accept-callback: m carries a MoneyMsg whose ledger receipt really credits
/// `to` with `amount` and debits the claimed sender.
auto accept_money(const Fig2ContextPtr& ctx, sim::ProcessId expected_from,
                  sim::ProcessId to, Amount amount) {
  return [ctx, expected_from, to, amount](const net::Message& m,
                                          anta::Interpreter& in) {
    const auto* body = m.body_as<MoneyMsg>();
    if (body == nullptr) return false;
    if (body->deal_id != ctx->spec.deal_id) return false;
    return run_of(in).ledger->verify_exact(body->receipt, expected_from, to,
                                           amount);
  };
}

/// accept-callback: m carries Bob's valid payment certificate chi for this
/// deal. `deadline_of` (optional) returns the local-time deadline; arrival
/// at or after it is rejected (the strict "v < now + a" of promise P).
auto accept_chi(const Fig2ContextPtr& ctx,
                std::function<TimePoint(anta::Interpreter&)> deadline_of = {}) {
  return [ctx, deadline_of](const net::Message& m, anta::Interpreter& in) {
    const auto* body = m.body_as<CertMsg>();
    if (body == nullptr) return false;
    const crypto::Certificate& cert = body->cert;
    if (cert.kind != crypto::CertKind::kPayment) return false;
    if (cert.deal_id != ctx->spec.deal_id) return false;
    if (cert.issuer != ctx->parts.bob()) return false;
    if (!crypto::verify_cert(*run_of(in).keys, cert)) return false;
    if (deadline_of && !(in.local_now() < deadline_of(in))) return false;
    record_cert_event(props::EventKind::kCertReceived, in, cert);
    return true;
  };
}

/// make_body: pay `amount` from the interpreter's own account to `to`.
/// The ledger movement happens at send time; an abiding customer always has
/// the funds (minted at setup), so failure here is a harness bug.
auto pay_body(const Fig2ContextPtr& ctx, sim::ProcessId to, Amount amount) {
  return [ctx, to, amount](anta::Interpreter& in) -> net::BodyPtr {
    ledger::TransferId tid = ledger::kInvalidTransfer;
    run_of(in)
        .ledger->transfer(in.id(), to, amount, in.global_now(), &tid)
        .expect("customer payment");
    auto body = net::make_body<MoneyMsg>();
    body->deal_id = ctx->spec.deal_id;
    body->receipt = tid;
    body->amount = amount;
    return body;
  };
}

}  // namespace

std::shared_ptr<const anta::Automaton> build_escrow_automaton(
    const Fig2ContextPtr& ctx, int i) {
  const sim::ProcessId self = ctx->parts.escrow(i);
  const sim::ProcessId up = ctx->parts.customer(i);        // c_i (pays in)
  const sim::ProcessId down = ctx->parts.customer(i + 1);  // c_{i+1} (paid out)
  const Amount v = ctx->spec.hop_amount(i);
  const Duration a_i = ctx->schedule.a(i);
  const Duration d_i = ctx->schedule.d(i);

  auto a = std::make_shared<anta::Automaton>("escrow_" + std::to_string(i));
  using anta::StateKind;

  const auto s_send_g = a->add_state("send_G", StateKind::kOutput);
  const auto s_await_money = a->add_state("await_$", StateKind::kInput);
  const auto s_send_p = a->add_state("send_P", StateKind::kOutput);
  const auto s_await_chi = a->add_state("await_chi", StateKind::kInput);
  const auto s_fwd_chi = a->add_state("fwd_chi", StateKind::kOutput);
  const auto s_pay_down = a->add_state("pay_down", StateKind::kOutput);
  const auto s_refund = a->add_state("refund", StateKind::kOutput);
  const auto s_done_paid = a->add_state(kDonePaid, StateKind::kFinal);
  const auto s_done_refunded = a->add_state(kDoneRefunded, StateKind::kFinal);
  const auto var_u = a->add_var("u");
  const auto slot_deal = a->add_slot("escrow_deal");
  a->set_initial(s_send_g);

  // s(c_i, G(d_i))
  {
    auto& t = a->set_send(s_send_g, s_await_money, up, net::kinds::g);
    t.make_body = [ctx, v, d_i](anta::Interpreter&) -> net::BodyPtr {
      auto body = net::make_body<PromiseG>();
      body->deal_id = ctx->spec.deal_id;
      body->d = d_i;
      body->amount = v;
      return body;
    };
  }

  // r(c_i, $): verify the deposit, then lock it in escrow for c_{i+1}.
  {
    auto& t = a->add_receive(s_await_money, s_send_p, up, net::kinds::money);
    t.accept = accept_money(ctx, up, self, v);
    t.effect = [self, up, down, v, slot_deal](anta::Interpreter& in) {
      const net::BodyPtr stashed = in.stashed(net::kinds::money);
      const auto* body = dynamic_cast<const MoneyMsg*>(stashed.get());
      XCP_REQUIRE(body != nullptr, "escrow effect without $ body");
      std::uint64_t deal = 0;
      run_of(in)
          .escrows
          ->lock(self, up, down, v, body->receipt, in.global_now(), &deal)
          .expect("escrow lock");
      in.set_slot(slot_deal, deal);
    };
  }

  // s(c_{i+1}, P(a_i)) with u := now on the transition.
  {
    auto& t = a->set_send(s_send_p, s_await_chi, down, net::kinds::p);
    t.make_body = [ctx, v, a_i](anta::Interpreter&) -> net::BodyPtr {
      auto body = net::make_body<PromiseP>();
      body->deal_id = ctx->spec.deal_id;
      body->a = a_i;
      body->amount = v;
      return body;
    };
    t.effect = [var_u](anta::Interpreter& in) { in.assign_now(var_u); };
    t.label = "s(P), u:=now";
  }

  // r(c_{i+1}, chi) while now < u + a_i ...
  {
    auto& t = a->add_receive(s_await_chi, s_fwd_chi, down, net::kinds::chi);
    t.accept = accept_chi(ctx, [var_u, a_i](anta::Interpreter& in) {
      return in.var(var_u) + a_i;
    });
  }
  // ... or the time-out now >= u + a_i.
  a->add_timeout(s_await_chi, s_refund, anta::TimeGuard{var_u, a_i});

  // s(c_i, chi): forward the certificate upstream.
  {
    auto& t = a->set_send(s_fwd_chi, s_pay_down, up, net::kinds::chi);
    t.make_body = [](anta::Interpreter& in) { return in.stashed(net::kinds::chi); };
  }

  // s(c_{i+1}, $): complete the escrow to the downstream customer.
  {
    auto& t = a->set_send(s_pay_down, s_done_paid, down, net::kinds::money);
    t.make_body = [ctx, v, slot_deal](anta::Interpreter& in) -> net::BodyPtr {
      ledger::TransferId tid = ledger::kInvalidTransfer;
      run_of(in)
          .escrows->complete(in.slot(slot_deal), in.global_now(), &tid)
          .expect("escrow complete");
      auto body = net::make_body<MoneyMsg>();
      body->deal_id = ctx->spec.deal_id;
      body->receipt = tid;
      body->amount = v;
      return body;
    };
  }

  // s(c_i, $): refund the deposit after the time-out.
  {
    auto& t = a->set_send(s_refund, s_done_refunded, up, net::kinds::money);
    t.make_body = [ctx, v, slot_deal](anta::Interpreter& in) -> net::BodyPtr {
      ledger::TransferId tid = ledger::kInvalidTransfer;
      run_of(in)
          .escrows->refund(in.slot(slot_deal), in.global_now(), &tid)
          .expect("escrow refund");
      auto body = net::make_body<MoneyMsg>();
      body->deal_id = ctx->spec.deal_id;
      body->receipt = tid;
      body->amount = v;
      return body;
    };
  }

  a->validate();
  return a;
}

std::shared_ptr<const anta::Automaton> build_alice_automaton(
    const Fig2ContextPtr& ctx) {
  const sim::ProcessId self = ctx->parts.alice();
  const sim::ProcessId e0 = ctx->parts.escrow(0);
  const Amount v = ctx->spec.hop_amount(0);

  auto a = std::make_shared<anta::Automaton>("alice");
  using anta::StateKind;
  const auto s_await_g = a->add_state("await_G", StateKind::kInput);
  const auto s_pay = a->add_state("pay", StateKind::kOutput);
  const auto s_await_outcome = a->add_state("await_outcome", StateKind::kInput);
  const auto s_refunded = a->add_state(kDoneRefunded, StateKind::kFinal);
  const auto s_got_chi = a->add_state(kDoneGotChi, StateKind::kFinal);
  a->set_initial(s_await_g);

  {
    auto& t = a->add_receive(s_await_g, s_pay, e0, net::kinds::g);
    t.accept = [ctx, v](const net::Message& m, anta::Interpreter&) {
      const auto* body = m.body_as<PromiseG>();
      return body != nullptr && body->deal_id == ctx->spec.deal_id &&
             body->amount == v;
    };
  }
  a->set_send(s_pay, s_await_outcome, e0, net::kinds::money).make_body = pay_body(ctx, e0, v);
  {
    auto& t = a->add_receive(s_await_outcome, s_refunded, e0, net::kinds::money);
    t.accept = accept_money(ctx, e0, self, v);
  }
  a->add_receive(s_await_outcome, s_got_chi, e0, net::kinds::chi).accept = accept_chi(ctx);

  a->validate();
  return a;
}

std::shared_ptr<const anta::Automaton> build_connector_automaton(
    const Fig2ContextPtr& ctx, int i) {
  XCP_REQUIRE(i >= 1 && i <= ctx->spec.n - 1, "connector index out of range");
  const sim::ProcessId self = ctx->parts.customer(i);
  const sim::ProcessId e_down = ctx->parts.escrow(i);      // pays into e_i
  const sim::ProcessId e_up = ctx->parts.escrow(i - 1);    // is paid by e_{i-1}
  const Amount v_pay = ctx->spec.hop_amount(i);
  const Amount v_recv = ctx->spec.hop_amount(i - 1);

  auto a = std::make_shared<anta::Automaton>("chloe_" + std::to_string(i));
  using anta::StateKind;
  const auto s_await_g = a->add_state("await_G", StateKind::kInput);
  const auto s_await_p = a->add_state("await_P", StateKind::kInput);
  const auto s_pay = a->add_state("pay", StateKind::kOutput);
  const auto s_await_outcome = a->add_state("await_outcome", StateKind::kInput);
  const auto s_fwd_chi = a->add_state("fwd_chi", StateKind::kOutput);
  const auto s_await_money = a->add_state("await_$", StateKind::kInput);
  const auto s_refunded = a->add_state(kDoneRefunded, StateKind::kFinal);
  const auto s_paid = a->add_state(kDonePaid, StateKind::kFinal);
  a->set_initial(s_await_g);

  // Impatient variant: give-up exits from the money-awaiting states. The
  // give-up clock starts when the state is entered (w := now on entry to
  // pay/fwd_chi send transitions below).
  anta::VarId var_w = -1;
  std::optional<anta::StateId> s_gave_up;
  if (ctx->customer_giveup) {
    var_w = a->add_var("w");
    s_gave_up = a->add_state(kGaveUp, StateKind::kFinal);
  }

  // Await G(d_i) from the downstream escrow and P(a_{i-1}) from the upstream
  // escrow. The interpreter buffers out-of-order arrivals, so awaiting them
  // in sequence accepts both orders.
  {
    auto& t = a->add_receive(s_await_g, s_await_p, e_down, net::kinds::g);
    t.accept = [ctx, v_pay](const net::Message& m, anta::Interpreter&) {
      const auto* body = m.body_as<PromiseG>();
      return body != nullptr && body->deal_id == ctx->spec.deal_id &&
             body->amount == v_pay;
    };
  }
  {
    auto& t = a->add_receive(s_await_p, s_pay, e_up, net::kinds::p);
    t.accept = [ctx, v_recv](const net::Message& m, anta::Interpreter&) {
      const auto* body = m.body_as<PromiseP>();
      return body != nullptr && body->deal_id == ctx->spec.deal_id &&
             body->amount == v_recv;
    };
  }

  {
    auto& t = a->set_send(s_pay, s_await_outcome, e_down, net::kinds::money);
    t.make_body = pay_body(ctx, e_down, v_pay);
    if (ctx->customer_giveup) {
      t.effect = [var_w](anta::Interpreter& in) { in.assign_now(var_w); };
    }
  }

  // Either the money comes back (downstream escrow timed out) — done — or
  // chi arrives and must be redeemed upstream.
  {
    auto& t = a->add_receive(s_await_outcome, s_refunded, e_down, net::kinds::money);
    t.accept = accept_money(ctx, e_down, self, v_pay);
  }
  a->add_receive(s_await_outcome, s_fwd_chi, e_down, net::kinds::chi).accept =
      accept_chi(ctx);
  if (ctx->customer_giveup) {
    a->add_timeout(s_await_outcome, *s_gave_up,
                   anta::TimeGuard{var_w, *ctx->customer_giveup}, "give up");
  }

  {
    auto& t = a->set_send(s_fwd_chi, s_await_money, e_up, net::kinds::chi);
    t.make_body = [](anta::Interpreter& in) { return in.stashed(net::kinds::chi); };
    if (ctx->customer_giveup) {
      t.effect = [var_w](anta::Interpreter& in) { in.assign_now(var_w); };
    }
  }

  {
    auto& t = a->add_receive(s_await_money, s_paid, e_up, net::kinds::money);
    t.accept = accept_money(ctx, e_up, self, v_recv);
  }
  if (ctx->customer_giveup) {
    a->add_timeout(s_await_money, *s_gave_up,
                   anta::TimeGuard{var_w, *ctx->customer_giveup}, "give up");
  }

  a->validate();
  return a;
}

std::shared_ptr<const anta::Automaton> build_bob_automaton(
    const Fig2ContextPtr& ctx) {
  const int n = ctx->spec.n;
  const sim::ProcessId self = ctx->parts.bob();
  const sim::ProcessId e_up = ctx->parts.escrow(n - 1);
  const Amount v = ctx->spec.hop_amount(n - 1);

  auto a = std::make_shared<anta::Automaton>("bob");
  using anta::StateKind;
  const auto s_await_p = a->add_state("await_P", StateKind::kInput);
  const auto s_send_chi = a->add_state("send_chi", StateKind::kOutput);
  const auto s_await_money = a->add_state("await_$", StateKind::kInput);
  const auto s_paid = a->add_state(kDonePaid, StateKind::kFinal);
  a->set_initial(s_await_p);

  {
    auto& t = a->add_receive(s_await_p, s_send_chi, e_up, net::kinds::p);
    t.accept = [ctx, v](const net::Message& m, anta::Interpreter&) {
      const auto* body = m.body_as<PromiseP>();
      return body != nullptr && body->deal_id == ctx->spec.deal_id &&
             body->amount == v;
    };
  }
  {
    auto& t = a->set_send(s_send_chi, s_await_money, e_up, net::kinds::chi);
    t.make_body = [ctx](anta::Interpreter& in) -> net::BodyPtr {
      auto body = net::make_body<CertMsg>();
      body->cert =
          crypto::make_payment_cert(run_of(in).bob_signer, ctx->spec.deal_id);
      record_cert_event(props::EventKind::kCertIssued, in, body->cert);
      return body;
    };
  }
  {
    auto& t = a->add_receive(s_await_money, s_paid, e_up, net::kinds::money);
    t.accept = accept_money(ctx, e_up, self, v);
  }

  a->validate();
  return a;
}

std::shared_ptr<const anta::Automaton> build_customer_automaton(
    const Fig2ContextPtr& ctx, int i) {
  if (i == 0) return build_alice_automaton(ctx);
  if (i == ctx->spec.n) return build_bob_automaton(ctx);
  return build_connector_automaton(ctx, i);
}

namespace {

Fig2Automata build_fig2_automata(Fig2ContextPtr ctx) {
  Fig2Automata out;
  const int n = ctx->spec.n;
  for (int i = 0; i <= n; ++i) {
    out.customers.push_back(build_customer_automaton(ctx, i));
  }
  for (int i = 0; i < n; ++i) {
    out.escrows.push_back(build_escrow_automaton(ctx, i));
  }
  out.ctx = std::move(ctx);
  return out;
}

}  // namespace

const Fig2Automata& shared_fig2_automata(
    const DealSpec& spec, const Participants& parts,
    const TimelockSchedule& schedule,
    const std::optional<Duration>& customer_giveup) {
  // A sweep worker runs one matrix cell's seeds back to back, and a cell
  // has one structure; a few entries cover the whole 6x4 matrix at one
  // chain length. Entries are replaced round-robin once it is full.
  constexpr std::size_t kCapacity = 8;
  thread_local std::vector<Fig2Automata> cache;
  thread_local std::size_t next_victim = 0;
  for (const Fig2Automata& e : cache) {
    const Fig2Context& c = *e.ctx;
    if (c.spec == spec && c.parts == parts && c.schedule == schedule &&
        c.customer_giveup == customer_giveup) {
      return e;
    }
  }
  Fig2Automata built = build_fig2_automata(std::make_shared<const Fig2Context>(
      Fig2Context{spec, parts, schedule, customer_giveup}));
  if (cache.size() < kCapacity) {
    cache.push_back(std::move(built));
    return cache.back();
  }
  Fig2Automata& slot = cache[next_victim];
  next_victim = (next_victim + 1) % kCapacity;
  slot = std::move(built);
  return slot;
}

}  // namespace xcp::proto
