// Unit tests for the ANTA formalism: automaton structure, validation,
// interpreter semantics (buffering, timeouts, clock variables), rendering.

#include <gtest/gtest.h>

#include "anta/automaton.hpp"
#include "anta/interpreter.hpp"
#include "anta/render.hpp"
#include "net/delay_model.hpp"
#include "net/network.hpp"
#include "sim/simulator.hpp"

namespace xcp::anta {
namespace {

using net::Message;

/// Driver actor that fires scripted messages at given times.
class Script final : public net::Actor {
 public:
  struct Step {
    Duration at;
    sim::ProcessId to;
    std::string kind;
  };
  explicit Script(std::vector<Step> steps) : steps_(std::move(steps)) {}
  void on_start() override {
    for (const auto& s : steps_) {
      sim().schedule_at(TimePoint::origin() + s.at,
                        [this, s] { send(s.to, s.kind, nullptr); });
    }
  }
  void on_message(const Message&) override {}

 private:
  std::vector<Step> steps_;
};

struct Rig {
  sim::Simulator sim{123};
  props::TraceRecorder trace;
  net::Network net{sim,
                   std::make_unique<net::SynchronousModel>(Duration::millis(1),
                                                           Duration::millis(2)),
                   &trace};
};

// ------------------------------------------------------------ structure

TEST(Automaton, ValidationCatchesMalformedShapes) {
  {
    Automaton a("no-initial");
    a.add_state("s", StateKind::kInput);
    EXPECT_THROW(a.validate(), std::logic_error);
  }
  {
    Automaton a("output-without-send");
    const auto s = a.add_state("out", StateKind::kOutput);
    a.set_initial(s);
    EXPECT_THROW(a.validate(), std::logic_error);
  }
  {
    Automaton a("receive-from-output");
    const auto s = a.add_state("out", StateKind::kOutput);
    const auto t = a.add_state("in", StateKind::kInput);
    a.set_initial(s);
    a.add_receive(s, t, sim::ProcessId(0), "m");
    EXPECT_THROW(a.validate(), std::logic_error);
  }
  {
    Automaton a("final-with-exit");
    const auto f = a.add_state("done", StateKind::kFinal);
    const auto i = a.add_state("in", StateKind::kInput);
    a.set_initial(i);
    a.add_receive(f, i, sim::ProcessId(0), "m");
    EXPECT_THROW(a.validate(), std::logic_error);
  }
}

std::shared_ptr<Automaton> two_receive_machine(sim::ProcessId from) {
  // init --r(from,A)--> mid --r(from,B)--> done
  auto a = std::make_shared<Automaton>("two-receive");
  const auto s0 = a->add_state("init", StateKind::kInput);
  const auto s1 = a->add_state("mid", StateKind::kInput);
  const auto s2 = a->add_state("done", StateKind::kFinal);
  a->set_initial(s0);
  a->add_receive(s0, s1, from, "A");
  a->add_receive(s1, s2, from, "B");
  a->validate();
  return a;
}

TEST(Interpreter, InOrderMessagesRunToFinal) {
  Rig rig;
  auto& script = rig.sim.spawn<Script>(
      "script", std::vector<Script::Step>{{Duration::millis(10),
                                           sim::ProcessId(1), "A"},
                                          {Duration::millis(20),
                                           sim::ProcessId(1), "B"}});
  auto& interp = rig.sim.spawn<Interpreter>(
      "m", two_receive_machine(script.id()), Duration::millis(1));
  rig.net.attach(script);
  rig.net.attach(interp);
  rig.sim.run();
  EXPECT_TRUE(interp.finished());
  EXPECT_EQ(interp.automaton().state_name(interp.state()), "done");
}

TEST(Interpreter, OutOfOrderMessagesAreBuffered) {
  // B arrives before A; the machine must buffer B, take A, then replay B.
  Rig rig;
  auto& script = rig.sim.spawn<Script>(
      "script", std::vector<Script::Step>{{Duration::millis(10),
                                           sim::ProcessId(1), "B"},
                                          {Duration::millis(30),
                                           sim::ProcessId(1), "A"}});
  auto& interp = rig.sim.spawn<Interpreter>(
      "m", two_receive_machine(script.id()), Duration::millis(1));
  rig.net.attach(script);
  rig.net.attach(interp);
  rig.sim.run();
  EXPECT_TRUE(interp.finished());
}

TEST(Interpreter, WrongSenderIgnored) {
  Rig rig;
  auto& stranger = rig.sim.spawn<Script>(
      "stranger", std::vector<Script::Step>{{Duration::millis(5),
                                             sim::ProcessId(2), "A"}});
  auto& script = rig.sim.spawn<Script>("script", std::vector<Script::Step>{});
  auto& interp = rig.sim.spawn<Interpreter>(
      "m", two_receive_machine(script.id()), Duration::millis(1));
  rig.net.attach(stranger);
  rig.net.attach(script);
  rig.net.attach(interp);
  rig.sim.run();
  // "A" from the stranger must not advance a machine expecting it from
  // `script` (r(id, m) names the sender).
  EXPECT_FALSE(interp.finished());
  EXPECT_EQ(interp.automaton().state_name(interp.state()), "init");
}

TEST(Interpreter, TimeoutFiresOnLocalClock) {
  // init(out) sends ping to itself? Simpler: wait state with guard on var
  // assigned at start via an output state's effect.
  auto a = std::make_shared<Automaton>("timeout");
  const auto s0 = a->add_state("announce", StateKind::kOutput);
  const auto s1 = a->add_state("wait", StateKind::kInput);
  const auto s2 = a->add_state("expired", StateKind::kFinal);
  const auto u = a->add_var("u");
  a->set_initial(s0);
  auto& send_t = a->set_send(s0, s1, sim::ProcessId(0), "noop");
  send_t.effect = [u](Interpreter& in) { in.assign_now(u); };
  a->add_timeout(s1, s2, TimeGuard{u, Duration::millis(50)});
  a->validate();

  Rig rig;
  auto& sink = rig.sim.spawn<Script>("sink", std::vector<Script::Step>{});
  auto& interp = rig.sim.spawn<Interpreter>("m", a, Duration::millis(1));
  rig.net.attach(sink);
  rig.net.attach(interp);
  // Give the interpreter a fast clock (rate 1.25): the local 50ms deadline
  // should arrive after only ~40ms of true time.
  rig.sim.set_clock(interp.id(),
                    sim::DriftClock(TimePoint::origin(), TimePoint::origin(),
                                    1.25));
  rig.sim.run();
  EXPECT_TRUE(interp.finished());
  EXPECT_GE(interp.terminated_local() - TimePoint::origin(),
            Duration::millis(50));
  EXPECT_LE(interp.terminated_global() - TimePoint::origin(),
            Duration::millis(45));  // 40ms + processing bound
}

TEST(Interpreter, ReceiveBeatsTimeoutWhenEarlier) {
  auto make = [] {
    auto a = std::make_shared<Automaton>("race");
    const auto s0 = a->add_state("announce", StateKind::kOutput);
    const auto s1 = a->add_state("wait", StateKind::kInput);
    const auto got = a->add_state("got", StateKind::kFinal);
    const auto expired = a->add_state("expired", StateKind::kFinal);
    const auto u = a->add_var("u");
    a->set_initial(s0);
    a->set_send(s0, s1, sim::ProcessId(0), "noop").effect =
        [u](Interpreter& in) { in.assign_now(u); };
    a->add_receive(s1, got, sim::ProcessId(0), "M");
    a->add_timeout(s1, expired, TimeGuard{u, Duration::millis(100)});
    a->validate();
    return a;
  };
  {
    Rig rig;
    auto& script = rig.sim.spawn<Script>(
        "sink", std::vector<Script::Step>{{Duration::millis(20),
                                           sim::ProcessId(1), "M"}});
    auto& interp = rig.sim.spawn<Interpreter>("m", make(), Duration::millis(1));
    rig.net.attach(script);
    rig.net.attach(interp);
    rig.sim.run();
    EXPECT_EQ(interp.automaton().state_name(interp.state()), "got");
  }
  {
    Rig rig;
    auto& script = rig.sim.spawn<Script>(
        "sink", std::vector<Script::Step>{{Duration::millis(500),
                                           sim::ProcessId(1), "M"}});
    auto& interp = rig.sim.spawn<Interpreter>("m", make(), Duration::millis(1));
    rig.net.attach(script);
    rig.net.attach(interp);
    rig.sim.run();
    EXPECT_EQ(interp.automaton().state_name(interp.state()), "expired");
  }
}

TEST(Interpreter, AcceptCallbackDiscardsInvalidContent) {
  auto a = std::make_shared<Automaton>("picky");
  const auto s0 = a->add_state("wait", StateKind::kInput);
  const auto s1 = a->add_state("done", StateKind::kFinal);
  a->set_initial(s0);
  int offered = 0;
  auto& t = a->add_receive(s0, s1, sim::ProcessId(0), "M");
  t.accept = [&offered](const Message&, Interpreter&) {
    return ++offered >= 3;  // reject the first two matching messages
  };
  a->validate();
  Rig rig;
  auto& script = rig.sim.spawn<Script>(
      "s", std::vector<Script::Step>{{Duration::millis(10), sim::ProcessId(1), "M"},
                                     {Duration::millis(20), sim::ProcessId(1), "M"},
                                     {Duration::millis(30), sim::ProcessId(1), "M"}});
  auto& interp = rig.sim.spawn<Interpreter>("m", a, Duration::millis(1));
  rig.net.attach(script);
  rig.net.attach(interp);
  rig.sim.run();
  EXPECT_TRUE(interp.finished());
  EXPECT_EQ(offered, 3);
}

TEST(Interpreter, SendInterceptorDropAndHalt) {
  auto machine = [](sim::ProcessId dest) {
    auto a = std::make_shared<Automaton>("sender");
    const auto s0 = a->add_state("send1", StateKind::kOutput);
    const auto s1 = a->add_state("send2", StateKind::kOutput);
    const auto s2 = a->add_state("done", StateKind::kFinal);
    a->set_initial(s0);
    a->set_send(s0, s1, dest, "one");
    a->set_send(s1, s2, dest, "two");
    a->validate();
    return a;
  };
  {
    // Drop "one": the automaton continues and still sends "two".
    Rig rig;
    auto& sink = rig.sim.spawn<Script>("sink", std::vector<Script::Step>{});
    auto& interp =
        rig.sim.spawn<Interpreter>("m", machine(sink.id()), Duration::millis(1));
    rig.net.attach(sink);
    rig.net.attach(interp);
    interp.set_send_interceptor([](const Transition& t, Interpreter&) {
      return t.send_kind == "one" ? SendAction::drop() : SendAction::allow();
    });
    rig.sim.run();
    EXPECT_TRUE(interp.finished());
    EXPECT_EQ(rig.net.stats().messages_sent, 1u);
  }
  {
    // Halt on "one": nothing is ever sent and the machine never finishes.
    Rig rig;
    auto& sink = rig.sim.spawn<Script>("sink", std::vector<Script::Step>{});
    auto& interp =
        rig.sim.spawn<Interpreter>("m", machine(sink.id()), Duration::millis(1));
    rig.net.attach(sink);
    rig.net.attach(interp);
    interp.set_send_interceptor(
        [](const Transition&, Interpreter&) { return SendAction::halt(); });
    rig.sim.run();
    EXPECT_FALSE(interp.finished());
    EXPECT_TRUE(interp.halted());
    EXPECT_EQ(rig.net.stats().messages_sent, 0u);
  }
}

TEST(Automaton, ExitIndexKeepsDeclarationOrderPerState) {
  Automaton a("index");
  const auto s0 = a.add_state("wait", StateKind::kInput);
  const auto s1 = a.add_state("out", StateKind::kOutput);
  const auto s2 = a.add_state("done", StateKind::kFinal);
  const auto u = a.add_var("u");
  a.set_initial(s0);
  // Interleave the declarations across states.
  a.add_receive(s0, s1, sim::ProcessId(0), "first");
  a.set_send(s1, s2, sim::ProcessId(0), "send");
  a.add_timeout(s0, s2, TimeGuard{u, Duration::millis(5)});
  a.add_receive(s0, s2, sim::ProcessId(0), "third");
  a.validate();
  ASSERT_TRUE(a.validated());
  const auto outs = a.out_of(s0);
  ASSERT_EQ(outs.size(), 3u);
  EXPECT_EQ(outs[0], &a.transitions()[0]);
  EXPECT_EQ(outs[1], &a.transitions()[2]);
  EXPECT_EQ(outs[2], &a.transitions()[3]);
  ASSERT_EQ(a.out_of(s1).size(), 1u);
  EXPECT_EQ(a.out_of(s1)[0]->kind, Transition::Kind::kSend);
  EXPECT_TRUE(a.out_of(s2).empty());
}

TEST(Automaton, InterpreterRequiresAValidatedAutomaton) {
  auto a = std::make_shared<Automaton>("late");
  const auto s0 = a->add_state("wait", StateKind::kInput);
  const auto s1 = a->add_state("done", StateKind::kFinal);
  a->set_initial(s0);
  a->add_receive(s0, s1, sim::ProcessId(0), "A");
  Rig rig;
  EXPECT_THROW(rig.sim.spawn<Interpreter>("m", a, Duration::millis(1)),
               std::logic_error);
  a->validate();
  EXPECT_TRUE(a->validated());
  // A structural edit after validation voids it, and the stale index with
  // it.
  a->add_receive(s0, s1, sim::ProcessId(0), "B");
  EXPECT_FALSE(a->validated());
  EXPECT_THROW(a->out_of(s0), std::logic_error);
  // A failed validation leaves the automaton unvalidated.
  a->add_receive(s1, s0, sim::ProcessId(0), "C");
  EXPECT_THROW(a->validate(), std::logic_error);
  EXPECT_FALSE(a->validated());
}

/// Run bindings of the slot test: where the effect reports what it read.
struct SlotProbe : Bindings {
  std::vector<std::uint64_t> seen;
  bool had_before = true;
};

TEST(Interpreter, SlotsAndBindingsArePerInstance) {
  // One shared automaton, two interpreters with their own bindings: each
  // writes its slot on the first message and reads it back on the second.
  auto a = std::make_shared<Automaton>("slots");
  const auto s0 = a->add_state("init", StateKind::kInput);
  const auto s1 = a->add_state("mid", StateKind::kInput);
  const auto s2 = a->add_state("done", StateKind::kFinal);
  const auto k = a->add_slot("k");
  a->set_initial(s0);
  a->add_receive(s0, s1, sim::ProcessId(0), "A").effect = [k](Interpreter& in) {
    SlotProbe& probe = in.bindings<SlotProbe>();
    probe.had_before = in.has_slot(k);
    in.set_slot(k, 40 + in.id().value());
  };
  a->add_receive(s1, s2, sim::ProcessId(0), "B").effect = [k](Interpreter& in) {
    in.bindings<SlotProbe>().seen.push_back(in.slot(k));
  };
  a->validate();
  EXPECT_EQ(a->slot_count(), 1u);
  EXPECT_EQ(a->slot_name(k), "k");

  Rig rig;
  auto& script = rig.sim.spawn<Script>(
      "script",
      std::vector<Script::Step>{{Duration::millis(10), sim::ProcessId(1), "A"},
                                {Duration::millis(10), sim::ProcessId(2), "A"},
                                {Duration::millis(20), sim::ProcessId(1), "B"},
                                {Duration::millis(20), sim::ProcessId(2), "B"}});
  SlotProbe p1;
  SlotProbe p2;
  auto& m1 = rig.sim.spawn<Interpreter>("m1", a, Duration::millis(1), &p1);
  auto& m2 = rig.sim.spawn<Interpreter>("m2", a, Duration::millis(1), &p2);
  EXPECT_FALSE(m1.has_slot(k));
  EXPECT_THROW(m1.slot(k), std::logic_error);
  EXPECT_THROW(m1.slot(k + 1), std::logic_error);
  rig.net.attach(script);
  rig.net.attach(m1);
  rig.net.attach(m2);
  rig.sim.run();
  EXPECT_TRUE(m1.finished());
  EXPECT_TRUE(m2.finished());
  EXPECT_FALSE(p1.had_before);
  EXPECT_FALSE(p2.had_before);
  EXPECT_EQ(p1.seen, std::vector<std::uint64_t>{41});
  EXPECT_EQ(p2.seen, std::vector<std::uint64_t>{42});
}

TEST(Render, DotAndAsciiContainStatesAndLabels) {
  auto a = two_receive_machine(sim::ProcessId(7));
  const std::string dot = to_dot(*a);
  EXPECT_NE(dot.find("digraph"), std::string::npos);
  EXPECT_NE(dot.find("init"), std::string::npos);
  EXPECT_NE(dot.find("doublecircle"), std::string::npos);
  const std::string ascii = to_ascii(*a);
  EXPECT_NE(ascii.find("two-receive"), std::string::npos);
  EXPECT_NE(ascii.find("r(p7,A)"), std::string::npos);
}

}  // namespace
}  // namespace xcp::anta
