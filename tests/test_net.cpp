// Unit tests for the network layer: delay models (synchrony regimes),
// adversaries and delivery.

#include <gtest/gtest.h>

#include "net/adversary.hpp"
#include "net/delay_model.hpp"
#include "net/network.hpp"
#include "sim/simulator.hpp"

namespace xcp::net {
namespace {

struct PingBody final : MessageBody {
  int value = 0;
  std::string describe() const override { return "ping"; }
};

class Recorder final : public Actor {
 public:
  std::vector<std::pair<std::int64_t, std::string>> received;
  void on_message(const Message& m) override {
    received.emplace_back(global_now().count(), m.kind.str());
  }
  using Actor::send;  // expose for tests
};

// -------------------------------------------------------------- DelayModels

TEST(SynchronousModel, SamplesWithinBounds) {
  SynchronousModel model(Duration::millis(1), Duration::millis(10));
  Rng rng(3);
  Message m;
  for (int i = 0; i < 500; ++i) {
    const Duration d = model.sample(m, TimePoint::origin(), rng);
    EXPECT_GE(d, Duration::millis(1));
    EXPECT_LE(d, Duration::millis(10));
  }
  EXPECT_EQ(model.known_bound()->count(), Duration::millis(10).count());
  EXPECT_EQ(model.latest_delivery(m, TimePoint::micros(5)).count(),
            (TimePoint::micros(5) + Duration::millis(10)).count());
}

TEST(PartialSynchronyModel, RespectsGstContract) {
  const TimePoint gst = TimePoint::origin() + Duration::seconds(10);
  PartialSynchronyModel model(gst, Duration::millis(100), Duration::seconds(5));
  Message m;
  // Sent before GST: must be delivered by GST + delta.
  EXPECT_EQ(model.latest_delivery(m, TimePoint::origin()).count(),
            (gst + Duration::millis(100)).count());
  // Sent after GST: within delta of sending.
  const TimePoint late = gst + Duration::seconds(1);
  EXPECT_EQ(model.latest_delivery(m, late).count(),
            (late + Duration::millis(100)).count());
  // No bound is known to protocols.
  EXPECT_FALSE(model.known_bound().has_value());
  // Samples are always legal.
  Rng rng(5);
  for (int i = 0; i < 200; ++i) {
    const TimePoint sent = TimePoint::micros(rng.next_int(0, 20'000'000));
    const Duration d = model.sample(m, sent, rng);
    EXPECT_LE((sent + d).count(), model.latest_delivery(m, sent).count());
  }
}

TEST(AsynchronousModel, FiniteButHeavyTailed) {
  AsynchronousModel model(Duration::millis(10), Duration::seconds(60));
  Rng rng(7);
  Message m;
  Duration max_seen = Duration::zero();
  for (int i = 0; i < 2000; ++i) {
    const Duration d = model.sample(m, TimePoint::origin(), rng);
    EXPECT_GT(d, Duration::zero());
    EXPECT_LE(d, Duration::seconds(60));
    max_seen = std::max(max_seen, d);
  }
  // The doubling tail should reach well past the typical delay.
  EXPECT_GT(max_seen, Duration::millis(40));
}

// ------------------------------------------------------------------ Network

TEST(Network, DeliversWithinModelBounds) {
  sim::Simulator sim(11);
  Network net(sim, std::make_unique<SynchronousModel>(Duration::millis(1),
                                                      Duration::millis(10)));
  auto& a = sim.spawn<Recorder>("a");
  auto& b = sim.spawn<Recorder>("b");
  net.attach(a);
  net.attach(b);
  sim.schedule_at(TimePoint::origin(),
                  [&] { net.send(a.id(), b.id(), "ping", nullptr); });
  sim.run();
  ASSERT_EQ(b.received.size(), 1u);
  EXPECT_GE(b.received[0].first, Duration::millis(1).count());
  EXPECT_LE(b.received[0].first, Duration::millis(10).count());
  EXPECT_EQ(net.stats().messages_sent, 1u);
  EXPECT_EQ(net.stats().messages_delivered, 1u);
}

TEST(Network, MessagesToUnattachedIdsDropped) {
  sim::Simulator sim(11);
  Network net(sim, std::make_unique<SynchronousModel>(Duration::millis(1),
                                                      Duration::millis(2)));
  auto& a = sim.spawn<Recorder>("a");
  net.attach(a);
  sim.schedule_at(TimePoint::origin(),
                  [&] { net.send(a.id(), sim::ProcessId(99), "ping", nullptr); });
  sim.run();
  EXPECT_EQ(net.stats().messages_dropped, 1u);
}

TEST(Network, DropProbabilityLosesMessages) {
  sim::Simulator sim(13);
  Network net(sim, std::make_unique<SynchronousModel>(Duration::millis(1),
                                                      Duration::millis(2)));
  auto& a = sim.spawn<Recorder>("a");
  auto& b = sim.spawn<Recorder>("b");
  net.attach(a);
  net.attach(b);
  net.set_drop_probability(0.5);
  sim.schedule_at(TimePoint::origin(), [&] {
    for (int i = 0; i < 200; ++i) net.send(a.id(), b.id(), "ping", nullptr);
  });
  sim.run();
  EXPECT_GT(net.stats().messages_dropped, 50u);
  EXPECT_GT(net.stats().messages_delivered, 50u);
}

TEST(Network, BodySharedAcrossDeliveries) {
  sim::Simulator sim(17);
  Network net(sim, std::make_unique<SynchronousModel>(Duration::millis(1),
                                                      Duration::millis(2)));
  auto& a = sim.spawn<Recorder>("a");
  auto& b = sim.spawn<Recorder>("b");
  net.attach(a);
  net.attach(b);
  auto body = std::make_shared<PingBody>();
  body->value = 42;
  sim.schedule_at(TimePoint::origin(), [&] {
    net.send(a.id(), b.id(), "ping", body);
  });
  sim.run();
  EXPECT_EQ(b.received.size(), 1u);
  EXPECT_EQ(body.use_count(), 1);  // network released its reference
}

TEST(Network, SameInstantBatchDeliversInSendOrderAndClosesFirst) {
  // Sends to one destination resolving to one instant share a batch (one
  // simulator event) and deliver in send order. The batch is closed before
  // it drains: a same-instant send from a handler opens a second batch and
  // event, delivered after the whole first one.
  sim::Simulator sim(19);
  Network net(sim, std::make_unique<SynchronousModel>(Duration::zero(),
                                                      Duration::zero()));
  class Echo final : public Actor {
   public:
    std::vector<std::string> received;
    void on_message(const Message& m) override {
      received.push_back(m.kind.str());
      if (m.kind == "m1") {
        for (const char* k : {"x0", "x1", "x2"}) send(id(), k);
      }
    }
  };
  auto& a = sim.spawn<Recorder>("a");
  auto& b = sim.spawn<Echo>("b");
  net.attach(a);
  net.attach(b);
  sim.schedule_at(TimePoint::origin(), [&] {
    for (const char* k : {"m0", "m1", "m2", "m3"}) a.send(b.id(), k);
  });
  // Runs before the batch above is delivered, so it appends to it.
  sim.schedule_at(TimePoint::origin(), [&] {
    for (const char* k : {"n0", "n1"}) a.send(b.id(), k);
  });
  sim.run();
  const std::vector<std::string> want = {"m0", "m1", "m2", "m3", "n0",
                                         "n1", "x0", "x1", "x2"};
  EXPECT_EQ(b.received, want);
  EXPECT_EQ(net.stats().messages_delivered, want.size());
  // Two on_start events, the two senders, and exactly two batch events.
  EXPECT_EQ(sim.events_executed(), 6u);
}

// --------------------------------------------------------------- Adversary

TEST(RuleBasedAdversary, HoldsMatchingMessagesUntilRelease) {
  sim::Simulator sim(19);
  Network net(sim, std::make_unique<PartialSynchronyModel>(
                       TimePoint::origin() + Duration::seconds(100),
                       Duration::millis(10), Duration::millis(10)));
  auto& a = sim.spawn<Recorder>("a");
  auto& b = sim.spawn<Recorder>("b");
  net.attach(a);
  net.attach(b);

  RuleBasedAdversary adv;
  adv.hold_until(RuleBasedAdversary::kind_is("chi"),
                 TimePoint::origin() + Duration::seconds(5));
  net.set_adversary(&adv);

  sim.schedule_at(TimePoint::origin(), [&] {
    net.send(a.id(), b.id(), "chi", nullptr);
    net.send(a.id(), b.id(), "other", nullptr);
  });
  sim.run();
  ASSERT_EQ(b.received.size(), 2u);
  // "other" got the model's fast default; "chi" was held ~5s.
  std::int64_t chi_at = 0;
  std::int64_t other_at = 0;
  for (const auto& [at, kind] : b.received) {
    (kind == "chi" ? chi_at : other_at) = at;
  }
  EXPECT_GE(chi_at, Duration::seconds(5).count());
  EXPECT_LE(other_at, Duration::millis(20).count());
}

TEST(RuleBasedAdversary, ClampedToSynchronyEnvelope) {
  // Under the *synchronous* model the adversary cannot stretch delivery
  // beyond delta_max: synchrony is a property of the environment, not a
  // courtesy of the adversary.
  sim::Simulator sim(23);
  Network net(sim, std::make_unique<SynchronousModel>(Duration::millis(1),
                                                      Duration::millis(10)));
  auto& a = sim.spawn<Recorder>("a");
  auto& b = sim.spawn<Recorder>("b");
  net.attach(a);
  net.attach(b);
  RuleBasedAdversary adv;
  adv.hold_until(RuleBasedAdversary::kind_is("chi"),
                 TimePoint::origin() + Duration::seconds(60));
  net.set_adversary(&adv);
  sim.schedule_at(TimePoint::origin(),
                  [&] { net.send(a.id(), b.id(), "chi", nullptr); });
  sim.run();
  ASSERT_EQ(b.received.size(), 1u);
  EXPECT_LE(b.received[0].first, Duration::millis(10).count());
}

TEST(RuleBasedAdversary, PredicatesCompose) {
  Message m;
  m.from = sim::ProcessId(1);
  m.to = sim::ProcessId(2);
  m.kind = "chi";
  const auto pred = RuleBasedAdversary::all_of(
      {RuleBasedAdversary::kind_is("chi"),
       RuleBasedAdversary::to_process(sim::ProcessId(2)),
       RuleBasedAdversary::from_process(sim::ProcessId(1))});
  EXPECT_TRUE(pred(m));
  m.kind = "other";
  EXPECT_FALSE(pred(m));
}

TEST(PartitionAdversary, HoldsCrossCutTrafficUntilHeal) {
  sim::Simulator sim(29);
  Network net(sim, std::make_unique<PartialSynchronyModel>(
                       TimePoint::origin() + Duration::seconds(100),
                       Duration::millis(10), Duration::millis(10)));
  auto& a = sim.spawn<Recorder>("a");
  auto& b = sim.spawn<Recorder>("b");
  auto& c = sim.spawn<Recorder>("c");
  net.attach(a);
  net.attach(b);
  net.attach(c);
  // a | {b, c}: a is alone in group A until t = 3s.
  PartitionAdversary adv([&](sim::ProcessId p) { return p == a.id(); },
                         TimePoint::origin() + Duration::seconds(3));
  net.set_adversary(&adv);
  sim.schedule_at(TimePoint::origin(), [&] {
    net.send(a.id(), b.id(), "x", nullptr);   // crosses the cut
    net.send(b.id(), c.id(), "y", nullptr);   // inside group B
  });
  sim.run();
  ASSERT_EQ(b.received.size(), 1u);
  ASSERT_EQ(c.received.size(), 1u);
  EXPECT_GE(b.received[0].first, Duration::seconds(3).count());
  EXPECT_LE(c.received[0].first, Duration::millis(20).count());
}

}  // namespace
}  // namespace xcp::net
