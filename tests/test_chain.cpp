// Unit tests for the simulated blockchain: transaction authentication,
// block sealing, contract execution and event broadcast.

#include <gtest/gtest.h>

#include "chain/blockchain.hpp"
#include "net/delay_model.hpp"
#include "net/network.hpp"
#include "sim/simulator.hpp"

namespace xcp::chain {
namespace {

/// A counter contract: "inc" adds arg; "emit" publishes the current total.
class CounterContract final : public Contract {
 public:
  const std::string& name() const override { return name_; }
  Status apply(const Transaction& tx, ChainContext& ctx) override {
    if (tx.op == "inc") {
      total_ += tx.arg;
      return Status::ok();
    }
    if (tx.op == "emit") {
      ctx.emit(name_, "total", std::nullopt, std::to_string(total_));
      return Status::ok();
    }
    return Status::error("unknown op");
  }
  std::uint64_t total() const { return total_; }

 private:
  std::string name_ = "counter";
  std::uint64_t total_ = 0;
};

class Client final : public net::Actor {
 public:
  std::vector<std::string> events;
  void on_message(const net::Message& m) override {
    if (m.kind != "chain_event") return;
    if (const auto* e = m.body_as<ChainEventMsg>()) {
      events.push_back(e->topic + "=" + e->detail);
    }
  }
  void submit(sim::ProcessId chain, Transaction tx) {
    auto body = std::make_shared<TxMsg>();
    body->tx = std::move(tx);
    send(chain, "tx", body);
  }
};

struct Rig {
  Rig() {
    client_ptr = &sim.spawn<Client>("client");
    chain_ptr = &sim.spawn<Blockchain>("chain", Duration::millis(100), keys);
    net.attach(*client_ptr);
    net.attach(*chain_ptr);
    auto contract = std::make_unique<CounterContract>();
    counter = contract.get();
    chain_ptr->register_contract(std::move(contract));
    chain_ptr->subscribe(client_ptr->id());
  }
  sim::Simulator sim{55};
  crypto::KeyRegistry keys{55};
  net::Network net{sim, std::make_unique<net::SynchronousModel>(
                            Duration::millis(1), Duration::millis(5))};
  Client* client_ptr;
  Blockchain* chain_ptr;
  CounterContract* counter;
};

TEST(Transaction, SignAndVerify) {
  crypto::KeyRegistry keys(1);
  const auto signer = keys.signer_for(sim::ProcessId(3));
  const Transaction tx = make_signed_tx(signer, "c", "op", 1, 2);
  EXPECT_TRUE(verify_tx(keys, tx));
  Transaction tampered = tx;
  tampered.arg = 99;
  EXPECT_FALSE(verify_tx(keys, tampered));
  Transaction wrong_sender = tx;
  wrong_sender.sender = sim::ProcessId(4);
  EXPECT_FALSE(verify_tx(keys, wrong_sender));
}

TEST(Blockchain, AppliesValidTransactionsInBlocks) {
  Rig rig;
  const auto signer = rig.keys.signer_for(rig.client_ptr->id());
  rig.sim.schedule_at(TimePoint::origin(), [&] {
    rig.client_ptr->submit(rig.chain_ptr->id(),
                           make_signed_tx(signer, "counter", "inc", 5));
    rig.client_ptr->submit(rig.chain_ptr->id(),
                           make_signed_tx(signer, "counter", "inc", 7));
    rig.client_ptr->submit(rig.chain_ptr->id(),
                           make_signed_tx(signer, "counter", "emit"));
  });
  rig.sim.schedule_at(TimePoint::origin() + Duration::millis(400),
                      [&] { rig.chain_ptr->stop(); });
  rig.sim.run();
  EXPECT_EQ(rig.counter->total(), 12u);
  ASSERT_EQ(rig.client_ptr->events.size(), 1u);
  EXPECT_EQ(rig.client_ptr->events[0], "total=12");
  EXPECT_EQ(rig.chain_ptr->stats().txs_accepted, 3u);
}

TEST(Blockchain, RejectsBadSignaturesAndSpoofedSenders) {
  Rig rig;
  // A signer for a *different* identity: the network sender (client) won't
  // match the transaction's claimed sender.
  const auto other = rig.keys.signer_for(sim::ProcessId(42));
  rig.sim.schedule_at(TimePoint::origin(), [&] {
    rig.client_ptr->submit(rig.chain_ptr->id(),
                           make_signed_tx(other, "counter", "inc", 5));
    // Tampered payload with a real signature.
    auto tx = make_signed_tx(rig.keys.signer_for(rig.client_ptr->id()),
                             "counter", "inc", 5);
    tx.arg = 500;
    rig.client_ptr->submit(rig.chain_ptr->id(), tx);
  });
  rig.sim.schedule_at(TimePoint::origin() + Duration::millis(300),
                      [&] { rig.chain_ptr->stop(); });
  rig.sim.run();
  EXPECT_EQ(rig.counter->total(), 0u);
  EXPECT_EQ(rig.chain_ptr->stats().txs_rejected_sig, 2u);
}

TEST(Blockchain, RejectedApplyCountsAndContinues) {
  Rig rig;
  const auto signer = rig.keys.signer_for(rig.client_ptr->id());
  rig.sim.schedule_at(TimePoint::origin(), [&] {
    rig.client_ptr->submit(rig.chain_ptr->id(),
                           make_signed_tx(signer, "counter", "nope"));
    rig.client_ptr->submit(rig.chain_ptr->id(),
                           make_signed_tx(signer, "nosuch", "inc", 1));
    rig.client_ptr->submit(rig.chain_ptr->id(),
                           make_signed_tx(signer, "counter", "inc", 3));
  });
  rig.sim.schedule_at(TimePoint::origin() + Duration::millis(300),
                      [&] { rig.chain_ptr->stop(); });
  rig.sim.run();
  EXPECT_EQ(rig.counter->total(), 3u);
  EXPECT_EQ(rig.chain_ptr->stats().txs_rejected_apply, 2u);
}

TEST(Blockchain, BlocksChainByParentHash) {
  Rig rig;
  rig.sim.schedule_at(TimePoint::origin() + Duration::millis(450),
                      [&] { rig.chain_ptr->stop(); });
  rig.sim.run();
  const auto& blocks = rig.chain_ptr->blocks();
  ASSERT_GE(blocks.size(), 3u);
  for (std::size_t i = 1; i < blocks.size(); ++i) {
    EXPECT_EQ(blocks[i].parent_hash, blocks[i - 1].hash);
    EXPECT_EQ(blocks[i].height, blocks[i - 1].height + 1);
    EXPECT_GE(blocks[i].sealed_at, blocks[i - 1].sealed_at);
  }
}

TEST(Blockchain, DuplicateContractNameRejected) {
  Rig rig;
  EXPECT_THROW(rig.chain_ptr->register_contract(
                   std::make_unique<CounterContract>()),
               std::logic_error);
}

}  // namespace
}  // namespace xcp::chain

namespace xcp::chain {
namespace {

TEST(InclusionProof, IssueAndVerify) {
  Rig rig;
  const auto signer = rig.keys.signer_for(rig.client_ptr->id());
  const auto tx = make_signed_tx(signer, "counter", "inc", 5);
  rig.sim.schedule_at(TimePoint::origin(),
                      [&] { rig.client_ptr->submit(rig.chain_ptr->id(), tx); });
  rig.sim.schedule_at(TimePoint::origin() + Duration::millis(300),
                      [&] { rig.chain_ptr->stop(); });
  rig.sim.run();

  const auto proof = rig.chain_ptr->prove_inclusion(tx.digest());
  ASSERT_TRUE(proof.has_value());
  EXPECT_TRUE(verify_inclusion(rig.keys, rig.chain_ptr->id(), *proof));
  EXPECT_GE(proof->height, 1u);

  // Unknown transactions have no proof.
  EXPECT_FALSE(rig.chain_ptr->prove_inclusion(0xdeadbeef).has_value());
}

TEST(InclusionProof, TamperingOrWrongChainRejected) {
  Rig rig;
  const auto signer = rig.keys.signer_for(rig.client_ptr->id());
  const auto tx = make_signed_tx(signer, "counter", "inc", 5);
  rig.sim.schedule_at(TimePoint::origin(),
                      [&] { rig.client_ptr->submit(rig.chain_ptr->id(), tx); });
  rig.sim.schedule_at(TimePoint::origin() + Duration::millis(300),
                      [&] { rig.chain_ptr->stop(); });
  rig.sim.run();
  auto proof = rig.chain_ptr->prove_inclusion(tx.digest());
  ASSERT_TRUE(proof.has_value());

  InclusionProof tampered = *proof;
  tampered.height += 1;  // claim a different position
  EXPECT_FALSE(verify_inclusion(rig.keys, rig.chain_ptr->id(), tampered));

  // Verifying against a different chain identity fails.
  EXPECT_FALSE(verify_inclusion(rig.keys, sim::ProcessId(777), *proof));

  // A forged signature fails.
  InclusionProof forged = *proof;
  forged.sig.mac ^= 1;
  EXPECT_FALSE(verify_inclusion(rig.keys, rig.chain_ptr->id(), forged));
}

TEST(ByteIdentity, TransactionIdsAndBlockHashesArePinned) {
  // Golden values: a transaction id is what its signature and inclusion
  // proofs commit to, and a block hash chains the ledger.
  crypto::KeyRegistry keys(1);
  const auto signer = keys.signer_for(sim::ProcessId(3));
  EXPECT_EQ(make_signed_tx(signer, "c", "op", 1, 2).digest(), 0xe61ad74aa810dbfaULL);
  const crypto::Certificate chi =
      crypto::make_payment_cert(keys.signer_for(sim::ProcessId(4)), 9);
  EXPECT_EQ(make_signed_tx(signer, "tm", "submit-chi", 9, 0, chi).digest(),
            0x6b955bffcbff1771ULL);

  Rig rig;
  const auto client = rig.keys.signer_for(rig.client_ptr->id());
  rig.sim.schedule_at(TimePoint::origin(), [&] {
    rig.client_ptr->submit(rig.chain_ptr->id(),
                           make_signed_tx(client, "counter", "inc", 5));
    rig.client_ptr->submit(rig.chain_ptr->id(),
                           make_signed_tx(client, "counter", "emit"));
  });
  rig.sim.schedule_at(TimePoint::origin() + Duration::millis(250),
                      [&] { rig.chain_ptr->stop(); });
  rig.sim.run();
  const auto& blocks = rig.chain_ptr->blocks();
  ASSERT_EQ(blocks.size(), 2u);
  EXPECT_EQ(blocks[0].txs.size(), 2u);
  EXPECT_EQ(blocks[0].hash, 0x4c527c08b717de91ULL);
  EXPECT_EQ(blocks[1].hash, 0x6d017e162d9bddacULL);
}

}  // namespace
}  // namespace xcp::chain
