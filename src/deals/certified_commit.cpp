#include "deals/certified_commit.hpp"

#include <memory>
#include <set>
#include <sstream>

#include "chain/blockchain.hpp"
#include "ledger/ledger.hpp"
#include "net/network.hpp"
#include "sim/simulator.hpp"
#include "support/status.hpp"

namespace xcp::deals {

namespace {

/// The on-chain deal contract: parties deposit arc funding (verified via
/// ledger receipts), the contract commits once every arc is funded, aborts
/// on the first timeout vote, and moves the money itself (the chain holds
/// the escrowed funds).
class CertifiedDealContract final : public chain::Contract {
 public:
  CertifiedDealContract(DealMatrix deal, std::vector<sim::ProcessId> party_ids,
                        ledger::Ledger& ledger)
      : deal_(std::move(deal)), arcs_(deal_.transfers()),
        party_ids_(std::move(party_ids)), ledger_(ledger) {}

  const std::string& name() const override { return name_; }

  bool committed() const { return committed_; }
  bool aborted() const { return aborted_; }
  int completed() const { return completed_; }
  int refunded() const { return refunded_; }

  Status apply(const chain::Transaction& tx, chain::ChainContext& ctx) override {
    if (tx.op == "deposit") {
      const auto arc = tx.arg;
      if (arc >= arcs_.size()) return Status::error("bad arc");
      const auto& t = arcs_[arc];
      const auto from_id = party_ids_[static_cast<std::size_t>(t.from)];
      if (tx.sender != from_id) return Status::error("deposit by non-owner");
      if (!ledger_.verify_exact(tx.arg2, from_id, ctx.chain_id(), t.amount)) {
        return Status::error("deposit receipt invalid");
      }
      if (funded_.count(arc) != 0) return Status::error("duplicate deposit");
      if (aborted_ || committed_) {
        // A deposit that raced the decision: the contract's refund path
        // stays open forever, so the depositor never strands value here.
        ledger_.transfer(ctx.chain_id(), from_id, t.amount, ctx.block_time())
            .expect("late deposit refund");
        ++refunded_;
        return Status::ok();
      }
      funded_.insert(arc);
      if (funded_.size() == arcs_.size()) {
        committed_ = true;
        for (std::size_t a = 0; a < arcs_.size(); ++a) {
          ledger_
              .transfer(ctx.chain_id(),
                        party_ids_[static_cast<std::size_t>(arcs_[a].to)],
                        arcs_[a].amount, ctx.block_time())
              .expect("certified deal payout");
          ++completed_;
        }
        ctx.emit(name_, "committed");
      }
      return Status::ok();
    }
    if (committed_ || aborted_) return Status::error("deal decided");
    if (tx.op == "abort") {
      // Any party may vote abort (timeout); the first one ends the deal.
      aborted_ = true;
      for (std::uint64_t a : funded_) {
        ledger_
            .transfer(ctx.chain_id(),
                      party_ids_[static_cast<std::size_t>(
                          arcs_[static_cast<std::size_t>(a)].from)],
                      arcs_[static_cast<std::size_t>(a)].amount,
                      ctx.block_time())
            .expect("certified deal refund");
        ++refunded_;
      }
      ctx.emit(name_, "aborted");
      return Status::ok();
    }
    return Status::error("unknown op");
  }

 private:
  std::string name_ = "deal";
  DealMatrix deal_;
  std::vector<DealMatrix::Transfer> arcs_;
  std::vector<sim::ProcessId> party_ids_;
  ledger::Ledger& ledger_;
  std::set<std::uint64_t> funded_;
  bool committed_ = false;
  bool aborted_ = false;
  int completed_ = 0;
  int refunded_ = 0;
};

class CertifiedParty final : public net::Actor {
 public:
  CertifiedParty(DealMatrix deal, int index, sim::ProcessId chain,
                 std::vector<DealMatrix::Transfer> arcs,
                 ledger::Ledger& ledger, crypto::KeyRegistry& keys,
                 Duration patience, bool crashed)
      : deal_(std::move(deal)), index_(index), chain_(chain),
        arcs_(std::move(arcs)), ledger_(ledger), keys_(keys),
        patience_(patience), crashed_(crashed) {}

  bool done() const { return done_; }

  void on_start() override {
    if (crashed_) return;
    signer_ = keys_.signer_for(id());
    for (std::size_t a = 0; a < arcs_.size(); ++a) {
      if (arcs_[a].from != index_) continue;
      ledger::TransferId tid = ledger::kInvalidTransfer;
      ledger_.transfer(id(), chain_, arcs_[a].amount, global_now(), &tid)
          .expect("certified deposit");
      auto tx = net::make_body<chain::TxMsg>();
      tx->tx = chain::make_signed_tx(signer_, "deal", "deposit",
                                     static_cast<std::uint64_t>(a), tid);
      send(chain_, net::kinds::tx, tx);
    }
    set_timer_local_after(patience_, /*token=*/1);
  }

  void on_message(const net::Message& m) override {
    if (crashed_ || m.kind != net::kinds::chain_event) return;
    const auto* body = m.body_as<chain::ChainEventMsg>();
    if (body == nullptr) return;
    if (body->topic == "committed" || body->topic == "aborted") done_ = true;
  }

  void on_timer(std::uint64_t) override {
    if (crashed_ || done_) return;
    auto tx = net::make_body<chain::TxMsg>();
    tx->tx = chain::make_signed_tx(signer_, "deal", "abort");
    send(chain_, net::kinds::tx, tx);
  }

 private:
  DealMatrix deal_;
  int index_;
  sim::ProcessId chain_;
  std::vector<DealMatrix::Transfer> arcs_;
  ledger::Ledger& ledger_;
  crypto::KeyRegistry& keys_;
  crypto::Signer signer_;
  Duration patience_;
  bool crashed_;
  bool done_ = false;
};

}  // namespace

CertifiedDealResult run_certified_deal(const CertifiedDealConfig& config) {
  CertifiedDealResult result;

  sim::Simulator simulator(config.seed);
  net::Network network(simulator, proto::make_delay_model(config.env));
  ledger::Ledger ledger;
  crypto::KeyRegistry keys(config.seed ^ 0xcafef00dULL);

  const int parties = config.deal.party_count();
  const auto arcs = config.deal.transfers();

  std::vector<sim::ProcessId> party_ids;
  for (int i = 0; i < parties; ++i) {
    party_ids.push_back(sim::ProcessId(static_cast<std::uint32_t>(i)));
  }
  const sim::ProcessId chain_id(static_cast<std::uint32_t>(parties));

  auto crashed = [&](int i) {
    return std::find(config.crashed_parties.begin(),
                     config.crashed_parties.end(),
                     i) != config.crashed_parties.end();
  };

  std::vector<CertifiedParty*> party_actors;
  for (int i = 0; i < parties; ++i) {
    auto& p = simulator.spawn<CertifiedParty>(
        "party_" + std::to_string(i), config.deal, i, chain_id, arcs, ledger,
        keys, config.patience, crashed(i));
    XCP_REQUIRE(p.id() == party_ids[static_cast<std::size_t>(i)],
                "party id prediction broken");
    network.attach(p);
    party_actors.push_back(&p);
  }
  auto& bc = simulator.spawn<chain::Blockchain>("chain", config.block_interval,
                                                keys);
  XCP_REQUIRE(bc.id() == chain_id, "chain id prediction broken");
  network.attach(bc);
  auto contract = std::make_unique<CertifiedDealContract>(config.deal,
                                                          party_ids, ledger);
  auto* contract_ptr = contract.get();
  bc.register_contract(std::move(contract));
  for (auto pid : party_ids) bc.subscribe(pid);

  for (const auto& t : arcs) {
    ledger.mint(party_ids[static_cast<std::size_t>(t.from)], t.amount);
  }
  std::vector<std::vector<Amount>> initial;
  for (auto pid : party_ids) initial.push_back(ledger.holdings(pid));

  // Slice the run so the chain can be stopped once every compliant party saw
  // the outcome.
  const TimePoint deadline = TimePoint::origin() + config.horizon;
  while (simulator.now() < deadline) {
    const TimePoint next =
        std::min(deadline, simulator.now() + Duration::seconds(1));
    const bool drained = simulator.run_until(next);
    bool all_done = true;
    for (int i = 0; i < parties; ++i) {
      if (!crashed(i) && !party_actors[static_cast<std::size_t>(i)]->done()) {
        all_done = false;
      }
    }
    if (all_done && (contract_ptr->committed() || contract_ptr->aborted())) {
      // Grace window: deposits that raced the decision may still be in
      // flight; keep the chain sealing long enough to refund them.
      const TimePoint grace =
          std::min(deadline, simulator.now() + Duration::seconds(30) +
                                 config.env.pre_gst_typical * 4);
      simulator.run_until(std::max(grace, config.env.gst + Duration::seconds(1)));
      bc.stop();
      simulator.run_until(deadline);
      break;
    }
    if (drained) break;
  }

  result.committed = contract_ptr->committed();
  result.aborted = contract_ptr->aborted();
  result.transfers_completed = contract_ptr->completed();
  result.transfers_refunded = contract_ptr->refunded();

  for (int i = 0; i < parties; ++i) {
    PartyResult pr;
    pr.party = i;
    pr.compliant = !crashed(i);
    std::set<std::uint16_t> currencies;
    for (const Amount& a : initial[static_cast<std::size_t>(i)]) {
      currencies.insert(a.currency().id());
    }
    for (const Amount& a : ledger.holdings(party_ids[static_cast<std::size_t>(i)])) {
      currencies.insert(a.currency().id());
    }
    for (std::uint16_t c : currencies) {
      std::int64_t net = 0;
      for (const Amount& a :
           ledger.holdings(party_ids[static_cast<std::size_t>(i)])) {
        if (a.currency().id() == c) net += a.units();
      }
      for (const Amount& a : initial[static_cast<std::size_t>(i)]) {
        if (a.currency().id() == c) net -= a.units();
      }
      pr.net_by_currency.emplace_back(Currency(c), net);
    }
    pr.payoff_acceptable = config.deal.payoff_acceptable(i, pr.net_by_currency);
    if (pr.compliant && !pr.payoff_acceptable) result.safety_holds = false;
    result.parties.push_back(std::move(pr));
  }

  // Termination: nothing left escrowed at the chain.
  for (const Amount& a : ledger.holdings(chain_id)) {
    if (a.units() != 0) result.no_asset_stuck = false;
  }
  return result;
}

std::string CertifiedDealResult::summary() const {
  std::ostringstream os;
  os << "certified deal: " << (committed ? "committed" : "")
     << (aborted ? "aborted" : "")
     << (!committed && !aborted ? "undecided" : "")
     << ", completed=" << transfers_completed
     << ", refunded=" << transfers_refunded
     << ", safety=" << (safety_holds ? "yes" : "NO")
     << ", no-stuck-assets=" << (no_asset_stuck ? "yes" : "NO") << "\n";
  return os.str();
}

}  // namespace xcp::deals
