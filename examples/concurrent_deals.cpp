// Concurrent deals on one blockchain: a bank/chain serves many payments at
// once. Three independent weak-protocol payments run against a single
// simulated chain hosting one TM contract per deal; the middle deal's Alice
// loses patience and aborts while the others commit — isolation and global
// conservation hold.

#include <iostream>

#include "props/checkers.hpp"
#include "proto/weak/protocol.hpp"

int main() {
  using namespace xcp;
  using namespace xcp::proto::weak;

  MultiWeakConfig config;
  config.seed = 31;
  config.tm = TmKind::kSmartContract;  // one chain, three contracts
  config.env.synchrony = proto::SynchronyKind::kPartiallySynchronous;
  config.env.gst = TimePoint::origin() + Duration::seconds(2);
  config.env.pre_gst_typical = Duration::millis(500);
  config.env.delta_max = Duration::millis(100);
  config.block_interval = Duration::millis(400);

  for (int d = 0; d < 3; ++d) {
    DealSetup setup;
    setup.spec = proto::DealSpec::uniform(/*deal_id=*/200 + d, /*n=*/2,
                                          /*base=*/1000 * (d + 1),
                                          /*commission=*/5);
    setup.patience = Duration::seconds(60);
    config.deals.push_back(std::move(setup));
  }
  // Deal 201's Alice gives up almost immediately.
  config.deals[1].patience_overrides.push_back({0, Duration::millis(50)});

  const auto records = run_weak_multi(config);

  std::int64_t grand_total = 0;
  for (const auto& record : records) {
    std::cout << "=== deal " << record.spec.deal_id << " ===\n"
              << record.summary() << "\n";
    const auto report =
        props::check_definition2(record, props::CheckOptions{});
    std::cout << "Definition 2: " << (report.all_hold() ? "all hold" : "VIOLATED")
              << "; outcome: " << (record.bob_paid() ? "committed" : "aborted")
              << "\n\n";
    for (const auto& p : record.participants) {
      grand_total += p.net_units(Currency::generic());
    }
  }
  std::cout << "global conservation across all deals: net "
            << grand_total << " (must be 0)\n";
  std::cout << "\nreading: the chain serializes every deal's evidence; each "
               "contract decides\nindependently, and per-deal certificate "
               "verification keeps a chi_c of one deal\nfrom releasing "
               "another deal's escrows.\n";
  return grand_total == 0 ? 0 : 1;
}
