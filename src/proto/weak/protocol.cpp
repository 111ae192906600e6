#include "proto/weak/protocol.hpp"

#include <algorithm>
#include <span>
#include <string>

#include "chain/blockchain.hpp"
#include "proto/weak/contract_tm.hpp"
#include "proto/weak/trusted_tm.hpp"
#include "support/status.hpp"

namespace xcp::proto::weak {

namespace {

/// Wires `deals` on one SimRun and fills one record per deal. `config`
/// supplies everything the deals share; its own deal fields are unused.
/// A multi-deal batch uses its own key salt and names every process and
/// contract after its deal; a single deal uses the committee key salt and
/// the plain role names.
void run_deals(const WeakConfig& config, std::span<const DealSetup> deals,
               bool batch, std::span<RunRecord> records) {
  const std::size_t k = deals.size();
  SimRun world(config.seed, batch ? 0xabcdef12345ULL : consensus::kWeakKeySalt,
               config.env, records[0].trace);

  // Cast prediction: every deal's customers and escrows, then the TM
  // processes: one trusted party per deal, one shared chain, or the
  // notary committee.
  for (std::size_t d = 0; d < k; ++d) {
    records[d].spec = deals[d].spec;
    records[d].parts = world.add_deal(deals[d].spec);
  }
  std::vector<sim::ProcessId> tm_ids;
  switch (config.tm) {
    case TmKind::kTrustedParty:
      for (std::size_t d = 0; d < k; ++d) tm_ids.push_back(world.reserve());
      break;
    case TmKind::kSmartContract:
      tm_ids.push_back(world.reserve());
      break;
    case TmKind::kNotaryCommittee:
      XCP_REQUIRE(config.notary_count >= 1, "need at least one notary");
      for (int i = 0; i < config.notary_count; ++i) {
        tm_ids.push_back(world.reserve());
      }
      break;
  }

  std::vector<consensus::ValidityRules> validity(k);
  std::vector<std::string> tm_names(k, "tm");
  for (std::size_t d = 0; d < k; ++d) {
    const DealSetup& setup = deals[d];
    const Participants& parts = records[d].parts;
    const std::string prefix =
        batch ? "d" + std::to_string(setup.spec.deal_id) + "_" : "";
    if (batch) tm_names[d] = "tm_" + std::to_string(setup.spec.deal_id);

    validity[d].deal_id = setup.spec.deal_id;
    validity[d].expected_escrows = parts.escrows;
    validity[d].expected_customers = parts.customers;
    validity[d].bob = parts.bob();
    validity[d].keys = &world.keys;

    auto ctx = std::make_shared<WeakContext>();
    ctx->spec = setup.spec;
    ctx->parts = parts;
    ctx->tm_kind = config.tm;
    ctx->tm_contract_name = tm_names[d];
    ctx->ledger = &world.ledger;
    ctx->escrows = &world.escrows;
    ctx->keys = &world.keys;
    ctx->trace = &records[0].trace;
    ctx->verifier.kind = config.tm;
    ctx->verifier.deal_id = setup.spec.deal_id;
    ctx->verifier.keys = &world.keys;
    if (config.tm == TmKind::kNotaryCommittee) {
      ctx->tm_addresses = tm_ids;
      ctx->verifier.committee_identity =
          consensus::committee_identity_for(setup.spec.deal_id);
      ctx->verifier.committee_members = tm_ids;
      const int f = (config.notary_count - 1) / 3;
      ctx->verifier.quorum = static_cast<std::size_t>(2 * f + 1);
    } else {
      ctx->tm_addresses = {
          tm_ids[config.tm == TmKind::kTrustedParty ? d : 0]};
      ctx->verifier.single_issuer = ctx->tm_addresses.front();
    }

    const auto behaviour_of = [&](bool is_escrow, int index) {
      for (const auto& b : setup.byzantine) {
        if (b.is_escrow == is_escrow && b.index == index) return b.behaviour;
      }
      return WeakByz::kHonest;
    };
    const auto patience_of = [&](int index) {
      for (const auto& [i, p] : setup.patience_overrides) {
        if (i == index) return p;
      }
      return setup.patience;
    };
    for (int i = 0; i <= setup.spec.n; ++i) {
      const WeakByz b = behaviour_of(false, i);
      // Losing patience early is *allowed* by the protocol; only genuine
      // deviations count as non-abiding.
      world.spawn_member<WeakCustomer>(
          parts.customer(i), prefix + parts.role_name(parts.customer(i)),
          b == WeakByz::kHonest || b == WeakByz::kEagerAbort, ctx, i,
          patience_of(i), b);
    }
    for (int i = 0; i < setup.spec.n; ++i) {
      const WeakByz b = behaviour_of(true, i);
      world.spawn_member<WeakEscrow>(
          parts.escrow(i), prefix + parts.role_name(parts.escrow(i)),
          b == WeakByz::kHonest, ctx, i, b);
    }
  }

  // Everyone of a deal who must learn its decision.
  const auto notify_of = [&](std::size_t d) {
    std::vector<sim::ProcessId> notify = records[d].parts.customers;
    for (auto pid : records[d].parts.escrows) notify.push_back(pid);
    return notify;
  };
  switch (config.tm) {
    case TmKind::kTrustedParty:
      for (std::size_t d = 0; d < k; ++d) {
        auto& tm = world.spawn<TrustedPartyTm>(tm_ids[d], tm_names[d],
                                               validity[d], notify_of(d),
                                               world.keys);
        if (config.tm_abort_deadline) {
          tm.set_abort_deadline(*config.tm_abort_deadline);
        }
      }
      break;
    case TmKind::kSmartContract: {
      auto& bc = world.spawn<chain::Blockchain>(
          tm_ids[0], "chain", config.block_interval, world.keys);
      for (std::size_t d = 0; d < k; ++d) {
        bc.register_contract(
            std::make_unique<TmContract>(validity[d], tm_names[d]));
        // Chain events go to every subscriber; verification scopes by deal.
        for (sim::ProcessId pid : notify_of(d)) bc.subscribe(pid);
      }
      break;
    }
    case TmKind::kNotaryCommittee: {
      auto committee = std::make_shared<consensus::CommitteeConfig>();
      committee->instance = deals[0].spec.deal_id;
      committee->committee_identity =
          consensus::committee_identity_for(deals[0].spec.deal_id);
      committee->members = tm_ids;
      committee->base_round = config.notary_base_round;
      committee->validity = validity[0];
      committee->notify = notify_of(0);
      for (int i = 0; i < config.notary_count; ++i) {
        const auto behaviour = i < config.byzantine_notaries
                                   ? config.notary_byz
                                   : consensus::NotaryBehaviour::kHonest;
        world.spawn<consensus::Notary>(tm_ids[static_cast<std::size_t>(i)],
                                       "notary_" + std::to_string(i),
                                       committee, world.keys, behaviour);
      }
      break;
    }
  }

  world.start();

  std::unique_ptr<net::Adversary> adversary;
  if (config.adversary) {
    adversary = config.adversary(records[0].parts);
    world.network.set_adversary(adversary.get());
  }

  world.run(TimePoint::origin() + config.horizon,
            base_online_config(deals[0].spec, records[0].parts),
            config.online,
            /*stop=*/!config.online.enabled || config.online.early_stop,
            records[0]);

  std::size_t member = 0;
  for (std::size_t d = 0; d < k; ++d) {
    RunRecord& record = records[d];
    record.protocol = std::string(batch ? "weak-multi:" : "weak:") +
                      tm_kind_name(config.tm);
    for (int i = 0; i < 2 * deals[d].spec.n + 1; ++i, ++member) {
      const auto& w = static_cast<const WeakParticipant&>(world.member(member));
      ParticipantOutcome p = world.outcome(member, record.parts);
      p.terminated = w.terminated();
      p.terminated_local = w.terminated_local();
      p.terminated_global = w.terminated_global();
      p.final_state = w.final_state();
      p.received_commit_cert = w.got_commit_cert();
      p.received_abort_cert = w.got_abort_cert();
      if (const auto* c = dynamic_cast<const WeakCustomer*>(&w)) {
        p.issued_payment_cert = c->issued_chi();
      }
      p.received_payment_cert =
          records[0].trace.count(props::EventKind::kCertReceived, p.pid,
                                 props::labels::chi) > 0;
      record.participants.push_back(std::move(p));
    }
    for (const auto& deal : world.escrows.deals()) {
      if (record.parts.is_escrow(deal.escrow)) {
        record.escrow_deals.push_back(deal);
      }
    }
    if (d > 0) {
      record.stats = records[0].stats;
      record.trace = records[0].trace.clone();
    }
  }
}

}  // namespace

RunRecord run_weak(const WeakConfig& config) {
  const DealSetup deal{config.spec, config.patience,
                       config.patience_overrides, config.byzantine};
  RunRecord record;
  run_deals(config, {&deal, 1}, /*batch=*/false, {&record, 1});
  return record;
}

std::vector<RunRecord> run_weak_multi(const MultiWeakConfig& config) {
  XCP_REQUIRE(!config.deals.empty(), "no deals");
  XCP_REQUIRE(config.tm == TmKind::kTrustedParty ||
                  config.tm == TmKind::kSmartContract,
              "multi-deal supports trusted-party and smart-contract TMs");
  std::vector<std::uint64_t> ids;
  for (const auto& d : config.deals) ids.push_back(d.spec.deal_id);
  std::sort(ids.begin(), ids.end());
  XCP_REQUIRE(std::adjacent_find(ids.begin(), ids.end()) == ids.end(),
              "deal ids must be unique");

  WeakConfig shared;
  shared.seed = config.seed;
  shared.tm = config.tm;
  shared.env = config.env;
  shared.block_interval = config.block_interval;
  shared.horizon = config.horizon;
  std::vector<RunRecord> records(config.deals.size());
  run_deals(shared, config.deals, /*batch=*/true, records);
  return records;
}

}  // namespace xcp::proto::weak
