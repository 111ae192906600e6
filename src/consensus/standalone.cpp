#include "consensus/standalone.hpp"

#include <string>

#include "proto/bodies.hpp"
#include "support/status.hpp"

namespace xcp::consensus {

std::vector<sim::ProcessId> StandaloneCommittee::notary_pids() const {
  std::vector<sim::ProcessId> out;
  for (int i = 0; i < notaries; ++i) out.push_back(notary_pid(i));
  return out;
}

std::vector<sim::ProcessId> StandaloneCommittee::participant_pids() const {
  std::vector<sim::ProcessId> out;
  for (int i = 0; i < participant_count(); ++i) {
    out.push_back(sim::ProcessId(static_cast<std::uint32_t>(i)));
  }
  return out;
}

crypto::KeyRegistry StandaloneCommittee::make_keys() const {
  // Registration order is part of the key material (identity.cpp advances
  // its seed state per first-sight registration), so this canonical order
  // is load-bearing.
  crypto::KeyRegistry keys(seed ^ kWeakKeySalt);
  for (int i = 0; i < participant_count(); ++i) {
    keys.signer_for(sim::ProcessId(static_cast<std::uint32_t>(i)));
  }
  for (int i = 0; i < notaries; ++i) keys.signer_for(notary_pid(i));
  keys.signer_for(committee_identity());
  return keys;
}

std::shared_ptr<CommitteeConfig> StandaloneCommittee::make_config(
    const crypto::KeyRegistry& keys) const {
  auto config = std::make_shared<CommitteeConfig>();
  config->instance = deal_id;
  config->committee_identity = committee_identity();
  config->members = notary_pids();
  config->base_round = base_round;
  config->notify = participant_pids();
  config->validity.deal_id = deal_id;
  for (int i = 0; i < n; ++i) {
    config->validity.expected_escrows.push_back(escrow_pid(i));
  }
  for (int i = 0; i < customer_count(); ++i) {
    config->validity.expected_customers.push_back(customer_pid(i));
  }
  config->validity.bob = bob_pid();
  config->validity.keys = &keys;
  return config;
}

std::vector<net::Message> StandaloneCommittee::client_messages(
    crypto::KeyRegistry& keys) const {
  std::vector<net::Message> msgs;
  auto to_all_notaries = [&](sim::ProcessId from, net::MsgKind kind,
                             net::BodyPtr body) {
    for (int i = 0; i < notaries; ++i) {
      net::Message m;
      m.from = from;
      m.to = notary_pid(i);
      m.kind = kind;
      m.body = body;
      msgs.push_back(std::move(m));
    }
  };
  if (evidence == Value::kCommit) {
    auto chi_body = net::make_body<proto::CertMsg>();
    chi_body->cert =
        crypto::make_payment_cert(keys.signer_for(bob_pid()), deal_id);
    to_all_notaries(bob_pid(), net::kinds::tm_chi, chi_body);
    for (int i = 0; i < n; ++i) {
      auto stmt = make_statement(keys.signer_for(escrow_pid(i)), "escrowed",
                                 deal_id);
      to_all_notaries(escrow_pid(i), net::kinds::tm_report,
                      make_report_body(std::move(stmt)));
    }
  } else {
    auto stmt = make_statement(keys.signer_for(customer_pid(0)),
                               "abort-petition", deal_id);
    to_all_notaries(customer_pid(0), net::kinds::tm_report,
                    make_report_body(std::move(stmt)));
  }
  return msgs;
}

void DecisionCollector::on_message(const net::Message& m) {
  if (value_) return;
  if (m.kind != net::kinds::tm_cert) return;
  const auto* d = m.body_as<DecisionMsg>();
  if (d == nullptr) return;
  const crypto::Certificate& cert = d->cert;
  if (cert.deal_id != config_->instance ||
      cert.issuer != config_->committee_identity ||
      cert.kind == crypto::CertKind::kPayment) {
    return;
  }
  if (!crypto::verify_quorum_cert(keys_, cert, config_->members,
                                  static_cast<std::size_t>(
                                      config_->quorum()))) {
    return;
  }
  cert_ = cert;
  value_ = cert.kind == crypto::CertKind::kCommit ? Value::kCommit
                                                  : Value::kAbort;
}

std::string CommitteeOutcome::canonical() const {
  if (!value) return "undecided";
  std::string s = "value=";
  s += value_name(*value);
  s += " cert=";
  s += crypto::cert_kind_name(cert.kind);
  s += " deal=" + std::to_string(cert.deal_id);
  s += " issuer=" + std::to_string(cert.issuer.value());
  s += cert_valid ? " quorum=valid" : " quorum=INVALID";
  return s;
}

CommitteeOutcome run_standalone_sim(const StandaloneCommittee& sc,
                                    const TransportFactory& make_via) {
  sim::Simulator sim(sc.seed);
  crypto::KeyRegistry keys = sc.make_keys();
  net::Network network(sim, net::DelayModel::synchronous(sc.delta));
  auto config = sc.make_config(keys);
  std::unique_ptr<net::Transport> via;
  if (make_via) via = make_via(network);

  std::vector<DecisionCollector*> collectors;
  for (int i = 0; i < sc.participant_count(); ++i) {
    auto& c = sim.spawn<DecisionCollector>("participant_" + std::to_string(i),
                                           config, keys);
    XCP_REQUIRE(c.id() == sim::ProcessId(static_cast<std::uint32_t>(i)),
                "participant id prediction broken");
    network.attach(c);
    collectors.push_back(&c);
  }
  for (int i = 0; i < sc.notaries; ++i) {
    auto& notary =
        sim.spawn<Notary>("notary_" + std::to_string(i), config, keys);
    XCP_REQUIRE(notary.id() == sc.notary_pid(i),
                "notary id prediction broken");
    network.attach(notary);
  }

  auto msgs = sc.client_messages(keys);
  sim.schedule_at(TimePoint::origin(), [&] {
    for (const auto& m : msgs) {
      if (via) {
        via->send(m);
      } else {
        network.send(m.from, m.to, m.kind, m.body);
      }
    }
  });
  sim.run_until(TimePoint::origin() + Duration::seconds(120));

  CommitteeOutcome out;
  const DecisionCollector& c0 = *collectors[0];
  out.value = c0.value();
  if (out.value) {
    out.cert = c0.cert();
    out.cert_valid = crypto::verify_quorum_cert(
        keys, out.cert, config->members,
        static_cast<std::size_t>(config->quorum()));
  }
  return out;
}

}  // namespace xcp::consensus
