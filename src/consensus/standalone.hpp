#pragma once
// A deterministic standalone committee scenario: one deal, n+1 customers,
// n escrows and m notaries, with the committee configuration, key registry
// and client evidence all derivable from the scenario parameters alone.
//
// This is the fixture for the transport differential: every process of a
// multi-process deployment (tools/xcp_node) constructs the same scenario
// from the same flags and gets byte-identical keys, committee config and
// evidence — and the in-sim reference runner (run_standalone_sim) produces
// the outcome the socket deployment must match.
//
// Process-id layout (mirrors proto/weak's run_weak so the pids read the
// same in traces): customers c_0..c_n at pids 0..n (Bob = c_n, the last
// customer), escrows e_0..e_{n-1} at pids n+1..2n, notaries at pids
// 2n+1..2n+m. The committee identity is committee_identity_for(deal_id).
//
// KeyRegistry caveat: secrets depend on the order of first-sight
// registration (crypto/identity.cpp), so make_keys() registers every
// identity in one canonical order; any process building the registry this
// way verifies any other process's signatures.

#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "consensus/notary.hpp"
#include "net/network.hpp"

namespace xcp::consensus {

struct StandaloneCommittee {
  std::uint64_t seed = 7;
  std::uint64_t deal_id = 13;
  int n = 2;         // escrows; customers = n + 1
  int notaries = 4;  // m; tolerates f = (m-1)/3 faults
  /// Which evidence the participants broadcast: kCommit = Bob's chi plus
  /// one "escrowed" statement per escrow; kAbort = one abort petition.
  Value evidence = Value::kCommit;
  Duration base_round = Duration::millis(100);
  /// In-sim message delay (reference runner only; sockets are real).
  Duration delta = Duration::millis(5);

  int customer_count() const { return n + 1; }
  int participant_count() const { return 2 * n + 1; }
  sim::ProcessId customer_pid(int i) const { return sim::ProcessId(i); }
  sim::ProcessId bob_pid() const { return customer_pid(n); }
  sim::ProcessId escrow_pid(int i) const {
    return sim::ProcessId(static_cast<std::uint32_t>(n + 1 + i));
  }
  sim::ProcessId notary_pid(int i) const {
    return sim::ProcessId(static_cast<std::uint32_t>(2 * n + 1 + i));
  }
  sim::ProcessId committee_identity() const {
    return committee_identity_for(deal_id);
  }
  std::vector<sim::ProcessId> notary_pids() const;
  std::vector<sim::ProcessId> participant_pids() const;

  /// The registry every process derives: same seed, same canonical
  /// registration order (participants, then notaries).
  crypto::KeyRegistry make_keys() const;

  /// Committee config with validity rules bound to `keys` (which must
  /// outlive the config).
  std::shared_ptr<CommitteeConfig> make_config(
      const crypto::KeyRegistry& keys) const;

  /// The evidence messages the participants broadcast to every notary at
  /// t = 0 (tm_chi carrying Bob's chi + "escrowed" reports for kCommit, an
  /// abort petition for kAbort). `keys` must be the make_keys() registry.
  std::vector<net::Message> client_messages(crypto::KeyRegistry& keys) const;
};

/// A participant-side actor that waits for the committee's decision
/// certificate ("tm_cert" carrying a DecisionMsg) and verifies the quorum.
/// Invalid or mismatched certificates are ignored, not fatal.
class DecisionCollector final : public net::Actor {
 public:
  DecisionCollector(std::shared_ptr<const CommitteeConfig> config,
                    const crypto::KeyRegistry& keys)
      : config_(std::move(config)), keys_(keys) {}

  bool done() const { return value_.has_value(); }
  std::optional<Value> value() const { return value_; }
  const crypto::Certificate& cert() const { return cert_; }

  void on_message(const net::Message& m) override;

 private:
  std::shared_ptr<const CommitteeConfig> config_;
  const crypto::KeyRegistry& keys_;
  std::optional<Value> value_;
  crypto::Certificate cert_;
};

/// Outcome of a committee run as observed by a participant.
struct CommitteeOutcome {
  std::optional<Value> value;
  crypto::Certificate cert;
  bool cert_valid = false;

  /// Canonical comparison string: decision value, certificate kind, deal
  /// and issuer, and whether the quorum verified — the protocol outcome.
  /// Deliberately excludes the exact signer subset: over real sockets a
  /// different (equally valid) 2f+1 subset may assemble the certificate.
  std::string canonical() const;
};

/// In-sim reference: runs the whole committee in one simulator and returns
/// the outcome observed by customer 0. When `make_via` is set it is called
/// with the run's Network and the client evidence is routed through the
/// returned transport (differential-testing the transport seam); default
/// is direct Network::send.
using TransportFactory =
    std::function<std::unique_ptr<net::Transport>(net::Network&)>;
CommitteeOutcome run_standalone_sim(const StandaloneCommittee& sc,
                                    const TransportFactory& make_via = {});

}  // namespace xcp::consensus
