#pragma once
// Committee-wide configuration shared by all notaries of one agreement
// instance, plus the application-level validity rules.

#include <functional>
#include <memory>
#include <vector>

#include "consensus/messages.hpp"

namespace xcp::consensus {

/// Key-registry salt of a single weak-protocol deal: the in-sim weak
/// runner and every process of a standalone committee derive their keys
/// from KeyRegistry(seed ^ kWeakKeySalt), so they verify each other's
/// signatures.
inline constexpr std::uint64_t kWeakKeySalt = 0xc0ffee1234ULL;

/// The committee's collective identity for one deal: the issuer of its
/// quorum certificates.
inline sim::ProcessId committee_identity_for(std::uint64_t deal_id) {
  return sim::ProcessId(3'000'000u + static_cast<std::uint32_t>(deal_id));
}

/// Application validity: which (value, justification) pairs a correct notary
/// accepts. For the payment TM:
///  - commit requires Bob's valid chi for the deal plus a valid "escrowed"
///    statement from each of the n expected escrows;
///  - abort requires one valid "abort-petition" from an expected customer.
struct ValidityRules {
  std::uint64_t deal_id = 0;
  std::vector<sim::ProcessId> expected_escrows;
  std::vector<sim::ProcessId> expected_customers;
  sim::ProcessId bob;
  const crypto::KeyRegistry* keys = nullptr;

  bool valid(Value v, const Justification& just) const;
};

struct CommitteeConfig {
  std::uint64_t instance = 0;          // = deal id
  sim::ProcessId committee_identity;   // issuer of the quorum certificate
  std::vector<sim::ProcessId> members; // notary process ids, fixed order
  Duration base_round = Duration::millis(500);
  Duration max_round = Duration::seconds(60);
  ValidityRules validity;
  /// Everyone who must learn the decision (participants of the payment).
  std::vector<sim::ProcessId> notify;

  int f() const { return (static_cast<int>(members.size()) - 1) / 3; }
  int quorum() const { return 2 * f() + 1; }
  int leader_of_round(int round) const {
    return round % static_cast<int>(members.size());
  }
  Duration round_duration(int round) const;
};

}  // namespace xcp::consensus
