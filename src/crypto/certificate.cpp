#include "crypto/certificate.hpp"

#include <algorithm>
#include <sstream>

#include "support/index_set.hpp"
#include "support/status.hpp"

namespace xcp::crypto {

const char* cert_kind_name(CertKind k) {
  switch (k) {
    case CertKind::kPayment: return "chi";
    case CertKind::kCommit: return "chi_c";
    case CertKind::kAbort: return "chi_a";
  }
  return "?";
}

props::Label cert_kind_label(CertKind k) {
  static const props::Label payment{"chi"};
  static const props::Label commit{"chi_c"};
  static const props::Label abort_{"chi_a"};
  switch (k) {
    case CertKind::kPayment: return payment;
    case CertKind::kCommit: return commit;
    case CertKind::kAbort: return abort_;
  }
  return props::Label{};
}

std::uint64_t Certificate::digest() const {
  // The digest binds kind + deal so a chi for one deal can't commit another,
  // and an abort signature can't be replayed as a commit.
  return statement_digest(cert_kind_name(kind), deal_id, issuer);
}

std::string Certificate::str() const {
  std::ostringstream os;
  os << cert_kind_name(kind) << "(deal=" << deal_id << ", issuer=p"
     << issuer.value();
  if (!quorum.empty()) os << ", quorum=" << quorum.size();
  os << ")";
  return os.str();
}

Certificate make_payment_cert(const Signer& bob, std::uint64_t deal_id) {
  Certificate c;
  c.kind = CertKind::kPayment;
  c.deal_id = deal_id;
  c.issuer = bob.id();
  c.signature = bob.sign(c.digest());
  return c;
}

Certificate make_commit_cert(const Signer& tm, std::uint64_t deal_id,
                             const Certificate& payment_cert) {
  XCP_REQUIRE(payment_cert.kind == CertKind::kPayment,
              "commit cert must embed a payment cert");
  Certificate c;
  c.kind = CertKind::kCommit;
  c.deal_id = deal_id;
  c.issuer = tm.id();
  c.embedded_payment_sig = payment_cert.signature;
  c.embedded_payment_issuer = payment_cert.issuer;
  c.signature = tm.sign(c.digest());
  return c;
}

Certificate make_abort_cert(const Signer& tm, std::uint64_t deal_id) {
  Certificate c;
  c.kind = CertKind::kAbort;
  c.deal_id = deal_id;
  c.issuer = tm.id();
  c.signature = tm.sign(c.digest());
  return c;
}

Certificate make_quorum_cert(CertKind kind, std::uint64_t deal_id,
                             sim::ProcessId committee,
                             std::vector<Signature> sigs,
                             const Certificate* embedded_payment) {
  Certificate c;
  c.kind = kind;
  c.deal_id = deal_id;
  c.issuer = committee;
  c.quorum = std::move(sigs);
  if (embedded_payment != nullptr) {
    XCP_REQUIRE(embedded_payment->kind == CertKind::kPayment,
                "embedded cert must be a payment cert");
    c.embedded_payment_sig = embedded_payment->signature;
    c.embedded_payment_issuer = embedded_payment->issuer;
  }
  return c;
}

bool verify_cert(const KeyRegistry& reg, const Certificate& cert) {
  if (cert.signature.signer != cert.issuer) return false;
  if (!reg.verify(cert.signature, cert.digest())) return false;
  if (cert.kind == CertKind::kCommit) {
    // chi_c must carry a valid chi from Bob for the same deal.
    if (!cert.embedded_payment_sig.has_value()) return false;
    Certificate chi;
    chi.kind = CertKind::kPayment;
    chi.deal_id = cert.deal_id;
    chi.issuer = cert.embedded_payment_issuer;
    if (!reg.verify(*cert.embedded_payment_sig, chi.digest())) return false;
  }
  return true;
}

bool verify_quorum_cert(const KeyRegistry& reg, const Certificate& cert,
                        const std::vector<sim::ProcessId>& committee_members,
                        std::size_t threshold) {
  // A quorum certificate over digest D: >= threshold distinct committee
  // members with valid signatures over D. The notary digest includes the
  // committee identity via cert.issuer, so votes for different committees
  // never cross-validate.
  // Signers are deduplicated by member index (the first roster position
  // holding the pid) in a bitmap: no allocation for committees up to
  // IndexSet::kInlineIndices.
  IndexSet seen(committee_members.size());
  const std::uint64_t digest = cert.digest();
  std::size_t good = 0;
  for (const Signature& sig : cert.quorum) {
    const auto it = std::find(committee_members.begin(),
                              committee_members.end(), sig.signer);
    if (it == committee_members.end()) continue;  // not a member
    const auto index =
        static_cast<std::size_t>(it - committee_members.begin());
    if (!seen.add(index)) continue;  // dedupe signer
    if (!reg.verify(sig, digest)) continue;
    ++good;
  }
  if (good < threshold) return false;
  if (cert.kind == CertKind::kCommit) {
    if (!cert.embedded_payment_sig.has_value()) return false;
    Certificate chi;
    chi.kind = CertKind::kPayment;
    chi.deal_id = cert.deal_id;
    chi.issuer = cert.embedded_payment_issuer;
    if (!reg.verify(*cert.embedded_payment_sig, chi.digest())) return false;
  }
  return true;
}

}  // namespace xcp::crypto
