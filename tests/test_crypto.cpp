// Unit tests for the simulated-authentication layer: signatures,
// certificates and quorum certificates.

#include <gtest/gtest.h>

#include "crypto/certificate.hpp"
#include "crypto/identity.hpp"
#include "crypto/signature.hpp"

namespace xcp::crypto {
namespace {

sim::ProcessId pid(std::uint32_t v) { return sim::ProcessId(v); }

TEST(Identity, SignAndVerifyRoundTrip) {
  KeyRegistry reg(1);
  const Signer alice = reg.signer_for(pid(1));
  const Signature sig = alice.sign(0xabcdefULL);
  EXPECT_TRUE(reg.verify(sig, 0xabcdefULL));
  EXPECT_FALSE(reg.verify(sig, 0xabcdeeULL));  // different message
}

TEST(Identity, SignaturesAreSignerSpecific) {
  KeyRegistry reg(1);
  const Signer alice = reg.signer_for(pid(1));
  const Signer bob = reg.signer_for(pid(2));
  Signature forged = alice.sign(42);
  forged.signer = bob.id();  // claim it came from bob
  EXPECT_FALSE(reg.verify(forged, 42));
}

TEST(Identity, UnknownSignerRejected) {
  KeyRegistry reg(1);
  Signature s{pid(99), 12345};
  EXPECT_FALSE(reg.verify(s, 0));
}

TEST(Identity, StableSignerForSameProcess) {
  KeyRegistry reg(7);
  const Signature a = reg.signer_for(pid(3)).sign(9);
  const Signature b = reg.signer_for(pid(3)).sign(9);
  EXPECT_EQ(a, b);
}

TEST(StatementDigest, DistinguishesAllFields) {
  const auto base = statement_digest("k", 1, pid(2), 3);
  EXPECT_NE(base, statement_digest("x", 1, pid(2), 3));
  EXPECT_NE(base, statement_digest("k", 9, pid(2), 3));
  EXPECT_NE(base, statement_digest("k", 1, pid(9), 3));
  EXPECT_NE(base, statement_digest("k", 1, pid(2), 9));
  EXPECT_EQ(base, statement_digest("k", 1, pid(2), 3));
}

TEST(Certificate, PaymentCertVerifies) {
  KeyRegistry reg(2);
  const Signer bob = reg.signer_for(pid(10));
  const Certificate chi = make_payment_cert(bob, /*deal_id=*/5);
  EXPECT_TRUE(verify_cert(reg, chi));
  EXPECT_EQ(chi.kind, CertKind::kPayment);
  EXPECT_EQ(chi.deal_id, 5u);
}

TEST(Certificate, WrongDealOrIssuerFails) {
  KeyRegistry reg(2);
  const Signer bob = reg.signer_for(pid(10));
  Certificate chi = make_payment_cert(bob, 5);
  chi.deal_id = 6;  // replay onto another deal
  EXPECT_FALSE(verify_cert(reg, chi));

  Certificate chi2 = make_payment_cert(bob, 5);
  chi2.issuer = pid(11);
  EXPECT_FALSE(verify_cert(reg, chi2));
}

TEST(Certificate, ForgedMacFails) {
  KeyRegistry reg(2);
  Certificate chi = make_payment_cert(reg.signer_for(pid(10)), 5);
  chi.signature.mac ^= 1;
  EXPECT_FALSE(verify_cert(reg, chi));
}

TEST(Certificate, CommitEmbedsAndChecksChi) {
  KeyRegistry reg(3);
  const Signer bob = reg.signer_for(pid(10));
  const Signer tm = reg.signer_for(pid(20));
  const Certificate chi = make_payment_cert(bob, 7);
  const Certificate cc = make_commit_cert(tm, 7, chi);
  EXPECT_TRUE(verify_cert(reg, cc));

  // Tampering with the embedded chi invalidates the commit certificate.
  Certificate bad = cc;
  bad.embedded_payment_sig->mac ^= 1;
  EXPECT_FALSE(verify_cert(reg, bad));

  Certificate missing = cc;
  missing.embedded_payment_sig.reset();
  EXPECT_FALSE(verify_cert(reg, missing));
}

TEST(Certificate, AbortCertKindsAreNotInterchangeable) {
  KeyRegistry reg(3);
  const Signer tm = reg.signer_for(pid(20));
  Certificate abort_cert = make_abort_cert(tm, 7);
  EXPECT_TRUE(verify_cert(reg, abort_cert));
  // An abort signature cannot masquerade as a commit.
  abort_cert.kind = CertKind::kCommit;
  abort_cert.embedded_payment_sig = abort_cert.signature;
  abort_cert.embedded_payment_issuer = tm.id();
  EXPECT_FALSE(verify_cert(reg, abort_cert));
}

// --------------------------------------------------------- quorum certs

std::vector<sim::ProcessId> committee5() {
  return {pid(30), pid(31), pid(32), pid(33), pid(34)};
}

Certificate quorum_abort(KeyRegistry& reg, int signers,
                         sim::ProcessId committee_id, std::uint64_t deal) {
  Certificate shape;
  shape.kind = CertKind::kAbort;
  shape.deal_id = deal;
  shape.issuer = committee_id;
  std::vector<Signature> sigs;
  for (int k = 0; k < signers; ++k) {
    sigs.push_back(reg.signer_for(committee5()[static_cast<std::size_t>(k)])
                       .sign(shape.digest()));
  }
  return make_quorum_cert(CertKind::kAbort, deal, committee_id, std::move(sigs));
}

TEST(QuorumCert, ThresholdMet) {
  KeyRegistry reg(4);
  const sim::ProcessId cid = pid(500);
  const Certificate cert = quorum_abort(reg, 3, cid, 9);
  EXPECT_TRUE(verify_quorum_cert(reg, cert, committee5(), 3));
  EXPECT_FALSE(verify_quorum_cert(reg, cert, committee5(), 4));
}

TEST(QuorumCert, DuplicateSignersDontCount) {
  KeyRegistry reg(4);
  const sim::ProcessId cid = pid(500);
  Certificate cert = quorum_abort(reg, 2, cid, 9);
  cert.quorum.push_back(cert.quorum.front());  // duplicate
  EXPECT_FALSE(verify_quorum_cert(reg, cert, committee5(), 3));
}

TEST(QuorumCert, NonMembersDontCount) {
  KeyRegistry reg(4);
  const sim::ProcessId cid = pid(500);
  Certificate cert = quorum_abort(reg, 2, cid, 9);
  // An outsider signs the right digest — still not a member.
  cert.quorum.push_back(reg.signer_for(pid(77)).sign(cert.digest()));
  EXPECT_FALSE(verify_quorum_cert(reg, cert, committee5(), 3));
}

TEST(QuorumCert, CommitQuorumRequiresEmbeddedChi) {
  KeyRegistry reg(5);
  const sim::ProcessId cid = pid(500);
  const Signer bob = reg.signer_for(pid(10));
  const Certificate chi = make_payment_cert(bob, 9);

  Certificate shape;
  shape.kind = CertKind::kCommit;
  shape.deal_id = 9;
  shape.issuer = cid;
  std::vector<Signature> sigs;
  for (int k = 0; k < 3; ++k) {
    sigs.push_back(reg.signer_for(committee5()[static_cast<std::size_t>(k)])
                       .sign(shape.digest()));
  }
  const Certificate with_chi =
      make_quorum_cert(CertKind::kCommit, 9, cid, sigs, &chi);
  EXPECT_TRUE(verify_quorum_cert(reg, with_chi, committee5(), 3));

  Certificate without = with_chi;
  without.embedded_payment_sig.reset();
  EXPECT_FALSE(verify_quorum_cert(reg, without, committee5(), 3));
}

TEST(QuorumCert, RosterOrderDoesNotMatter) {
  // Signers are deduplicated by roster position; a roster that is not in
  // pid order must still count each member once and nobody else.
  KeyRegistry reg(4);
  const sim::ProcessId cid = pid(500);
  const std::vector<sim::ProcessId> roster = {pid(33), pid(30), pid(34),
                                              pid(31), pid(32)};
  const Certificate cert = quorum_abort(reg, 3, cid, 9);
  EXPECT_TRUE(verify_quorum_cert(reg, cert, roster, 3));
  EXPECT_FALSE(verify_quorum_cert(reg, cert, roster, 4));  // below threshold

  Certificate dup = quorum_abort(reg, 2, cid, 9);
  dup.quorum.push_back(dup.quorum.back());
  EXPECT_FALSE(verify_quorum_cert(reg, dup, roster, 3));

  Certificate outsider = quorum_abort(reg, 2, cid, 9);
  outsider.quorum.push_back(reg.signer_for(pid(77)).sign(outsider.digest()));
  EXPECT_FALSE(verify_quorum_cert(reg, outsider, roster, 3));
}

TEST(QuorumCert, LargeCommitteeDedupesSigners) {
  // A 300-member roster spills the signer bitmap past its inline words.
  KeyRegistry reg(6);
  const sim::ProcessId cid = pid(5000);
  std::vector<sim::ProcessId> roster;
  for (std::uint32_t i = 0; i < 300; ++i) roster.push_back(pid(1000 + i));
  Certificate shape;
  shape.kind = CertKind::kAbort;
  shape.deal_id = 9;
  shape.issuer = cid;
  std::vector<Signature> sigs;
  for (std::size_t k = 0; k < 199; ++k) {
    sigs.push_back(reg.signer_for(roster[299 - k]).sign(shape.digest()));
  }
  Certificate cert = make_quorum_cert(CertKind::kAbort, 9, cid, sigs);
  EXPECT_FALSE(verify_quorum_cert(reg, cert, roster, 200));
  cert.quorum.push_back(cert.quorum.front());  // a duplicate adds nothing
  EXPECT_FALSE(verify_quorum_cert(reg, cert, roster, 200));
  cert.quorum.back() = reg.signer_for(roster[0]).sign(shape.digest());
  EXPECT_TRUE(verify_quorum_cert(reg, cert, roster, 200));
}

}  // namespace
}  // namespace xcp::crypto
