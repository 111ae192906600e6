#include "net/wire.hpp"

#include <algorithm>

#include "chain/transaction.hpp"
#include "consensus/messages.hpp"
#include "proto/bodies.hpp"

namespace xcp::net {

using support::ByteError;
using support::ByteReader;
using support::ByteWriter;

namespace {

// Field caps: defensive upper bounds well above anything the protocols
// produce, well below anything that could act as an amplification lever.
constexpr std::size_t kMaxShortString = 64;    // statement kinds
constexpr std::size_t kMaxNameString = 256;    // contract/op/topic names
constexpr std::size_t kMaxDetailString = 4096; // chain-event detail
constexpr std::size_t kMaxStatements = 1024;
constexpr std::size_t kMaxQuorumSigs = 1024;

/// Body-tag byte of the prologue (magic 4 | version 2 | flags 2 | kind 1).
constexpr std::size_t kBodyTagOffset = 9;

// -------------------------------------------------------- field encoders

void put_signature(ByteWriter& w, const crypto::Signature& s) {
  w.u32(s.signer.value());
  w.u64(s.mac);
}

crypto::Signature get_signature(ByteReader& r) {
  crypto::Signature s;
  s.signer = sim::ProcessId(r.u32());
  s.mac = r.u64();
  return s;
}

void put_amount(ByteWriter& w, const Amount& a) {
  w.i64(a.units());
  w.u16(a.currency().id());
}

Amount get_amount(ByteReader& r) {
  const std::int64_t units = r.i64();
  const std::uint16_t cur = r.u16();
  return Amount(units, Currency(cur));
}

void put_certificate(ByteWriter& w, const crypto::Certificate& c,
                     const WireContext& ctx) {
  w.u8(static_cast<std::uint8_t>(c.kind));
  w.u64(c.deal_id);
  w.u32(c.issuer.value());
  put_signature(w, c.signature);
  w.u8(c.embedded_payment_sig ? 1 : 0);
  if (c.embedded_payment_sig) {
    w.u32(c.embedded_payment_issuer.value());
    put_signature(w, *c.embedded_payment_sig);
  }
  // Quorum signers: participation bitmap when a roster is in context and
  // covers every signer exactly once; explicit (signer, mac) list otherwise.
  std::uint64_t bitmap = 0;
  bool bitmap_ok = ctx.roster != nullptr && ctx.roster->size() <= 64 &&
                   !c.quorum.empty();
  if (bitmap_ok) {
    for (const auto& sig : c.quorum) {
      const auto it =
          std::find(ctx.roster->begin(), ctx.roster->end(), sig.signer);
      if (it == ctx.roster->end()) {
        bitmap_ok = false;
        break;
      }
      const std::uint64_t bit =
          std::uint64_t{1} << (it - ctx.roster->begin());
      if (bitmap & bit) {  // duplicate signer: bitmap can't represent it
        bitmap_ok = false;
        break;
      }
      bitmap |= bit;
    }
  }
  if (bitmap_ok) {
    w.u8(1);
    w.u64(bitmap);
    // macs in roster index order, so the encoding is canonical regardless
    // of the in-memory vector order.
    for (std::size_t i = 0; i < ctx.roster->size(); ++i) {
      if (!(bitmap & (std::uint64_t{1} << i))) continue;
      const sim::ProcessId member = (*ctx.roster)[i];
      for (const auto& sig : c.quorum) {
        if (sig.signer == member) {
          w.u64(sig.mac);
          break;
        }
      }
    }
  } else {
    if (c.quorum.size() > kMaxQuorumSigs) {
      throw ByteError("cannot serialize quorum of " +
                          std::to_string(c.quorum.size()) +
                          " signatures (cap " +
                          std::to_string(kMaxQuorumSigs) + ")",
                      w.size());
    }
    w.u8(0);
    w.u16(static_cast<std::uint16_t>(c.quorum.size()));
    for (const auto& sig : c.quorum) put_signature(w, sig);
  }
}

crypto::Certificate get_certificate(ByteReader& r, const WireContext& ctx) {
  crypto::Certificate c;
  const std::size_t kind_at = r.offset();
  const std::uint8_t kind = r.u8();
  if (kind > static_cast<std::uint8_t>(crypto::CertKind::kAbort)) {
    r.fail_at(kind_at, "unknown certificate kind " + std::to_string(kind));
  }
  c.kind = static_cast<crypto::CertKind>(kind);
  c.deal_id = r.u64();
  c.issuer = sim::ProcessId(r.u32());
  c.signature = get_signature(r);
  if (r.flag("embedded-chi")) {
    c.embedded_payment_issuer = sim::ProcessId(r.u32());
    c.embedded_payment_sig = get_signature(r);
  }
  const std::size_t mode_at = r.offset();
  if (r.flag("quorum-mode")) {
    // Participation bitmap form: requires the committee roster in context.
    if (ctx.roster == nullptr) {
      r.fail_at(mode_at,
                "participation-bitmap certificate without a committee "
                "roster in context");
    }
    if (ctx.roster->size() > 64) {
      r.fail_at(mode_at, "roster of " + std::to_string(ctx.roster->size()) +
                             " members exceeds the 64-bit participation "
                             "bitmap");
    }
    const std::size_t bits_at = r.offset();
    const std::uint64_t bitmap = r.u64();
    if (ctx.roster->size() < 64 && (bitmap >> ctx.roster->size()) != 0) {
      r.fail_at(bits_at, "participation bitmap has bits beyond the " +
                             std::to_string(ctx.roster->size()) +
                             "-member roster");
    }
    for (std::size_t i = 0; i < ctx.roster->size(); ++i) {
      if (!(bitmap & (std::uint64_t{1} << i))) continue;
      crypto::Signature sig;
      sig.signer = (*ctx.roster)[i];
      sig.mac = r.u64();
      c.quorum.push_back(sig);
    }
  } else {
    const std::size_t count_at = r.offset();
    const std::uint16_t count = r.u16();
    if (count > kMaxQuorumSigs) {
      r.fail_at(count_at, "quorum signature count " + std::to_string(count) +
                              " exceeds cap " +
                              std::to_string(kMaxQuorumSigs));
    }
    c.quorum.reserve(count);
    for (std::uint16_t i = 0; i < count; ++i) {
      c.quorum.push_back(get_signature(r));
    }
  }
  return c;
}

void put_statement(ByteWriter& w, const consensus::SignedStatement& s) {
  w.str(s.kind, kMaxShortString, "statement kind");
  w.u64(s.deal_id);
  w.u32(s.subject.value());
  w.u64(s.detail);
  put_signature(w, s.sig);
}

consensus::SignedStatement get_statement(ByteReader& r) {
  consensus::SignedStatement s;
  s.kind = r.str(kMaxShortString, "statement kind");
  s.deal_id = r.u64();
  s.subject = sim::ProcessId(r.u32());
  s.detail = r.u64();
  s.sig = get_signature(r);
  return s;
}

void put_justification(ByteWriter& w, const consensus::Justification& j,
                       const WireContext& ctx) {
  if (j.statements.size() > kMaxStatements) {
    throw ByteError("cannot serialize justification with " +
                        std::to_string(j.statements.size()) +
                        " statements (cap " + std::to_string(kMaxStatements) +
                        ")",
                    w.size());
  }
  w.u16(static_cast<std::uint16_t>(j.statements.size()));
  for (const auto& s : j.statements) put_statement(w, s);
  w.u8(j.chi ? 1 : 0);
  if (j.chi) put_certificate(w, *j.chi, ctx);
}

consensus::Justification get_justification(ByteReader& r,
                                           const WireContext& ctx) {
  consensus::Justification j;
  const std::size_t count_at = r.offset();
  const std::uint16_t count = r.u16();
  if (count > kMaxStatements) {
    r.fail_at(count_at, "statement count " + std::to_string(count) +
                            " exceeds cap " + std::to_string(kMaxStatements));
  }
  j.statements.reserve(count);
  for (std::uint16_t i = 0; i < count; ++i) {
    j.statements.push_back(get_statement(r));
  }
  if (r.flag("justification-chi")) j.chi = get_certificate(r, ctx);
  return j;
}

/// An optional certificate: presence flag, then the certificate.
void put_optional_cert(ByteWriter& w,
                       const std::optional<crypto::Certificate>& c,
                       const WireContext& ctx) {
  w.u8(c ? 1 : 0);
  if (c) put_certificate(w, *c, ctx);
}

// ----------------------------------------------------------- body codecs

WireBody body_tag_for(const MessageBody* b) {
  if (b == nullptr) return WireBody::kNone;
  if (dynamic_cast<const proto::PromiseG*>(b)) return WireBody::kPromiseG;
  if (dynamic_cast<const proto::PromiseP*>(b)) return WireBody::kPromiseP;
  if (dynamic_cast<const proto::MoneyMsg*>(b)) return WireBody::kMoney;
  if (dynamic_cast<const proto::CertMsg*>(b)) return WireBody::kCert;
  if (dynamic_cast<const consensus::ReportMsg*>(b)) return WireBody::kReport;
  if (dynamic_cast<const consensus::ProposalMsg*>(b)) {
    return WireBody::kProposal;
  }
  if (dynamic_cast<const consensus::VoteMsg*>(b)) return WireBody::kVote;
  if (dynamic_cast<const consensus::NewRoundMsg*>(b)) {
    return WireBody::kNewRound;
  }
  if (dynamic_cast<const consensus::DecisionMsg*>(b)) {
    return WireBody::kDecision;
  }
  if (dynamic_cast<const chain::TxMsg*>(b)) return WireBody::kTx;
  if (dynamic_cast<const chain::ChainEventMsg*>(b)) {
    return WireBody::kChainEvent;
  }
  throw ByteError("message body type has no wire encoding", 0);
}

void put_body(ByteWriter& w, WireBody tag, const MessageBody* b,
              const WireContext& ctx) {
  switch (tag) {
    case WireBody::kNone:
      return;
    case WireBody::kPromiseG: {
      const auto& g = static_cast<const proto::PromiseG&>(*b);
      w.u64(g.deal_id);
      w.i64(g.d.count());
      put_amount(w, g.amount);
      return;
    }
    case WireBody::kPromiseP: {
      const auto& p = static_cast<const proto::PromiseP&>(*b);
      w.u64(p.deal_id);
      w.i64(p.a.count());
      put_amount(w, p.amount);
      return;
    }
    case WireBody::kMoney: {
      const auto& m = static_cast<const proto::MoneyMsg&>(*b);
      w.u64(m.deal_id);
      w.u64(m.receipt);
      put_amount(w, m.amount);
      return;
    }
    case WireBody::kCert: {
      put_certificate(w, static_cast<const proto::CertMsg&>(*b).cert, ctx);
      return;
    }
    case WireBody::kReport: {
      put_statement(w, static_cast<const consensus::ReportMsg&>(*b).statement);
      return;
    }
    case WireBody::kProposal: {
      const auto& p = static_cast<const consensus::ProposalMsg&>(*b);
      w.u64(p.instance);
      w.i32(p.round);
      w.u8(static_cast<std::uint8_t>(p.value));
      put_justification(w, p.just, ctx);
      put_signature(w, p.sig);
      return;
    }
    case WireBody::kVote: {
      const auto& v = static_cast<const consensus::VoteMsg&>(*b);
      w.u64(v.instance);
      w.i32(v.round);
      w.u8(static_cast<std::uint8_t>(v.value));
      w.u8(static_cast<std::uint8_t>(v.phase));
      put_signature(w, v.sig);
      return;
    }
    case WireBody::kNewRound: {
      const auto& nr = static_cast<const consensus::NewRoundMsg&>(*b);
      w.u64(nr.instance);
      w.i32(nr.round);
      w.u8(nr.locked ? 1 : 0);
      if (nr.locked) w.u8(static_cast<std::uint8_t>(*nr.locked));
      w.i32(nr.lock_round);
      return;
    }
    case WireBody::kDecision: {
      put_certificate(w, static_cast<const consensus::DecisionMsg&>(*b).cert,
                      ctx);
      return;
    }
    case WireBody::kTx: {
      const auto& t = static_cast<const chain::TxMsg&>(*b).tx;
      w.u32(t.sender.value());
      w.str(t.contract, kMaxNameString, "tx contract");
      w.str(t.op, kMaxNameString, "tx op");
      w.u64(t.arg);
      w.u64(t.arg2);
      put_optional_cert(w, t.cert, ctx);
      put_signature(w, t.sig);
      return;
    }
    case WireBody::kChainEvent: {
      const auto& e = static_cast<const chain::ChainEventMsg&>(*b);
      w.str(e.contract, kMaxNameString, "event contract");
      w.str(e.topic, kMaxNameString, "event topic");
      w.u64(e.block_height);
      put_optional_cert(w, e.cert, ctx);
      w.str(e.detail, kMaxDetailString, "event detail");
      return;
    }
  }
  throw ByteError("unreachable body tag", w.size());
}

BodyPtr get_body(ByteReader& r, WireBody tag, const WireContext& ctx) {
  switch (tag) {
    case WireBody::kNone:
      return nullptr;
    case WireBody::kPromiseG: {
      auto g = make_body<proto::PromiseG>();
      g->deal_id = r.u64();
      g->d = Duration::micros(r.i64());
      g->amount = get_amount(r);
      return g;
    }
    case WireBody::kPromiseP: {
      auto p = make_body<proto::PromiseP>();
      p->deal_id = r.u64();
      p->a = Duration::micros(r.i64());
      p->amount = get_amount(r);
      return p;
    }
    case WireBody::kMoney: {
      auto m = make_body<proto::MoneyMsg>();
      m->deal_id = r.u64();
      m->receipt = r.u64();
      m->amount = get_amount(r);
      return m;
    }
    case WireBody::kCert: {
      auto c = make_body<proto::CertMsg>();
      c->cert = get_certificate(r, ctx);
      return c;
    }
    case WireBody::kReport: {
      auto rep = make_body<consensus::ReportMsg>();
      rep->statement = get_statement(r);
      return rep;
    }
    case WireBody::kProposal: {
      auto p = make_body<consensus::ProposalMsg>();
      p->instance = r.u64();
      p->round = get_round(r, "round");
      p->value = get_value(r);
      p->just = get_justification(r, ctx);
      p->sig = get_signature(r);
      return p;
    }
    case WireBody::kVote: {
      auto v = make_body<consensus::VoteMsg>();
      v->instance = r.u64();
      v->round = get_round(r, "round");
      v->value = get_value(r);
      const std::size_t phase_at = r.offset();
      const std::uint8_t phase = r.u8();
      if (phase >
          static_cast<std::uint8_t>(consensus::VoteMsg::Phase::kPrecommit)) {
        r.fail_at(phase_at, "unknown vote phase " + std::to_string(phase));
      }
      v->phase = static_cast<consensus::VoteMsg::Phase>(phase);
      v->sig = get_signature(r);
      return v;
    }
    case WireBody::kNewRound: {
      auto nr = make_body<consensus::NewRoundMsg>();
      nr->instance = r.u64();
      nr->round = get_round(r, "round");
      if (r.flag("locked-value")) nr->locked = get_value(r);
      const std::size_t at = r.offset();
      nr->lock_round = r.i32();
      if (nr->lock_round < -1) {
        r.fail_at(at, "lock round " + std::to_string(nr->lock_round) +
                          " below -1");
      }
      return nr;
    }
    case WireBody::kDecision: {
      auto d = make_body<consensus::DecisionMsg>();
      d->cert = get_certificate(r, ctx);
      return d;
    }
    case WireBody::kTx: {
      auto t = make_body<chain::TxMsg>();
      t->tx.sender = sim::ProcessId(r.u32());
      t->tx.contract = r.str(kMaxNameString, "tx contract");
      t->tx.op = r.str(kMaxNameString, "tx op");
      t->tx.arg = r.u64();
      t->tx.arg2 = r.u64();
      if (r.flag("tx-cert")) t->tx.cert = get_certificate(r, ctx);
      t->tx.sig = get_signature(r);
      return t;
    }
    case WireBody::kChainEvent: {
      auto e = make_body<chain::ChainEventMsg>();
      e->contract = r.str(kMaxNameString, "event contract");
      e->topic = r.str(kMaxNameString, "event topic");
      e->block_height = r.u64();
      if (r.flag("event-cert")) e->cert = get_certificate(r, ctx);
      e->detail = r.str(kMaxDetailString, "event detail");
      return e;
    }
  }
  r.fail("unknown body tag " + std::to_string(static_cast<std::uint32_t>(tag)));
}

const char* body_context(WireBody tag) {
  switch (tag) {
    case WireBody::kNone: return "message";
    case WireBody::kPromiseG: return "PromiseG";
    case WireBody::kPromiseP: return "PromiseP";
    case WireBody::kMoney: return "MoneyMsg";
    case WireBody::kCert: return "CertMsg";
    case WireBody::kReport: return "ReportMsg";
    case WireBody::kProposal: return "ProposalMsg";
    case WireBody::kVote: return "VoteMsg";
    case WireBody::kNewRound: return "NewRoundMsg";
    case WireBody::kDecision: return "DecisionMsg";
    case WireBody::kTx: return "TxMsg";
    case WireBody::kChainEvent: return "ChainEventMsg";
  }
  return "message";
}

/// Common 12-byte prologue: the XCPM header, kind tag, body tag, reserved.
/// Returns (kind, body) after validating everything else.
struct Prologue {
  WireKind kind;
  std::uint8_t body_tag;
};

Prologue read_prologue(ByteReader& r) {
  r.header(kWireMagic, kWireMinVersion, kWireVersion);
  Prologue pl;
  const std::size_t kind_at = r.offset();
  const std::uint8_t kind = r.u8();
  pl.body_tag = r.u8();
  const std::size_t reserved_at = r.offset();
  if (r.u16() != 0) r.fail_at(reserved_at, "nonzero reserved field");
  const bool known_protocol =
      kind >= 1 && kind <= static_cast<std::uint8_t>(WireKind::kBftDecision);
  const bool known_control =
      kind == static_cast<std::uint8_t>(WireKind::kHello) ||
      kind == static_cast<std::uint8_t>(WireKind::kHeartbeat) ||
      kind == static_cast<std::uint8_t>(WireKind::kCatchUp);
  if (!known_protocol && !known_control) {
    r.fail_at(kind_at, "unknown kind tag " + std::to_string(kind));
  }
  pl.kind = static_cast<WireKind>(kind);
  return pl;
}

void put_prologue(ByteWriter& w, WireKind kind, WireBody body_tag) {
  w.header(kWireMagic, kWireVersion);
  w.u8(static_cast<std::uint8_t>(kind));
  w.u8(static_cast<std::uint8_t>(body_tag));
  w.u16(0);  // reserved
}

Message parse_message_after_prologue(ByteReader& r, const Prologue& pl,
                                     const WireContext& ctx) {
  if (static_cast<std::uint8_t>(pl.kind) >= kControlBase) {
    r.fail("control frame where a protocol message was expected");
  }
  if (pl.body_tag > static_cast<std::uint8_t>(WireBody::kChainEvent)) {
    r.fail_at(kBodyTagOffset,
              "unknown body tag " + std::to_string(pl.body_tag));
  }
  const WireBody body_tag = static_cast<WireBody>(pl.body_tag);
  r.set_context(body_context(body_tag));
  Message m;
  m.from = sim::ProcessId(r.u32());
  m.to = sim::ProcessId(r.u32());
  m.id = r.u64();
  m.kind = msg_kind_of(pl.kind);
  m.body = get_body(r, body_tag, ctx);
  r.expect_consumed();
  return m;
}

/// The rest of a control frame once its prologue is read.
ControlFrame parse_control_after_prologue(ByteReader& r, const Prologue& pl) {
  if (pl.body_tag != 0) {
    r.fail("control frame with nonzero body tag " +
           std::to_string(pl.body_tag));
  }
  ControlFrame f;
  f.kind = pl.kind;
  f.a = r.u64();
  f.b = r.u64();
  r.expect_consumed();
  return f;
}

void check_frame_size(std::size_t size, const char* what) {
  if (size > kMaxWireFrame) {
    throw ByteError(std::string(what) + " of " + std::to_string(size) +
                        " bytes exceeds the " +
                        std::to_string(kMaxWireFrame) + "-byte cap",
                    0);
  }
}

}  // namespace

// --------------------------------------------------- shared field readers

consensus::Value get_value(ByteReader& r) {
  const std::size_t at = r.offset();
  const std::uint8_t v = r.u8();
  if (v > static_cast<std::uint8_t>(consensus::Value::kAbort)) {
    r.fail_at(at, "unknown decision value " + std::to_string(v));
  }
  return static_cast<consensus::Value>(v);
}

std::int32_t get_round(ByteReader& r, const char* field) {
  const std::size_t at = r.offset();
  const std::int32_t v = r.i32();
  if (v < 0) {
    r.fail_at(at, std::string("negative ") + field + " " + std::to_string(v));
  }
  return v;
}

// ------------------------------------------------------------ kind tables

WireKind wire_kind_of(MsgKind k) {
  struct Entry {
    std::uint32_t msg_kind;
    WireKind wire;
  };
  // Built once; MsgKind wire values are process-lifetime stable.
  static const std::vector<Entry> table = [] {
    std::vector<Entry> t = {
        {kinds::g.value(), WireKind::kPromiseG},
        {kinds::p.value(), WireKind::kPromiseP},
        {kinds::money.value(), WireKind::kMoney},
        {kinds::chi.value(), WireKind::kChi},
        {kinds::tx.value(), WireKind::kTx},
        {kinds::chain_event.value(), WireKind::kChainEvent},
        {kinds::tm_chi.value(), WireKind::kTmChi},
        {kinds::tm_report.value(), WireKind::kTmReport},
        {kinds::tm_cert.value(), WireKind::kTmCert},
        {kinds::deposit.value(), WireKind::kDeposit},
        {kinds::funded.value(), WireKind::kFunded},
        {kinds::claim.value(), WireKind::kClaim},
        {kinds::proof.value(), WireKind::kProof},
        {kinds::bft_proposal.value(), WireKind::kBftProposal},
        {kinds::bft_vote.value(), WireKind::kBftVote},
        {kinds::bft_newround.value(), WireKind::kBftNewRound},
        {kinds::bft_decision.value(), WireKind::kBftDecision},
    };
    return t;
  }();
  for (const Entry& e : table) {
    if (e.msg_kind == k.value()) return e.wire;
  }
  return WireKind::kInvalid;
}

MsgKind msg_kind_of(WireKind w, std::size_t offset) {
  switch (w) {
    case WireKind::kPromiseG: return kinds::g;
    case WireKind::kPromiseP: return kinds::p;
    case WireKind::kMoney: return kinds::money;
    case WireKind::kChi: return kinds::chi;
    case WireKind::kTx: return kinds::tx;
    case WireKind::kChainEvent: return kinds::chain_event;
    case WireKind::kTmChi: return kinds::tm_chi;
    case WireKind::kTmReport: return kinds::tm_report;
    case WireKind::kTmCert: return kinds::tm_cert;
    case WireKind::kDeposit: return kinds::deposit;
    case WireKind::kFunded: return kinds::funded;
    case WireKind::kClaim: return kinds::claim;
    case WireKind::kProof: return kinds::proof;
    case WireKind::kBftProposal: return kinds::bft_proposal;
    case WireKind::kBftVote: return kinds::bft_vote;
    case WireKind::kBftNewRound: return kinds::bft_newround;
    case WireKind::kBftDecision: return kinds::bft_decision;
    case WireKind::kInvalid:
    case WireKind::kHello:
    case WireKind::kHeartbeat:
    case WireKind::kCatchUp:
      break;
  }
  throw ByteError("kind tag " + std::to_string(static_cast<unsigned>(w)) +
                      " is not a protocol message kind at offset " +
                      std::to_string(offset),
                  offset);
}

// --------------------------------------------------------------- messages

void serialize_message(const Message& m, std::vector<std::uint8_t>& out,
                       const WireContext& ctx) {
  const WireKind kind = wire_kind_of(m.kind);
  if (kind == WireKind::kInvalid) {
    throw ByteError("message kind \"" + m.kind.str() +
                        "\" has no wire representation",
                    out.size());
  }
  const WireBody body_tag = body_tag_for(m.body.get());
  ByteWriter w(out);
  put_prologue(w, kind, body_tag);
  w.u32(m.from.value());
  w.u32(m.to.value());
  w.u64(m.id);
  put_body(w, body_tag, m.body.get(), ctx);
}

std::vector<std::uint8_t> serialize_message(const Message& m,
                                            const WireContext& ctx) {
  std::vector<std::uint8_t> out;
  serialize_message(m, out, ctx);
  return out;
}

Message parse_message(const std::uint8_t* data, std::size_t size,
                      const WireContext& ctx) {
  check_frame_size(size, "frame");
  ByteReader r(data, size, "message header");
  const Prologue pl = read_prologue(r);
  return parse_message_after_prologue(r, pl, ctx);
}

// ---------------------------------------------------------------- control

void serialize_control(const ControlFrame& f, std::vector<std::uint8_t>& out) {
  if (static_cast<std::uint8_t>(f.kind) < kControlBase) {
    throw ByteError("not a control kind", out.size());
  }
  ByteWriter w(out);
  put_prologue(w, f.kind, WireBody::kNone);
  w.u64(f.a);
  w.u64(f.b);
}

ControlFrame parse_control(const std::uint8_t* data, std::size_t size) {
  check_frame_size(size, "frame");
  ByteReader r(data, size, "control frame");
  const Prologue pl = read_prologue(r);
  if (static_cast<std::uint8_t>(pl.kind) < kControlBase) {
    r.fail("expected a control frame, got protocol kind " +
           std::to_string(static_cast<std::uint32_t>(pl.kind)));
  }
  return parse_control_after_prologue(r, pl);
}

ParsedFrame parse_frame(const std::uint8_t* data, std::size_t size,
                        const WireContext& ctx) {
  check_frame_size(size, "frame");
  ByteReader r(data, size, "frame header");
  const Prologue pl = read_prologue(r);
  ParsedFrame out;
  if (static_cast<std::uint8_t>(pl.kind) >= kControlBase) {
    r.set_context("control frame");
    out.control = parse_control_after_prologue(r, pl);
    return out;
  }
  out.message = parse_message_after_prologue(r, pl, ctx);
  return out;
}

// ----------------------------------------------------------- certificates

std::vector<std::uint8_t> serialize_certificate(const crypto::Certificate& c,
                                                const WireContext& ctx) {
  std::vector<std::uint8_t> out;
  ByteWriter w(out);
  w.header(kWireMagic, kWireVersion);
  put_certificate(w, c, ctx);
  return out;
}

crypto::Certificate parse_certificate(const std::uint8_t* data,
                                      std::size_t size,
                                      const WireContext& ctx) {
  check_frame_size(size, "certificate blob");
  ByteReader r(data, size, "certificate");
  r.header(kWireMagic, kWireMinVersion, kWireVersion);
  crypto::Certificate c = get_certificate(r, ctx);
  r.expect_consumed();
  return c;
}

// ----------------------------------------------------------------- framing

void append_stream_frame(std::vector<std::uint8_t>& stream,
                         const std::uint8_t* payload, std::size_t size) {
  check_frame_size(size, "frame");
  ByteWriter w(stream);
  w.u32(static_cast<std::uint32_t>(size));
  w.bytes(payload, size);
}

bool extract_stream_frame(std::span<const std::uint8_t> stream,
                          std::size_t& offset,
                          std::span<const std::uint8_t>& frame,
                          std::size_t max_frame) {
  ByteReader r(stream.data(), stream.size(), "stream");
  (void)r.bytes(offset);  // frames the caller already took
  if (r.left() < 4) return false;
  const std::uint32_t len = r.u32();
  if (len > max_frame) {
    throw ByteError("stream announces a " + std::to_string(len) +
                        "-byte frame, over the " + std::to_string(max_frame) +
                        "-byte cap",
                    0);
  }
  if (r.left() < len) return false;
  frame = r.bytes(len);
  offset = r.offset();
  return true;
}

}  // namespace xcp::net
