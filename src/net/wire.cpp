#include "net/wire.hpp"

#include <algorithm>
#include <cstdio>
#include <cstring>

#include "chain/transaction.hpp"
#include "consensus/messages.hpp"
#include "proto/bodies.hpp"

namespace xcp::net {
namespace {

// Field caps: defensive upper bounds well above anything the protocols
// produce, well below anything that could act as an amplification lever.
constexpr std::size_t kMaxShortString = 64;    // statement kinds
constexpr std::size_t kMaxNameString = 256;    // contract/op/topic names
constexpr std::size_t kMaxDetailString = 4096; // chain-event detail
constexpr std::size_t kMaxStatements = 1024;
constexpr std::size_t kMaxQuorumSigs = 1024;

// ------------------------------------------------------------- LE writers

void put_u8(std::vector<std::uint8_t>& out, std::uint8_t v) {
  out.push_back(v);
}

void put_u16(std::vector<std::uint8_t>& out, std::uint16_t v) {
  out.push_back(static_cast<std::uint8_t>(v));
  out.push_back(static_cast<std::uint8_t>(v >> 8));
}

void put_u32(std::vector<std::uint8_t>& out, std::uint32_t v) {
  for (std::uint32_t i = 0; i < 4; ++i) {
    out.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
  }
}

void put_u64(std::vector<std::uint8_t>& out, std::uint64_t v) {
  for (std::uint32_t i = 0; i < 8; ++i) {
    out.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
  }
}

void put_i64(std::vector<std::uint8_t>& out, std::int64_t v) {
  put_u64(out, static_cast<std::uint64_t>(v));
}

void put_i32(std::vector<std::uint8_t>& out, std::int32_t v) {
  put_u32(out, static_cast<std::uint32_t>(v));
}

void put_str(std::vector<std::uint8_t>& out, const std::string& s,
             std::size_t cap, const char* field) {
  if (s.size() > cap) {
    throw WireError(std::string("cannot serialize ") + field + ": " +
                        std::to_string(s.size()) + " bytes exceeds cap " +
                        std::to_string(cap),
                    out.size());
  }
  put_u16(out, static_cast<std::uint16_t>(s.size()));
  out.insert(out.end(), s.begin(), s.end());
}

// ------------------------------------------------- bounds-checked reader

/// Every read names its decode context and the byte offset into the frame;
/// any shortfall or invalid value raises WireError carrying both (the same
/// diagnostic shape as exp::WireError in the shard transport).
struct Reader {
  const std::uint8_t* base;
  const std::uint8_t* p;
  std::size_t left;
  const char* what;

  Reader(const std::uint8_t* data, std::size_t size, const char* context)
      : base(data), p(data), left(size), what(context) {}

  std::size_t offset() const { return static_cast<std::size_t>(p - base); }

  [[noreturn]] void fail(const std::string& msg) const {
    throw WireError(std::string(what) + ": " + msg + " at offset " +
                        std::to_string(offset()),
                    offset());
  }

  void need(std::size_t n) const {
    if (left < n) {
      fail("truncated: need " + std::to_string(n) + " byte(s), " +
           std::to_string(left) + " left");
    }
  }

  std::uint8_t u8() {
    need(1);
    const std::uint8_t v = *p;
    ++p;
    --left;
    return v;
  }

  std::uint16_t u16() {
    need(2);
    std::uint16_t v = 0;
    for (int i = 0; i < 2; ++i) v |= static_cast<std::uint16_t>(p[i]) << (8 * i);
    p += 2;
    left -= 2;
    return v;
  }

  std::uint32_t u32() {
    need(4);
    std::uint32_t v = 0;
    for (int i = 0; i < 4; ++i) v |= static_cast<std::uint32_t>(p[i]) << (8 * i);
    p += 4;
    left -= 4;
    return v;
  }

  std::uint64_t u64() {
    need(8);
    std::uint64_t v = 0;
    for (int i = 0; i < 8; ++i) v |= static_cast<std::uint64_t>(p[i]) << (8 * i);
    p += 8;
    left -= 8;
    return v;
  }

  std::int64_t i64() { return static_cast<std::int64_t>(u64()); }
  std::int32_t i32() { return static_cast<std::int32_t>(u32()); }

  std::string str(std::size_t cap, const char* field) {
    const std::size_t at = offset();
    const std::uint16_t n = u16();
    if (n > cap) {
      throw WireError(std::string(what) + ": " + field + " length " +
                          std::to_string(n) + " exceeds cap " +
                          std::to_string(cap) + " at offset " +
                          std::to_string(at),
                      at);
    }
    need(n);
    std::string s(reinterpret_cast<const char*>(p), n);
    p += n;
    left -= n;
    return s;
  }

  /// A flag byte that must be exactly 0 or 1.
  bool flag(const char* field) {
    const std::size_t at = offset();
    const std::uint8_t v = u8();
    if (v > 1) {
      throw WireError(std::string(what) + ": " + field + " flag byte " +
                          std::to_string(v) + " is not 0/1 at offset " +
                          std::to_string(at),
                      at);
    }
    return v == 1;
  }

  void expect_consumed() const {
    if (left != 0) {
      fail(std::to_string(left) + " trailing byte(s) after message");
    }
  }
};

// -------------------------------------------------------- field encoders

void put_signature(std::vector<std::uint8_t>& out, const crypto::Signature& s) {
  put_u32(out, s.signer.value());
  put_u64(out, s.mac);
}

crypto::Signature get_signature(Reader& r) {
  crypto::Signature s;
  s.signer = sim::ProcessId(r.u32());
  s.mac = r.u64();
  return s;
}

void put_amount(std::vector<std::uint8_t>& out, const Amount& a) {
  put_i64(out, a.units());
  put_u16(out, a.currency().id());
}

Amount get_amount(Reader& r) {
  const std::int64_t units = r.i64();
  const std::uint16_t cur = r.u16();
  return Amount(units, Currency(cur));
}

void put_certificate(std::vector<std::uint8_t>& out,
                     const crypto::Certificate& c, const WireContext& ctx) {
  put_u8(out, static_cast<std::uint8_t>(c.kind));
  put_u64(out, c.deal_id);
  put_u32(out, c.issuer.value());
  put_signature(out, c.signature);
  if (c.embedded_payment_sig) {
    put_u8(out, 1);
    put_u32(out, c.embedded_payment_issuer.value());
    put_signature(out, *c.embedded_payment_sig);
  } else {
    put_u8(out, 0);
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
    put_u8(out, 1);
    put_u64(out, bitmap);
    // macs in roster index order, so the encoding is canonical regardless
    // of the in-memory vector order.
    for (std::size_t i = 0; i < ctx.roster->size(); ++i) {
      if (!(bitmap & (std::uint64_t{1} << i))) continue;
      const sim::ProcessId member = (*ctx.roster)[i];
      for (const auto& sig : c.quorum) {
        if (sig.signer == member) {
          put_u64(out, sig.mac);
          break;
        }
      }
    }
  } else {
    if (c.quorum.size() > kMaxQuorumSigs) {
      throw WireError("cannot serialize quorum of " +
                          std::to_string(c.quorum.size()) +
                          " signatures (cap " +
                          std::to_string(kMaxQuorumSigs) + ")",
                      out.size());
    }
    put_u8(out, 0);
    put_u16(out, static_cast<std::uint16_t>(c.quorum.size()));
    for (const auto& sig : c.quorum) put_signature(out, sig);
  }
}

crypto::Certificate get_certificate(Reader& r, const WireContext& ctx) {
  crypto::Certificate c;
  {
    const std::size_t at = r.offset();
    const std::uint8_t kind = r.u8();
    if (kind > static_cast<std::uint8_t>(crypto::CertKind::kAbort)) {
      throw WireError(std::string(r.what) + ": unknown certificate kind " +
                          std::to_string(kind) + " at offset " +
                          std::to_string(at),
                      at);
    }
    c.kind = static_cast<crypto::CertKind>(kind);
  }
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
      throw WireError(std::string(r.what) +
                          ": participation-bitmap certificate without a "
                          "committee roster in context at offset " +
                          std::to_string(mode_at),
                      mode_at);
    }
    if (ctx.roster->size() > 64) {
      throw WireError(std::string(r.what) + ": roster of " +
                          std::to_string(ctx.roster->size()) +
                          " members exceeds the 64-bit participation bitmap "
                          "at offset " +
                          std::to_string(mode_at),
                      mode_at);
    }
    const std::size_t bits_at = r.offset();
    const std::uint64_t bitmap = r.u64();
    if (ctx.roster->size() < 64 &&
        (bitmap >> ctx.roster->size()) != 0) {
      throw WireError(std::string(r.what) +
                          ": participation bitmap has bits beyond the " +
                          std::to_string(ctx.roster->size()) +
                          "-member roster at offset " +
                          std::to_string(bits_at),
                      bits_at);
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
      throw WireError(std::string(r.what) + ": quorum signature count " +
                          std::to_string(count) + " exceeds cap " +
                          std::to_string(kMaxQuorumSigs) + " at offset " +
                          std::to_string(count_at),
                      count_at);
    }
    c.quorum.reserve(count);
    for (std::uint16_t i = 0; i < count; ++i) {
      c.quorum.push_back(get_signature(r));
    }
  }
  return c;
}

void put_statement(std::vector<std::uint8_t>& out,
                   const consensus::SignedStatement& s) {
  put_str(out, s.kind, kMaxShortString, "statement kind");
  put_u64(out, s.deal_id);
  put_u32(out, s.subject.value());
  put_u64(out, s.detail);
  put_signature(out, s.sig);
}

consensus::SignedStatement get_statement(Reader& r) {
  consensus::SignedStatement s;
  s.kind = r.str(kMaxShortString, "statement kind");
  s.deal_id = r.u64();
  s.subject = sim::ProcessId(r.u32());
  s.detail = r.u64();
  s.sig = get_signature(r);
  return s;
}

void put_justification(std::vector<std::uint8_t>& out,
                       const consensus::Justification& j,
                       const WireContext& ctx) {
  if (j.statements.size() > kMaxStatements) {
    throw WireError("cannot serialize justification with " +
                        std::to_string(j.statements.size()) +
                        " statements (cap " + std::to_string(kMaxStatements) +
                        ")",
                    out.size());
  }
  put_u16(out, static_cast<std::uint16_t>(j.statements.size()));
  for (const auto& s : j.statements) put_statement(out, s);
  if (j.chi) {
    put_u8(out, 1);
    put_certificate(out, *j.chi, ctx);
  } else {
    put_u8(out, 0);
  }
}

consensus::Justification get_justification(Reader& r, const WireContext& ctx) {
  consensus::Justification j;
  const std::size_t count_at = r.offset();
  const std::uint16_t count = r.u16();
  if (count > kMaxStatements) {
    throw WireError(std::string(r.what) + ": statement count " +
                        std::to_string(count) + " exceeds cap " +
                        std::to_string(kMaxStatements) + " at offset " +
                        std::to_string(count_at),
                    count_at);
  }
  j.statements.reserve(count);
  for (std::uint16_t i = 0; i < count; ++i) {
    j.statements.push_back(get_statement(r));
  }
  if (r.flag("justification-chi")) j.chi = get_certificate(r, ctx);
  return j;
}

consensus::Value get_value(Reader& r) {
  const std::size_t at = r.offset();
  const std::uint8_t v = r.u8();
  if (v > static_cast<std::uint8_t>(consensus::Value::kAbort)) {
    throw WireError(std::string(r.what) + ": unknown decision value " +
                        std::to_string(v) + " at offset " + std::to_string(at),
                    at);
  }
  return static_cast<consensus::Value>(v);
}

int get_round(Reader& r, const char* field) {
  const std::size_t at = r.offset();
  const std::int32_t v = r.i32();
  if (v < 0) {
    throw WireError(std::string(r.what) + ": negative " + field + " " +
                        std::to_string(v) + " at offset " + std::to_string(at),
                    at);
  }
  return v;
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
  throw WireError("message body type has no wire encoding", 0);
}

void put_body(std::vector<std::uint8_t>& out, WireBody tag,
              const MessageBody* b, const WireContext& ctx) {
  switch (tag) {
    case WireBody::kNone:
      return;
    case WireBody::kPromiseG: {
      const auto& g = static_cast<const proto::PromiseG&>(*b);
      put_u64(out, g.deal_id);
      put_i64(out, g.d.count());
      put_amount(out, g.amount);
      return;
    }
    case WireBody::kPromiseP: {
      const auto& p = static_cast<const proto::PromiseP&>(*b);
      put_u64(out, p.deal_id);
      put_i64(out, p.a.count());
      put_amount(out, p.amount);
      return;
    }
    case WireBody::kMoney: {
      const auto& m = static_cast<const proto::MoneyMsg&>(*b);
      put_u64(out, m.deal_id);
      put_u64(out, m.receipt);
      put_amount(out, m.amount);
      return;
    }
    case WireBody::kCert: {
      put_certificate(out, static_cast<const proto::CertMsg&>(*b).cert, ctx);
      return;
    }
    case WireBody::kReport: {
      put_statement(out,
                    static_cast<const consensus::ReportMsg&>(*b).statement);
      return;
    }
    case WireBody::kProposal: {
      const auto& p = static_cast<const consensus::ProposalMsg&>(*b);
      put_u64(out, p.instance);
      put_i32(out, p.round);
      put_u8(out, static_cast<std::uint8_t>(p.value));
      put_justification(out, p.just, ctx);
      put_signature(out, p.sig);
      return;
    }
    case WireBody::kVote: {
      const auto& v = static_cast<const consensus::VoteMsg&>(*b);
      put_u64(out, v.instance);
      put_i32(out, v.round);
      put_u8(out, static_cast<std::uint8_t>(v.value));
      put_u8(out, static_cast<std::uint8_t>(v.phase));
      put_signature(out, v.sig);
      return;
    }
    case WireBody::kNewRound: {
      const auto& nr = static_cast<const consensus::NewRoundMsg&>(*b);
      put_u64(out, nr.instance);
      put_i32(out, nr.round);
      if (nr.locked) {
        put_u8(out, 1);
        put_u8(out, static_cast<std::uint8_t>(*nr.locked));
      } else {
        put_u8(out, 0);
      }
      put_i32(out, nr.lock_round);
      return;
    }
    case WireBody::kDecision: {
      put_certificate(out, static_cast<const consensus::DecisionMsg&>(*b).cert,
                      ctx);
      return;
    }
    case WireBody::kTx: {
      const auto& t = static_cast<const chain::TxMsg&>(*b).tx;
      put_u32(out, t.sender.value());
      put_str(out, t.contract, kMaxNameString, "tx contract");
      put_str(out, t.op, kMaxNameString, "tx op");
      put_u64(out, t.arg);
      put_u64(out, t.arg2);
      if (t.cert) {
        put_u8(out, 1);
        put_certificate(out, *t.cert, ctx);
      } else {
        put_u8(out, 0);
      }
      put_signature(out, t.sig);
      return;
    }
    case WireBody::kChainEvent: {
      const auto& e = static_cast<const chain::ChainEventMsg&>(*b);
      put_str(out, e.contract, kMaxNameString, "event contract");
      put_str(out, e.topic, kMaxNameString, "event topic");
      put_u64(out, e.block_height);
      if (e.cert) {
        put_u8(out, 1);
        put_certificate(out, *e.cert, ctx);
      } else {
        put_u8(out, 0);
      }
      put_str(out, e.detail, kMaxDetailString, "event detail");
      return;
    }
  }
  throw WireError("unreachable body tag", out.size());
}

BodyPtr get_body(Reader& r, WireBody tag, const WireContext& ctx) {
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
      {
        const std::size_t at = r.offset();
        const std::uint8_t phase = r.u8();
        if (phase >
            static_cast<std::uint8_t>(consensus::VoteMsg::Phase::kPrecommit)) {
          throw WireError(std::string(r.what) + ": unknown vote phase " +
                              std::to_string(phase) + " at offset " +
                              std::to_string(at),
                          at);
        }
        v->phase = static_cast<consensus::VoteMsg::Phase>(phase);
      }
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
        throw WireError(std::string(r.what) + ": lock round " +
                            std::to_string(nr->lock_round) +
                            " below -1 at offset " + std::to_string(at),
                        at);
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
  const std::size_t at = r.offset();
  throw WireError(std::string(r.what) + ": unknown body tag " +
                      std::to_string(static_cast<std::uint32_t>(tag)) +
                      " at offset " + std::to_string(at),
                  at);
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

/// Common 12-byte prologue: magic, version, flags, kind tag, body tag,
/// reserved. Returns (kind, body) after validating everything else.
struct Prologue {
  WireKind kind;
  std::uint8_t body_tag;
};

Prologue read_prologue(Reader& r) {
  {
    const std::size_t at = r.offset();
    const std::uint32_t magic = r.u32();
    if (magic != kWireMagic) {
      throw WireError(std::string(r.what) + ": bad magic 0x" + [&] {
        char buf[16];
        std::snprintf(buf, sizeof buf, "%08x", magic);
        return std::string(buf);
      }() + " at offset " + std::to_string(at),
                      at);
    }
  }
  {
    const std::size_t at = r.offset();
    const std::uint16_t version = r.u16();
    if (version > kWireVersion || version < kWireMinVersion) {
      throw WireError(std::string(r.what) + ": unsupported version " +
                          std::to_string(version) + " (this build speaks " +
                          std::to_string(kWireMinVersion) + ".." +
                          std::to_string(kWireVersion) + ") at offset " +
                          std::to_string(at),
                      at);
    }
  }
  {
    const std::size_t at = r.offset();
    const std::uint16_t flags = r.u16();
    if (flags != 0) {
      throw WireError(std::string(r.what) + ": nonzero flags 0x" +
                          std::to_string(flags) + " at offset " +
                          std::to_string(at),
                      at);
    }
  }
  Prologue pl;
  const std::size_t kind_at = r.offset();
  const std::uint8_t kind = r.u8();
  pl.body_tag = r.u8();
  {
    const std::size_t at = r.offset();
    const std::uint16_t reserved = r.u16();
    if (reserved != 0) {
      throw WireError(std::string(r.what) + ": nonzero reserved field at "
                          "offset " +
                          std::to_string(at),
                      at);
    }
  }
  const bool known_protocol =
      kind >= 1 && kind <= static_cast<std::uint8_t>(WireKind::kBftDecision);
  const bool known_control =
      kind == static_cast<std::uint8_t>(WireKind::kHello) ||
      kind == static_cast<std::uint8_t>(WireKind::kHeartbeat) ||
      kind == static_cast<std::uint8_t>(WireKind::kCatchUp);
  if (!known_protocol && !known_control) {
    throw WireError(std::string(r.what) + ": unknown kind tag " +
                        std::to_string(kind) + " at offset " +
                        std::to_string(kind_at),
                    kind_at);
  }
  pl.kind = static_cast<WireKind>(kind);
  return pl;
}

void put_prologue(std::vector<std::uint8_t>& out, WireKind kind,
                  WireBody body_tag) {
  put_u32(out, kWireMagic);
  put_u16(out, kWireVersion);
  put_u16(out, 0);  // flags
  put_u8(out, static_cast<std::uint8_t>(kind));
  put_u8(out, static_cast<std::uint8_t>(body_tag));
  put_u16(out, 0);  // reserved
}

Message parse_message_after_prologue(Reader& r, const Prologue& pl,
                                     const WireContext& ctx) {
  if (static_cast<std::uint8_t>(pl.kind) >= kControlBase) {
    r.fail("control frame where a protocol message was expected");
  }
  if (pl.body_tag > static_cast<std::uint8_t>(WireBody::kChainEvent)) {
    throw WireError(std::string(r.what) + ": unknown body tag " +
                        std::to_string(pl.body_tag) + " at offset 9",
                    9);
  }
  const WireBody body_tag = static_cast<WireBody>(pl.body_tag);
  r.what = body_context(body_tag);
  Message m;
  m.from = sim::ProcessId(r.u32());
  m.to = sim::ProcessId(r.u32());
  m.id = r.u64();
  m.kind = msg_kind_of(pl.kind);
  m.body = get_body(r, body_tag, ctx);
  r.expect_consumed();
  return m;
}

}  // namespace

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
  throw WireError("kind tag " +
                      std::to_string(static_cast<unsigned>(w)) +
                      " is not a protocol message kind at offset " +
                      std::to_string(offset),
                  offset);
}

// --------------------------------------------------------------- messages

void serialize_message(const Message& m, std::vector<std::uint8_t>& out,
                       const WireContext& ctx) {
  const WireKind kind = wire_kind_of(m.kind);
  if (kind == WireKind::kInvalid) {
    throw WireError("message kind \"" + m.kind.str() +
                        "\" has no wire representation",
                    out.size());
  }
  const WireBody body_tag = body_tag_for(m.body.get());
  put_prologue(out, kind, body_tag);
  put_u32(out, m.from.value());
  put_u32(out, m.to.value());
  put_u64(out, m.id);
  put_body(out, body_tag, m.body.get(), ctx);
}

std::vector<std::uint8_t> serialize_message(const Message& m,
                                            const WireContext& ctx) {
  std::vector<std::uint8_t> out;
  serialize_message(m, out, ctx);
  return out;
}

Message parse_message(const std::uint8_t* data, std::size_t size,
                      const WireContext& ctx) {
  if (size > kMaxWireFrame) {
    throw WireError("frame of " + std::to_string(size) +
                        " bytes exceeds the " +
                        std::to_string(kMaxWireFrame) + "-byte cap",
                    0);
  }
  Reader r(data, size, "message header");
  const Prologue pl = read_prologue(r);
  return parse_message_after_prologue(r, pl, ctx);
}

// ---------------------------------------------------------------- control

void serialize_control(const ControlFrame& f, std::vector<std::uint8_t>& out) {
  if (static_cast<std::uint8_t>(f.kind) < kControlBase) {
    throw WireError("not a control kind", out.size());
  }
  put_prologue(out, f.kind, WireBody::kNone);
  put_u64(out, f.a);
  put_u64(out, f.b);
}

ControlFrame parse_control(const std::uint8_t* data, std::size_t size) {
  if (size > kMaxWireFrame) {
    throw WireError("frame of " + std::to_string(size) +
                        " bytes exceeds the " +
                        std::to_string(kMaxWireFrame) + "-byte cap",
                    0);
  }
  Reader r(data, size, "control frame");
  const Prologue pl = read_prologue(r);
  if (static_cast<std::uint8_t>(pl.kind) < kControlBase) {
    r.fail("expected a control frame, got protocol kind " +
           std::to_string(static_cast<std::uint32_t>(pl.kind)));
  }
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

ParsedFrame parse_frame(const std::uint8_t* data, std::size_t size,
                        const WireContext& ctx) {
  if (size > kMaxWireFrame) {
    throw WireError("frame of " + std::to_string(size) +
                        " bytes exceeds the " +
                        std::to_string(kMaxWireFrame) + "-byte cap",
                    0);
  }
  Reader r(data, size, "frame header");
  const Prologue pl = read_prologue(r);
  ParsedFrame out;
  if (static_cast<std::uint8_t>(pl.kind) >= kControlBase) {
    r.what = "control frame";
    if (pl.body_tag != 0) {
      r.fail("control frame with nonzero body tag " +
             std::to_string(pl.body_tag));
    }
    out.control.kind = pl.kind;
    out.control.a = r.u64();
    out.control.b = r.u64();
    r.expect_consumed();
    return out;
  }
  out.message = parse_message_after_prologue(r, pl, ctx);
  return out;
}

// ----------------------------------------------------------- certificates

std::vector<std::uint8_t> serialize_certificate(const crypto::Certificate& c,
                                                const WireContext& ctx) {
  std::vector<std::uint8_t> out;
  put_u32(out, kWireMagic);
  put_u16(out, kWireVersion);
  put_u16(out, 0);
  put_certificate(out, c, ctx);
  return out;
}

crypto::Certificate parse_certificate(const std::uint8_t* data,
                                      std::size_t size,
                                      const WireContext& ctx) {
  if (size > kMaxWireFrame) {
    throw WireError("certificate blob of " + std::to_string(size) +
                        " bytes exceeds the " +
                        std::to_string(kMaxWireFrame) + "-byte cap",
                    0);
  }
  Reader r(data, size, "certificate");
  {
    const std::size_t at = r.offset();
    if (r.u32() != kWireMagic) {
      throw WireError(std::string("certificate: bad magic at offset ") +
                          std::to_string(at),
                      at);
    }
  }
  {
    const std::size_t at = r.offset();
    const std::uint16_t version = r.u16();
    if (version > kWireVersion || version < kWireMinVersion) {
      throw WireError("certificate: unsupported version " +
                          std::to_string(version) + " at offset " +
                          std::to_string(at),
                      at);
    }
  }
  {
    const std::size_t at = r.offset();
    if (r.u16() != 0) {
      throw WireError("certificate: nonzero flags at offset " +
                          std::to_string(at),
                      at);
    }
  }
  crypto::Certificate c = get_certificate(r, ctx);
  r.expect_consumed();
  return c;
}

// ----------------------------------------------------------------- framing

void append_stream_frame(std::vector<std::uint8_t>& stream,
                         const std::uint8_t* payload, std::size_t size) {
  if (size > kMaxWireFrame) {
    throw WireError("frame of " + std::to_string(size) +
                        " bytes exceeds the " +
                        std::to_string(kMaxWireFrame) + "-byte cap",
                    0);
  }
  put_u32(stream, static_cast<std::uint32_t>(size));
  stream.insert(stream.end(), payload, payload + size);
}

bool extract_stream_frame(std::span<const std::uint8_t> stream,
                          std::size_t& offset,
                          std::span<const std::uint8_t>& frame,
                          std::size_t max_frame) {
  const std::span<const std::uint8_t> rest = stream.subspan(offset);
  if (rest.size() < 4) return false;
  std::uint32_t len = 0;
  for (std::uint32_t i = 0; i < 4; ++i) {
    len |= static_cast<std::uint32_t>(rest[i]) << (8 * i);
  }
  if (len > max_frame) {
    throw WireError("stream announces a " + std::to_string(len) +
                        "-byte frame, over the " + std::to_string(max_frame) +
                        "-byte cap",
                    0);
  }
  if (rest.size() < 4 + static_cast<std::size_t>(len)) return false;
  frame = rest.subspan(4, len);
  offset += 4 + static_cast<std::size_t>(len);
  return true;
}

}  // namespace xcp::net
