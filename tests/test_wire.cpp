// Wire-format tests and fuzz harness (net/wire.hpp): every protocol
// message type must round-trip bit-exactly through serialize -> parse ->
// serialize, and every single-byte corruption and every truncation of a
// valid frame must either be rejected with support::ByteError or parse to a
// valid message — never UB, never partial state (the asan-ubsan CI job
// runs this suite under both sanitizers).

#include <gtest/gtest.h>

#include <cstddef>
#include <cstring>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "chain/transaction.hpp"
#include "consensus/messages.hpp"
#include "crypto/certificate.hpp"
#include "crypto/identity.hpp"
#include "net/wire.hpp"
#include "proto/bodies.hpp"

namespace xcp::net {
namespace {

using Bytes = std::vector<std::uint8_t>;
using support::ByteError;

// ------------------------------------------------------------- fixtures

crypto::KeyRegistry& registry() {
  static crypto::KeyRegistry keys(0xfeedULL);
  return keys;
}

std::vector<sim::ProcessId> roster() {
  return {sim::ProcessId(21), sim::ProcessId(22), sim::ProcessId(23),
          sim::ProcessId(24)};
}

crypto::Certificate quorum_cert(bool commit) {
  auto members = roster();
  std::vector<crypto::Signature> sigs;
  const sim::ProcessId committee(3'000'013);
  const auto kind =
      commit ? crypto::CertKind::kCommit : crypto::CertKind::kAbort;
  crypto::Certificate chi =
      crypto::make_payment_cert(registry().signer_for(sim::ProcessId(2)), 13);
  // Assemble via the production helper so digests/embeds are the real thing.
  crypto::Certificate probe;
  probe.kind = kind;
  probe.deal_id = 13;
  probe.issuer = committee;
  for (std::size_t i = 0; i + 1 < members.size(); ++i) {  // 3 of 4 sign
    sigs.push_back(registry().signer_for(members[i]).sign(probe.digest()));
  }
  return crypto::make_quorum_cert(kind, 13, committee, std::move(sigs),
                                  commit ? &chi : nullptr);
}

/// One message of every wire-serializable body type (and a body-less one),
/// with edge-flavoured field values.
std::vector<Message> corpus() {
  std::vector<Message> msgs;
  auto push = [&](MsgKind kind, BodyPtr body) {
    Message m;
    m.id = 0x0123456789abcdefULL;
    m.from = sim::ProcessId(7);
    m.to = sim::ProcessId(42);
    m.kind = kind;
    m.body = std::move(body);
    msgs.push_back(std::move(m));
  };

  push(kinds::claim, nullptr);  // pure-signal message, no body

  auto g = make_body<proto::PromiseG>();
  g->deal_id = ~0ULL;
  g->d = Duration::micros(-1);  // negative durations survive the codec
  g->amount = Amount(-42, Currency::btc());
  push(kinds::g, g);

  auto p = make_body<proto::PromiseP>();
  p->deal_id = 13;
  p->a = Duration::seconds(3600);
  p->amount = Amount(1'000'000, Currency::usd());
  push(kinds::p, p);

  auto money = make_body<proto::MoneyMsg>();
  money->deal_id = 13;
  money->receipt = 0xdeadbeefcafeULL;
  money->amount = Amount(5, Currency::generic());
  push(kinds::money, money);

  auto chi = make_body<proto::CertMsg>();
  chi->cert =
      crypto::make_payment_cert(registry().signer_for(sim::ProcessId(2)), 13);
  push(kinds::chi, chi);
  push(kinds::tm_chi, chi);

  auto report = make_body<consensus::ReportMsg>();
  report->statement = consensus::make_statement(
      registry().signer_for(sim::ProcessId(4)), "escrowed", 13, 77);
  push(kinds::tm_report, report);

  auto proposal = make_body<consensus::ProposalMsg>();
  proposal->instance = 13;
  proposal->round = 3;
  proposal->value = consensus::Value::kCommit;
  proposal->just.statements.push_back(consensus::make_statement(
      registry().signer_for(sim::ProcessId(4)), "escrowed", 13));
  proposal->just.statements.push_back(consensus::make_statement(
      registry().signer_for(sim::ProcessId(5)), "escrowed", 13));
  proposal->just.chi =
      crypto::make_payment_cert(registry().signer_for(sim::ProcessId(2)), 13);
  proposal->sig = registry().signer_for(sim::ProcessId(21)).sign(
      consensus::proposal_digest(13, 3, consensus::Value::kCommit));
  push(kinds::bft_proposal, proposal);

  auto vote = make_body<consensus::VoteMsg>();
  vote->instance = 13;
  vote->round = 0;
  vote->value = consensus::Value::kAbort;
  vote->phase = consensus::VoteMsg::Phase::kPrecommit;
  vote->sig = registry().signer_for(sim::ProcessId(22)).sign(0x1234);
  push(kinds::bft_vote, vote);

  auto nr = make_body<consensus::NewRoundMsg>();
  nr->instance = 13;
  nr->round = 5;
  nr->locked = consensus::Value::kCommit;
  nr->lock_round = 2;
  push(kinds::bft_newround, nr);

  auto nr2 = make_body<consensus::NewRoundMsg>();
  nr2->instance = 13;
  nr2->round = 1;
  nr2->lock_round = -1;  // unlocked: the -1 sentinel must survive
  push(kinds::bft_newround, nr2);

  auto decision = make_body<consensus::DecisionMsg>();
  decision->cert = quorum_cert(true);
  push(kinds::tm_cert, decision);

  auto decision_a = make_body<consensus::DecisionMsg>();
  decision_a->cert = quorum_cert(false);
  push(kinds::bft_decision, decision_a);

  auto tx = make_body<chain::TxMsg>();
  tx->tx = chain::make_signed_tx(registry().signer_for(sim::ProcessId(3)),
                                 "escrow_1", "deposit", 13, 500,
                                 quorum_cert(true));
  push(kinds::tx, tx);

  auto ev = make_body<chain::ChainEventMsg>();
  ev->contract = "escrow_1";
  ev->topic = "funded";
  ev->block_height = 991;
  ev->cert = quorum_cert(false);
  ev->detail = "deal 13 funded at height 991";
  push(kinds::chain_event, ev);

  return msgs;
}

WireContext roster_ctx(const std::vector<sim::ProcessId>& members) {
  WireContext ctx;
  ctx.roster = &members;
  return ctx;
}

// ------------------------------------------------------------ round trip

TEST(Wire, EveryMessageTypeRoundTripsBitExactly) {
  const auto members = roster();
  for (const WireContext& ctx :
       {WireContext{}, roster_ctx(members)}) {
    for (const Message& m : corpus()) {
      const Bytes a = serialize_message(m, ctx);
      const Message parsed = parse_message(a, ctx);
      EXPECT_EQ(parsed.id, m.id);
      EXPECT_EQ(parsed.from, m.from);
      EXPECT_EQ(parsed.to, m.to);
      EXPECT_EQ(parsed.kind, m.kind);
      EXPECT_EQ(parsed.body == nullptr, m.body == nullptr);
      const Bytes b = serialize_message(parsed, ctx);
      EXPECT_EQ(a, b) << "re-serialization diverged for kind "
                      << m.kind.str();
    }
  }
}

TEST(Wire, QuorumCertUsesBitmapWithRosterAndExplicitWithout) {
  const auto members = roster();
  const crypto::Certificate cert = quorum_cert(true);
  const Bytes with = serialize_certificate(cert, roster_ctx(members));
  const Bytes without = serialize_certificate(cert, WireContext{});
  // Bitmap form: 8-byte map + one 8-byte mac per signer beats 12 bytes per
  // signature once more than two sign; and both must round-trip.
  EXPECT_LT(with.size(), without.size());
  const crypto::Certificate c1 = parse_certificate(with, roster_ctx(members));
  const crypto::Certificate c2 = parse_certificate(without, WireContext{});
  for (const crypto::Certificate* c : {&c1, &c2}) {
    EXPECT_EQ(c->deal_id, cert.deal_id);
    EXPECT_EQ(c->quorum.size(), cert.quorum.size());
    EXPECT_TRUE(crypto::verify_quorum_cert(registry(), *c, members, 3));
  }
  // Bitmap form without the roster cannot be decoded.
  EXPECT_THROW(parse_certificate(with, WireContext{}), ByteError);
}

TEST(Wire, BitmapRejectsBitsBeyondRoster) {
  const auto members = roster();
  const crypto::Certificate cert = quorum_cert(false);
  Bytes buf = serialize_certificate(cert, roster_ctx(members));
  // The participation bitmap is the u64 right after the quorum-mode byte;
  // find it by locating the mode byte (1) before the bitmap. Flip a high
  // bit: signer index 63 does not exist in a 4-member roster.
  // Layout after the 8-byte header: kind(1) deal(8) issuer(4) sig(12)
  // embed-flag(1) mode(1) bitmap(8).
  const std::size_t bitmap_at = 8 + 1 + 8 + 4 + 12 + 1 + 1;
  ASSERT_LT(bitmap_at + 7, buf.size());
  buf[bitmap_at + 7] |= 0x80;
  try {
    parse_certificate(buf, roster_ctx(members));
    FAIL() << "bitmap overflow not rejected";
  } catch (const ByteError& e) {
    EXPECT_NE(std::string(e.what()).find("participation bitmap"),
              std::string::npos)
        << e.what();
  }
}

// ------------------------------------------------------------ rejection

TEST(Wire, RejectsVersionBumpMagicAndUnknownTags) {
  Message m = corpus()[1];
  Bytes buf = serialize_message(m);

  {  // version bumped past what this build speaks
    Bytes b = buf;
    b[4] = 0xff;
    b[5] = 0xff;
    try {
      parse_message(b);
      FAIL() << "version bump not rejected";
    } catch (const ByteError& e) {
      EXPECT_NE(std::string(e.what()).find("unsupported version"),
                std::string::npos);
      EXPECT_EQ(e.offset(), 4u);
    }
  }
  {  // bad magic
    Bytes b = buf;
    b[0] ^= 0x5a;
    EXPECT_THROW(parse_message(b), ByteError);
  }
  {  // unknown kind tag
    Bytes b = buf;
    b[8] = 200;
    try {
      parse_message(b);
      FAIL() << "unknown kind not rejected";
    } catch (const ByteError& e) {
      EXPECT_NE(std::string(e.what()).find("unknown kind tag"),
                std::string::npos);
    }
  }
  {  // unknown body tag
    Bytes b = buf;
    b[9] = 99;
    EXPECT_THROW(parse_message(b), ByteError);
  }
  {  // nonzero flags
    Bytes b = buf;
    b[6] = 1;
    EXPECT_THROW(parse_message(b), ByteError);
  }
  {  // trailing bytes
    Bytes b = buf;
    b.push_back(0);
    try {
      parse_message(b);
      FAIL() << "trailing bytes not rejected";
    } catch (const ByteError& e) {
      EXPECT_NE(std::string(e.what()).find("trailing"), std::string::npos);
    }
  }
  {  // control frame where a message is expected
    ControlFrame hb;
    hb.kind = WireKind::kHeartbeat;
    hb.a = 7;
    Bytes b;
    serialize_control(hb, b);
    EXPECT_THROW(parse_message(b), ByteError);
    const ParsedFrame pf = parse_frame(b.data(), b.size());
    ASSERT_TRUE(pf.is_control());
    EXPECT_EQ(pf.control.a, 7u);
  }
}

TEST(Wire, ControlFramesRoundTripThroughParseControl) {
  // serialize_control's dedicated inverse: every control kind round-trips
  // with both payload words intact, without going through ParsedFrame.
  for (const WireKind kind : {WireKind::kHello, WireKind::kHeartbeat}) {
    ControlFrame f;
    f.kind = kind;
    f.a = 0x0123456789abcdefull;
    f.b = 0xfedcba9876543210ull;
    Bytes b;
    serialize_control(f, b);
    const ControlFrame got = parse_control(b);
    EXPECT_EQ(got.kind, f.kind);
    EXPECT_EQ(got.a, f.a);
    EXPECT_EQ(got.b, f.b);
  }
}

TEST(Wire, ParseControlRejectsMessagesAndTruncation) {
  {  // a protocol message is not a control frame
    const Bytes b = serialize_message(corpus()[0]);
    EXPECT_THROW(parse_control(b), ByteError);
  }
  ControlFrame hb;
  hb.kind = WireKind::kHeartbeat;
  hb.a = 7;
  hb.b = 9;
  Bytes b;
  serialize_control(hb, b);
  {  // every truncation rejects
    for (std::size_t n = 0; n < b.size(); ++n) {
      Bytes cut(b.begin(), b.begin() + static_cast<std::ptrdiff_t>(n));
      EXPECT_THROW(parse_control(cut), ByteError) << "length " << n;
    }
  }
  {  // trailing bytes reject
    Bytes padded = b;
    padded.push_back(0);
    EXPECT_THROW(parse_control(padded), ByteError);
  }
}

TEST(Wire, ErrorsCarryByteOffsetInMessageAndAccessor) {
  // The codec-wide diagnostic contract: the offset of the
  // failure appears both in what() and via offset().
  Message m = corpus()[1];
  Bytes buf = serialize_message(m);
  buf.resize(buf.size() - 3);  // truncate mid-body
  try {
    parse_message(buf);
    FAIL() << "truncation not rejected";
  } catch (const ByteError& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("offset"), std::string::npos) << what;
    EXPECT_NE(what.find(std::to_string(e.offset())), std::string::npos)
        << what << " vs offset " << e.offset();
    EXPECT_GT(e.offset(), 0u);
  }
}

// ----------------------------------------------------------------- fuzz

TEST(Wire, EveryTruncationRejectsCleanly) {
  const auto members = roster();
  const WireContext ctx = roster_ctx(members);
  for (const Message& m : corpus()) {
    const Bytes buf = serialize_message(m, ctx);
    for (std::size_t cut = 0; cut < buf.size(); ++cut) {
      Bytes b(buf.begin(), buf.begin() + cut);
      // Strict-prefix truncation can never parse: either a field read runs
      // short or the trailing-bytes check fires. Anything but ByteError
      // (UB, partial state, other exception types) fails the test.
      EXPECT_THROW(parse_message(b, ctx), ByteError)
          << m.kind.str() << " truncated to " << cut << " bytes";
    }
  }
}

TEST(Wire, EverySingleByteCorruptionRejectsOrParsesCleanly) {
  const auto members = roster();
  const WireContext ctx = roster_ctx(members);
  // A corrupted byte may still yield a structurally valid message (e.g. a
  // flipped bit inside a mac); the invariant is no UB and no partial
  // state — it either throws ByteError or returns a message that
  // re-serializes within the same context.
  for (const Message& m : corpus()) {
    const Bytes buf = serialize_message(m, ctx);
    for (std::size_t i = 0; i < buf.size(); ++i) {
      for (std::uint8_t mask : {0x01, 0x80, 0xff}) {
        Bytes b = buf;
        b[i] ^= mask;
        try {
          const Message parsed = parse_message(b, ctx);
          const Bytes re = serialize_message(parsed, ctx);
          EXPECT_FALSE(re.empty());
        } catch (const ByteError&) {
          // clean rejection
        }
      }
    }
  }
}

TEST(Wire, RandomGarbageNeverParsesAsUB) {
  // Deterministic xorshift garbage: every outcome must be ByteError or a
  // valid message (with 0x4d504358 magic required, almost always the
  // former).
  std::uint64_t state = 0x243f6a8885a308d3ULL;
  auto next = [&] {
    state ^= state << 13;
    state ^= state >> 7;
    state ^= state << 17;
    return state;
  };
  for (int round = 0; round < 2000; ++round) {
    const std::size_t len = next() % 256;
    Bytes b(len);
    for (auto& byte : b) byte = static_cast<std::uint8_t>(next());
    try {
      (void)parse_message(b);
    } catch (const ByteError&) {
    }
  }
}

// ---------------------------------------------------------------- framing

TEST(Wire, StreamFramingReassemblesAcrossArbitrarySplits) {
  const auto members = roster();
  const WireContext ctx = roster_ctx(members);
  const auto msgs = corpus();
  Bytes stream;
  for (const Message& m : msgs) {
    const Bytes payload = serialize_message(m, ctx);
    append_stream_frame(stream, payload.data(), payload.size());
  }
  // Feed the stream one byte at a time; the frame count and contents must
  // be independent of the split points.
  Bytes rx;
  std::size_t parsed = 0;
  for (std::uint8_t byte : stream) {
    rx.push_back(byte);
    std::size_t off = 0;
    std::span<const std::uint8_t> frame;
    while (extract_stream_frame(rx, off, frame)) {
      const Message m = parse_message(frame.data(), frame.size(), ctx);
      EXPECT_EQ(m.kind, msgs[parsed].kind);
      ++parsed;
    }
    rx.erase(rx.begin(), rx.begin() + static_cast<std::ptrdiff_t>(off));
  }
  EXPECT_EQ(parsed, msgs.size());
  EXPECT_TRUE(rx.empty());
}

TEST(Wire, StreamFramingDrainsAWholeBufferWithoutConsumingIt) {
  // Three frames plus the first byte of a fourth: every whole frame comes
  // out in order as a view into the buffer, the offset stops at the partial
  // one, and the buffer itself is left untouched for the caller to compact.
  const Bytes payloads[] = {{1}, {2, 3}, {}};
  Bytes stream;
  for (const Bytes& p : payloads) {
    append_stream_frame(stream, p.data(), p.size());
  }
  stream.push_back(3);  // first byte of a fourth frame's length prefix
  const Bytes before = stream;
  std::size_t off = 0;
  std::span<const std::uint8_t> frame;
  for (int i = 0; i < 3; ++i) {
    ASSERT_TRUE(extract_stream_frame(stream, off, frame));
    EXPECT_EQ(Bytes(frame.begin(), frame.end()), payloads[i]);
    EXPECT_GE(frame.data(), stream.data());
    EXPECT_LE(frame.data() + frame.size(), stream.data() + off);
  }
  EXPECT_FALSE(extract_stream_frame(stream, off, frame));
  EXPECT_EQ(off, stream.size() - 1);
  EXPECT_EQ(stream, before);
}

TEST(Wire, StreamFramingRejectsOversizeAnnouncement) {
  Bytes rx = {0xff, 0xff, 0xff, 0x7f};  // announces a ~2 GiB frame
  std::size_t off = 0;
  std::span<const std::uint8_t> frame;
  EXPECT_THROW(extract_stream_frame(rx, off, frame), ByteError);
}

// ----------------------------------------------------------- golden bytes
//
// The byte-identity oracle: frames captured from the encoder and pinned as
// hex. Each must serialize to exactly its bytes and parse back to its
// value. A diff here is a wire-format change, never a refactor.

std::string hex_of(const Bytes& bytes) {
  static const char kDigits[] = "0123456789abcdef";
  std::string out;
  for (const std::uint8_t b : bytes) {
    out.push_back(kDigits[b >> 4]);
    out.push_back(kDigits[b & 0xf]);
  }
  return out;
}

Bytes from_hex(std::string_view hex) {
  Bytes out;
  for (std::size_t i = 0; i + 1 < hex.size(); i += 2) {
    out.push_back(static_cast<std::uint8_t>(
        std::stoul(std::string(hex.substr(i, 2)), nullptr, 16)));
  }
  return out;
}

void expect_certs_equal(const crypto::Certificate& a,
                        const crypto::Certificate& b) {
  EXPECT_EQ(a.kind, b.kind);
  EXPECT_EQ(a.deal_id, b.deal_id);
  EXPECT_EQ(a.issuer, b.issuer);
  EXPECT_EQ(a.signature, b.signature);
  EXPECT_EQ(a.quorum, b.quorum);
  EXPECT_EQ(a.embedded_payment_sig, b.embedded_payment_sig);
  EXPECT_EQ(a.embedded_payment_issuer, b.embedded_payment_issuer);
}

struct GoldenFrame {
  const char* name;
  std::size_t corpus_index;  // into corpus()
  bool roster;               // serialize with the roster context
  const char* hex;
};

// One frame per WireBody; the decision certificate in both quorum forms.
const GoldenFrame kGoldenFrames[] = {
    {"claim (no body)", 0, false,
     "5843504d010000000c000000070000002a000000efcdab8967452301"},
    {"PromiseG", 1, false,
     "5843504d0100000001010000070000002a000000efcdab8967452301ffffffff"
     "ffffffffffffffffffffffffd6ffffffffffffff0300"},
    {"PromiseP", 2, false,
     "5843504d0100000002020000070000002a000000efcdab89674523010d000000"
     "0000000000a493d60000000040420f00000000000100"},
    {"MoneyMsg", 3, false,
     "5843504d0100000003030000070000002a000000efcdab89674523010d000000"
     "00000000fecaefbeadde000005000000000000000000"},
    {"CertMsg", 4, false,
     "5843504d0100000004040000070000002a000000efcdab8967452301000d0000"
     "00000000000200000002000000e4202aa81ee74a4900000000"},
    {"ReportMsg", 6, false,
     "5843504d0100000008050000070000002a000000efcdab896745230108006573"
     "63726f7765640d00000000000000040000004d00000000000000040000007c1d"
     "33ebfe21aac7"},
    {"ProposalMsg", 7, false,
     "5843504d010000000e060000070000002a000000efcdab89674523010d000000"
     "00000000030000000002000800657363726f7765640d00000000000000040000"
     "0000000000000000000400000052305a8f9ccb5d9f0800657363726f7765640d"
     "000000000000000500000000000000000000000500000005b5c845d4f440b701"
     "000d000000000000000200000002000000e4202aa81ee74a4900000000150000"
     "00d5fb99e48cd7abc2"},
    {"VoteMsg", 8, false,
     "5843504d010000000f070000070000002a000000efcdab89674523010d000000"
     "00000000000000000101160000006fe27c5d691a4fd1"},
    {"NewRoundMsg", 9, false,
     "5843504d0100000010080000070000002a000000efcdab89674523010d000000"
     "0000000005000000010002000000"},
    {"DecisionMsg bitmap", 11, true,
     "5843504d0100000009090000070000002a000000efcdab8967452301010d0000"
     "0000000000cdc62d00ffffffff0000000000000000010200000002000000e420"
     "2aa81ee74a4901070000000000000075dcfba00cface8e8e8b96ee45c2bbb7b3"
     "bec394273a02f4"},
    {"DecisionMsg explicit", 11, false,
     "5843504d0100000009090000070000002a000000efcdab8967452301010d0000"
     "0000000000cdc62d00ffffffff0000000000000000010200000002000000e420"
     "2aa81ee74a490003001500000075dcfba00cface8e160000008e8b96ee45c2bb"
     "b717000000b3bec394273a02f4"},
    {"TxMsg", 13, true,
     "5843504d01000000050a0000070000002a000000efcdab896745230103000000"
     "0800657363726f775f3107006465706f7369740d00000000000000f401000000"
     "00000001010d00000000000000cdc62d00ffffffff0000000000000000010200"
     "000002000000e4202aa81ee74a4901070000000000000075dcfba00cface8e8e"
     "8b96ee45c2bbb7b3bec394273a02f403000000154bdfaa8d1fb6d3"},
    {"ChainEventMsg", 14, true,
     "5843504d01000000060b0000070000002a000000efcdab896745230108006573"
     "63726f775f31060066756e646564df0300000000000001020d00000000000000"
     "cdc62d00ffffffff000000000000000000010700000000000000e2d91c0c8730"
     "8475002b00e7808433fcd615bd20ee05967d1c006465616c2031332066756e64"
     "65642061742068656967687420393931"},
};

TEST(WireGolden, EveryBodyTypeSerializesToItsBytesAndParsesBack) {
  const auto members = roster();
  const auto msgs = corpus();
  std::vector<bool> body_seen(12, false);
  for (const GoldenFrame& g : kGoldenFrames) {
    const WireContext ctx = g.roster ? roster_ctx(members) : WireContext{};
    const Message& m = msgs[g.corpus_index];
    EXPECT_EQ(hex_of(serialize_message(m, ctx)), g.hex) << g.name;
    const Bytes golden = from_hex(g.hex);
    ASSERT_GT(golden.size(), 9u) << g.name;
    body_seen.at(golden[9]) = true;
    // Bodies have no operator==: every field is encoded, so a parse that
    // re-serializes to the golden bytes carries the original value.
    const Message parsed = parse_message(golden, ctx);
    EXPECT_EQ(parsed.id, m.id) << g.name;
    EXPECT_EQ(parsed.from, m.from) << g.name;
    EXPECT_EQ(parsed.to, m.to) << g.name;
    EXPECT_EQ(parsed.kind, m.kind) << g.name;
    EXPECT_EQ(hex_of(serialize_message(parsed, ctx)), g.hex) << g.name;
  }
  for (std::size_t tag = 0; tag < body_seen.size(); ++tag) {
    EXPECT_TRUE(body_seen[tag]) << "no golden for body tag " << tag;
  }
}

TEST(WireGolden, ControlFramesSerializeToTheirBytesAndParseBack) {
  struct Golden {
    ControlFrame frame;
    const char* hex;
  };
  const Golden goldens[] = {
      {{WireKind::kHello, 3, hello_status_word(2, true)},
       "5843504d01000000f000000003000000000000000201000000000000"},
      {{WireKind::kHeartbeat, 7, 0},
       "5843504d01000000f100000007000000000000000000000000000000"},
      {{WireKind::kCatchUp, 13, hello_status_word(1, false)},
       "5843504d01000000f20000000d000000000000000100000000000000"},
  };
  for (const Golden& g : goldens) {
    Bytes out;
    serialize_control(g.frame, out);
    EXPECT_EQ(hex_of(out), g.hex);
    const ControlFrame back = parse_control(from_hex(g.hex));
    EXPECT_EQ(back.kind, g.frame.kind);
    EXPECT_EQ(back.a, g.frame.a);
    EXPECT_EQ(back.b, g.frame.b);
  }
}

TEST(WireGolden, StandaloneCertificateAndStreamFrame) {
  const auto members = roster();
  const crypto::Certificate cert = quorum_cert(true);
  const char* const kBitmap =
      "5843504d01000000010d00000000000000cdc62d00ffffffff00000000000000"
      "00010200000002000000e4202aa81ee74a4901070000000000000075dcfba00c"
      "face8e8e8b96ee45c2bbb7b3bec394273a02f4";
  const char* const kExplicit =
      "5843504d01000000010d00000000000000cdc62d00ffffffff00000000000000"
      "00010200000002000000e4202aa81ee74a490003001500000075dcfba00cface"
      "8e160000008e8b96ee45c2bbb717000000b3bec394273a02f4";
  EXPECT_EQ(hex_of(serialize_certificate(cert, roster_ctx(members))), kBitmap);
  EXPECT_EQ(hex_of(serialize_certificate(cert)), kExplicit);
  expect_certs_equal(parse_certificate(from_hex(kBitmap), roster_ctx(members)),
                     cert);
  expect_certs_equal(parse_certificate(from_hex(kExplicit)), cert);

  ControlFrame hb;
  hb.kind = WireKind::kHeartbeat;
  hb.a = 7;
  Bytes payload;
  serialize_control(hb, payload);
  Bytes stream;
  append_stream_frame(stream, payload.data(), payload.size());
  const char* const kStream =
      "1c0000005843504d01000000f100000007000000000000000000000000000000";
  EXPECT_EQ(hex_of(stream), kStream);
  const Bytes golden = from_hex(kStream);
  std::size_t off = 0;
  std::span<const std::uint8_t> frame;
  ASSERT_TRUE(extract_stream_frame(golden, off, frame));
  EXPECT_EQ(off, golden.size());
  EXPECT_EQ(Bytes(frame.begin(), frame.end()), payload);
}

}  // namespace
}  // namespace xcp::net
