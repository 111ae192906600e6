#pragma once
// Versioned, endianness-stable binary wire format for every protocol
// message, so the same protocol actors can run over real sockets in
// separate processes as well as in-sim (net/transport.hpp is the seam).
//
// Layout follows the production-consensus idiom (fixed-width little-endian
// fields, uint8 message-type enums, versioned headers, participation
// bitmaps for quorum certificates) on the shared byte codec
// (support/bytes.hpp), which the journal uses too.
// Design rules:
//
//  - Every multi-byte integer is little-endian at a fixed width.
//  - A frame starts with the codec header: magic "XCPM", u16 version, u16
//    flags (must be 0).
//  - The message kind is a uint8 `WireKind` sharing the `net::MsgKind` id
//    space (bijective with the well-known kinds; ad-hoc kinds are not
//    wire-addressable by design — the wire surface is the protocol, not
//    arbitrary trace tags).
//  - Quorum certificates encode their signers as a committee participation
//    bitmap (u64, indexed by roster position) when a roster is supplied in
//    the WireContext and every signer is a member; otherwise an explicit
//    (signer, mac) list. Both forms parse with either context.
//  - Parsers are total and defensive: truncated, corrupt, over-long,
//    version-bumped, unknown-tag and trailing-byte input all raise
//    support::ByteError (with the byte offset and what was being decoded)
//    — never UB, never partially-applied state.
//
// docs/WIRE.md carries the full grammar, versioning rules and rejection
// taxonomy.

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "crypto/certificate.hpp"
#include "net/message.hpp"
#include "support/bytes.hpp"

namespace xcp::consensus {
enum class Value : std::uint8_t;
}

namespace xcp::net {

// --------------------------------------------------------------- constants

inline constexpr std::uint32_t kWireMagic = 0x4d504358u;  // "XCPM" LE
inline constexpr std::uint16_t kWireVersion = 1;
/// Oldest version this parser still accepts.
inline constexpr std::uint16_t kWireMinVersion = 1;

/// Hard cap on any single frame; parsers and the stream framer both
/// enforce it (a hostile peer cannot make us buffer unbounded input).
inline constexpr std::size_t kMaxWireFrame = std::size_t{1} << 20;  // 1 MiB

// ------------------------------------------------------------------- kinds

/// uint8 message-kind tags, bijective with the well-known net::MsgKind
/// values (net/msg_kind.hpp). Values are wire ABI: never renumber, only
/// append. 0 is reserved invalid; >= kControlBase are transport-internal
/// control frames that never carry a protocol body.
enum class WireKind : std::uint8_t {
  kInvalid = 0,
  kPromiseG = 1,     // "G"
  kPromiseP = 2,     // "P"
  kMoney = 3,        // "$"
  kChi = 4,          // "chi"
  kTx = 5,           // "tx"
  kChainEvent = 6,   // "chain_event"
  kTmChi = 7,        // "tm_chi"
  kTmReport = 8,     // "tm_report"
  kTmCert = 9,       // "tm_cert"
  kDeposit = 10,     // "deposit"
  kFunded = 11,      // "funded"
  kClaim = 12,       // "claim"
  kProof = 13,       // "proof"
  kBftProposal = 14, // "bft_proposal"
  kBftVote = 15,     // "bft_vote"
  kBftNewRound = 16, // "bft_newround"
  kBftDecision = 17, // "bft_decision"
  // -- transport control (socket_transport.cpp), no protocol body --
  kHello = 240,      // peer handshake: a = node id, b = status word (the
                     // sender's protocol state; 0 from peers that
                     // predate crash recovery — see docs/WIRE.md)
  kHeartbeat = 241,  // liveness beacon: a = sequence number
  kCatchUp = 242,    // state-transfer request from a rejoining node:
                     // a = consensus instance (deal id), b = requester's
                     // status word; the receiver answers with protocol
                     // frames (decision certificates), not a control reply
};

inline constexpr std::uint8_t kControlBase = 240;

// Hello / CatchUp status word (control field `b`): bits 0-7 hold the
// sender's protocol tier — 0 fresh, 1 voted (journal holds a prevote or
// precommit; journaled notaries only), 2 decided (every node: a notary on
// deciding, the client once it has certified; a node exits once every
// peer has announced 2, --linger-ms capping the wait) — and bit 8 marks a
// node that restored state from its journal this life. Peers that predate
// crash recovery send 0, which decodes as a fresh, non-recovered node;
// upper bits are reserved and must be ignored on read. See docs/WIRE.md.
inline constexpr std::uint64_t kHelloStatusRecovered = std::uint64_t{1} << 8;

inline constexpr std::uint64_t hello_status_word(std::uint32_t tier,
                                                 bool recovered) {
  return (tier & 0xffu) | (recovered ? kHelloStatusRecovered : 0);
}
inline constexpr std::uint32_t hello_status_tier(std::uint64_t word) {
  return static_cast<std::uint32_t>(word & 0xffu);
}
inline constexpr bool hello_status_recovered(std::uint64_t word) {
  return (word & kHelloStatusRecovered) != 0;
}

/// uint8 body-type tags. A frame's body tag is independent of its kind tag
/// (the same body type travels under several kinds, e.g. CertMsg under
/// "chi", "tm_chi" and "tm_cert"). 0 = no body. Values are wire ABI.
enum class WireBody : std::uint8_t {
  kNone = 0,
  kPromiseG = 1,
  kPromiseP = 2,
  kMoney = 3,
  kCert = 4,
  kReport = 5,
  kProposal = 6,
  kVote = 7,
  kNewRound = 8,
  kDecision = 9,
  kTx = 10,
  kChainEvent = 11,
};

/// Maps a MsgKind to its wire tag; WireKind::kInvalid when the kind has no
/// wire representation (ad-hoc trace tags).
WireKind wire_kind_of(MsgKind kind);

/// Maps a wire tag back to the interned MsgKind. Throws ByteError for
/// invalid/unknown/control tags (control frames are not protocol messages).
MsgKind msg_kind_of(WireKind w, std::size_t offset = 0);

// ----------------------------------------------------------------- context

/// Optional committee roster context. When present (and the roster has at
/// most 64 members, the bitmap width), quorum certificates whose signers
/// are all roster members serialize as a participation bitmap + macs in
/// roster order; parsing a bitmap-form certificate requires the same
/// roster. Both sides of a deployment derive the roster from the same
/// deal configuration, so the forms interoperate by construction.
struct WireContext {
  const std::vector<sim::ProcessId>* roster = nullptr;
};

// --------------------------------------------------------------- messages

/// Serializes a protocol message (header + body) into `out` (appended).
/// Throws ByteError if the message kind has no wire tag or the body type
/// is not serializable.
void serialize_message(const Message& m, std::vector<std::uint8_t>& out,
                       const WireContext& ctx = {});
std::vector<std::uint8_t> serialize_message(const Message& m,
                                            const WireContext& ctx = {});

/// Parses one complete frame. Rejects control frames (they are transport
/// internals); every malformed input throws ByteError. The returned
/// message's id is the sender's id (transports re-stamp on injection).
Message parse_message(const std::uint8_t* data, std::size_t size,
                      const WireContext& ctx = {});
inline Message parse_message(const std::vector<std::uint8_t>& buf,
                             const WireContext& ctx = {}) {
  return parse_message(buf.data(), buf.size(), ctx);
}

// ---------------------------------------------------------------- control

/// A transport-internal control frame (hello / heartbeat).
struct ControlFrame {
  WireKind kind = WireKind::kInvalid;
  std::uint64_t a = 0;
  std::uint64_t b = 0;
};

void serialize_control(const ControlFrame& f, std::vector<std::uint8_t>& out);

/// Decodes a frame that must be a control frame (the inverse of
/// serialize_control); throws ByteError when the bytes carry a protocol
/// message instead. Transport code that accepts either uses parse_frame.
ControlFrame parse_control(const std::uint8_t* data, std::size_t size);
inline ControlFrame parse_control(const std::vector<std::uint8_t>& buf) {
  return parse_control(buf.data(), buf.size());
}

/// Result of parsing an arbitrary inbound frame: exactly one of `control`
/// (kind != kInvalid) or `message` is meaningful.
struct ParsedFrame {
  ControlFrame control;  // control.kind == kInvalid => protocol message
  Message message;
  bool is_control() const { return control.kind != WireKind::kInvalid; }
};

ParsedFrame parse_frame(const std::uint8_t* data, std::size_t size,
                        const WireContext& ctx = {});

// ----------------------------------------------------------- certificates

/// Standalone certificate blob (same encoding as embedded in messages,
/// with the versioned header). Used by tools to export/verify decisions.
std::vector<std::uint8_t> serialize_certificate(const crypto::Certificate& c,
                                                const WireContext& ctx = {});
crypto::Certificate parse_certificate(const std::uint8_t* data,
                                      std::size_t size,
                                      const WireContext& ctx = {});
inline crypto::Certificate parse_certificate(
    const std::vector<std::uint8_t>& buf, const WireContext& ctx = {}) {
  return parse_certificate(buf.data(), buf.size(), ctx);
}

// ----------------------------------------------------- shared field readers

/// A decision value byte: 0 commit, 1 abort, anything else a ByteError.
/// The journal reads its records' values through this too.
consensus::Value get_value(support::ByteReader& r);

/// A round number; a negative one is a ByteError naming `field`.
std::int32_t get_round(support::ByteReader& r, const char* field);

// ----------------------------------------------------------------- framing

/// Appends a length-prefixed frame (u32 LE length, then payload) to a
/// stream buffer. Throws ByteError if payload exceeds kMaxWireFrame.
void append_stream_frame(std::vector<std::uint8_t>& stream,
                         const std::uint8_t* payload, std::size_t size);

/// Finds the next complete frame in stream[offset, stream.size()): points
/// `frame` at its payload (a view into `stream`) and advances `offset` past
/// it. Returns false when only a partial frame remains. Nothing is erased,
/// so a reader drains every whole frame and then drops the consumed prefix
/// [0, offset) once. Throws ByteError when the announced length exceeds
/// `max_frame` (stream is poisoned; callers drop the connection).
bool extract_stream_frame(std::span<const std::uint8_t> stream,
                          std::size_t& offset,
                          std::span<const std::uint8_t>& frame,
                          std::size_t max_frame = kMaxWireFrame);

}  // namespace xcp::net
