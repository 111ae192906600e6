#include "exp/shard.hpp"

#include <algorithm>
#include <cstdlib>
#include <utility>

#if !defined(_WIN32)
#include <unistd.h>
#endif

#include "support/status.hpp"

namespace xcp::exp {

namespace {

// v1 field tags. 1..7 are the CellAccum fields (all required, written in
// tag order); kTagMeta appears only in shard-envelope blobs. A future v2
// allocates new tags and widens the required set per version.
enum : std::uint16_t {
  kTagSafety = 1,
  kTagTermination = 2,
  kTagLiveness = 3,
  kTagEarlyStops = 4,
  kTagDecidedAt = 5,
  kTagEvents = 6,
  kTagExamples = 7,
  kTagMeta = 8,
};
constexpr std::uint16_t kLastAccumTag = kTagExamples;

// ------------------------------------------------------------ LE writing

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
  put_u64(out, static_cast<std::uint64_t>(v));  // two's complement LE
}

/// Opens a { tag, length, payload } frame; length is backpatched on close
/// so payload writers never pre-compute sizes.
std::size_t begin_frame(std::vector<std::uint8_t>& out, std::uint16_t tag) {
  put_u16(out, tag);
  const std::size_t len_at = out.size();
  put_u32(out, 0);
  return len_at;
}

void end_frame(std::vector<std::uint8_t>& out, std::size_t len_at) {
  const std::size_t len = out.size() - (len_at + 4);
  XCP_REQUIRE(len <= 0xffffffffu, "wire frame too large");
  for (int i = 0; i < 4; ++i) {
    out[len_at + static_cast<std::size_t>(i)] =
        static_cast<std::uint8_t>(len >> (8 * i));
  }
}

void put_u64_frame(std::vector<std::uint8_t>& out, std::uint16_t tag,
                   std::uint64_t v) {
  const std::size_t at = begin_frame(out, tag);
  put_u64(out, v);
  end_frame(out, at);
}

// ------------------------------------------------------------ LE reading

/// Bounds-checked cursor over an untrusted blob: every read throws
/// WireError instead of walking off the end, so truncation is always a
/// clean rejection. Errors carry the absolute byte offset into the blob
/// (base_off threads through nested per-frame readers) plus the frame
/// context — the same diagnostic shape as net::wire's Reader.
struct Reader {
  const std::uint8_t* base;
  const std::uint8_t* p;
  std::size_t left;
  std::string what;  // context for error messages
  std::size_t base_off = 0;  // absolute offset of `base` within the blob

  std::size_t offset() const {
    return base_off + static_cast<std::size_t>(p - base);
  }
  [[noreturn]] void fail(const std::string& msg) const {
    throw WireError(what + ": " + msg + " at offset " +
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
    const std::uint8_t v = p[0];
    p += 1;
    left -= 1;
    return v;
  }
  std::uint16_t u16() {
    need(2);
    const std::uint16_t v = static_cast<std::uint16_t>(
        p[0] | (static_cast<std::uint16_t>(p[1]) << 8));
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
  std::string bytes(std::size_t n) {
    need(n);
    std::string s(reinterpret_cast<const char*>(p), n);
    p += n;
    left -= n;
    return s;
  }
};

void put_accum_fields(std::vector<std::uint8_t>& out,
                            const CellAccum& acc) {
  put_u64_frame(out, kTagSafety, acc.safety_violations);
  put_u64_frame(out, kTagTermination, acc.termination_failures);
  put_u64_frame(out, kTagLiveness, acc.liveness_failures);
  put_u64_frame(out, kTagEarlyStops, acc.early_stops);
  {
    const std::size_t at = begin_frame(out, kTagDecidedAt);
    put_i64(out, acc.decided_at_total.count());
    end_frame(out, at);
  }
  put_u64_frame(out, kTagEvents, acc.events_total);
  {
    const std::size_t at = begin_frame(out, kTagExamples);
    XCP_REQUIRE(acc.examples.size() <= 0xffffffffu, "example list too large");
    put_u32(out, static_cast<std::uint32_t>(acc.examples.size()));
    for (const CellAccum::Example& ex : acc.examples) {
      put_u64(out, ex.seed);
      put_u32(out, ex.ordinal);
      XCP_REQUIRE(ex.text.size() <= 0xffffffffu, "example text too large");
      put_u32(out, static_cast<std::uint32_t>(ex.text.size()));
      out.insert(out.end(), ex.text.begin(), ex.text.end());
    }
    end_frame(out, at);
  }
}

void put_header(std::vector<std::uint8_t>& out) {
  put_u32(out, kWireMagic);
  put_u16(out, kWireVersion);
  put_u16(out, 0);  // reserved, must be zero
}

/// Shared frame-walking parser. `want_meta` selects the envelope layout:
/// the meta frame is required there and rejected in bare accum blobs.
ShardBlob parse_blob(const std::uint8_t* data, std::size_t size,
                     bool want_meta) {
  Reader r{data, data, size, want_meta ? "shard blob" : "accum blob"};
  if (r.u32() != kWireMagic) r.fail("bad magic");
  const std::uint16_t version = r.u16();
  if (version > kWireVersion) {
    r.fail("payload version " + std::to_string(version) +
           " newer than reader (max " + std::to_string(kWireVersion) + ")");
  }
  if (version < kWireMinVersion) {
    r.fail("payload version " + std::to_string(version) +
           " older than supported minimum " +
           std::to_string(kWireMinVersion));
  }
  if (r.u16() != 0) r.fail("nonzero reserved header field");

  ShardBlob out;
  std::uint32_t seen = 0;
  while (r.left != 0) {
    const std::size_t frame_at = r.offset();
    const std::uint16_t tag = r.u16();
    const std::uint32_t len = r.u32();
    r.need(len);
    if (tag == 0 || tag > kTagMeta || (tag == kTagMeta && !want_meta)) {
      throw WireError("unknown field tag " + std::to_string(tag) +
                          " in version " + std::to_string(version) +
                          " blob at offset " + std::to_string(frame_at),
                      frame_at);
    }
    if (seen & (1u << tag)) {
      throw WireError("duplicate field tag " + std::to_string(tag) +
                          " at offset " + std::to_string(frame_at),
                      frame_at);
    }
    seen |= 1u << tag;
    // A nested reader bounded by the frame keeps a corrupt length from
    // letting a field read its neighbour's bytes; its offsets stay
    // absolute via base_off so diagnostics point into the whole blob.
    Reader f{r.p, r.p, len, "field tag " + std::to_string(tag), r.offset()};
    r.p += len;
    r.left -= len;
    switch (tag) {
      case kTagSafety: out.accum.safety_violations = f.u64(); break;
      case kTagTermination: out.accum.termination_failures = f.u64(); break;
      case kTagLiveness: out.accum.liveness_failures = f.u64(); break;
      case kTagEarlyStops: out.accum.early_stops = f.u64(); break;
      case kTagDecidedAt:
        out.accum.decided_at_total = Duration::micros(f.i64());
        break;
      case kTagEvents: out.accum.events_total = f.u64(); break;
      case kTagExamples: {
        const std::uint32_t count = f.u32();
        // Enforce CellAccum's list invariant at the trust boundary:
        // merge()'s two-pointer example merge relies on a sorted, capped
        // list, so a blob that violates it would be silently
        // misinterpreted downstream rather than rejected here.
        if (count > CellAccum::kMaxExamples) {
          f.fail("example count " + std::to_string(count) +
                 " exceeds the accumulator cap of " +
                 std::to_string(CellAccum::kMaxExamples));
        }
        out.accum.examples.reserve(count);
        for (std::uint32_t i = 0; i < count; ++i) {
          CellAccum::Example ex;
          ex.seed = f.u64();
          ex.ordinal = f.u32();
          const std::uint32_t text_len = f.u32();
          ex.text = f.bytes(text_len);
          if (!out.accum.examples.empty()) {
            const CellAccum::Example& prev = out.accum.examples.back();
            if (std::pair(prev.seed, prev.ordinal) >=
                std::pair(ex.seed, ex.ordinal)) {
              f.fail("example list not strictly ordered by (seed, ordinal)");
            }
          }
          out.accum.examples.push_back(std::move(ex));
        }
        break;
      }
      case kTagMeta: {
        const std::uint32_t protocol = f.u32();
        const std::uint32_t regime = f.u32();
        if (protocol > static_cast<std::uint32_t>(
                           ProtocolKind::kWeakCommittee)) {
          f.fail("meta protocol ordinal out of range");
        }
        if (regime > static_cast<std::uint32_t>(
                         Regime::kPartialSynchronyAdversarial)) {
          f.fail("meta regime ordinal out of range");
        }
        out.meta.protocol = static_cast<ProtocolKind>(protocol);
        out.meta.regime = static_cast<Regime>(regime);
        out.meta.n = static_cast<std::int32_t>(f.u32());
        out.meta.first_seed = f.u64();
        out.meta.seed_count = f.u64();
        out.meta.online = f.u8() != 0;
        out.meta.early_stop = f.u8() != 0;
        break;
      }
      default:
        // The range guard above already rejected out-of-range tags;
        // if an enumerator is added without a case here, fail loudly
        // instead of silently dropping the field's bytes.
        f.fail("unhandled field tag " + std::to_string(tag));
    }
    if (f.left != 0) {
      f.fail("frame has " + std::to_string(f.left) + " trailing byte(s)");
    }
  }
  for (std::uint16_t tag = 1; tag <= kLastAccumTag; ++tag) {
    if (!(seen & (1u << tag))) {
      r.fail("missing required field tag " + std::to_string(tag));
    }
  }
  if (want_meta && !(seen & (1u << kTagMeta))) {
    r.fail("missing shard meta field");
  }
  return out;
}

}  // namespace

std::vector<std::uint8_t> serialize_cell_accum(const CellAccum& acc) {
  std::vector<std::uint8_t> out;
  put_header(out);
  put_accum_fields(out, acc);
  return out;
}

CellAccum parse_cell_accum(const std::uint8_t* data, std::size_t size) {
  return parse_blob(data, size, /*want_meta=*/false).accum;
}

std::vector<std::uint8_t> serialize_shard_blob(const ShardMeta& meta,
                                               const CellAccum& acc) {
  std::vector<std::uint8_t> out;
  put_header(out);
  {
    const std::size_t at = begin_frame(out, kTagMeta);
    put_u32(out, static_cast<std::uint32_t>(meta.protocol));
    put_u32(out, static_cast<std::uint32_t>(meta.regime));
    put_u32(out, static_cast<std::uint32_t>(meta.n));
    put_u64(out, meta.first_seed);
    put_u64(out, meta.seed_count);
    put_u8(out, meta.online ? 1 : 0);
    put_u8(out, meta.early_stop ? 1 : 0);
    end_frame(out, at);
  }
  put_accum_fields(out, acc);
  return out;
}

ShardBlob parse_shard_blob(const std::uint8_t* data, std::size_t size) {
  return parse_blob(data, size, /*want_meta=*/true);
}

const char* protocol_token(ProtocolKind k) {
  switch (k) {
    case ProtocolKind::kTimeBounded: return "time-bounded";
    case ProtocolKind::kUniversalNaive: return "universal-naive";
    case ProtocolKind::kInterledgerAtomic: return "interledger-atomic";
    case ProtocolKind::kWeakTrusted: return "weak-trusted";
    case ProtocolKind::kWeakContract: return "weak-contract";
    case ProtocolKind::kWeakCommittee: return "weak-committee";
  }
  return "?";
}

const char* regime_token(Regime r) {
  switch (r) {
    case Regime::kSynchronyConforming: return "synchrony";
    case Regime::kSynchronyHighDrift: return "synchrony-drift";
    case Regime::kPartialSynchrony: return "partial-synchrony";
    case Regime::kPartialSynchronyAdversarial: return "partial-adversary";
  }
  return "?";
}

bool parse_protocol_token(const std::string& token, ProtocolKind& out) {
  for (const ProtocolKind k :
       {ProtocolKind::kTimeBounded, ProtocolKind::kUniversalNaive,
        ProtocolKind::kInterledgerAtomic, ProtocolKind::kWeakTrusted,
        ProtocolKind::kWeakContract, ProtocolKind::kWeakCommittee}) {
    if (token == protocol_token(k)) {
      out = k;
      return true;
    }
  }
  return false;
}

bool parse_regime_token(const std::string& token, Regime& out) {
  for (const Regime r :
       {Regime::kSynchronyConforming, Regime::kSynchronyHighDrift,
        Regime::kPartialSynchrony, Regime::kPartialSynchronyAdversarial}) {
    if (token == regime_token(r)) {
      out = r;
      return true;
    }
  }
  return false;
}

std::string default_worker_path() {
#if !defined(_WIN32)
  if (const char* env = std::getenv("XCP_SWEEP_SHARD_BIN")) {
    // An explicitly-set path that is unusable is a configuration error:
    // falling through would silently degrade CI's transport checks to
    // in-process shards (or a skip) while staying green.
    if (access(env, X_OK) != 0) {
      throw std::runtime_error(
          std::string("XCP_SWEEP_SHARD_BIN is set but not executable: ") +
          env);
    }
    return env;
  }
  const char* local = "./xcp_sweep_shard";
  if (access(local, X_OK) == 0) return local;
#endif
  return {};
}

std::vector<ShardRange> plan_shards(std::uint64_t first_seed,
                                    std::size_t seeds, unsigned shards) {
  XCP_REQUIRE(shards > 0, "plan_shards needs at least one shard");
  std::vector<ShardRange> out;
  out.reserve(shards);
  const std::uint64_t base = seeds / shards;
  const std::uint64_t extra = seeds % shards;
  std::uint64_t next = first_seed;
  for (unsigned i = 0; i < shards; ++i) {
    const std::uint64_t count = base + (i < extra ? 1 : 0);
    out.push_back(ShardRange{next, count});
    next += count;
  }
  return out;
}

}  // namespace xcp::exp
