#include "exp/shard.hpp"

#include <algorithm>
#include <cstdlib>
#include <span>
#include <utility>

#if !defined(_WIN32)
#include <unistd.h>
#endif

#include "support/bytes.hpp"
#include "support/status.hpp"

namespace xcp::exp {

namespace {

using support::ByteReader;
using support::ByteWriter;

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

void put_u64_frame(ByteWriter& w, std::uint16_t tag, std::uint64_t v) {
  const std::size_t at = w.begin_frame(tag);
  w.u64(v);
  w.end_frame(at);
}

void put_accum_fields(ByteWriter& w, const CellAccum& acc) {
  put_u64_frame(w, kTagSafety, acc.safety_violations);
  put_u64_frame(w, kTagTermination, acc.termination_failures);
  put_u64_frame(w, kTagLiveness, acc.liveness_failures);
  put_u64_frame(w, kTagEarlyStops, acc.early_stops);
  {
    const std::size_t at = w.begin_frame(kTagDecidedAt);
    w.i64(acc.decided_at_total.count());
    w.end_frame(at);
  }
  put_u64_frame(w, kTagEvents, acc.events_total);
  {
    const std::size_t at = w.begin_frame(kTagExamples);
    XCP_REQUIRE(acc.examples.size() <= 0xffffffffu, "example list too large");
    w.u32(static_cast<std::uint32_t>(acc.examples.size()));
    for (const CellAccum::Example& ex : acc.examples) {
      w.u64(ex.seed);
      w.u32(ex.ordinal);
      XCP_REQUIRE(ex.text.size() <= 0xffffffffu, "example text too large");
      w.u32(static_cast<std::uint32_t>(ex.text.size()));
      w.bytes(ex.text);
    }
    w.end_frame(at);
  }
}

/// Shared frame-walking parser. `want_meta` selects the envelope layout:
/// the meta frame is required there and rejected in bare accum blobs.
ShardBlob parse_blob(const std::uint8_t* data, std::size_t size,
                     bool want_meta) {
  ByteReader r(data, size, want_meta ? "shard blob" : "accum blob");
  const std::uint16_t version =
      r.header(kWireMagic, kWireMinVersion, kWireVersion);

  ShardBlob out;
  std::uint32_t seen = 0;
  while (r.left() != 0) {
    const std::size_t frame_at = r.offset();
    const std::uint16_t tag = r.u16();
    const std::uint32_t len = r.u32();
    // A nested reader bounded by the frame keeps a corrupt length from
    // letting a field read its neighbour's bytes; its offsets stay
    // absolute, so diagnostics point into the whole blob.
    const std::string context = "field tag " + std::to_string(tag);
    ByteReader f = r.sub(len, context);
    if (tag == 0 || tag > kTagMeta || (tag == kTagMeta && !want_meta)) {
      r.fail_at(frame_at, "unknown field tag " + std::to_string(tag) +
                              " in version " + std::to_string(version) +
                              " blob");
    }
    if (seen & (1u << tag)) {
      r.fail_at(frame_at, "duplicate field tag " + std::to_string(tag));
    }
    seen |= 1u << tag;
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
          const std::span<const std::uint8_t> text = f.bytes(f.u32());
          ex.text.assign(text.begin(), text.end());
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
        out.meta.n = f.i32();
        out.meta.first_seed = f.u64();
        out.meta.seed_count = f.u64();
        out.meta.online = f.flag("online");
        out.meta.early_stop = f.flag("early-stop");
        break;
      }
      default:
        // The range guard above already rejected out-of-range tags;
        // if an enumerator is added without a case here, fail loudly
        // instead of silently dropping the field's bytes.
        f.fail("unhandled field tag " + std::to_string(tag));
    }
    f.expect_consumed();
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
  ByteWriter w(out);
  w.header(kWireMagic, kWireVersion);
  put_accum_fields(w, acc);
  return out;
}

CellAccum parse_cell_accum(const std::uint8_t* data, std::size_t size) {
  return parse_blob(data, size, /*want_meta=*/false).accum;
}

std::vector<std::uint8_t> serialize_shard_blob(const ShardMeta& meta,
                                               const CellAccum& acc) {
  std::vector<std::uint8_t> out;
  ByteWriter w(out);
  w.header(kWireMagic, kWireVersion);
  const std::size_t at = w.begin_frame(kTagMeta);
  w.u32(static_cast<std::uint32_t>(meta.protocol));
  w.u32(static_cast<std::uint32_t>(meta.regime));
  w.i32(meta.n);
  w.u64(meta.first_seed);
  w.u64(meta.seed_count);
  w.u8(meta.online ? 1 : 0);
  w.u8(meta.early_stop ? 1 : 0);
  w.end_frame(at);
  put_accum_fields(w, acc);
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
