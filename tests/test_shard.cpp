// Cross-process sweep sharding tests: the versioned accumulator wire format
// (round-trip, fuzz, corruption rejection) and the differential proof that
// distributed_sweep(K shards) == run_matrix_cell(single process)
// byte-for-byte across the 6x4 theorem matrix for K in {1, 2, 3, 7}.

#include <gtest/gtest.h>

#include <limits>
#include <string>
#include <vector>

#include "exp/dispatch.hpp"
#include "exp/runner.hpp"
#include "exp/shard.hpp"
#include "support/bytes.hpp"
#include "support/rng.hpp"

namespace xcp::exp {
namespace {

using support::ByteError;

const std::vector<ProtocolKind> kAllProtocols{
    ProtocolKind::kUniversalNaive,    ProtocolKind::kTimeBounded,
    ProtocolKind::kInterledgerAtomic, ProtocolKind::kWeakTrusted,
    ProtocolKind::kWeakContract,      ProtocolKind::kWeakCommittee};
const std::vector<Regime> kAllRegimes{
    Regime::kSynchronyConforming, Regime::kSynchronyHighDrift,
    Regime::kPartialSynchrony, Regime::kPartialSynchronyAdversarial};

void expect_accums_identical(const CellAccum& a, const CellAccum& b) {
  EXPECT_EQ(a.safety_violations, b.safety_violations);
  EXPECT_EQ(a.termination_failures, b.termination_failures);
  EXPECT_EQ(a.liveness_failures, b.liveness_failures);
  EXPECT_EQ(a.early_stops, b.early_stops);
  EXPECT_EQ(a.decided_at_total.count(), b.decided_at_total.count());
  EXPECT_EQ(a.events_total, b.events_total);
  ASSERT_EQ(a.examples.size(), b.examples.size());
  for (std::size_t i = 0; i < a.examples.size(); ++i) {
    EXPECT_EQ(a.examples[i].seed, b.examples[i].seed) << i;
    EXPECT_EQ(a.examples[i].ordinal, b.examples[i].ordinal) << i;
    EXPECT_EQ(a.examples[i].text, b.examples[i].text) << i;
  }
}

void expect_cells_identical(const MatrixCell& a, const MatrixCell& b) {
  EXPECT_EQ(a.runs, b.runs);
  EXPECT_EQ(a.safety_violations, b.safety_violations);
  EXPECT_EQ(a.termination_failures, b.termination_failures);
  EXPECT_EQ(a.liveness_failures, b.liveness_failures);
  EXPECT_EQ(a.early_stops, b.early_stops);
  EXPECT_EQ(a.decided_at_total.count(), b.decided_at_total.count());
  EXPECT_EQ(a.events_total, b.events_total);
  ASSERT_EQ(a.example_violations.size(), b.example_violations.size());
  for (std::size_t i = 0; i < a.example_violations.size(); ++i) {
    EXPECT_EQ(a.example_violations[i], b.example_violations[i]) << i;
  }
}

/// A randomized accumulator: arbitrary counters (full 64-bit range),
/// negative decided-at sums included, 0..kMaxExamples examples — strictly
/// (seed, ordinal)-increasing, like every accumulator a real fold or merge
/// produces (the parser enforces that invariant) — with texts that cover
/// empty strings, embedded NULs and high bytes.
CellAccum random_accum(Rng& rng) {
  CellAccum acc;
  acc.safety_violations = rng.next_u64();
  acc.termination_failures = rng.next_u64();
  acc.liveness_failures = rng.next_u64();
  acc.early_stops = rng.next_u64();
  acc.decided_at_total = Duration::micros(
      rng.next_int(std::numeric_limits<std::int32_t>::min(),
                   std::numeric_limits<std::int32_t>::max()) *
      (rng.next_bool(0.5) ? 1 : -1));
  acc.events_total = rng.next_u64();
  const std::size_t n_examples = rng.next_below(CellAccum::kMaxExamples + 1);
  std::uint64_t seed = rng.next_below(1000);
  std::uint32_t ordinal = static_cast<std::uint32_t>(rng.next_below(3));
  for (std::size_t i = 0; i < n_examples; ++i) {
    if (i > 0) {
      if (rng.next_bool(0.3)) {
        ordinal += 1 + static_cast<std::uint32_t>(rng.next_below(2));
      } else {
        seed += 1 + rng.next_below(9);
        ordinal = static_cast<std::uint32_t>(rng.next_below(3));
      }
    }
    CellAccum::Example ex;
    ex.seed = seed;
    ex.ordinal = ordinal;
    const std::size_t len = rng.next_below(40);
    for (std::size_t c = 0; c < len; ++c) {
      ex.text.push_back(static_cast<char>(rng.next_below(256)));
    }
    acc.examples.push_back(std::move(ex));
  }
  return acc;
}

// ------------------------------------------------------------- wire format

TEST(ShardWire, DefaultAccumRoundTripsAndMergesAsNoop) {
  const CellAccum empty;
  const std::vector<std::uint8_t> blob = serialize_cell_accum(empty);
  const CellAccum parsed = parse_cell_accum(blob);
  expect_accums_identical(parsed, empty);

  // Merging a parsed empty accumulator must be a no-op (empty shards and
  // idle worker slots go through exactly this path).
  Rng rng(7);
  CellAccum populated = random_accum(rng);
  const std::vector<std::uint8_t> before = serialize_cell_accum(populated);
  populated.merge(parse_cell_accum(blob));
  EXPECT_EQ(serialize_cell_accum(populated), before);
}

TEST(ShardWire, PopulatedAccumRoundTripsBitExactly) {
  CellAccum acc;
  acc.safety_violations = 3;
  acc.termination_failures = 1;
  acc.liveness_failures = 0xffffffffffffffffull;
  acc.early_stops = 42;
  acc.decided_at_total = Duration::micros(-123456789);
  acc.events_total = 1ull << 60;
  acc.examples.push_back({5, 0, std::string("plain text")});
  acc.examples.push_back({5, 1, std::string("embedded\0nul", 12)});
  acc.examples.push_back({9, 0, std::string("\xff\xfe high bytes \x80")});
  acc.examples.push_back({9, 2, std::string()});  // empty text

  const std::vector<std::uint8_t> blob = serialize_cell_accum(acc);
  const CellAccum parsed = parse_cell_accum(blob);
  expect_accums_identical(parsed, acc);
  // Serialization is canonical: re-serializing the parse is byte-identical.
  EXPECT_EQ(serialize_cell_accum(parsed), blob);
}

TEST(ShardWire, FuzzRoundTripSerializeParseBitExact) {
  Rng rng(20260730);
  for (int i = 0; i < 500; ++i) {
    const CellAccum acc = random_accum(rng);
    const std::vector<std::uint8_t> blob = serialize_cell_accum(acc);
    const CellAccum parsed = parse_cell_accum(blob);
    expect_accums_identical(parsed, acc);
    EXPECT_EQ(serialize_cell_accum(parsed), blob) << "iteration " << i;
  }
}

TEST(ShardWire, FuzzMergeThroughWireMatchesInProcessMerge) {
  // serialize -> parse -> merge must equal the in-process merge for any
  // accumulator contents and any shard count.
  Rng rng(99);
  for (int round = 0; round < 100; ++round) {
    const std::size_t k = 1 + rng.next_below(6);
    std::vector<CellAccum> parts;
    for (std::size_t i = 0; i < k; ++i) parts.push_back(random_accum(rng));

    CellAccum direct;
    for (const CellAccum& p : parts) {
      CellAccum copy = p;  // merge consumes
      direct.merge(std::move(copy));
    }
    CellAccum wired;
    for (const CellAccum& p : parts) {
      wired.merge(parse_cell_accum(serialize_cell_accum(p)));
    }
    expect_accums_identical(wired, direct);
  }
}

TEST(ShardWire, TruncationsAreRejected) {
  Rng rng(3);
  const CellAccum acc = random_accum(rng);
  const std::vector<std::uint8_t> blob = serialize_cell_accum(acc);
  // Every proper prefix must be a clean parse error — header cut short,
  // frame header cut short, payload cut short.
  for (std::size_t len = 0; len < blob.size(); ++len) {
    EXPECT_THROW(parse_cell_accum(blob.data(), len), ByteError) << len;
  }
}

TEST(ShardWire, CorruptionsAreRejectedOrParseable) {
  // Single-byte corruption anywhere must never be UB: it either still
  // parses (a flipped counter bit) or throws ByteError. Run the parse on
  // every position of both blob layouts to shake out bounds bugs; ASan/
  // UBSan builds turn any miss into a crash. A blob that parses must be
  // canonical: it re-serializes to exactly the bytes that were accepted,
  // so no field (a meta flag byte, say) has two accepted encodings.
  Rng rng(4);
  CellAccum acc = random_accum(rng);
  if (acc.examples.empty()) {
    acc.examples.push_back({1, 0, "corruption target"});
  }
  ShardMeta meta;
  meta.first_seed = 3;
  meta.seed_count = 9;
  meta.early_stop = false;
  const std::vector<std::uint8_t> accum_blob = serialize_cell_accum(acc);
  const std::vector<std::uint8_t> shard_blob = serialize_shard_blob(meta, acc);
  for (const bool shard : {false, true}) {
    const std::vector<std::uint8_t>& blob = shard ? shard_blob : accum_blob;
    for (std::size_t pos = 0; pos < blob.size(); ++pos) {
      for (const std::uint8_t flip :
           {std::uint8_t{0x01}, std::uint8_t{0xff}}) {
        std::vector<std::uint8_t> bad = blob;
        bad[pos] ^= flip;
        std::vector<std::uint8_t> again;
        try {
          if (shard) {
            const ShardBlob parsed = parse_shard_blob(bad);
            again = serialize_shard_blob(parsed.meta, parsed.accum);
          } else {
            again = serialize_cell_accum(parse_cell_accum(bad));
          }
        } catch (const ByteError&) {
          continue;  // expected for structural damage
        }
        EXPECT_EQ(again, bad) << (shard ? "shard" : "accum") << " blob, byte "
                              << pos << " ^ " << int{flip};
      }
    }
  }
}

TEST(ShardWire, VersionAndMagicAreEnforced) {
  const std::vector<std::uint8_t> blob = serialize_cell_accum(CellAccum{});

  std::vector<std::uint8_t> bad_magic = blob;
  bad_magic[0] ^= 0xff;
  EXPECT_THROW(parse_cell_accum(bad_magic), ByteError);

  // Version bumped beyond the reader: deterministic rejection, not a
  // misparse (a v2 writer may have changed any field's meaning).
  std::vector<std::uint8_t> v_next = blob;
  v_next[4] = static_cast<std::uint8_t>(kWireVersion + 1);
  EXPECT_THROW(parse_cell_accum(v_next), ByteError);

  // Version below the supported floor (0 is never valid).
  std::vector<std::uint8_t> v_zero = blob;
  v_zero[4] = 0;
  v_zero[5] = 0;
  EXPECT_THROW(parse_cell_accum(v_zero), ByteError);

  // Reserved header bytes must be zero.
  std::vector<std::uint8_t> reserved = blob;
  reserved[6] = 1;
  EXPECT_THROW(parse_cell_accum(reserved), ByteError);
}

TEST(ShardWire, StructuralDamageIsRejected) {
  const std::vector<std::uint8_t> blob = serialize_cell_accum(CellAccum{});

  // Trailing garbage after the last frame.
  std::vector<std::uint8_t> trailing = blob;
  trailing.push_back(0x7f);
  EXPECT_THROW(parse_cell_accum(trailing), ByteError);

  // An unknown field tag (the meta tag is unknown to the bare-accum
  // parser; a wholly unassigned tag behaves the same).
  const std::vector<std::uint8_t> with_meta =
      serialize_shard_blob(ShardMeta{}, CellAccum{});
  EXPECT_THROW(parse_cell_accum(with_meta), ByteError);

  // A duplicated field: append a copy of the first frame (tag 1, u64).
  std::vector<std::uint8_t> dup = blob;
  dup.insert(dup.end(), blob.begin() + 8, blob.begin() + 8 + 2 + 4 + 8);
  EXPECT_THROW(parse_cell_accum(dup), ByteError);

  // A missing required field: drop the first frame entirely.
  std::vector<std::uint8_t> missing(blob.begin(), blob.begin() + 8);
  missing.insert(missing.end(), blob.begin() + 8 + 2 + 4 + 8, blob.end());
  EXPECT_THROW(parse_cell_accum(missing), ByteError);
}

TEST(ShardWire, InvalidExampleListsAreRejected) {
  // The serializer trusts in-process accumulators, but the parser sits at
  // a trust boundary: merge()'s two-pointer example merge relies on
  // sorted, capped lists, so blobs violating the invariant must be
  // rejected, not silently mis-merged downstream.
  CellAccum oversize;
  for (std::uint64_t i = 0; i < CellAccum::kMaxExamples + 1; ++i) {
    oversize.examples.push_back({i, 0, "x"});
  }
  EXPECT_THROW(parse_cell_accum(serialize_cell_accum(oversize)), ByteError);

  CellAccum unsorted;
  unsorted.examples.push_back({9, 0, "a"});
  unsorted.examples.push_back({3, 0, "b"});
  EXPECT_THROW(parse_cell_accum(serialize_cell_accum(unsorted)), ByteError);

  CellAccum duplicate;
  duplicate.examples.push_back({3, 1, "a"});
  duplicate.examples.push_back({3, 1, "b"});
  EXPECT_THROW(parse_cell_accum(serialize_cell_accum(duplicate)), ByteError);

  // Same seed with increasing ordinals is legal (one seed, two findings).
  CellAccum legal;
  legal.examples.push_back({3, 0, "a"});
  legal.examples.push_back({3, 1, "b"});
  expect_accums_identical(parse_cell_accum(serialize_cell_accum(legal)),
                          legal);
}

TEST(ShardWire, ShardBlobCarriesMeta) {
  ShardMeta meta;
  meta.protocol = ProtocolKind::kWeakCommittee;
  meta.regime = Regime::kPartialSynchronyAdversarial;
  meta.n = 3;
  meta.first_seed = 17;
  meta.seed_count = 5;
  meta.online = true;
  meta.early_stop = false;
  Rng rng(11);
  const CellAccum acc = random_accum(rng);

  const std::vector<std::uint8_t> blob = serialize_shard_blob(meta, acc);
  const ShardBlob parsed = parse_shard_blob(blob);
  EXPECT_TRUE(parsed.meta == meta);
  expect_accums_identical(parsed.accum, acc);

  // The envelope parser requires the meta frame.
  EXPECT_THROW(parse_shard_blob(serialize_cell_accum(acc)), ByteError);
}

// ----------------------------------------------------------- golden bytes
//
// The byte-identity oracle for both blob layouts, pinned as hex: each must
// serialize to exactly its bytes and parse back to its value.

std::string hex_of(const std::vector<std::uint8_t>& bytes) {
  static const char kDigits[] = "0123456789abcdef";
  std::string out;
  for (const std::uint8_t b : bytes) {
    out.push_back(kDigits[b >> 4]);
    out.push_back(kDigits[b & 0xf]);
  }
  return out;
}

std::vector<std::uint8_t> from_hex(const std::string& hex) {
  std::vector<std::uint8_t> out;
  for (std::size_t i = 0; i + 1 < hex.size(); i += 2) {
    out.push_back(
        static_cast<std::uint8_t>(std::stoul(hex.substr(i, 2), nullptr, 16)));
  }
  return out;
}

CellAccum golden_accum() {
  CellAccum acc;
  acc.safety_violations = 3;
  acc.termination_failures = 1;
  acc.liveness_failures = 0xffffffffffffffffull;
  acc.early_stops = 42;
  acc.decided_at_total = Duration::micros(-123456789);
  acc.events_total = 1ull << 60;
  acc.examples.push_back({5, 0, std::string("plain")});
  acc.examples.push_back({5, 1, std::string("nul\0", 4)});
  acc.examples.push_back({9, 2, std::string()});
  return acc;
}

TEST(ShardGolden, AccumBlobSerializesToItsBytesAndParsesBack) {
  const char* const kGolden =
      "5843504101000000010008000000030000000000000002000800000001000000"
      "00000000030008000000ffffffffffffffff0400080000002a00000000000000"
      "050008000000eb32a4f8ffffffff060008000000000000000000001007003d00"
      "00000300000005000000000000000000000005000000706c61696e0500000000"
      "00000001000000040000006e756c0009000000000000000200000000000000";
  const CellAccum acc = golden_accum();
  EXPECT_EQ(hex_of(serialize_cell_accum(acc)), kGolden);
  expect_accums_identical(parse_cell_accum(from_hex(kGolden)), acc);
}

TEST(ShardGolden, ShardBlobSerializesToItsBytesAndParsesBack) {
  const char* const kGolden =
      "584350410100000008001e000000050000000200000003000000110000000000"
      "0000050000000000000001000100080000000100000000000000020008000000"
      "0000000000000000030008000000000000000000000004000800000000000000"
      "000000000500080000000000000000000000060008000000d103000000000000"
      "07001a0000000100000012000000000000000000000006000000736166657479";
  ShardMeta meta;
  meta.protocol = ProtocolKind::kWeakCommittee;
  meta.regime = Regime::kPartialSynchrony;
  meta.n = 3;
  meta.first_seed = 17;
  meta.seed_count = 5;
  meta.online = true;
  meta.early_stop = false;
  CellAccum acc;
  acc.safety_violations = 1;
  acc.events_total = 977;
  acc.examples.push_back({18, 0, std::string("safety")});
  EXPECT_EQ(hex_of(serialize_shard_blob(meta, acc)), kGolden);
  const ShardBlob parsed = parse_shard_blob(from_hex(kGolden));
  EXPECT_TRUE(parsed.meta == meta);
  expect_accums_identical(parsed.accum, acc);
}

TEST(ShardWire, TokensRoundTrip) {
  for (const ProtocolKind k : kAllProtocols) {
    ProtocolKind back{};
    EXPECT_TRUE(parse_protocol_token(protocol_token(k), back));
    EXPECT_EQ(back, k);
  }
  for (const Regime r : kAllRegimes) {
    Regime back{};
    EXPECT_TRUE(parse_regime_token(regime_token(r), back));
    EXPECT_EQ(back, r);
  }
  ProtocolKind p{};
  Regime r{};
  EXPECT_FALSE(parse_protocol_token("no-such-protocol", p));
  EXPECT_FALSE(parse_regime_token("no-such-regime", r));
}

// ---------------------------------------------------------- shard planning

TEST(ShardPlan, RaggedPartitionsAreContiguousAndComplete) {
  for (const unsigned shards : {1u, 2u, 3u, 7u}) {
    for (const std::size_t seeds : {0u, 1u, 5u, 7u, 20u}) {
      const auto plan = plan_shards(100, seeds, shards);
      ASSERT_EQ(plan.size(), shards);
      std::uint64_t next = 100;
      std::uint64_t total = 0;
      for (const ShardRange& range : plan) {
        EXPECT_EQ(range.first_seed, next);
        next += range.count;
        total += range.count;
        // Balanced to within one seed.
        EXPECT_LE(range.count, seeds / shards + 1);
      }
      EXPECT_EQ(total, seeds);
    }
  }
}

TEST(ShardPlan, ZeroShardsIsRejected) {
  EXPECT_THROW(plan_shards(1, 10, 0), std::logic_error);
  EXPECT_THROW(plan_shards(1, 0, 0), std::logic_error);
}

TEST(ShardPlan, MoreShardsThanSeedsYieldsEmptyTrailingRanges) {
  const auto plan = plan_shards(7, 3, 9);
  ASSERT_EQ(plan.size(), 9u);
  // The first three shards get one seed each, the rest are empty.
  for (std::size_t i = 0; i < plan.size(); ++i) {
    EXPECT_EQ(plan[i].count, i < 3 ? 1u : 0u) << i;
  }
  EXPECT_EQ(plan[0].first_seed, 7u);
  EXPECT_EQ(plan[1].first_seed, 8u);
  EXPECT_EQ(plan[2].first_seed, 9u);
  // Empty ranges still carry a well-defined (degenerate) start.
  for (std::size_t i = 3; i < plan.size(); ++i) {
    EXPECT_EQ(plan[i].first_seed, 10u) << i;
  }
}

TEST(ShardPlan, ZeroSeedRangeYieldsAllEmptyShards) {
  const auto plan = plan_shards(42, 0, 5);
  ASSERT_EQ(plan.size(), 5u);
  for (const ShardRange& range : plan) {
    EXPECT_EQ(range.count, 0u);
    EXPECT_EQ(range.first_seed, 42u);
  }
}

TEST(ShardWire, ErrorsCarryByteOffsetAndFrameContext) {
  // The codec-wide diagnostic shape: what() names the byte offset
  // (and the frame being decoded where there is one), and offset() returns
  // it, so a dispatcher log line localizes the damage without a hexdump.
  Rng rng(11);
  CellAccum acc = random_accum(rng);
  if (acc.examples.empty()) acc.examples.push_back({1, 0, "ctx"});
  const std::vector<std::uint8_t> blob = serialize_cell_accum(acc);

  // Truncation mid-payload: offset points past the header.
  try {
    parse_cell_accum(blob.data(), blob.size() - 1);
    FAIL() << "truncation not rejected";
  } catch (const ByteError& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("at offset"), std::string::npos) << what;
    EXPECT_NE(what.find(std::to_string(e.offset())), std::string::npos)
        << what << " vs " << e.offset();
    EXPECT_GT(e.offset(), 8u);
  }

  // A failure inside a frame names the frame's tag, and the offset stays
  // absolute (blob-relative), not frame-relative.
  CellAccum unsorted;
  unsorted.examples.push_back({5, 0, "b"});
  unsorted.examples.push_back({4, 0, "a"});
  try {
    parse_cell_accum(serialize_cell_accum(unsorted));
    FAIL() << "unsorted example list not rejected";
  } catch (const ByteError& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("field tag"), std::string::npos) << what;
    EXPECT_NE(what.find("at offset"), std::string::npos) << what;
    EXPECT_GT(e.offset(), 8u);
  }

  // An unknown tag: the message names the offending tag and the offset of
  // the frame that carried it.
  std::vector<std::uint8_t> unknown = blob;
  unknown[8] = 0x3f;  // first frame's tag byte
  try {
    parse_cell_accum(unknown);
    FAIL() << "unknown tag not rejected";
  } catch (const ByteError& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("unknown field tag 63"), std::string::npos) << what;
    EXPECT_NE(what.find("offset 8"), std::string::npos) << what;
    EXPECT_EQ(e.offset(), 8u);
  }
}

TEST(ShardPlan, FuzzRaggedPartitionsAlwaysSumExactly) {
  Rng rng(20260807);
  for (int i = 0; i < 300; ++i) {
    const std::uint64_t first = rng.next_u64() >> 16;  // headroom, no wrap
    const std::size_t seeds = static_cast<std::size_t>(rng.next_below(5000));
    const unsigned shards = 1 + static_cast<unsigned>(rng.next_below(64));
    const auto plan = plan_shards(first, seeds, shards);
    ASSERT_EQ(plan.size(), shards);
    std::uint64_t next = first;
    std::uint64_t total = 0;
    for (const ShardRange& range : plan) {
      EXPECT_EQ(range.first_seed, next) << "iteration " << i;
      next += range.count;
      total += range.count;
      EXPECT_LE(range.count, seeds / shards + 1);
    }
    EXPECT_EQ(total, seeds) << "iteration " << i;
  }
}

// ------------------------------------------------- the differential proof

/// distributed_sweep (in-process shards, every accumulator still shipped
/// through serialize -> parse -> merge) vs run_matrix_cell, every cell of
/// the 6x4 theorem matrix, K in {1, 2, 3, 7}. seeds = 5 makes every K > 1
/// partition ragged and K = 7 include empty shards.
TEST(DistributedSweep, MatchesSingleProcessAcrossTheoremMatrix) {
  constexpr std::size_t kSeeds = 5;
  for (const ProtocolKind p : kAllProtocols) {
    for (const Regime r : kAllRegimes) {
      const MatrixCell single = run_matrix_cell(p, r, 2, kSeeds);
      for (const unsigned shards : {1u, 2u, 3u, 7u}) {
        const MatrixCell sharded =
            distributed_sweep(p, r, 2, kSeeds, shards);
        SCOPED_TRACE(std::string(protocol_kind_name(p)) + " / " +
                     regime_name(r) + " / K=" + std::to_string(shards));
        expect_cells_identical(sharded, single);
      }
    }
  }
}

TEST(DistributedSweep, ProcessTransportMatchesSingleProcess) {
  // $XCP_SWEEP_SHARD_BIN when set (CI, manual runs), else
  // ./xcp_sweep_shard (ctest runs from the build directory, where CMake
  // puts both this test and the tool).
  const std::string worker = default_worker_path();
  if (worker.empty()) {
    GTEST_SKIP() << "xcp_sweep_shard binary not found (set "
                    "XCP_SWEEP_SHARD_BIN or run from the build directory)";
  }
  DistributedOptions opts;
  opts.worker_path = worker;

  // Full matrix at K = 3 (ragged: 5 seeds split 2/2/1) through real worker
  // processes — the acceptance differential for the transport itself.
  constexpr std::size_t kSeeds = 5;
  for (const ProtocolKind p : kAllProtocols) {
    for (const Regime r : kAllRegimes) {
      const MatrixCell single = run_matrix_cell(p, r, 2, kSeeds);
      const MatrixCell sharded = distributed_sweep(p, r, 2, kSeeds, 3, 1,
                                                   opts);
      SCOPED_TRACE(std::string(protocol_kind_name(p)) + " / " +
                   regime_name(r));
      expect_cells_identical(sharded, single);
    }
  }

  // One violation-producing cell across every K, including K = 7 > seeds
  // (two empty shards whose blobs must merge as no-ops).
  const MatrixCell single = run_matrix_cell(
      ProtocolKind::kInterledgerAtomic, Regime::kPartialSynchrony, 2, kSeeds);
  for (const unsigned shards : {1u, 2u, 3u, 7u}) {
    const MatrixCell sharded =
        distributed_sweep(ProtocolKind::kInterledgerAtomic,
                          Regime::kPartialSynchrony, 2, kSeeds, shards, 1,
                          opts);
    SCOPED_TRACE("K=" + std::to_string(shards));
    expect_cells_identical(sharded, single);
  }
}

TEST(DistributedSweep, NonDefaultSeedRangeAndOptionsPropagate) {
  // first_seed != 1 and watch-only monitoring must flow through the worker
  // command line / meta cross-check unchanged.
  DistributedOptions opts;
  opts.cell.online.early_stop = false;
  const MatrixCell single =
      run_matrix_cell(ProtocolKind::kWeakContract,
                      Regime::kSynchronyConforming, 2, 6, 11, opts.cell);
  const MatrixCell sharded = distributed_sweep(
      ProtocolKind::kWeakContract, Regime::kSynchronyConforming, 2, 6, 3, 11,
      opts);
  expect_cells_identical(sharded, single);
  EXPECT_EQ(sharded.early_stops, 0u);
}

TEST(DistributedSweep, FailedWorkerIsAnErrorOrAFallbackNeverAWrongAnswer) {
  // A worker binary that cannot launch at all: with in-process fallback
  // disabled the sweep must throw — never return a cell computed from
  // fewer seeds than requested.
  DistributedOptions opts;
  opts.worker_path = "/nonexistent/xcp_sweep_shard";
  opts.dispatch.backoff_base = std::chrono::milliseconds(1);
  opts.dispatch.fallback_in_process = false;
  EXPECT_THROW(distributed_sweep(ProtocolKind::kTimeBounded,
                                 Regime::kSynchronyConforming, 2, 4, 2, 1,
                                 opts),
               DispatchError);

  // With the default fallback ladder the sweep degrades gracefully to
  // in-process execution — byte-identical result, every failed launch on
  // the record.
  opts.dispatch.fallback_in_process = true;
  DispatchReport report;
  opts.report = &report;
  const MatrixCell single = run_matrix_cell(ProtocolKind::kTimeBounded,
                                            Regime::kSynchronyConforming, 2,
                                            4);
  const MatrixCell swept = distributed_sweep(ProtocolKind::kTimeBounded,
                                             Regime::kSynchronyConforming, 2,
                                             4, 2, 1, opts);
  expect_cells_identical(swept, single);
  EXPECT_EQ(report.fallbacks, 2u);
  EXPECT_GE(report.launch_failures, 2u);
  EXPECT_FALSE(report.clean());
}

}  // namespace
}  // namespace xcp::exp
