#pragma once
// Cross-process sweep sharding: the transport that turns the single-box
// SweepPool into a multi-process sweep fabric.
//
// Per-seed determinism plus order-insensitive mergeable accumulators
// (CellAccum's contract) already make shard results combinable by
// construction; this header supplies the transport: a versioned,
// endianness-stable blob format for CellAccum, the shard envelope with its
// meta cross-check, seed-range planning, and the worker CLI tokens. The
// driver that launches and supervises K worker processes and folds their
// blobs with the existing merge() is layered above in exp/dispatch.hpp.
// Splitting the workload is provably invisible in the result:
// distributed_sweep(K) == run_matrix_cell(1 process) byte-for-byte on
// every verdict counter, early-stop count, decided-at sum and example
// string (tests/test_shard.cpp and tests/test_dispatch.cpp prove it across
// the 6x4 theorem matrix for K in {1, 2, 3, 7}, faults included).
//
// Blob format (version 1), on the shared byte codec (support/bytes.hpp)
// ------------------------------------------------------------------------
//   header : magic "XCPA" | version u16 | flags u16 (= 0)
//   fields : a sequence of { tag u16, length u32, payload[length] }
//            frames until end of blob
//
// Per-field framing is what makes the format evolvable deterministically: a
// future v2 reader upgrades a v1 payload by defaulting the fields v1 never
// wrote, and a v1 reader *rejects* a v2 payload outright (version > reader)
// instead of misparsing it. Within a supported version, unknown tags,
// duplicate tags, missing required tags, short frames, trailing bytes and
// flag bytes other than 0/1 are all hard parse errors (support::ByteError).
// docs/WIRE.md, "Byte codec", has the grammar and the rejection taxonomy
// shared with the protocol frames and the journal.

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "exp/runner.hpp"

namespace xcp::exp {

/// "XCPA" as a little-endian u32 ('X' is the first byte on the wire).
inline constexpr std::uint32_t kWireMagic = 0x41504358u;
inline constexpr std::uint16_t kWireVersion = 1;
/// Oldest payload version this reader upgrades; anything older (or newer
/// than kWireVersion) is rejected.
inline constexpr std::uint16_t kWireMinVersion = 1;

/// Serializes every streamed field of a CellAccum (verdict counts,
/// early-stop count, decided-at sum, events total, example records) into a
/// self-describing blob. Round-trips bit-exactly through parse_cell_accum.
std::vector<std::uint8_t> serialize_cell_accum(const CellAccum& acc);

/// Parses a serialize_cell_accum blob. Throws support::ByteError on anything
/// malformed; never exhibits UB on corrupt/truncated/version-bumped input.
CellAccum parse_cell_accum(const std::uint8_t* data, std::size_t size);
inline CellAccum parse_cell_accum(const std::vector<std::uint8_t>& blob) {
  return parse_cell_accum(blob.data(), blob.size());
}

/// What a shard worker was asked to compute — carried inside the blob so
/// the driver can prove each worker ran the right (cell, seed range,
/// monitor mode) before merging its accumulator.
struct ShardMeta {
  ProtocolKind protocol = ProtocolKind::kTimeBounded;
  Regime regime = Regime::kSynchronyConforming;
  std::int32_t n = 2;
  std::uint64_t first_seed = 1;
  std::uint64_t seed_count = 0;
  bool online = true;
  bool early_stop = true;

  bool operator==(const ShardMeta&) const = default;
};

struct ShardBlob {
  ShardMeta meta;
  CellAccum accum;
};

/// The envelope a shard worker writes to stdout: the same header and accum
/// fields as serialize_cell_accum plus a meta frame identifying the work.
std::vector<std::uint8_t> serialize_shard_blob(const ShardMeta& meta,
                                               const CellAccum& acc);
ShardBlob parse_shard_blob(const std::uint8_t* data, std::size_t size);
inline ShardBlob parse_shard_blob(const std::vector<std::uint8_t>& blob) {
  return parse_shard_blob(blob.data(), blob.size());
}

/// Stable CLI tokens for the worker command line (distinct from the pretty
/// display names in protocol_kind_name/regime_name, which carry spaces and
/// theorem references). parse_* return false on unknown tokens.
const char* protocol_token(ProtocolKind k);
const char* regime_token(Regime r);
bool parse_protocol_token(const std::string& token, ProtocolKind& out);
bool parse_regime_token(const std::string& token, Regime& out);

/// One shard's contiguous slice of the sweep's seed range.
struct ShardRange {
  std::uint64_t first_seed = 0;
  std::uint64_t count = 0;
};

/// Partitions [first_seed, first_seed + seeds) into `shards` contiguous
/// ranges: the first (seeds % shards) ranges get one extra seed, so ragged
/// divisions stay contiguous and deterministic. shards > seeds yields empty
/// trailing ranges (their accumulators merge as no-ops).
std::vector<ShardRange> plan_shards(std::uint64_t first_seed,
                                    std::size_t seeds, unsigned shards);

/// Resolves the xcp_sweep_shard binary for process-transport callers:
/// $XCP_SWEEP_SHARD_BIN when set (throws std::runtime_error if set but
/// not executable — an explicit configuration must not silently degrade
/// to in-process shards), else ./xcp_sweep_shard if executable (ctest and
/// the benches run from the build directory, where CMake puts the tool),
/// else empty — callers then fall back to in-process shards or skip.
std::string default_worker_path();

// The driver that runs a cell as `shards` supervised worker processes —
// exp::distributed_sweep and its DistributedOptions — lives in
// exp/dispatch.hpp: dispatch policy (deadlines, retries, fallback) is
// layered above this transport, not baked into it.

}  // namespace xcp::exp
