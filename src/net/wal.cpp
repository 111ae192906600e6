#include "net/wal.hpp"

#include <signal.h>
#include <unistd.h>

#include <algorithm>
#include <span>

#include "net/wire.hpp"
#include "support/bytes.hpp"
#include "support/hash.hpp"

namespace xcp::net {
namespace {

using support::ByteError;
using support::ByteReader;
using support::ByteWriter;

void put_header(ByteWriter& w) {
  w.header(kWalMagic, kWalVersion);
  w.u64(0);  // meta, reserved
}

/// Reads one framed record. Any ByteError means a torn or corrupt suffix,
/// which the scan truncates.
WalRecord read_record(ByteReader& r) {
  const std::uint32_t len = r.u32();
  const std::uint32_t crc = r.u32();
  if (len > kMaxWalRecord) r.fail("record length over the cap");
  ByteReader p = r.sub(len, "journal record");
  if (crc32(p.remaining().data(), len) != crc) p.fail("CRC mismatch");
  WalRecord out;
  const std::size_t kind_at = p.offset();
  const std::uint8_t kind = p.u8();
  if (kind < static_cast<std::uint8_t>(WalRecordKind::kPrevote) ||
      kind > static_cast<std::uint8_t>(WalRecordKind::kDecide)) {
    p.fail_at(kind_at, "unknown record kind " + std::to_string(kind));
  }
  out.kind = static_cast<WalRecordKind>(kind);
  out.instance = p.u64();
  out.round = get_round(p, "round");
  out.value = static_cast<std::uint8_t>(get_value(p));
  const std::span<const std::uint8_t> cert = p.bytes(p.u32());
  out.cert.assign(cert.begin(), cert.end());
  p.expect_consumed();
  return out;
}

void default_crash() { ::kill(::getpid(), SIGKILL); }

}  // namespace

const char* wal_record_kind_name(WalRecordKind k) {
  switch (k) {
    case WalRecordKind::kPrevote: return "prevote";
    case WalRecordKind::kPrecommit: return "precommit";
    case WalRecordKind::kDecide: return "decide";
    case WalRecordKind::kInvalid: break;
  }
  return "invalid";
}

std::vector<std::uint8_t> encode_wal_record(const WalRecord& r) {
  std::vector<std::uint8_t> out;
  out.reserve(8 + 18 + r.cert.size());
  ByteWriter w(out);
  w.u32(0);  // payload length, patched below
  w.u32(0);  // payload CRC, patched below
  w.u8(static_cast<std::uint8_t>(r.kind));
  w.u64(r.instance);
  w.i32(r.round);
  w.u8(r.value);
  w.u32(static_cast<std::uint32_t>(r.cert.size()));
  w.bytes(r.cert.data(), r.cert.size());
  const std::size_t len = out.size() - 8;
  if (len > kMaxWalRecord) {
    throw WalError("record payload of " + std::to_string(len) +
                   " bytes exceeds the " + std::to_string(kMaxWalRecord) +
                   "-byte cap");
  }
  w.patch_u32(0, static_cast<std::uint32_t>(len));
  w.patch_u32(4, crc32(out.data() + 8, len));
  return out;
}

WriteAheadLog::WriteAheadLog(std::string path, WalOptions opts)
    : path_(std::move(path)), opts_(std::move(opts)) {
  if (!opts_.crash) opts_.crash = default_crash;
}

void WriteAheadLog::write_header() {
  std::vector<std::uint8_t> h;
  ByteWriter w(h);
  put_header(w);
  file_.append(h);
  if (opts_.sync) {
    file_.sync();
    fsync_parent_dir(path_);
  }
}

WalRecoverResult WriteAheadLog::scan(const std::vector<std::uint8_t>& bytes) {
  WalRecoverResult res;
  if (bytes.empty()) {
    res.fresh = true;
    return res;
  }
  if (bytes.size() < kWalHeaderBytes) {
    // A torn creation: nothing durable ever made it in. Start over.
    res.truncated = true;
    res.dropped_bytes = bytes.size();
    return res;
  }
  ByteReader r(bytes.data(), bytes.size(), "journal header");
  try {
    r.header(kWalMagic, 1, kWalVersion);
    (void)r.u64();  // meta, reserved
  } catch (const ByteError& e) {
    // Somebody else's file: refusing beats truncating it.
    throw WalError(e.what());
  }
  res.valid_bytes = r.offset();
  r.set_context("journal");
  while (r.left() != 0) {
    try {
      res.records.push_back(read_record(r));
    } catch (const ByteError&) {
      break;  // torn or corrupt: this record and the rest are dropped
    }
    res.valid_bytes = r.offset();
  }
  if (res.valid_bytes < bytes.size()) {
    res.truncated = true;
    res.dropped_bytes = bytes.size() - res.valid_bytes;
  }
  return res;
}

WalRecoverResult WriteAheadLog::open() {
  file_.open(path_);
  WalRecoverResult res = scan(file_.read_all());
  if (res.fresh || (res.truncated && res.valid_bytes == 0)) {
    // Fresh journal, or a creation so torn the header never landed.
    file_.truncate(0);
    write_header();
    res.valid_bytes = kWalHeaderBytes;
    return res;
  }
  if (res.truncated) {
    file_.truncate(res.valid_bytes);
    if (opts_.sync) file_.sync();
  }
  return res;
}

void WriteAheadLog::append(const WalRecord& r) {
  if (!file_.is_open()) throw WalError("append on a closed journal");
  const std::vector<std::uint8_t> framed = encode_wal_record(r);

  const WalCrashPlan& plan = opts_.crash_plan;
  const bool fire = !crash_fired_ && plan.armed() && plan.kind == r.kind;
  if (fire && plan.phase == WalCrashPlan::Phase::kBefore) {
    crash_fired_ = true;
    opts_.crash();
    return;  // only reached when the crash hook returns (test hooks)
  }
  if (fire && plan.phase == WalCrashPlan::Phase::kTorn) {
    crash_fired_ = true;
    const std::size_t keep =
        std::clamp<std::size_t>(plan.torn_bytes, 1, framed.size() - 1);
    file_.append(framed.data(), keep);
    file_.sync();  // make the torn tail durable: that is the scenario
    opts_.crash();
    return;
  }
  file_.append(framed);
  if (opts_.sync) file_.sync();
  if (fire && plan.phase == WalCrashPlan::Phase::kAfter) {
    crash_fired_ = true;
    opts_.crash();
  }
}

void WriteAheadLog::compact(const std::vector<WalRecord>& snapshot) {
  if (!file_.is_open()) throw WalError("compact on a closed journal");
  std::vector<std::uint8_t> out;
  ByteWriter w(out);
  put_header(w);
  for (const WalRecord& r : snapshot) {
    const auto framed = encode_wal_record(r);
    out.insert(out.end(), framed.begin(), framed.end());
  }
  atomic_replace(path_, out);
  // The old fd still points at the unlinked inode; reopen the new file.
  file_.open(path_);
}

}  // namespace xcp::net
