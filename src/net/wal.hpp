#pragma once
// Write-ahead journal for committee nodes: every protocol state transition
// that must survive a crash — prevotes and precommits emitted, decisions
// reached (with their quorum certificate) — is appended and fsync'd here
// BEFORE the corresponding message leaves the process. On restart the
// journal is replayed (net/wal.cpp recovery scan) and the notary refuses to
// equivocate against anything it already journaled (amnesia-safety;
// consensus/notary.hpp `restore`).
//
// File layout, on the shared byte codec (support/bytes.hpp; docs/WIRE.md,
// "Byte codec", has the grammar and the rejection taxonomy):
//
//   header   u32 magic "XCPJ" | u16 version | u16 flags(=0) | u64 meta
//   record*  u32 payload_len | u32 crc32(payload) | payload
//   payload  u8 kind | u64 instance | i32 round | u8 value
//            | u32 cert_len | cert bytes (wire.hpp certificate blob)
//
// Recovery: a missing or empty file is a fresh journal; a partial header
// is a torn creation, truncated to empty and re-headered; a bad header
// (magic, version, flags) is a WalError, because refusing to truncate
// somebody else's file is the safe move. Any record the codec rejects —
// torn, CRC mismatch, oversize, unknown kind, a value other than 0/1, a
// negative round, short or over-long payload — is dropped together with
// everything after it (the suffix of a torn write), and appending
// continues from the last whole record.
//
// Compaction: compact() rewrites the journal as header + the given snapshot
// records via support/durable_file.hpp atomic_replace (temp + fsync +
// rename), so a crash mid-compaction leaves the old journal intact.
//
// Crash injection (the recovery harness's torn-write scheduler): WalOptions
// carries a plan that fires on the first append of a matching record kind —
// before the write, after `torn_bytes` of the record, or after the full
// fsync'd write — by invoking `crash` (default: SIGKILL self, giving the
// harness a real in-flight process death).

#include <cstdint>
#include <functional>
#include <stdexcept>
#include <string>
#include <vector>

#include "support/durable_file.hpp"

namespace xcp::net {

/// Journal corruption that recovery must not silently repair (foreign or
/// truncated-to-garbage header). Maps to the journal-corrupt exit code in
/// tools/xcp_node (net/node_exit.hpp).
class WalError : public std::runtime_error {
 public:
  explicit WalError(const std::string& what)
      : std::runtime_error("wal: " + what) {}
};

inline constexpr std::uint32_t kWalMagic = 0x4a504358u;  // "XCPJ" LE
inline constexpr std::uint16_t kWalVersion = 1;
inline constexpr std::size_t kWalHeaderBytes = 16;
/// Hard cap on one record's payload; anything larger is corruption.
inline constexpr std::size_t kMaxWalRecord = std::size_t{1} << 20;  // 1 MiB

/// Record kinds are journal ABI: never renumber, only append.
enum class WalRecordKind : std::uint8_t {
  kInvalid = 0,
  kPrevote = 1,    // prevote emitted: (instance, round, value)
  kPrecommit = 2,  // precommit emitted: (instance, round, value)
  kDecide = 3,     // decision reached: (instance, value, certificate blob)
};

const char* wal_record_kind_name(WalRecordKind k);

struct WalRecord {
  WalRecordKind kind = WalRecordKind::kInvalid;
  std::uint64_t instance = 0;
  std::int32_t round = 0;
  std::uint8_t value = 0;
  /// Wire-encoded quorum certificate (net::serialize_certificate) for
  /// kDecide records; empty otherwise.
  std::vector<std::uint8_t> cert;

  bool operator==(const WalRecord&) const = default;
};

/// What a recovery scan found and did.
struct WalRecoverResult {
  std::vector<WalRecord> records;
  /// Bytes of the file that held the header plus whole valid records.
  std::uint64_t valid_bytes = 0;
  /// Bytes cut from the tail (torn or corrupt suffix).
  std::uint64_t dropped_bytes = 0;
  /// True when the scan truncated anything (torn tail or corrupt record).
  bool truncated = false;
  /// True when the file did not exist / was empty before open().
  bool fresh = false;
};

/// Deterministic crash-injection plan for the restart harness.
struct WalCrashPlan {
  enum class Phase : std::uint8_t {
    kNone = 0,
    kBefore,  // crash before any byte of the record is written
    kTorn,    // crash after `torn_bytes` of the framed record
    kAfter,   // crash after the record is fully written and synced
  };
  WalRecordKind kind = WalRecordKind::kInvalid;
  Phase phase = Phase::kNone;
  /// For kTorn: how many bytes of the framed record reach the file. Clamped
  /// to [1, framed-size-1] so the tail really is torn.
  std::size_t torn_bytes = 6;

  bool armed() const {
    return phase != Phase::kNone && kind != WalRecordKind::kInvalid;
  }
};

struct WalOptions {
  /// fsync after every append (and the header write). Tests that hammer
  /// thousands of appends may disable it; production nodes must not.
  bool sync = true;
  WalCrashPlan crash_plan;
  /// The crash realization; defaults to SIGKILL'ing the own process (set in
  /// wal.cpp). Unit tests substitute a throwing hook to observe torn tails
  /// in-process.
  std::function<void()> crash;
};

/// Encodes one record as it appears in the file (length + CRC + payload) —
/// exposed for tests that hand-craft corruption.
std::vector<std::uint8_t> encode_wal_record(const WalRecord& r);

class WriteAheadLog {
 public:
  explicit WriteAheadLog(std::string path, WalOptions opts = {});

  /// Opens (creating if missing), scans, and truncates any torn/corrupt
  /// tail so the file ends on a record boundary. Throws WalError only for
  /// a header that must not be silently repaired (foreign magic, future
  /// version, nonzero flags).
  WalRecoverResult open();

  /// Appends one record, honouring the crash plan, and fsyncs (WalOptions::
  /// sync). The journal must be open.
  void append(const WalRecord& r);

  /// Atomically replaces the journal with header + `snapshot` (temp-file +
  /// rename). The open append handle is re-pointed at the new file.
  void compact(const std::vector<WalRecord>& snapshot);

  const std::string& path() const { return path_; }
  bool is_open() const { return file_.is_open(); }
  void close() { file_.close(); }

  /// Recovery scan over raw bytes (no file side effects) — the post-run
  /// journal auditors in the tests use this directly.
  static WalRecoverResult scan(const std::vector<std::uint8_t>& bytes);

 private:
  void write_header();

  std::string path_;
  WalOptions opts_;
  AppendFile file_;
  bool crash_fired_ = false;
};

}  // namespace xcp::net
