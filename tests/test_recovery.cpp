// Crash-recovery tests (docs/ROBUSTNESS.md, crash-recovery rung):
//  - write-ahead journal unit/fuzz coverage in the style of test_wire's
//    rejection discipline: round-trip, exhaustive truncation at every
//    prefix length, single-byte corruption at every offset, torn-append
//    recovery, crash-phase injection, compaction, foreign-file refusal;
//  - the in-sim amnesia differential: a notary restored with a journaled
//    vote refuses to sign the other value, and the committee still decides;
//  - the multi-process crash-restart harness: real xcp_node processes
//    SIGKILL'd at journaled crash points (before-vote, after-vote-before-
//    send, mid-append torn write, after-decide, double-crash), restarted
//    against the same state dir, for commit and abort deals — the committee
//    outcome must equal the in-sim reference, the rejoiner must converge,
//    and a post-run audit of every journal proves no node signed
//    conflicting votes;
//  - the xcp_node exit-code taxonomy (usage / journal-corrupt).

#include <gtest/gtest.h>

#include <signal.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <chrono>
#include <cstdint>
#include <cstring>
#include <map>
#include <optional>
#include <set>
#include <string>
#include <vector>

#include "consensus/standalone.hpp"
#include "net/node_exit.hpp"
#include "net/wal.hpp"
#include "node_process.hpp"
#include "support/durable_file.hpp"

namespace xcp {
namespace {

using net::WalCrashPlan;
using net::WalRecord;
using net::WalRecordKind;
using net::WalRecoverResult;
using net::WriteAheadLog;

// ------------------------------------------------------------- helpers

std::vector<std::uint8_t> read_bytes(const std::string& path) {
  AppendFile f;
  f.open(path);
  return f.read_all();
}

void write_bytes(const std::string& path,
                 const std::vector<std::uint8_t>& bytes) {
  AppendFile f;
  f.open(path);
  f.truncate(0);
  f.append(bytes);
}

WalRecord sample_record(WalRecordKind kind, std::int32_t round,
                        std::uint8_t value, std::size_t cert_bytes = 0) {
  WalRecord r;
  r.kind = kind;
  r.instance = 13;
  r.round = round;
  r.value = value;
  for (std::size_t i = 0; i < cert_bytes; ++i) {
    r.cert.push_back(static_cast<std::uint8_t>(i * 37 + 1));
  }
  return r;
}

std::vector<WalRecord> sample_records() {
  return {sample_record(WalRecordKind::kPrevote, 0, 0),
          sample_record(WalRecordKind::kPrecommit, 0, 0, 5),
          sample_record(WalRecordKind::kDecide, 1, 0, 64)};
}

/// The journal as raw bytes: header + the given records.
std::vector<std::uint8_t> journal_bytes(const std::vector<WalRecord>& recs) {
  std::vector<std::uint8_t> out;
  const std::uint32_t magic = net::kWalMagic;
  for (int i = 0; i < 4; ++i) {
    out.push_back(static_cast<std::uint8_t>((magic >> (8 * i)) & 0xff));
  }
  out.push_back(net::kWalVersion & 0xff);
  out.push_back(net::kWalVersion >> 8);
  for (int i = 0; i < 10; ++i) out.push_back(0);  // flags + meta
  for (const WalRecord& r : recs) {
    const auto framed = net::encode_wal_record(r);
    out.insert(out.end(), framed.begin(), framed.end());
  }
  return out;
}

// --------------------------------------------------------- WAL: basics

TEST(Wal, FreshOpenAppendReopenRoundTrips) {
  TempDir dir;
  const std::string path = dir.file("n.wal");
  const auto recs = sample_records();
  {
    WriteAheadLog wal(path);
    const WalRecoverResult rec = wal.open();
    EXPECT_TRUE(rec.fresh);
    EXPECT_FALSE(rec.truncated);
    EXPECT_TRUE(rec.records.empty());
    for (const WalRecord& r : recs) wal.append(r);
  }
  {
    WriteAheadLog wal(path);
    const WalRecoverResult rec = wal.open();
    EXPECT_FALSE(rec.fresh);
    EXPECT_FALSE(rec.truncated);
    EXPECT_EQ(rec.dropped_bytes, 0u);
    ASSERT_EQ(rec.records.size(), recs.size());
    for (std::size_t i = 0; i < recs.size(); ++i) {
      EXPECT_EQ(rec.records[i], recs[i]) << "record " << i;
    }
  }
}

TEST(Wal, RecordEncodingIsStable) {
  // The framing is journal ABI: length-prefixed, CRC'd, little-endian.
  const WalRecord r = sample_record(WalRecordKind::kPrevote, 3, 1);
  const auto framed = net::encode_wal_record(r);
  ASSERT_EQ(framed.size(), 8u + 18u);  // frame + fixed payload, no cert
  const std::uint32_t len = framed[0] | (framed[1] << 8) | (framed[2] << 16) |
                            (static_cast<std::uint32_t>(framed[3]) << 24);
  EXPECT_EQ(len, 18u);
  EXPECT_EQ(framed[8], static_cast<std::uint8_t>(WalRecordKind::kPrevote));
  EXPECT_EQ(framed[8 + 1], 13u);  // instance LE low byte
  EXPECT_EQ(framed[8 + 9], 3u);   // round LE low byte
  EXPECT_EQ(framed[8 + 13], 1u);  // value
}

// The byte-identity oracle for the journal file, pinned as hex: a header
// plus one record of each kind, written both by append and by compaction.
constexpr const char* kGoldenJournal =
    "5843504a0100000000000000000000001200000088db6189010d000000000000"
    "0002000000010000000012000000ea06e763020d000000000000000200000001"
    "000000001e000000099950d1030d0000000000000002000000010c0000000126"
    "4b7095badf04294e7398";

std::vector<WalRecord> golden_records() {
  return {sample_record(WalRecordKind::kPrevote, 2, 1),
          sample_record(WalRecordKind::kPrecommit, 2, 1),
          sample_record(WalRecordKind::kDecide, 2, 1, 12)};
}

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

TEST(Wal, GoldenJournalIsWrittenByAppendAndByCompaction) {
  TempDir dir;
  const auto recs = golden_records();
  {
    WriteAheadLog wal(dir.file("appended.wal"));
    (void)wal.open();
    for (const WalRecord& r : recs) wal.append(r);
  }
  EXPECT_EQ(hex_of(read_bytes(dir.file("appended.wal"))), kGoldenJournal);
  {
    WriteAheadLog wal(dir.file("compacted.wal"));
    (void)wal.open();
    wal.append(sample_record(WalRecordKind::kPrevote, 0, 0));
    wal.compact(recs);
  }
  EXPECT_EQ(hex_of(read_bytes(dir.file("compacted.wal"))), kGoldenJournal);
}

TEST(Wal, GoldenJournalScansBackToItsRecords) {
  const WalRecoverResult res = WriteAheadLog::scan(from_hex(kGoldenJournal));
  EXPECT_FALSE(res.truncated);
  EXPECT_EQ(res.records, golden_records());
}

TEST(Wal, OversizeRecordIsRefusedAtEncode) {
  WalRecord r = sample_record(WalRecordKind::kDecide, 0, 0);
  r.cert.assign(net::kMaxWalRecord + 1, 0xab);
  EXPECT_THROW((void)net::encode_wal_record(r), net::WalError);
}

// --------------------------------------- WAL: truncation & corruption

TEST(Wal, ExhaustiveTruncationNeverMisparses) {
  // Every prefix of a valid journal must recover exactly the records that
  // fit wholly within the prefix — never UB, never a phantom record.
  const auto recs = sample_records();
  const auto full = journal_bytes(recs);

  // Record boundaries: offset just past the header, then past each record.
  std::vector<std::size_t> bounds = {net::kWalHeaderBytes};
  for (const WalRecord& r : recs) {
    bounds.push_back(bounds.back() + net::encode_wal_record(r).size());
  }
  ASSERT_EQ(bounds.back(), full.size());

  for (std::size_t len = 0; len <= full.size(); ++len) {
    const std::vector<std::uint8_t> prefix(full.begin(), full.begin() + len);
    if (len == 0) {
      const WalRecoverResult res = WriteAheadLog::scan(prefix);
      EXPECT_TRUE(res.fresh);
      continue;
    }
    if (len < net::kWalHeaderBytes) {
      const WalRecoverResult res = WriteAheadLog::scan(prefix);
      EXPECT_TRUE(res.truncated) << len;
      EXPECT_EQ(res.valid_bytes, 0u) << len;
      EXPECT_EQ(res.dropped_bytes, len) << len;
      continue;
    }
    const WalRecoverResult res = WriteAheadLog::scan(prefix);
    std::size_t whole = 0;
    while (whole + 1 < bounds.size() && bounds[whole + 1] <= len) ++whole;
    ASSERT_EQ(res.records.size(), whole) << "prefix length " << len;
    EXPECT_EQ(res.valid_bytes, bounds[whole]) << len;
    EXPECT_EQ(res.truncated, len != bounds[whole]) << len;
    EXPECT_EQ(res.dropped_bytes, len - bounds[whole]) << len;
    for (std::size_t i = 0; i < whole; ++i) {
      EXPECT_EQ(res.records[i], recs[i]);
    }
  }
}

TEST(Wal, EverySingleByteCorruptionIsContained) {
  const auto recs = sample_records();
  const auto full = journal_bytes(recs);
  std::vector<std::size_t> bounds = {net::kWalHeaderBytes};
  for (const WalRecord& r : recs) {
    bounds.push_back(bounds.back() + net::encode_wal_record(r).size());
  }

  for (std::size_t off = 0; off < full.size(); ++off) {
    auto bytes = full;
    bytes[off] ^= 0x5a;
    if (off < 8) {
      // Magic, version or flags: a foreign/garbled header must refuse, not
      // silently truncate someone else's file.
      EXPECT_THROW((void)WriteAheadLog::scan(bytes), net::WalError)
          << "offset " << off;
      continue;
    }
    if (off < net::kWalHeaderBytes) {
      // The reserved meta region is opaque: corruption there is ignored.
      const WalRecoverResult res = WriteAheadLog::scan(bytes);
      EXPECT_EQ(res.records.size(), recs.size()) << "offset " << off;
      EXPECT_FALSE(res.truncated) << "offset " << off;
      continue;
    }
    // Inside record i: records before i survive, i and everything after
    // are dropped as a corrupt suffix (CRC or structural check fires).
    std::size_t hit = 0;
    while (bounds[hit + 1] <= off) ++hit;
    const WalRecoverResult res = WriteAheadLog::scan(bytes);
    EXPECT_TRUE(res.truncated) << "offset " << off;
    ASSERT_EQ(res.records.size(), hit) << "offset " << off;
    EXPECT_EQ(res.valid_bytes, bounds[hit]) << "offset " << off;
    for (std::size_t i = 0; i < hit; ++i) EXPECT_EQ(res.records[i], recs[i]);
  }
}

TEST(Wal, CrcValidRecordsOutsideTheValueAndRoundRangeAreCorrupt) {
  // The journal reads value and round with the wire's checks: a record
  // whose CRC matches but whose value is not 0/1, or whose round is
  // negative, is structurally corrupt — dropped with everything after it,
  // exactly like a bad kind byte — instead of replaying as a vote.
  const auto recs = sample_records();
  for (const WalRecord& bad : {sample_record(WalRecordKind::kPrevote, 0, 9),
                               sample_record(WalRecordKind::kDecide, -1, 0)}) {
    auto bytes = journal_bytes({recs[0]});
    const std::size_t valid = bytes.size();
    const auto framed = net::encode_wal_record(bad);
    bytes.insert(bytes.end(), framed.begin(), framed.end());
    const auto tail = net::encode_wal_record(recs[1]);
    bytes.insert(bytes.end(), tail.begin(), tail.end());

    const WalRecoverResult res = WriteAheadLog::scan(bytes);
    ASSERT_EQ(res.records.size(), 1u);
    EXPECT_EQ(res.records[0], recs[0]);
    EXPECT_TRUE(res.truncated);
    EXPECT_EQ(res.valid_bytes, valid);
    EXPECT_EQ(res.dropped_bytes, framed.size() + tail.size());
  }
}

TEST(Wal, ForeignOrFutureFilesAreRefusedByOpen) {
  TempDir dir;
  // Wrong magic.
  {
    std::vector<std::uint8_t> bytes(32, 0x77);
    write_bytes(dir.file("foreign.wal"), bytes);
    WriteAheadLog wal(dir.file("foreign.wal"));
    EXPECT_THROW((void)wal.open(), net::WalError);
  }
  // Right magic, future version.
  {
    auto bytes = journal_bytes({});
    bytes[4] = 9;  // version 9
    write_bytes(dir.file("future.wal"), bytes);
    WriteAheadLog wal(dir.file("future.wal"));
    EXPECT_THROW((void)wal.open(), net::WalError);
  }
  // Nonzero flags.
  {
    auto bytes = journal_bytes({});
    bytes[6] = 1;
    write_bytes(dir.file("flags.wal"), bytes);
    WriteAheadLog wal(dir.file("flags.wal"));
    EXPECT_THROW((void)wal.open(), net::WalError);
  }
}

TEST(Wal, TornTailIsTruncatedOnOpenAndAppendContinues) {
  TempDir dir;
  const std::string path = dir.file("n.wal");
  const auto recs = sample_records();
  auto bytes = journal_bytes(recs);
  // Tear the last record: drop its final 7 bytes.
  bytes.resize(bytes.size() - 7);
  write_bytes(path, bytes);

  WriteAheadLog wal(path);
  const WalRecoverResult rec = wal.open();
  EXPECT_TRUE(rec.truncated);
  ASSERT_EQ(rec.records.size(), 2u);
  EXPECT_GT(rec.dropped_bytes, 0u);

  // The file now ends on a record boundary: appending works and a reopen
  // sees exactly records 0, 1 and the new one.
  const WalRecord extra = sample_record(WalRecordKind::kDecide, 2, 1, 9);
  wal.append(extra);
  wal.close();
  const WalRecoverResult after = WriteAheadLog::scan(read_bytes(path));
  EXPECT_FALSE(after.truncated);
  ASSERT_EQ(after.records.size(), 3u);
  EXPECT_EQ(after.records[0], recs[0]);
  EXPECT_EQ(after.records[1], recs[1]);
  EXPECT_EQ(after.records[2], extra);
}

// ------------------------------------------------ WAL: crash injection

struct InjectedCrash : std::runtime_error {
  InjectedCrash() : std::runtime_error("injected crash") {}
};

net::WalOptions crashing(WalRecordKind kind, WalCrashPlan::Phase phase,
                         std::size_t torn_bytes = 6) {
  net::WalOptions o;
  o.crash_plan.kind = kind;
  o.crash_plan.phase = phase;
  o.crash_plan.torn_bytes = torn_bytes;
  o.crash = [] { throw InjectedCrash(); };
  return o;
}

TEST(Wal, CrashBeforeAppendLeavesNoTrace) {
  TempDir dir;
  const std::string path = dir.file("n.wal");
  WriteAheadLog wal(path, crashing(WalRecordKind::kPrevote,
                                   WalCrashPlan::Phase::kBefore));
  (void)wal.open();
  EXPECT_THROW(wal.append(sample_record(WalRecordKind::kPrevote, 0, 1)),
               InjectedCrash);
  wal.close();
  const WalRecoverResult res = WriteAheadLog::scan(read_bytes(path));
  EXPECT_TRUE(res.records.empty());
  EXPECT_FALSE(res.truncated);
}

TEST(Wal, CrashMidAppendLeavesRecoverableTornTail) {
  TempDir dir;
  const std::string path = dir.file("n.wal");
  const WalRecord first = sample_record(WalRecordKind::kPrevote, 0, 1);
  {
    WriteAheadLog wal(path, crashing(WalRecordKind::kPrecommit,
                                     WalCrashPlan::Phase::kTorn, 5));
    (void)wal.open();
    wal.append(first);  // unaffected kind: lands whole
    EXPECT_THROW(wal.append(sample_record(WalRecordKind::kPrecommit, 0, 1)),
                 InjectedCrash);
  }
  // The torn precommit is on disk as a 5-byte stump after the prevote.
  const WalRecoverResult raw = WriteAheadLog::scan(read_bytes(path));
  EXPECT_TRUE(raw.truncated);
  EXPECT_EQ(raw.dropped_bytes, 5u);
  ASSERT_EQ(raw.records.size(), 1u);
  EXPECT_EQ(raw.records[0], first);

  // Reopen repairs the tail; the next life appends cleanly.
  WriteAheadLog wal(path);
  const WalRecoverResult rec = wal.open();
  EXPECT_TRUE(rec.truncated);
  ASSERT_EQ(rec.records.size(), 1u);
  wal.append(sample_record(WalRecordKind::kPrecommit, 1, 1));
  wal.close();
  const WalRecoverResult after = WriteAheadLog::scan(read_bytes(path));
  EXPECT_FALSE(after.truncated);
  EXPECT_EQ(after.records.size(), 2u);
}

TEST(Wal, CrashAfterAppendKeepsTheRecordAndFiresOnce) {
  TempDir dir;
  const std::string path = dir.file("n.wal");
  WriteAheadLog wal(path, crashing(WalRecordKind::kDecide,
                                   WalCrashPlan::Phase::kAfter));
  (void)wal.open();
  const WalRecord d = sample_record(WalRecordKind::kDecide, 1, 1, 12);
  EXPECT_THROW(wal.append(d), InjectedCrash);
  // One-shot: the same plan must not re-fire in the (test-hook) afterlife.
  wal.append(sample_record(WalRecordKind::kDecide, 1, 1, 12));
  wal.close();
  const WalRecoverResult res = WriteAheadLog::scan(read_bytes(path));
  ASSERT_EQ(res.records.size(), 2u);
  EXPECT_EQ(res.records[0], d);
}

TEST(Wal, CompactionReplacesAtomicallyAndStaysAppendable) {
  TempDir dir;
  const std::string path = dir.file("n.wal");
  WriteAheadLog wal(path);
  (void)wal.open();
  for (int i = 0; i < 8; ++i) {
    wal.append(sample_record(WalRecordKind::kPrevote, i, 0));
  }
  const WalRecord snap = sample_record(WalRecordKind::kDecide, 7, 0, 40);
  wal.compact({snap});
  // The handle survived the inode swap: further appends land in the new file.
  wal.append(sample_record(WalRecordKind::kDecide, 8, 0));
  wal.close();
  const WalRecoverResult res = WriteAheadLog::scan(read_bytes(path));
  EXPECT_FALSE(res.truncated);
  ASSERT_EQ(res.records.size(), 2u);
  EXPECT_EQ(res.records[0], snap);
}

// ------------------------------------------- in-sim amnesia differential

TEST(Amnesia, RestoredNotaryRefusesToFlipItsPrevote) {
  // Life 1 (journaled, synthesized here) prevoted ABORT in round 0; life 2
  // rejoins a committee whose evidence says COMMIT. The restored notary
  // must not sign a round-0 COMMIT prevote — and the committee (quorum 3
  // of 4) must still decide COMMIT without it.
  consensus::StandaloneCommittee sc;
  sc.evidence = consensus::Value::kCommit;

  TempDir dir;
  WriteAheadLog wal(dir.file("n3.wal"));
  (void)wal.open();

  WalRecord past;
  past.kind = WalRecordKind::kPrevote;
  past.instance = sc.deal_id;
  past.round = 0;
  past.value = static_cast<std::uint8_t>(consensus::Value::kAbort);

  sim::Simulator sim(sc.seed);
  crypto::KeyRegistry keys = sc.make_keys();
  net::Network network(sim, net::DelayModel::synchronous(sc.delta));
  auto config = sc.make_config(keys);
  std::vector<consensus::DecisionCollector*> collectors;
  for (int i = 0; i < sc.participant_count(); ++i) {
    auto& c = sim.spawn<consensus::DecisionCollector>(
        "participant_" + std::to_string(i), config, keys);
    network.attach(c);
    collectors.push_back(&c);
  }
  std::vector<consensus::Notary*> notaries;
  for (int i = 0; i < sc.notaries; ++i) {
    auto& notary = sim.spawn<consensus::Notary>("notary_" + std::to_string(i),
                                                config, keys);
    network.attach(notary);
    notaries.push_back(&notary);
  }
  consensus::Notary& restored = *notaries.back();
  restored.set_wal(&wal);
  restored.restore({past});

  auto msgs = sc.client_messages(keys);
  sim.schedule_at(TimePoint::origin(), [&] {
    for (const auto& m : msgs) network.send(m.from, m.to, m.kind, m.body);
  });
  sim.run_until(TimePoint::origin() + Duration::seconds(120));

  ASSERT_TRUE(collectors[0]->done()) << "committee failed to decide";
  EXPECT_EQ(collectors[0]->value(), consensus::Value::kCommit);
  // The restored notary converges too (round > 0 or via the decision
  // broadcast), without ever having equivocated in round 0.
  EXPECT_EQ(restored.decision(), consensus::Value::kCommit);

  wal.close();
  const WalRecoverResult res = WriteAheadLog::scan(read_bytes(dir.file("n3.wal")));
  for (const WalRecord& r : res.records) {
    if (r.kind == WalRecordKind::kPrevote && r.round == 0) {
      EXPECT_EQ(r.value, past.value)
          << "restored notary signed a conflicting round-0 prevote";
    }
  }
}

// ----------------------------------- multi-process crash-restart harness

bool has_line_with(const std::string& text, const std::string& needle) {
  return text.find(needle) != std::string::npos;
}

/// Post-run journal audit: within one node's journal there must be at most
/// one prevote value per round, at most one precommit value overall (they
/// sign the round-independent decision digest), and every decide record
/// must carry `expect`.
void audit_journal(const std::string& path, std::uint8_t expect) {
  const WalRecoverResult res = WriteAheadLog::scan(read_bytes(path));
  std::map<std::int32_t, std::set<std::uint8_t>> prevotes;
  std::set<std::uint8_t> precommits;
  for (const WalRecord& r : res.records) {
    switch (r.kind) {
      case WalRecordKind::kPrevote:
        prevotes[r.round].insert(r.value);
        break;
      case WalRecordKind::kPrecommit:
        precommits.insert(r.value);
        break;
      case WalRecordKind::kDecide:
        EXPECT_EQ(r.value, expect) << path << ": decide against the outcome";
        break;
      case WalRecordKind::kInvalid:
        FAIL() << path << ": invalid record survived a scan";
    }
  }
  for (const auto& [round, values] : prevotes) {
    EXPECT_LE(values.size(), 1u)
        << path << ": conflicting prevotes in round " << round;
  }
  EXPECT_LE(precommits.size(), 1u) << path << ": conflicting precommits";
}

struct CrashSchedule {
  const char* name;        // test label
  const char* first;       // --crash-at for the victim's first life
  const char* second;      // optional --crash-at for the second life
};

TEST(CrashRestart, CommitteeOutcomeSurvivesEveryCrashSchedule) {
  const std::string bin = node_bin_or_skip();
  if (bin.empty()) GTEST_SKIP() << "xcp_node binary not found";

  const CrashSchedule schedules[] = {
      {"crash-before-vote", "prevote:before", nullptr},
      {"crash-after-vote-before-send", "prevote:after", nullptr},
      {"crash-mid-journal-append", "precommit:torn:10", nullptr},
      {"crash-after-decide", "decide:after", nullptr},
      {"double-crash", "prevote:after", "decide:after"},
  };

  for (const char* value : {"commit", "abort"}) {
    consensus::StandaloneCommittee sc;
    sc.evidence = std::strcmp(value, "commit") == 0
                      ? consensus::Value::kCommit
                      : consensus::Value::kAbort;
    const auto ref = run_standalone_sim(sc);
    ASSERT_TRUE(ref.value.has_value()) << "reference run undecided";
    const std::uint8_t expect = static_cast<std::uint8_t>(*ref.value);

    for (const CrashSchedule& sched : schedules) {
      SCOPED_TRACE(std::string(sched.name) + " / " + value);
      TempDir dir;
      const std::string sdir = dir.path;
      // The victim is notary 0 — the round-0 leader. Its propose -> (self-
      // delivered) prevote -> precommit chain runs synchronously off the
      // evidence arrival, so each armed journal append is guaranteed to be
      // reached: a non-leader victim can race the others' decision
      // broadcast and decide without ever voting.
      const int victim = 0;
      // Generous linger so survivors stay up to serve catch-up to the
      // respawned victim (which rejoins within a couple of seconds).
      const std::vector<std::string> common = {
          "--sock-dir",      dir.path,  "--value",        value,
          "--wall-limit-ms", "30000",   "--linger-ms",    "2500",
          "--state-dir",     sdir};

      std::vector<pid_t> pids;
      for (int k = 0; k < sc.notaries; ++k) {
        auto args = common;
        args.insert(args.end(), {"--node-id", std::to_string(k)});
        if (k == victim) {
          args.insert(args.end(), {"--crash-at", sched.first});
        }
        const pid_t pid =
            spawn_node(bin, args, dir.file("out-" + std::to_string(k)));
        ASSERT_GT(pid, 0);
        pids.push_back(pid);
      }
      auto client_args = common;
      client_args.insert(client_args.end(),
                         {"--node-id", std::to_string(sc.notaries)});
      const pid_t client =
          spawn_node(bin, client_args, dir.file("out-client"));
      ASSERT_GT(client, 0);

      // The armed journal append SIGKILLs the victim mid-protocol.
      ASSERT_EQ(wait_exit(pids[victim]), 128 + SIGKILL)
          << slurp(dir.file("out-" + std::to_string(victim) + ".err"));

      // Life 2: same state dir. Optionally armed again (double-crash).
      {
        auto args = common;
        args.insert(args.end(), {"--node-id", std::to_string(victim)});
        if (sched.second != nullptr) {
          args.insert(args.end(), {"--crash-at", sched.second});
        }
        const pid_t pid = spawn_node(
            bin, args, dir.file("out-" + std::to_string(victim)));
        ASSERT_GT(pid, 0);
        if (sched.second != nullptr) {
          ASSERT_EQ(wait_exit(pid), 128 + SIGKILL)
              << slurp(dir.file("out-" + std::to_string(victim) + ".err"));
        } else {
          pids[victim] = pid;
        }
      }
      // Life 3 for the double-crash schedule: clean restart, plus a
      // compaction pass to exercise the snapshot path under a real rejoin.
      if (sched.second != nullptr) {
        auto args = common;
        args.insert(args.end(), {"--node-id", std::to_string(victim),
                                 "--journal-compact"});
        const pid_t pid = spawn_node(
            bin, args, dir.file("out-" + std::to_string(victim)));
        ASSERT_GT(pid, 0);
        pids[victim] = pid;
      }

      // Everyone converges: client certifies, survivors and the rejoined
      // victim decide the reference value.
      EXPECT_EQ(wait_exit(client), 0) << slurp(dir.file("out-client.err"));
      const std::string out = slurp(dir.file("out-client"));
      EXPECT_EQ(line_with_prefix(out, "OUTCOME "),
                "OUTCOME " + ref.canonical())
          << out;
      for (int k = 0; k < sc.notaries; ++k) {
        EXPECT_EQ(wait_exit(pids[k]), 0)
            << slurp(dir.file("out-" + std::to_string(k) + ".err"));
        const std::string nout = slurp(dir.file("out-" + std::to_string(k)));
        EXPECT_TRUE(has_line_with(
            nout, std::string("DECIDED value=") + value))
            << nout;
      }
      const std::string vout =
          slurp(dir.file("out-" + std::to_string(victim)));
      EXPECT_TRUE(has_line_with(vout, "RECOVERED node=" +
                                          std::to_string(victim)))
          << vout;
      if (sched.second != nullptr) {
        EXPECT_TRUE(has_line_with(vout, "COMPACTED records=1")) << vout;
      }

      // No journal anywhere holds conflicting votes, and every journaled
      // decision matches the committee outcome — across all the victim's
      // lives, since the journal survived them.
      for (int k = 0; k < sc.notaries; ++k) {
        audit_journal(dir.file("node-" + std::to_string(k) + ".wal"),
                      expect);
      }
    }
  }
}

// -------------------------------------------------- exit-code taxonomy

TEST(NodeExitCodes, UsageErrorsExitTwo) {
  const std::string bin = node_bin_or_skip();
  if (bin.empty()) GTEST_SKIP() << "xcp_node binary not found";
  TempDir dir;
  const pid_t pid = spawn_node(bin, {"--node-id", "0"}, dir.file("out"));
  ASSERT_GT(pid, 0);
  EXPECT_EQ(wait_exit(pid), net::node_exit::kUsage);
  // --crash-at without --state-dir is a usage error too.
  const pid_t pid2 = spawn_node(
      bin,
      {"--node-id", "0", "--sock-dir", dir.path, "--crash-at",
       "prevote:after"},
      dir.file("out2"));
  ASSERT_GT(pid2, 0);
  EXPECT_EQ(wait_exit(pid2), net::node_exit::kUsage);

  // Integer flags take whole decimal tokens: trailing junk, a sign,
  // leading blanks, an empty token or a non-number is a usage error, never
  // a silent 0 or a parsed prefix. So is a zero round timer, which would
  // spin at one virtual instant past any wall limit. Every case carries a
  // short wall limit, so a node that misparses the token and runs still
  // exits on its own.
  const std::vector<std::vector<std::string>> bad_ints = {
      {"--node-id", "4x", "--notaries", "4"},
      {"--notaries", "4x"},
      {"--n", "2x"},
      {"--deal", ""},
      {"--seed", "-1"},
      {"--base-round-ms", "100ms"},
      {"--base-round-ms", "0"},
      {"--heartbeat-ms", "50ms"},
      {"--peer-timeout-ms", " 600"},
      {"--linger-ms", "1e3"},
      {"--wall-limit-ms", "abc"},
      {"--peer", "1x=unix:" + dir.file("p1.sock")},
      {"--state-dir", dir.path, "--crash-at", "prevote:torn:3x"},
  };
  for (std::size_t i = 0; i < bad_ints.size(); ++i) {
    SCOPED_TRACE(bad_ints[i][0] + " '" + bad_ints[i][1] + "'");
    std::vector<std::string> args = {"--node-id", "0", "--sock-dir",
                                     dir.path, "--wall-limit-ms", "300"};
    args.insert(args.end(), bad_ints[i].begin(), bad_ints[i].end());
    const std::string out = dir.file("bad-" + std::to_string(i));
    const pid_t p = spawn_node(bin, args, out);
    ASSERT_GT(p, 0);
    EXPECT_EQ(wait_exit(p), net::node_exit::kUsage) << slurp(out + ".err");
  }
}

TEST(NodeExitCodes, CorruptJournalExitsJournalCorrupt) {
  const std::string bin = node_bin_or_skip();
  if (bin.empty()) GTEST_SKIP() << "xcp_node binary not found";
  TempDir dir;
  // A file with the right name but a foreign header: the node must refuse
  // to truncate it and exit with the journal-corrupt code.
  std::vector<std::uint8_t> foreign(64, 0x77);
  write_bytes(dir.file("node-0.wal"), foreign);
  // A stand-in at the node's socket path. Binding the listener replaces
  // whatever is there, so it survives only if the node never listened.
  write_bytes(dir.file("node-0.sock"), {0x01});
  const pid_t pid = spawn_node(
      bin,
      {"--node-id", "0", "--sock-dir", dir.path, "--state-dir", dir.path,
       "--wall-limit-ms", "2000"},
      dir.file("out"));
  ASSERT_GT(pid, 0);
  EXPECT_EQ(wait_exit(pid), net::node_exit::kJournalCorrupt)
      << slurp(dir.file("out.err"));
  EXPECT_EQ(read_bytes(dir.file("node-0.sock")),
            std::vector<std::uint8_t>{0x01})
      << "the node bound its listener before refusing the journal";
}

// ------------------------------------------------------ start-up order

TEST(NodeStartup, JournalIsReadyBeforeTheListenerAccepts) {
  // xcp_node opens (and, on a fresh file, creates and fsyncs) its journal
  // before it binds its socket, so the first connection a peer can make
  // already finds the journal on disk with a valid header.
  const std::string bin = node_bin_or_skip();
  if (bin.empty()) GTEST_SKIP() << "xcp_node binary not found";
  TempDir dir;
  const pid_t pid = spawn_node(
      bin,
      {"--node-id", "0", "--sock-dir", dir.path, "--state-dir", dir.path,
       "--wall-limit-ms", "10000"},
      dir.file("out"));
  ASSERT_GT(pid, 0);
  sockaddr_un sun{};
  sun.sun_family = AF_UNIX;
  const std::string sock = dir.file("node-0.sock");
  ASSERT_LT(sock.size(), sizeof sun.sun_path);
  std::memcpy(sun.sun_path, sock.c_str(), sock.size() + 1);
  // Connect as early as the listener allows, then read the journal at once.
  bool connected = false;
  std::string journal;
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(5);
  while (!connected && std::chrono::steady_clock::now() < deadline) {
    const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
    if (fd < 0) break;
    connected = ::connect(fd, reinterpret_cast<const sockaddr*>(&sun),
                          sizeof sun) == 0;
    if (connected) journal = slurp(dir.file("node-0.wal"));
    ::close(fd);
  }
  ::kill(pid, SIGKILL);
  (void)wait_exit(pid);
  ASSERT_TRUE(connected) << "the node never accepted a connection";
  const WalRecoverResult res = WriteAheadLog::scan(
      std::vector<std::uint8_t>(journal.begin(), journal.end()));
  EXPECT_FALSE(res.fresh) << "no journal yet when the listener accepted";
  EXPECT_FALSE(res.truncated) << "journal header incomplete";
  EXPECT_EQ(res.valid_bytes, net::kWalHeaderBytes);
}

}  // namespace
}  // namespace xcp
