// xcp_sweep_shard: one shard of a distributed property-matrix sweep.
//
// exp::distributed_sweep launches one of these per shard attempt: scenario
// + cell + seed range in on the command line, one serialized accumulator
// blob (exp::serialize_shard_blob) out on stdout. The process is stateless
// and deterministic — per-seed determinism plus CellAccum's
// order-insensitive merge make the driver's fold byte-identical to a
// single-process sweep, whatever the shard count. Run with --help for the
// flag list.
//
// Exit codes are distinct so the dispatcher can classify failures without
// parsing stderr: 0 success, 2 usage, 3 wire/serialize error, 4 short
// write on stdout, 5 internal error (exp::worker_exit in exp/dispatch.hpp).
//
// Deterministic fault injection (--fault MODE[@K][:if-first-seed=S],
// repeatable) exists so tests can prove the dispatcher's central
// invariant: under any fault schedule that leaves each shard one
// successful attempt, the supervised sweep stays byte-identical to the
// single-process run_matrix_cell. A fault fires only while the dispatcher's
// --attempt ordinal is <= K (default 1) and, with the :if-first-seed
// filter, only in the shard whose range starts at S — so "fail the first
// attempt, succeed on retry" schedules are one flag.

#include <cerrno>
#include <chrono>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <string>
#include <thread>
#include <vector>

#include "exp/dispatch.hpp"
#include "exp/runner.hpp"
#include "exp/shard.hpp"
#include "support/bytes.hpp"

namespace {

using xcp::exp::worker_exit::kInternal;
using xcp::exp::worker_exit::kShortWrite;
using xcp::exp::worker_exit::kUsage;
using xcp::exp::worker_exit::kWireError;

int usage(const char* argv0) {
  std::fprintf(
      stderr,
      "usage: %s --protocol TOKEN --regime TOKEN [--n N] [--first-seed S]\n"
      "          [--seeds COUNT] [--online 0|1] [--early-stop 0|1]\n"
      "          [--attempt A] [--fault MODE[@K][:if-first-seed=S]]...\n"
      "          [--fault-delay-ms MS]\n"
      "\n"
      "Runs COUNT seeds of one property-matrix cell and writes a versioned\n"
      "accumulator blob to stdout (parse with exp::parse_shard_blob).\n"
      "protocol tokens: time-bounded universal-naive interledger-atomic\n"
      "                 weak-trusted weak-contract weak-committee\n"
      "regime tokens:   synchrony synchrony-drift partial-synchrony\n"
      "                 partial-adversary\n"
      "fault modes (fire while --attempt <= K, default K=1):\n"
      "  crash-before-write  SIGKILL before any output\n"
      "  crash-mid-blob      write half the blob, then SIGKILL\n"
      "  corrupt-blob        flip the first frame tag byte (parse reject)\n"
      "  stall-forever       never write, never exit (deadline fodder)\n"
      "  slow-start          sleep --fault-delay-ms, then run normally\n"
      "  wrong-meta          blob describes a shifted seed range\n"
      "  nonzero-exit        diagnostic on stderr, exit 7\n"
      "  huge-blob           valid blob + 1 MiB trailing junk, stderr flood\n"
      "exit codes: 0 ok, 2 usage, 3 wire error, 4 short write, 5 internal\n",
      argv0);
  return kUsage;
}

// Strict numeric parsing: the whole token must be a non-negative decimal
// in range. std::sto* would let "--seeds -1" wrap to 2^64-1 and throw
// (uncaught -> SIGABRT) on "--n abc"; bad values must be usage errors.
bool parse_u64(const char* s, std::uint64_t& out) {
  // Require a leading digit, not just "no leading '-'": strtoull itself
  // skips whitespace and accepts a sign, so " -1" would otherwise wrap to
  // 2^64-1.
  if (s == nullptr || *s < '0' || *s > '9') return false;
  char* end = nullptr;
  errno = 0;
  const unsigned long long v = std::strtoull(s, &end, 10);
  if (errno != 0 || end == s || *end != '\0') return false;
  out = v;
  return true;
}

bool parse_i32(const char* s, std::int32_t& out) {
  std::uint64_t v = 0;
  if (!parse_u64(s, v) || v > 0x7fffffffu) return false;
  out = static_cast<std::int32_t>(v);
  return true;
}

bool parse_bool(const char* s, bool& out) {
  if (std::strcmp(s, "0") == 0) {
    out = false;
    return true;
  }
  if (std::strcmp(s, "1") == 0) {
    out = true;
    return true;
  }
  return false;
}

enum class FaultMode {
  kNone,
  kCrashBeforeWrite,
  kCrashMidBlob,
  kCorruptBlob,
  kStallForever,
  kSlowStart,
  kWrongMeta,
  kNonzeroExit,
  kHugeBlob,
};

struct FaultSpec {
  FaultMode mode = FaultMode::kNone;
  std::uint64_t max_attempt = 1;  // fires while attempt <= max_attempt
  bool has_seed_filter = false;
  std::uint64_t first_seed_filter = 0;
};

bool parse_fault_mode(const std::string& tok, FaultMode& out) {
  if (tok == "crash-before-write") out = FaultMode::kCrashBeforeWrite;
  else if (tok == "crash-mid-blob") out = FaultMode::kCrashMidBlob;
  else if (tok == "corrupt-blob") out = FaultMode::kCorruptBlob;
  else if (tok == "stall-forever") out = FaultMode::kStallForever;
  else if (tok == "slow-start") out = FaultMode::kSlowStart;
  else if (tok == "wrong-meta") out = FaultMode::kWrongMeta;
  else if (tok == "nonzero-exit") out = FaultMode::kNonzeroExit;
  else if (tok == "huge-blob") out = FaultMode::kHugeBlob;
  else return false;
  return true;
}

/// MODE[@K][:if-first-seed=S]
bool parse_fault_spec(const std::string& arg, FaultSpec& out) {
  std::string spec = arg;
  const std::size_t colon = spec.find(':');
  if (colon != std::string::npos) {
    const std::string filter = spec.substr(colon + 1);
    spec.resize(colon);
    const std::string prefix = "if-first-seed=";
    if (filter.rfind(prefix, 0) != 0) return false;
    if (!parse_u64(filter.c_str() + prefix.size(), out.first_seed_filter)) {
      return false;
    }
    out.has_seed_filter = true;
  }
  const std::size_t at = spec.find('@');
  if (at != std::string::npos) {
    if (!parse_u64(spec.c_str() + at + 1, out.max_attempt)) return false;
    spec.resize(at);
  }
  return parse_fault_mode(spec, out.mode);
}

[[noreturn]] void crash_now() {
  // SIGKILL: the most honest "worker died" a test can inject — no unwind,
  // no atexit, no core-dump slow path.
  std::raise(SIGKILL);
  std::abort();  // unreachable; raise(SIGKILL) does not return
}

[[noreturn]] void stall_forever() {
  for (;;) std::this_thread::sleep_for(std::chrono::seconds(3600));
}

}  // namespace

int main(int argc, char** argv) {
  using namespace xcp;

  exp::ShardMeta meta;
  bool have_protocol = false;
  bool have_regime = false;
  std::uint64_t attempt = 1;
  std::uint64_t fault_delay_ms = 300;
  std::vector<FaultSpec> faults;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto value = [&]() -> const char* {
      return i + 1 < argc ? argv[++i] : nullptr;
    };
    if (arg == "--help" || arg == "-h") {
      usage(argv[0]);
      return 0;
    } else if (arg == "--protocol") {
      const char* v = value();
      if (v == nullptr || !exp::parse_protocol_token(v, meta.protocol)) {
        std::fprintf(stderr, "%s: bad --protocol token\n", argv[0]);
        return usage(argv[0]);
      }
      have_protocol = true;
    } else if (arg == "--regime") {
      const char* v = value();
      if (v == nullptr || !exp::parse_regime_token(v, meta.regime)) {
        std::fprintf(stderr, "%s: bad --regime token\n", argv[0]);
        return usage(argv[0]);
      }
      have_regime = true;
    } else if (arg == "--n") {
      const char* v = value();
      // A deal needs at least one escrow: n = 0 is a bad flag value, not
      // an internal error in the run.
      if (v == nullptr || !parse_i32(v, meta.n) || meta.n < 1) {
        return usage(argv[0]);
      }
    } else if (arg == "--first-seed") {
      const char* v = value();
      if (v == nullptr || !parse_u64(v, meta.first_seed)) {
        return usage(argv[0]);
      }
    } else if (arg == "--seeds") {
      const char* v = value();
      if (v == nullptr || !parse_u64(v, meta.seed_count)) {
        return usage(argv[0]);
      }
    } else if (arg == "--online") {
      const char* v = value();
      if (v == nullptr || !parse_bool(v, meta.online)) return usage(argv[0]);
    } else if (arg == "--early-stop") {
      const char* v = value();
      if (v == nullptr || !parse_bool(v, meta.early_stop)) {
        return usage(argv[0]);
      }
    } else if (arg == "--attempt") {
      const char* v = value();
      if (v == nullptr || !parse_u64(v, attempt) || attempt == 0) {
        return usage(argv[0]);
      }
    } else if (arg == "--fault") {
      const char* v = value();
      FaultSpec spec;
      if (v == nullptr || !parse_fault_spec(v, spec)) {
        std::fprintf(stderr, "%s: bad --fault spec\n", argv[0]);
        return usage(argv[0]);
      }
      faults.push_back(spec);
    } else if (arg == "--fault-delay-ms") {
      const char* v = value();
      if (v == nullptr || !parse_u64(v, fault_delay_ms)) {
        return usage(argv[0]);
      }
    } else {
      std::fprintf(stderr, "%s: unknown flag %s\n", argv[0], arg.c_str());
      return usage(argv[0]);
    }
  }
  if (!have_protocol || !have_regime) return usage(argv[0]);

  // First matching spec wins: faults are deterministic functions of
  // (attempt, shard first-seed), so a schedule mixing per-shard modes is
  // just several --fault flags with if-first-seed filters.
  FaultMode fault = FaultMode::kNone;
  for (const FaultSpec& spec : faults) {
    if (attempt > spec.max_attempt) continue;
    if (spec.has_seed_filter && meta.first_seed != spec.first_seed_filter) {
      continue;
    }
    fault = spec.mode;
    break;
  }

  if (fault == FaultMode::kNonzeroExit) {
    std::fprintf(stderr, "%s: injected fault: nonzero-exit (attempt %llu)\n",
                 argv[0], static_cast<unsigned long long>(attempt));
    return 7;
  }
  if (fault == FaultMode::kCrashBeforeWrite) crash_now();
  if (fault == FaultMode::kStallForever) stall_forever();
  if (fault == FaultMode::kSlowStart) {
    std::this_thread::sleep_for(std::chrono::milliseconds(fault_delay_ms));
  }

  try {
    exp::CellOptions opts;
    opts.online.enabled = meta.online;
    opts.online.early_stop = meta.early_stop;
    const exp::CellAccum acc = exp::run_matrix_cell_accum(
        meta.protocol, meta.regime, meta.n,
        static_cast<std::size_t>(meta.seed_count), meta.first_seed, opts);

    exp::ShardMeta wire_meta = meta;
    if (fault == FaultMode::kWrongMeta) {
      // A worker that ran the wrong work and says so: the driver's meta
      // cross-check must reject it before merge.
      wire_meta.first_seed += 1;
    }
    std::vector<std::uint8_t> blob =
        exp::serialize_shard_blob(wire_meta, acc);
    if (fault == FaultMode::kCorruptBlob) {
      // Byte 8 is the first frame's tag low byte: XOR guarantees an
      // unknown-tag parse rejection, not a silently flipped counter.
      blob[8] ^= 0xff;
    }

    std::size_t write_len = blob.size();
    if (fault == FaultMode::kCrashMidBlob) write_len = blob.size() / 2;
    if (std::fwrite(blob.data(), 1, write_len, stdout) != write_len ||
        std::fflush(stdout) != 0) {
      std::fprintf(stderr, "%s: short write on stdout\n", argv[0]);
      return kShortWrite;
    }
    if (fault == FaultMode::kCrashMidBlob) crash_now();
    if (fault == FaultMode::kHugeBlob) {
      // Far beyond any pipe buffer on both streams: a driver that stops
      // draining before EOF (PR 5's close_all error path) deadlocks here.
      const std::vector<std::uint8_t> junk(64 * 1024, 0xaa);
      for (int chunk = 0; chunk < 16; ++chunk) {  // 1 MiB on stdout
        if (std::fwrite(junk.data(), 1, junk.size(), stdout) != junk.size()) {
          return kShortWrite;
        }
      }
      const std::string line(1024, '!');
      for (int chunk = 0; chunk < 256; ++chunk) {  // 256 KiB on stderr
        std::fprintf(stderr, "%s\n", line.c_str());
      }
      if (std::fflush(stdout) != 0) return kShortWrite;
    }
  } catch (const support::ByteError& e) {
    std::fprintf(stderr, "%s: %s\n", argv[0], e.what());
    return kWireError;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "%s: %s\n", argv[0], e.what());
    return kInternal;
  }
  return 0;
}
