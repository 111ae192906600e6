#pragma once
// Property-matrix runner: executes a named protocol under a named regime and
// summarizes which of the paper's requirements held. Feeds the
// TAB-properties bench (the §1/§5 comparison) and several tests.

#include <cstdint>
#include <string>
#include <vector>

#include "props/checkers.hpp"
#include "props/online.hpp"
#include "proto/outcome.hpp"

namespace xcp::exp {

enum class ProtocolKind {
  kTimeBounded,          // Thm 1 (drift-compensated universal protocol)
  kUniversalNaive,       // [4] universal, no drift handling
  kInterledgerAtomic,    // [4] atomic, deadline notary
  kWeakTrusted,          // Thm 3, trusted-party TM
  kWeakContract,         // Thm 3, smart-contract TM
  kWeakCommittee,        // Thm 3, notary-committee TM
};

const char* protocol_kind_name(ProtocolKind k);

enum class Regime {
  kSynchronyConforming,   // synchronous, drift within rho
  kSynchronyHighDrift,    // synchronous, drift 20x beyond the schedule's rho
  kPartialSynchrony,      // GST environment, no timing adversary
  kPartialSynchronyAdversarial,  // GST + certificate-griefing adversary
};

const char* regime_name(Regime r);

struct MatrixCell {
  ProtocolKind protocol;
  Regime regime;
  std::size_t runs = 0;
  std::size_t safety_violations = 0;   // ES/CS/CC failures
  std::size_t termination_failures = 0;
  std::size_t liveness_failures = 0;   // Bob unpaid in all-honest runs
  std::vector<std::string> example_violations;

  // Online-checking telemetry (streamed per seed; zero when the cell ran
  // without a monitor, e.g. the buffered reference).
  std::size_t early_stops = 0;         // seeds whose run stopped at decision
  Duration decided_at_total;           // sum of decided-at over early stops
  std::uint64_t events_total = 0;      // simulator events across all seeds

  /// Whole-cell equality, used by the byte-identity checks across worker
  /// counts; defaulted so a new field can never be forgotten.
  bool operator==(const MatrixCell&) const = default;

  bool safety_ok() const { return safety_violations == 0; }
  bool termination_ok() const { return termination_failures == 0; }
  bool liveness_ok() const { return liveness_failures == 0; }
  double early_stop_rate() const {
    return runs == 0 ? 0.0
                     : static_cast<double>(early_stops) /
                           static_cast<double>(runs);
  }
};

/// How a matrix cell drives the online-checking subsystem.
struct CellOptions {
  /// Attach the OnlineMonitor and terminate each seed the moment its
  /// verdict is decided (every abiding participant terminated). The
  /// default: verdict-proportional sweep time. Checker verdicts are
  /// unchanged by construction — run_matrix_cell_differential proves it.
  props::OnlineOptions online{/*enabled=*/true, /*early_stop=*/true};
};

/// Worker-local fold state for the streaming cell sweep. Merge is a plain
/// sum except for the example list, which keeps the (seed, ordinal)-lowest
/// few — every operation is insensitive to how seeds were partitioned
/// across workers and associative across merges, so the merged cell is
/// bit-identical for any worker count or merge order. Merging a
/// default-constructed CellAccum is a no-op (idle worker slots merge too).
struct CellAccum {
  static constexpr std::size_t kMaxExamples = 4;

  struct Example {
    std::uint64_t seed = 0;
    std::uint32_t ordinal = 0;  // order within the seed's checker pass
    std::string text;
  };

  std::size_t safety_violations = 0;
  std::size_t termination_failures = 0;
  std::size_t liveness_failures = 0;
  // Early-stop telemetry: plain sums, so the merge stays order-insensitive.
  std::size_t early_stops = 0;
  Duration decided_at_total;
  std::uint64_t events_total = 0;
  std::vector<Example> examples;  // sorted by (seed, ordinal), capped

  void merge(CellAccum&& o);
};

/// The streaming sweep behind run_matrix_cell, exposed as an accumulator:
/// runs seeds [first_seed, first_seed + seeds) and returns the merged fold
/// state instead of a finished cell. Folding the accums of consecutive seed
/// ranges with CellAccum::merge and finishing with cell_from_accum
/// reproduces run_matrix_cell byte-for-byte.
CellAccum run_matrix_cell_accum(ProtocolKind protocol, Regime regime, int n,
                                std::size_t seeds,
                                std::uint64_t first_seed = 1,
                                const CellOptions& opts = {});

/// One seed of a cell: `protocol` under `regime`'s preset (chain length
/// n), with the given online options. Every matrix path runs its seeds
/// through this.
proto::RunRecord run_cell_seed(ProtocolKind protocol, Regime regime, int n,
                               std::uint64_t seed,
                               props::OnlineOptions online = {});

/// Assembles the returned MatrixCell from a merged accumulator — the one
/// place the accumulator's fields map onto the cell's, shared by the
/// streaming and differential paths. `runs` is the total seed count the
/// accumulator covers.
MatrixCell cell_from_accum(ProtocolKind protocol, Regime regime,
                           std::size_t runs, CellAccum&& acc);

/// Runs `seeds` all-honest executions of `protocol` under `regime` (chain
/// length n) and aggregates property outcomes. Streaming: each seed's
/// RunRecord is checked and folded into a worker-local accumulator the
/// moment it completes (exp::sweep_accumulate), so the sweep's live state
/// is O(workers) — whole-run traces are never buffered. With the default
/// options each seed also stops at its deciding event (early-stop counts
/// and decided-at sums fold into the cell). Results are bit-identical for
/// any worker count (and, field-for-field on the verdict counters, to the
/// buffered full-horizon variant below).
MatrixCell run_matrix_cell(ProtocolKind protocol, Regime regime, int n,
                           std::size_t seeds, std::uint64_t first_seed = 1,
                           const CellOptions& opts = {});

/// The pre-streaming implementation: buffers every seed's whole RunRecord
/// (trace included) before checking, with no monitor attached. Kept as
/// the A/B twin for peak-RSS measurements and as the reference side of the
/// streaming differential test; produces byte-identical verdict counters.
MatrixCell run_matrix_cell_buffered(ProtocolKind protocol, Regime regime,
                                    int n, std::size_t seeds,
                                    std::uint64_t first_seed = 1);

/// Differential mode: every seed is executed twice — once with early
/// termination, once to the full horizon with the monitor attached — and
/// the two runs' verdicts are required to agree event-for-event:
///  - the live online verdicts equal a post-mortem replay of the full
///    trace through fresh machines (same verdict, decided-at time and
///    deciding event ordinal),
///  - the online verdicts equal the batch checkers' answers on the
///    full-horizon record (bob_paid, termination, CC, abort count),
///  - the early-stopped record folds to byte-identical cell verdicts.
/// Throws (XCP_REQUIRE) on any divergence; returns the early-stop cell.
MatrixCell run_matrix_cell_differential(ProtocolKind protocol, Regime regime,
                                        int n, std::size_t seeds,
                                        std::uint64_t first_seed = 1);

}  // namespace xcp::exp
