// TAB-properties: the protocol x property comparison implicit in Sec. 1 and
// Sec. 5 of the paper.
//
// Expected shape (the paper's positioning):
//                         synchrony   sync+drift   partial-sync  partial+adv
//  universal [4] naive    S+T+L       FAILS        S only        S only
//  time-bounded (Thm 1)   S+T+L       S+T+L        S only        S only
//  atomic [4]             S+T+L       S+T+L        S+T, no L     S+T, no L
//  weak (Thm 3, any TM)   S+T+L       S+T+L        S+T+Lw        S+T+Lw
//
// (S = safety: ES/CS/CC/conservation; T = termination; L = Bob paid in
// all-honest runs; for weak protocols L is weak liveness.)

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <limits>
#include <iostream>
#include <sstream>
#include <unistd.h>
#include <string>

#include "exp/dispatch.hpp"
#include "exp/runner.hpp"
#include "exp/shard.hpp"
#include "support/table.hpp"

using namespace xcp;
using exp::ProtocolKind;
using exp::Regime;

namespace {

std::string cell_str(const exp::MatrixCell& c) {
  std::string s;
  s += c.safety_ok() ? "S" : "s!";
  s += c.termination_ok() ? " T" : " t!";
  s += c.liveness_ok() ? " L" : " l!";
  return s;
}

/// Peak resident set (VmHWM) of this process, for the streaming-vs-buffered
/// sweep A/B. Peak RSS is monotonic per process, so compare two separate
/// invocations (one per mode), not two phases of one run.
std::string peak_rss() {
  std::ifstream f("/proc/self/status");
  std::string line;
  while (std::getline(f, line)) {
    if (line.rfind("VmHWM:", 0) == 0) return line.substr(6);
  }
  return " (unavailable)";
}

}  // namespace

int main(int argc, char** argv) {
  // --buffered: run every cell through the pre-streaming reference path
  // (whole RunRecords buffered per sweep, full horizon); --seeds N scales
  // the sweep. --full-horizon: streaming, but with early termination
  // disabled (the monitor still watches) — the A/B baseline for the online
  // early-stop numbers in docs/PERF.md. --differential: every seed runs
  // twice and online verdicts are required to equal the post-mortem
  // checkers event-for-event (throws on divergence). Verdicts are
  // identical in every mode; only wall-clock and footprint differ.
  // --shards "1,2,4": after the matrix, sweep the whole 6x4 grid again
  // through exp::distributed_sweep at each shard count and print the
  // scaling curve (results are verified byte-identical to the
  // single-process matrix as they stream). --worker PATH selects the
  // xcp_sweep_shard binary; default $XCP_SWEEP_SHARD_BIN, then
  // ./xcp_sweep_shard, then in-process shards (wire round-trip, no exec).
  // --fault SPEC (repeatable) and --fault-delay-ms MS forward the worker's
  // fault-injection flags through the dispatcher, so the supervision
  // overhead (retries, deadline kills) can be measured under a chosen
  // fault schedule. Report-only: the dispatch report is printed after the
  // scaling table and never gates the bench — byte-identity of the
  // recovered results is still enforced.
  bool buffered = false;
  bool full_horizon = false;
  bool differential = false;
  std::size_t kSeeds = 8;
  std::vector<unsigned> shard_counts;
  std::string worker_path;
  std::vector<std::string> fault_args;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--buffered") == 0) buffered = true;
    if (std::strcmp(argv[i], "--full-horizon") == 0) full_horizon = true;
    if (std::strcmp(argv[i], "--differential") == 0) differential = true;
    // Strict positive-integer parsing: std::stoul would terminate the
    // process on "--shards 1,x" and accept "--shards 0", which aborts
    // later inside plan_shards; both should be usage errors.
    const auto parse_positive = [&](const char* tok, const char* flag,
                                    std::size_t& out) {
      char* end = nullptr;
      const unsigned long v = std::strtoul(tok, &end, 10);
      if (end == tok || *end != '\0' || v == 0 ||
          v > std::numeric_limits<unsigned>::max()) {
        std::cerr << "bad " << flag << " value '" << tok
                  << "' (want a positive integer)\n";
        std::exit(2);
      }
      out = static_cast<std::size_t>(v);
    };
    if (std::strcmp(argv[i], "--seeds") == 0 && i + 1 < argc) {
      parse_positive(argv[++i], "--seeds", kSeeds);
    }
    if (std::strcmp(argv[i], "--worker") == 0 && i + 1 < argc) {
      worker_path = argv[++i];
    }
    if (std::strcmp(argv[i], "--fault") == 0 && i + 1 < argc) {
      fault_args.insert(fault_args.end(), {"--fault", argv[++i]});
    }
    if (std::strcmp(argv[i], "--fault-delay-ms") == 0 && i + 1 < argc) {
      fault_args.insert(fault_args.end(), {"--fault-delay-ms", argv[++i]});
    }
    if (std::strcmp(argv[i], "--shards") == 0 && i + 1 < argc) {
      std::istringstream list(argv[++i]);
      std::string tok;
      while (std::getline(list, tok, ',')) {
        if (tok.empty()) continue;
        std::size_t k = 0;
        parse_positive(tok.c_str(), "--shards", k);
        shard_counts.push_back(static_cast<unsigned>(k));
      }
    }
  }
  if (!shard_counts.empty()) {
    // distributed_sweep shards the streaming sweep; the buffered and
    // differential modes have no sharded counterpart to compare against.
    if (buffered || differential) {
      std::cerr << "--shards cannot be combined with --buffered or "
                   "--differential\n";
      return 2;
    }
    if (worker_path.empty()) {
      try {
        worker_path = exp::default_worker_path();
      } catch (const std::exception& e) {  // env var set but unusable
        std::cerr << e.what() << "\n";
        return 2;
      }
    } else if (access(worker_path.c_str(), X_OK) != 0) {
      std::cerr << "--worker '" << worker_path
                << "' is not an executable file\n";
      return 2;
    }
  }
  if (!fault_args.empty() &&
      (shard_counts.empty() || worker_path.empty())) {
    std::cerr << "--fault requires --shards and a worker binary "
                 "(in-process shards cannot inject process faults)\n";
    return 2;
  }
  constexpr int kN = 2;
  const auto run_cell = [&](ProtocolKind p, Regime r) {
    if (buffered) return exp::run_matrix_cell_buffered(p, r, kN, kSeeds);
    if (differential) {
      return exp::run_matrix_cell_differential(p, r, kN, kSeeds);
    }
    exp::CellOptions opts;
    opts.online.early_stop = !full_horizon;
    return exp::run_matrix_cell(p, r, kN, kSeeds, 1, opts);
  };

  const std::vector<ProtocolKind> protocols{
      ProtocolKind::kUniversalNaive, ProtocolKind::kTimeBounded,
      ProtocolKind::kInterledgerAtomic, ProtocolKind::kWeakTrusted,
      ProtocolKind::kWeakContract, ProtocolKind::kWeakCommittee};
  const std::vector<Regime> regimes{
      Regime::kSynchronyConforming, Regime::kSynchronyHighDrift,
      Regime::kPartialSynchrony, Regime::kPartialSynchronyAdversarial};

  std::cout << "== TAB-properties: protocol x regime (" << kSeeds
            << " all-honest runs per cell, n = " << kN << ") ==\n"
            << "cell legend: S/s! safety held/violated, T/t! termination, "
               "L/l! liveness (Bob paid)\n"
            << "expected: naive fails under drift; time-bounded loses T+L "
               "under partial synchrony (Thm 2);\n"
            << "atomic loses only L; the weak protocols keep S+T+L "
               "everywhere (Thm 3).\n";

  std::vector<std::string> headers{"protocol"};
  for (Regime r : regimes) headers.push_back(exp::regime_name(r));
  Table table(headers);

  std::vector<std::string> notes;
  Table timing({"protocol", "regime", "wall-clock", "events", "early-stop",
                "mean decided-at"});
  double total_ms = 0.0;
  for (ProtocolKind p : protocols) {
    std::vector<std::string> row{exp::protocol_kind_name(p)};
    for (Regime r : regimes) {
      const auto t0 = std::chrono::steady_clock::now();
      const auto cell = run_cell(p, r);
      const double ms =
          std::chrono::duration<double, std::milli>(
              std::chrono::steady_clock::now() - t0)
              .count();
      total_ms += ms;
      row.push_back(cell_str(cell));
      if (!cell.example_violations.empty() && notes.size() < 8) {
        notes.push_back(std::string(exp::protocol_kind_name(p)) + " @ " +
                        exp::regime_name(r) + ": " +
                        cell.example_violations.front());
      }
      char wall[32];
      std::snprintf(wall, sizeof(wall), "%.2f ms", ms);
      char rate[32];
      std::snprintf(rate, sizeof(rate), "%.0f%%",
                    100.0 * cell.early_stop_rate());
      const std::string decided =
          cell.early_stops == 0
              ? "-"
              : (cell.decided_at_total /
                 static_cast<std::int64_t>(cell.early_stops))
                    .str();
      timing.add_row({exp::protocol_kind_name(p), exp::regime_name(r), wall,
                      Table::fmt(static_cast<std::int64_t>(cell.events_total)),
                      rate, decided});
    }
    table.add_row(std::move(row));
  }
  table.print(std::cout, "property matrix");

  if (!notes.empty()) {
    std::cout << "\nexample violations observed:\n";
    for (const auto& n : notes) std::cout << "  - " << n << "\n";
  }

  std::cout << "\n";
  timing.print(std::cout,
               "per-cell sweep cost (early-stop = decided seeds stopped at "
               "their verdict)");

  const char* mode = buffered       ? "buffered (full horizon)"
                     : differential ? "differential (each seed run twice)"
                     : full_horizon ? "streaming, full horizon"
                                    : "streaming + online early stop";
  std::printf("\nsweep mode: %s, total %.1f ms, peak RSS (VmHWM):%s\n", mode,
              total_ms, peak_rss().c_str());

  // ---------------------------------------------- shard-count scaling curve
  if (!shard_counts.empty()) {
    const auto matrix_wall = [&](auto&& cell_fn) {
      const auto t0 = std::chrono::steady_clock::now();
      std::vector<exp::MatrixCell> cells;
      for (ProtocolKind p : protocols) {
        for (Regime r : regimes) cells.push_back(cell_fn(p, r));
      }
      const double ms = std::chrono::duration<double, std::milli>(
                            std::chrono::steady_clock::now() - t0)
                            .count();
      return std::pair(std::move(cells), ms);
    };

    std::cout << "\n== distributed sweep scaling (whole 6x4 matrix per K, "
              << kSeeds << " seeds/cell"
              << (full_horizon ? ", full horizon" : "") << ") ==\n"
              << "transport: "
              << (worker_path.empty()
                      ? "in-process shards (wire round-trip, no exec)"
                      : "worker processes (" + worker_path + ")")
              << "\n";

    // The scaling sweep honours --full-horizon: reference and shards must
    // run the same monitor mode or the comparison (and the numbers) would
    // silently measure a different sweep than the one requested.
    exp::CellOptions copts;
    copts.online.early_stop = !full_horizon;
    const auto [reference, single_ms] =
        matrix_wall([&](ProtocolKind p, Regime r) {
          return exp::run_matrix_cell(p, r, kN, kSeeds, 1, copts);
        });

    exp::DistributedOptions dopts;
    dopts.worker_path = worker_path;
    dopts.cell = copts;
    dopts.dispatch.extra_worker_args = fault_args;

    exp::DispatchReport dispatch_report;
    dopts.report = &dispatch_report;
    Table scaling({"shards", "wall-clock", "vs single-process", "verified"});
    {
      char wall[32];
      std::snprintf(wall, sizeof(wall), "%.2f ms", single_ms);
      scaling.add_row({"(single process)", wall, "1.00x", "reference"});
    }
    for (const unsigned k : shard_counts) {
      // A worker that fails mid-sweep (killed, OOM, bad deploy) surfaces
      // as an exception from distributed_sweep; report it instead of
      // letting it std::terminate the bench.
      auto sharded_matrix = [&] {
        try {
          return matrix_wall([&](ProtocolKind p, Regime r) {
            return exp::distributed_sweep(p, r, kN, kSeeds, k, 1, dopts);
          });
        } catch (const std::exception& e) {
          std::cerr << "FATAL: distributed sweep at K=" << k
                    << " failed: " << e.what() << "\n";
          std::exit(1);
        }
      };
      const auto [cells, ms] = sharded_matrix();
      // Field-complete by construction: MatrixCell::operator== is
      // defaulted, so a future field automatically joins the check.
      if (!(cells == reference)) {
        std::cerr << "FATAL: distributed sweep at K=" << k
                  << " diverged from the single-process matrix\n";
        return 1;
      }
      char wall[32];
      std::snprintf(wall, sizeof(wall), "%.2f ms", ms);
      char rel[32];
      std::snprintf(rel, sizeof(rel), "%.2fx", single_ms / ms);
      scaling.add_row({std::to_string(k), wall, rel, "byte-identical"});
    }
    std::cout << "\n";
    scaling.print(std::cout,
                  "distributed_sweep wall-clock by shard count (every K "
                  "verified byte-identical to the single-process cells)");
    // Supervision telemetry across every K above. Report-only by design:
    // retries and timeouts vary with machine load (and with any
    // injected --fault schedule), so this never gates — the byte-identity
    // check above is the gate.
    std::cout << "\n" << dispatch_report.to_string() << "\n";
  }
  return 0;
}
