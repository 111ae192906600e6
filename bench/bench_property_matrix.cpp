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
#include <iostream>
#include <limits>
#include <string>
#include <vector>

#include "exp/runner.hpp"
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
  bool buffered = false;
  bool full_horizon = false;
  bool differential = false;
  std::size_t kSeeds = 8;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--buffered") == 0) {
      buffered = true;
    } else if (std::strcmp(argv[i], "--full-horizon") == 0) {
      full_horizon = true;
    } else if (std::strcmp(argv[i], "--differential") == 0) {
      differential = true;
    } else if (std::strcmp(argv[i], "--seeds") == 0 && i + 1 < argc) {
      // Strict positive-integer parsing: std::stoul would terminate the
      // process on "--seeds x" and accept "--seeds 0"; both should be
      // usage errors.
      const char* tok = argv[++i];
      char* end = nullptr;
      const unsigned long v = std::strtoul(tok, &end, 10);
      if (end == tok || *end != '\0' || v == 0 ||
          v > std::numeric_limits<unsigned>::max()) {
        std::cerr << "bad --seeds value '" << tok
                  << "' (want a positive integer)\n";
        return 2;
      }
      kSeeds = static_cast<std::size_t>(v);
    } else {
      // An unknown or removed flag must not run a different sweep than
      // the one asked for.
      std::cerr << "unknown flag '" << argv[i]
                << "' (want --buffered, --full-horizon, --differential or "
                   "--seeds N)\n";
      return 2;
    }
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

  return 0;
}
