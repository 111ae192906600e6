// sweep-matrix: the paper's theorem table. Every pass runs the whole
// 6 protocol x 4 regime matrix (n = 2) over the same seed range on the
// sweep pool; each seed is one exp::run_matrix_cell_accum call, timed, and
// folded into its cell. Oracle: each cell's S/T/L verdicts must equal
// bench/e2e/expected_matrix.txt, and every pass must reproduce the first
// pass's cells exactly.

#include <algorithm>
#include <array>
#include <fstream>
#include <limits>
#include <sstream>

#include "baselines/interledger.hpp"
#include "exp/runner.hpp"
#include "exp/scenario.hpp"
#include "exp/sweep.hpp"
#include "layers.hpp"
#include "proto/timebounded.hpp"
#include "proto/weak/protocol.hpp"
#include "workloads.hpp"

namespace xcp::bench {
namespace {

using exp::ProtocolKind;
using exp::Regime;

struct ProtocolRow {
  ProtocolKind kind;
  const char* name;
  const char* span;  // span name of one seed of this row
};
constexpr ProtocolRow kRows[] = {
    {ProtocolKind::kTimeBounded, "time-bounded", "exp.cell.time-bounded"},
    {ProtocolKind::kUniversalNaive, "universal", "exp.cell.universal"},
    {ProtocolKind::kInterledgerAtomic, "atomic", "exp.cell.atomic"},
    {ProtocolKind::kWeakTrusted, "weak-trusted", "exp.cell.weak-trusted"},
    {ProtocolKind::kWeakContract, "weak-contract", "exp.cell.weak-contract"},
    {ProtocolKind::kWeakCommittee, "weak-committee",
     "exp.cell.weak-committee"},
};
struct RegimeCol {
  Regime regime;
  const char* name;
};
constexpr RegimeCol kCols[] = {
    {Regime::kSynchronyConforming, "synchrony"},
    {Regime::kSynchronyHighDrift, "synchrony-drift"},
    {Regime::kPartialSynchrony, "partial"},
    {Regime::kPartialSynchronyAdversarial, "partial-adversary"},
};
constexpr std::size_t kRowCount = std::size(kRows);
constexpr std::size_t kColCount = std::size(kCols);
constexpr std::size_t kCells = kRowCount * kColCount;
constexpr int kChainLength = 2;
/// Traced passes keep one span per this many seeds (the per-cell busy
/// counters still cover every seed).
constexpr std::uint64_t kSpanStride = 64;

struct Sizes {
  std::size_t seeds_per_cell;  // one timed pass
  std::size_t warmup_per_cell;
  std::size_t sample_per_cell;  // outside-in attribution rebuild
  std::size_t min_passes;       // per run
};
/// Smoke passes still hold 512 seeds per cell: the rarest expected
/// violation (universal under drift, L in ~4% of seeds) must show.
Sizes sizes(const Options& o) {
  return o.smoke ? Sizes{512, 16, 8, 2} : Sizes{4096, 256, 256, 4};
}

std::uint64_t first_seed(const Options& o) {
  return 1 + (o.seed % (std::uint64_t{1} << 40)) * 65536;
}

/// Worker-local fold state of one pass: the 24 cell accumulators plus, when
/// traced, per-cell busy time and sampled seed spans.
struct MatrixAccum {
  std::array<exp::CellAccum, kCells> cells;
  std::array<std::int64_t, kCells> busy_ns{};
  std::vector<Span> spans;

  void merge(MatrixAccum&& o) {
    for (std::size_t c = 0; c < kCells; ++c) {
      cells[c].merge(std::move(o.cells[c]));
      busy_ns[c] += o.busy_ns[c];
    }
    spans.insert(spans.end(), o.spans.begin(), o.spans.end());
  }
};

/// One pass's measurements. Times are as measured; `speed` is the host
/// speed factor taken just before the pass (harness.hpp).
struct Pass {
  std::vector<exp::MatrixCell> cells;
  bool traced = false;
  double speed = 1.0;
  double wall_s = 0;
  std::array<std::int64_t, kCells> busy_ns{};
};

/// Each seed's fastest pass so far at the reference speed, in ms: wall
/// time and the worker thread's CPU time of its run_matrix_cell_accum call.
struct SeedBest {
  std::vector<double> wall_ms;
  std::vector<double> cpu_ms;
};

/// One pass over the matrix; every pass runs the same seeds. `best` (when
/// given) is updated with this pass's per-seed times; `spans` is null for
/// an untraced pass.
Pass run_pass(std::uint64_t first, std::size_t per_cell, unsigned workers,
              SeedBest* best, SpanLog* spans) {
  const double speed = speed_factor();
  const std::uint64_t pass_id = spans != nullptr ? spans->next_id() : 0;
  const std::int64_t t0 = now_ns();
  MatrixAccum acc = exp::sweep_accumulate<MatrixAccum>(
      0, kCells * per_cell,
      [&](std::uint64_t idx, MatrixAccum& a) {
        const std::size_t cell = idx / per_cell;
        const ProtocolRow& row = kRows[cell / kColCount];
        const std::uint64_t seed = first + idx % per_cell;
        const std::int64_t c0 = thread_cpu_ns();
        const std::int64_t s0 = now_ns();
        exp::CellAccum one = exp::run_matrix_cell_accum(
            row.kind, kCols[cell % kColCount].regime, kChainLength, 1, seed);
        const std::int64_t s1 = now_ns();
        const std::int64_t c1 = thread_cpu_ns();
        if (best != nullptr) {
          // Each index belongs to one worker per pass: no race.
          double& wall = best->wall_ms[idx];
          double& cpu = best->cpu_ms[idx];
          wall = std::min(wall, ns_to_ms(s1 - s0) * speed);
          cpu = std::min(cpu, ns_to_ms(c1 - c0) * speed);
        }
        a.cells[cell].merge(std::move(one));
        if (spans != nullptr) {
          a.busy_ns[cell] += s1 - s0;
          if (idx % kSpanStride == 0) {
            a.spans.push_back({spans->next_id(), pass_id, row.span, s0, s1,
                               seed});
          }
        }
      },
      workers);
  const std::int64_t t1 = now_ns();

  Pass p;
  p.traced = spans != nullptr;
  p.speed = speed;
  p.wall_s = static_cast<double>(t1 - t0) / 1e9;
  p.busy_ns = acc.busy_ns;
  for (std::size_t c = 0; c < kCells; ++c) {
    p.cells.push_back(exp::cell_from_accum(kRows[c / kColCount].kind,
                                           kCols[c % kColCount].regime,
                                           per_cell, std::move(acc.cells[c])));
  }
  if (spans != nullptr) {
    spans->add({pass_id, 0, "exp.pass", t0, t1, first});
    spans->add_all(acc.spans);
  }
  return p;
}

std::string verdict(const exp::MatrixCell& c) {
  std::string s;
  s += c.safety_ok() ? "+" : "-";
  s += c.termination_ok() ? "+" : "-";
  s += c.liveness_ok() ? "+" : "-";
  return s;
}

/// expected_matrix.txt: "<protocol> <regime> <S> <T> <L>" per line, each
/// verdict "+" (held in every seed) or "-" (violated in some seed).
std::array<std::string, kCells> load_expected(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw std::runtime_error("cannot read expected matrix " + path);
  std::array<std::string, kCells> out{};
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty() || line[0] == '#') continue;
    std::istringstream ls(line);
    std::string proto, regime, s, t, l;
    ls >> proto >> regime >> s >> t >> l;
    for (std::size_t c = 0; c < kCells; ++c) {
      if (proto == kRows[c / kColCount].name &&
          regime == kCols[c % kColCount].name) {
        out[c] = s + t + l;
      }
    }
  }
  for (std::size_t c = 0; c < kCells; ++c) {
    if (out[c].size() != 3) {
      throw std::runtime_error("expected matrix lacks " +
                               std::string(kRows[c / kColCount].name) + " " +
                               kCols[c % kColCount].name);
    }
  }
  return out;
}

std::uint64_t cells_digest(const std::vector<exp::MatrixCell>& cells) {
  std::uint64_t h = 0xcbf29ce484222325ull;
  const auto mix = [&](std::uint64_t v) { h = mix64(h ^ v); };
  for (const auto& c : cells) {
    mix(c.runs);
    mix(c.safety_violations);
    mix(c.termination_failures);
    mix(c.liveness_failures);
    mix(c.early_stops);
    mix(static_cast<std::uint64_t>(c.decided_at_total.count()));
    mix(c.events_total);
    for (const auto& ex : c.example_violations) {
      for (char ch : ex) mix(static_cast<unsigned char>(ch));
    }
  }
  return h;
}

/// The synchrony-cell run of `row` for one seed, rebuilt from the public
/// Thm-1/Thm-3 presets the way the matrix runner configures that cell.
proto::RunRecord rebuild_synchrony_run(ProtocolKind kind, std::uint64_t seed) {
  const props::OnlineOptions online{/*enabled=*/true, /*early_stop=*/true};
  const auto weak_config = [&](proto::weak::TmKind tm) {
    proto::weak::WeakConfig cfg = exp::thm3_config(tm, kChainLength, seed);
    cfg.online = online;
    cfg.env = exp::conforming_env(exp::default_timing());
    return cfg;
  };
  switch (kind) {
    case ProtocolKind::kTimeBounded: {
      proto::TimeBoundedConfig cfg = exp::thm1_config(kChainLength, seed);
      cfg.online = online;
      return proto::run_time_bounded(cfg);
    }
    case ProtocolKind::kUniversalNaive: {
      proto::TimeBoundedConfig cfg = exp::thm1_config(kChainLength, seed);
      cfg.online = online;
      return baselines::run_universal(cfg);
    }
    case ProtocolKind::kInterledgerAtomic: {
      baselines::AtomicConfig cfg;
      cfg.weak = weak_config(proto::weak::TmKind::kTrustedParty);
      cfg.notary_deadline = Duration::seconds(3);
      return baselines::run_atomic(cfg);
    }
    case ProtocolKind::kWeakTrusted:
      return proto::weak::run_weak(
          weak_config(proto::weak::TmKind::kTrustedParty));
    case ProtocolKind::kWeakContract:
      return proto::weak::run_weak(
          weak_config(proto::weak::TmKind::kSmartContract));
    case ProtocolKind::kWeakCommittee:
      return proto::weak::run_weak(
          weak_config(proto::weak::TmKind::kNotaryCommittee));
  }
  throw std::logic_error("unknown protocol kind");
}

/// Outside-in attribution below `exp`: the synchrony column rebuilt seed by
/// seed from the public presets, with spans around the protocol run, the
/// check battery and a trace replay. The rebuilt runs' event totals must
/// equal the matrix cell's for the same seeds.
void attribute_synchrony_cells(std::uint64_t first, std::size_t per_cell,
                               SpanLog& spans, Result& r) {
  std::int64_t run_ns = 0, check_ns = 0, replay_ns = 0;
  std::uint64_t events = 0, deliveries = 0, trace_events = 0, votes = 0;
  const props::Label vote = props::Label::find("bft_vote");
  const double speed = speed_factor();
  for (const ProtocolRow& row : kRows) {
    const bool weak_family = row.kind != ProtocolKind::kTimeBounded &&
                             row.kind != ProtocolKind::kUniversalNaive;
    const exp::CellAccum ref = exp::run_matrix_cell_accum(
        row.kind, Regime::kSynchronyConforming, kChainLength, per_cell, first);
    std::uint64_t row_events = 0;
    for (std::uint64_t seed = first; seed < first + per_cell; ++seed) {
      const std::int64_t t0 = now_ns();
      const proto::RunRecord rec = rebuild_synchrony_run(row.kind, seed);
      const std::int64_t t1 = now_ns();
      check_battery(rec, weak_family);
      const std::int64_t t2 = now_ns();
      const TimePoint decided = replay_trace(rec);
      const std::int64_t t3 = now_ns();

      const std::uint64_t root = spans.record("proto.synchrony_seed", 0, t0,
                                              t3, seed);
      spans.record("proto.run", root, t0, t1, seed);
      spans.record("props.check", root, t1, t2, seed);
      spans.record("props.replay", root, t2, t3, seed);
      run_ns += t1 - t0;
      check_ns += t2 - t1;
      replay_ns += t3 - t2;
      row_events += rec.stats.events_executed;
      deliveries += rec.stats.messages_delivered;
      trace_events += rec.trace.size();
      votes += rec.trace.count_label(props::EventKind::kSend, vote);
      if (rec.online.early_stopped && decided != rec.online.decided_at) {
        r.fail(std::string("trace replay decided elsewhere than the live "
                           "monitor: ") +
               row.name + " seed " + std::to_string(seed));
      }
    }
    if (row_events != ref.events_total) {
      r.checks_ok = false;
      r.note(std::string("FAIL synchrony-cell event cross-check: ") +
             row.name + " rebuilt " + std::to_string(row_events) +
             " events, matrix cell " + std::to_string(ref.events_total));
    }
    events += row_events;
  }
  const double runs = static_cast<double>(kRowCount * per_cell);
  r.metrics["proto.run_us_per_deal"] =
      static_cast<double>(run_ns) / 1e3 / runs * speed;
  r.metrics["props.check_us_per_deal"] =
      static_cast<double>(check_ns) / 1e3 / runs * speed;
  r.metrics["props.record_ns_per_event"] = static_cast<double>(replay_ns) /
                                          static_cast<double>(trace_events) *
                                          speed;
  r.metrics["sim.events_per_deal"] = static_cast<double>(events) / runs;
  r.metrics["net.deliveries_per_deal"] = static_cast<double>(deliveries) / runs;
  r.metrics["props.trace_events_per_deal"] =
      static_cast<double>(trace_events) / runs;
  r.metrics["consensus.votes_per_deal"] = static_cast<double>(votes) / runs;
  r.exact["sample_events"] = std::to_string(events);
  r.exact["sample_deliveries"] = std::to_string(deliveries);
  r.exact["sample_trace_events"] = std::to_string(trace_events);
  r.exact["sample_votes"] = std::to_string(votes);
  r.note("attribution sample: synchrony column, " + std::to_string(per_cell) +
         " seeds x " + std::to_string(kRowCount) + " protocols");
}

/// Runs passes until --seconds is spent (at least min_passes). Untraced,
/// every pass updates `best` and is preceded by a fresh-process set-up
/// probe, so the probes sample the whole run. Traced, passes alternate
/// untraced / traced, so host drift hits both kinds alike.
std::vector<Pass> run_passes(const Options& opt, SeedBest& best,
                             SpanLog& spans, std::vector<double>& setup_s) {
  const Sizes sz = sizes(opt);
  std::vector<Pass> passes;
  const Stopwatch sw;
  while (passes.size() < sz.min_passes ||
         sw.seconds() + passes.back().wall_s / 2 < opt.seconds) {
    const bool traced = opt.trace && passes.size() % 2 == 1;
    if (!opt.trace) setup_s.push_back(probe_setup_seconds(opt));
    passes.push_back(run_pass(first_seed(opt), sz.seeds_per_cell,
                              opt.sweep_workers(), opt.trace ? nullptr : &best,
                              traced ? &spans : nullptr));
  }
  return passes;
}

/// The fastest pass by `f`, at the reference speed (harness.hpp).
template <typename F>
double best_pass(const std::vector<Pass>& ps, F&& f) {
  double best = std::numeric_limits<double>::infinity();
  for (const Pass& p : ps) best = std::min(best, f(p) * p.speed);
  return best;
}

}  // namespace

void setup_sweep(const Options& opt) {
  run_pass(first_seed(opt), sizes(opt).warmup_per_cell, opt.sweep_workers(),
           nullptr, nullptr);
}

Result run_sweep(const Options& opt, SpanLog& spans) {
  const Sizes sz = sizes(opt);
  const std::array<std::string, kCells> expected =
      load_expected("bench/e2e/expected_matrix.txt");
  Result r;
  setup_sweep(opt);  // this process's own warm-up, untimed

  const double inf = std::numeric_limits<double>::infinity();
  SeedBest best{std::vector<double>(kCells * sz.seeds_per_cell, inf),
                std::vector<double>(kCells * sz.seeds_per_cell, inf)};
  std::vector<double> setup_s;
  const std::vector<Pass> passes = run_passes(opt, best, spans, setup_s);
  std::vector<Pass> plain, traced;
  for (const Pass& p : passes) (p.traced ? traced : plain).push_back(p);

  // Oracles: the paper's verdicts, and pass-over-pass identity.
  const std::vector<exp::MatrixCell>& ref = passes.front().cells;
  for (const Pass& p : passes) {
    for (std::size_t c = 0; c < kCells; ++c) {
      ++r.attempted;
      const std::string got = verdict(p.cells[c]);
      if (got != expected[c]) {
        r.fail(std::string("cell ") + kRows[c / kColCount].name + " " +
               kCols[c % kColCount].name + " verdict " + got + " expected " +
               expected[c]);
      } else if (!(p.cells[c] == ref[c])) {
        r.fail(std::string("cell ") + kRows[c / kColCount].name + " " +
               kCols[c % kColCount].name + " differs between passes");
      }
    }
  }

  for (std::size_t c = 0; c < kCells; ++c) {
    const exp::MatrixCell& cell = ref[c];
    r.note(std::string("cell ") + kRows[c / kColCount].name + " " +
           kCols[c % kColCount].name + " " + verdict(cell) + " violations S=" +
           std::to_string(cell.safety_violations) +
           " T=" + std::to_string(cell.termination_failures) +
           " L=" + std::to_string(cell.liveness_failures) + " of " +
           std::to_string(cell.runs));
  }
  std::uint64_t early_stops = 0, events = 0;
  Duration decided_total;
  for (const auto& c : ref) {
    early_stops += c.early_stops;
    events += c.events_total;
    decided_total = decided_total + c.decided_at_total;
  }
  const double decided_at_ms =
      early_stops == 0 ? 0.0
                       : decided_total.to_millis() /
                             static_cast<double>(early_stops);
  char digest[32];
  std::snprintf(digest, sizeof digest, "%016llx",
                static_cast<unsigned long long>(cells_digest(ref)));
  r.exact["matrix_digest"] = digest;
  r.exact["matrix_events"] = std::to_string(events);
  r.exact["matrix_early_stops"] = std::to_string(early_stops);
  r.exact["matrix_decided_at_us"] = std::to_string(decided_total.count());

  const double seeds_per_pass = static_cast<double>(kCells * sz.seeds_per_cell);
  const double best_wall =
      best_pass(plain, [](const Pass& p) { return p.wall_s; });
  std::string walls;
  for (const Pass& p : passes) {
    char buf[48];
    std::snprintf(buf, sizeof buf, " %.3f@%.3f%s", p.wall_s, p.speed,
                  p.traced ? "t" : "");
    walls += buf;
  }
  r.note("sample: " + std::to_string(passes.size()) + " passes of " +
         std::to_string(static_cast<long long>(seeds_per_pass)) +
         " seeds on " + std::to_string(opt.sweep_workers()) +
         " workers; pass wall s@speed (t = traced):" + walls);
  if (!opt.trace) {
    r.metrics["setup_s"] = median(setup_s);
    r.metrics["deals_per_s"] = seeds_per_pass / best_wall;
    r.metrics["deal_ms_p50"] = quantile(best.wall_ms, 0.50);
    r.metrics["deal_ms_p95"] = quantile(best.wall_ms, 0.95);
    r.metrics["cpu_ms_per_deal"] = mean(best.cpu_ms);
    r.metrics["peak_rss_mb"] = self_peak_rss_kb() / 1024.0;
    return r;
  }

  // Per-layer numbers from the traced passes.
  for (std::size_t row = 0; row < kRowCount; ++row) {
    r.metrics[std::string("exp.cell_ms.") + kRows[row].name] =
        best_pass(traced, [&](const Pass& p) {
          std::int64_t ns = 0;
          for (std::size_t col = 0; col < kColCount; ++col) {
            ns += p.busy_ns[row * kColCount + col];
          }
          return ns_to_ms(ns);
        });
  }
  const double traced_wall =
      best_pass(traced, [](const Pass& p) { return p.wall_s; });
  r.metrics["trace_overhead_pct"] = (traced_wall / best_wall - 1.0) * 100.0;
  double busy = 0, capacity = 0;
  for (const Pass& p : traced) {
    for (std::int64_t b : p.busy_ns) busy += static_cast<double>(b) / 1e9;
    capacity += p.wall_s * opt.sweep_workers();
  }
  r.metrics["unattributed_pct"] = (1.0 - busy / capacity) * 100.0;
  r.metrics["decided_at_ms"] = decided_at_ms;

  attribute_synchrony_cells(first_seed(opt), sz.sample_per_cell, spans, r);

  // The committee cells' certificate: the default 4-notary scenario.
  const consensus::StandaloneCommittee sc;
  measure_cert_layers(sc, consensus::run_standalone_sim(sc).cert, r);
  return r;
}

}  // namespace xcp::bench
