#include "exp/runner.hpp"

#include <algorithm>
#include <utility>

#include "baselines/interledger.hpp"
#include "exp/scenario.hpp"
#include "exp/sweep.hpp"
#include "net/adversary.hpp"
#include "proto/weak/protocol.hpp"

namespace xcp::exp {

const char* protocol_kind_name(ProtocolKind k) {
  switch (k) {
    case ProtocolKind::kTimeBounded: return "time-bounded (Thm 1)";
    case ProtocolKind::kUniversalNaive: return "universal [4] (naive)";
    case ProtocolKind::kInterledgerAtomic: return "atomic [4]";
    case ProtocolKind::kWeakTrusted: return "weak (Thm 3, trusted)";
    case ProtocolKind::kWeakContract: return "weak (Thm 3, contract)";
    case ProtocolKind::kWeakCommittee: return "weak (Thm 3, notaries)";
  }
  return "?";
}

const char* regime_name(Regime r) {
  switch (r) {
    case Regime::kSynchronyConforming: return "synchrony";
    case Regime::kSynchronyHighDrift: return "synchrony+heavy-drift";
    case Regime::kPartialSynchrony: return "partial-synchrony";
    case Regime::kPartialSynchronyAdversarial: return "partial+adversary";
  }
  return "?";
}

namespace {

bool is_weak_family(ProtocolKind k) {
  return k == ProtocolKind::kWeakTrusted || k == ProtocolKind::kWeakContract ||
         k == ProtocolKind::kWeakCommittee ||
         k == ProtocolKind::kInterledgerAtomic;
}

/// The Thm-2 style griefing adversary: hold every chi addressed to escrows
/// until `release` — legal under partial synchrony (GST unknown), lethal for
/// deadline-based protocols.
proto::AdversaryFactory chi_griefing_adversary(TimePoint release) {
  return [release](const proto::Participants& parts,
                   const proto::TimelockSchedule&)
             -> std::unique_ptr<net::Adversary> {
    auto adv = std::make_unique<net::RuleBasedAdversary>();
    for (auto escrow : parts.escrows) {
      adv->hold_until(net::RuleBasedAdversary::all_of(
                          {net::RuleBasedAdversary::kind_is(net::kinds::chi),
                           net::RuleBasedAdversary::to_process(escrow)}),
                      release);
    }
    return adv;
  };
}

proto::RunRecord run_time_bounded_family(ProtocolKind protocol, Regime regime,
                                         int n, std::uint64_t seed,
                                         props::OnlineOptions online) {
  proto::TimeBoundedConfig cfg = thm1_config(n, seed);
  cfg.online = online;
  cfg.compensated = protocol == ProtocolKind::kTimeBounded;
  switch (regime) {
    case Regime::kSynchronyConforming:
      break;
    case Regime::kSynchronyHighDrift:
      // Heavy (but declared) drift with delays concentrated near Delta:
      // the compensated schedule is sized for exactly this corner, the
      // naive one ignores rho and under-covers.
      cfg.assumed.rho = 0.15;
      cfg.env.actual_rho = 0.15;
      cfg.env.delta_min = Duration::millis(90);
      break;
    case Regime::kPartialSynchrony:
      cfg.env = partial_env(cfg.assumed, /*gst_seconds=*/2,
                            Duration::millis(500));
      cfg.extra_horizon = Duration::seconds(10);
      break;
    case Regime::kPartialSynchronyAdversarial: {
      cfg.env = partial_env(cfg.assumed, /*gst_seconds=*/120,
                            Duration::millis(150));
      cfg.adversary =
          chi_griefing_adversary(TimePoint::origin() + Duration::seconds(120));
      cfg.extra_horizon = Duration::seconds(30);
      break;
    }
  }
  return run_time_bounded(cfg);
}

proto::RunRecord run_weak_family(ProtocolKind protocol, Regime regime, int n,
                                 std::uint64_t seed,
                                 props::OnlineOptions online) {
  using proto::weak::TmKind;
  TmKind tm = TmKind::kTrustedParty;
  if (protocol == ProtocolKind::kWeakContract) tm = TmKind::kSmartContract;
  if (protocol == ProtocolKind::kWeakCommittee) tm = TmKind::kNotaryCommittee;

  proto::weak::WeakConfig cfg = thm3_config(tm, n, seed);
  cfg.online = online;
  switch (regime) {
    case Regime::kSynchronyConforming:
    case Regime::kSynchronyHighDrift:
      cfg.env = conforming_env(default_timing());
      if (regime == Regime::kSynchronyHighDrift) {
        cfg.env.actual_rho = default_timing().rho * 20.0;
      }
      break;
    case Regime::kPartialSynchrony:
      // A rough pre-GST period: several seconds of erratic delivery. The
      // weak protocols ride it out on customer patience; the atomic
      // baseline's fixed notary deadline does not.
      cfg.env = partial_env(default_timing(), /*gst_seconds=*/10,
                            Duration::seconds(2));
      cfg.patience = Duration::seconds(60);
      break;
    case Regime::kPartialSynchronyAdversarial:
      // Hold all TM-bound evidence until a late GST: the decision is merely
      // delayed; patient customers still commit.
      cfg.env = partial_env(default_timing(), /*gst_seconds=*/20,
                            Duration::millis(500));
      cfg.adversary = [](const proto::Participants&)
          -> std::unique_ptr<net::Adversary> {
        auto adv = std::make_unique<net::RuleBasedAdversary>();
        adv->hold_until(net::RuleBasedAdversary::kind_is(net::kinds::tm_chi),
                        TimePoint::origin() + Duration::seconds(20));
        adv->hold_until(net::RuleBasedAdversary::kind_is(net::kinds::tm_report),
                        TimePoint::origin() + Duration::seconds(20));
        adv->hold_until(net::RuleBasedAdversary::kind_is(net::kinds::tx),
                        TimePoint::origin() + Duration::seconds(20));
        return adv;
      };
      cfg.patience = Duration::seconds(90);
      cfg.horizon = Duration::seconds(300);
      break;
  }

  if (protocol == ProtocolKind::kInterledgerAtomic) {
    baselines::AtomicConfig acfg;
    acfg.weak = cfg;
    acfg.notary_deadline = Duration::seconds(3);
    return baselines::run_atomic(acfg);
  }
  return proto::weak::run_weak(cfg);
}

/// Evaluates one record's property verdicts into the accumulator. Shared by
/// nothing else on purpose: run_matrix_cell_buffered keeps the original
/// record-by-record loop as an independent reference implementation.
void fold_record(const proto::RunRecord& record, bool weak_family,
                 std::uint64_t seed, CellAccum& acc) {
  // Safety: must hold in every regime.
  std::vector<props::PropertyResult> safety;
  safety.push_back(props::check_conservation(record));
  safety.push_back(props::check_escrow_security(record));
  safety.push_back(props::check_cs1(record, weak_family));
  safety.push_back(props::check_cs2(record, weak_family));
  safety.push_back(props::check_cs3(record));
  if (weak_family) {
    safety.push_back(props::check_certificate_consistency(record));
  }
  bool violated = false;
  std::uint32_t ordinal = 0;
  for (const auto& res : safety) {
    if (res.applicable && !res.holds) {
      violated = true;
      // Each worker sees its seeds in increasing order, so appending while
      // below the cap keeps exactly the worker's (seed, ordinal)-lowest
      // examples; merge() keeps the global lowest.
      if (acc.examples.size() < CellAccum::kMaxExamples) {
        acc.examples.push_back({seed, ordinal, res.str()});
      }
      ++ordinal;
    }
  }
  if (violated) ++acc.safety_violations;

  // Termination: in all-honest runs every customer must terminate within
  // the observation window.
  bool term_failed = false;
  for (int i = 0; i <= record.spec.n; ++i) {
    if (!record.customer(i).terminated) term_failed = true;
  }
  if (term_failed) ++acc.termination_failures;

  // Strong liveness: all honest => Bob paid.
  if (!record.bob_paid()) ++acc.liveness_failures;

  // Early-stop verdict telemetry from the online monitor (zeros when no
  // monitor was attached).
  if (record.online.attached && record.online.early_stopped) {
    ++acc.early_stops;
    acc.decided_at_total =
        acc.decided_at_total + (record.online.decided_at - TimePoint::origin());
  }
  acc.events_total += record.stats.events_executed;
}

/// Re-derives the monitor configuration a runner would have used for this
/// record: the shared scalar config plus the abiding cast (the outcomes
/// record the same abiding flags the runner filtered on).
props::OnlineMonitor::Config monitor_config_for(const proto::RunRecord& r) {
  props::OnlineMonitor::Config cfg = proto::base_online_config(r.spec, r.parts);
  for (const auto& p : r.participants) {
    if (p.abiding) cfg.cast.push_back(p.pid);
  }
  return cfg;
}

/// Post-mortem replay: feeds the record's full trace, in record order,
/// through fresh online machines. By the monotonicity contract this must
/// reproduce the live monitor's verdicts event-for-event.
props::OnlineOutcome replay_online(const proto::RunRecord& r) {
  props::OnlineMonitor monitor(monitor_config_for(r));
  for (const props::TraceEvent& e : r.trace.events()) monitor.on_record(e);
  return monitor.outcome();
}

void require_verdicts_match(const props::OnlineOutcome& live,
                            const proto::RunRecord& full, bool weak_family,
                            std::uint64_t seed) {
  using props::Verdict;
  const props::OnlineOutcome replayed = replay_online(full);

  // Live incremental vs post-mortem replay: same verdicts, decided at the
  // same event (time *and* ordinal).
  const auto same = [&](Verdict a, Verdict b, const char* what) {
    XCP_REQUIRE(a == b, std::string("online/post-mortem verdict mismatch (") +
                            what + ") at seed " + std::to_string(seed));
  };
  same(live.termination, replayed.termination, "termination");
  same(live.liveness, replayed.liveness, "liveness");
  same(live.cert_consistency, replayed.cert_consistency, "CC");
  same(live.abort_freedom, replayed.abort_freedom, "abort-freedom");
  XCP_REQUIRE(live.decided_at == replayed.decided_at &&
                  live.decided_seq == replayed.decided_seq,
              "online decided-at diverges from post-mortem replay at seed " +
                  std::to_string(seed));

  // Online verdicts vs the batch checkers on the full-horizon record.
  bool all_cast_terminated = true;
  for (const auto& p : full.participants) {
    if (p.abiding && !p.terminated) all_cast_terminated = false;
  }
  XCP_REQUIRE((live.termination == Verdict::kHolds) == all_cast_terminated,
              "online termination verdict disagrees with the record");
  XCP_REQUIRE((live.liveness == Verdict::kHolds) == full.bob_paid(),
              "online liveness verdict disagrees with bob_paid()");
  XCP_REQUIRE(
      (live.abort_freedom == Verdict::kViolated) ==
          (full.trace.count(props::EventKind::kAbortRequested) > 0),
      "online abort-freedom verdict disagrees with the trace");
  if (weak_family) {
    const auto cc = props::check_certificate_consistency(full);
    // The batch checker adds a holdings cross-check on top of the decide
    // clause; a decide-clause violation must imply the batch violation.
    if (live.cert_consistency == Verdict::kViolated) {
      XCP_REQUIRE(!cc.holds, "online CC violation not confirmed post-mortem");
    }
  }
}

}  // namespace

void CellAccum::merge(CellAccum&& o) {
  safety_violations += o.safety_violations;
  termination_failures += o.termination_failures;
  liveness_failures += o.liveness_failures;
  early_stops += o.early_stops;
  decided_at_total = decided_at_total + o.decided_at_total;
  events_total += o.events_total;
  std::vector<Example> merged;
  merged.reserve(std::min(examples.size() + o.examples.size(), kMaxExamples));
  std::size_t a = 0;
  std::size_t b = 0;
  while (merged.size() < kMaxExamples &&
         (a < examples.size() || b < o.examples.size())) {
    const bool take_a =
        b >= o.examples.size() ||
        (a < examples.size() &&
         std::pair(examples[a].seed, examples[a].ordinal) <
             std::pair(o.examples[b].seed, o.examples[b].ordinal));
    merged.push_back(std::move(take_a ? examples[a++] : o.examples[b++]));
  }
  examples = std::move(merged);
}

proto::RunRecord run_cell_seed(ProtocolKind protocol, Regime regime, int n,
                               std::uint64_t seed,
                               props::OnlineOptions online) {
  return is_weak_family(protocol)
             ? run_weak_family(protocol, regime, n, seed, online)
             : run_time_bounded_family(protocol, regime, n, seed, online);
}

MatrixCell cell_from_accum(ProtocolKind protocol, Regime regime,
                           std::size_t runs, CellAccum&& acc) {
  MatrixCell cell;
  cell.protocol = protocol;
  cell.regime = regime;
  cell.runs = runs;
  cell.safety_violations = acc.safety_violations;
  cell.termination_failures = acc.termination_failures;
  cell.liveness_failures = acc.liveness_failures;
  cell.early_stops = acc.early_stops;
  cell.decided_at_total = acc.decided_at_total;
  cell.events_total = acc.events_total;
  for (auto& ex : acc.examples) {
    cell.example_violations.push_back(std::move(ex.text));
  }
  return cell;
}

CellAccum run_matrix_cell_accum(ProtocolKind protocol, Regime regime, int n,
                                std::size_t seeds, std::uint64_t first_seed,
                                const CellOptions& opts) {
  const bool weak_family = is_weak_family(protocol);

  // Streaming: run, check, fold, drop — the RunRecord (and its trace
  // arena) dies on the worker that produced it, so its chunks recycle
  // seed-over-seed instead of accumulating for the whole sweep. With the
  // default options each run also carries an online monitor that ends it
  // at its deciding event.
  return sweep_accumulate<CellAccum>(
      first_seed, seeds, [&](std::uint64_t seed, CellAccum& a) {
        fold_record(run_cell_seed(protocol, regime, n, seed, opts.online),
                    weak_family, seed, a);
      });
}

MatrixCell run_matrix_cell(ProtocolKind protocol, Regime regime, int n,
                           std::size_t seeds, std::uint64_t first_seed,
                           const CellOptions& opts) {
  return cell_from_accum(
      protocol, regime, seeds,
      run_matrix_cell_accum(protocol, regime, n, seeds, first_seed, opts));
}

MatrixCell run_matrix_cell_differential(ProtocolKind protocol, Regime regime,
                                        int n, std::size_t seeds,
                                        std::uint64_t first_seed) {
  const bool weak_family = is_weak_family(protocol);

  // Per seed: the early-stopped run and the full-horizon run (monitor
  // attached, stop unarmed) must agree on every verdict.
  CellAccum early_acc = sweep_accumulate<CellAccum>(
      first_seed, seeds, [&](std::uint64_t seed, CellAccum& a) {
        const props::OnlineOptions stop{/*enabled=*/true, /*early_stop=*/true};
        const props::OnlineOptions watch{/*enabled=*/true,
                                         /*early_stop=*/false};
        const proto::RunRecord stopped =
            run_cell_seed(protocol, regime, n, seed, stop);
        const proto::RunRecord full =
            run_cell_seed(protocol, regime, n, seed, watch);

        // The full run's live verdicts vs its own post-mortem forms.
        require_verdicts_match(full.online, full, weak_family, seed);
        // The stopped run decided at the same event as the full run.
        XCP_REQUIRE(stopped.online.early_stopped ==
                        (full.online.termination == props::Verdict::kHolds),
                    "early stop fired iff the full run's cast terminated");
        if (stopped.online.early_stopped) {
          XCP_REQUIRE(stopped.online.decided_at == full.online.decided_at &&
                          stopped.online.decided_seq ==
                              full.online.decided_seq,
                      "early-stop decision point diverges from the full run");
        }
        // Both records fold to the same verdict bits.
        CellAccum stopped_bits;
        CellAccum full_bits;
        fold_record(stopped, weak_family, seed, stopped_bits);
        fold_record(full, weak_family, seed, full_bits);
        XCP_REQUIRE(
            stopped_bits.safety_violations == full_bits.safety_violations &&
                stopped_bits.termination_failures ==
                    full_bits.termination_failures &&
                stopped_bits.liveness_failures == full_bits.liveness_failures,
            "early-stopped verdict bits diverge from the full horizon at "
            "seed " +
                std::to_string(seed));
        XCP_REQUIRE(
            stopped_bits.examples.size() == full_bits.examples.size(),
            "early-stopped violation examples diverge from the full horizon");
        for (std::size_t i = 0; i < stopped_bits.examples.size(); ++i) {
          XCP_REQUIRE(stopped_bits.examples[i].text ==
                          full_bits.examples[i].text,
                      "early-stopped violation text diverges at seed " +
                          std::to_string(seed));
        }

        fold_record(stopped, weak_family, seed, a);
      });

  return cell_from_accum(protocol, regime, seeds, std::move(early_acc));
}

MatrixCell run_matrix_cell_buffered(ProtocolKind protocol, Regime regime,
                                    int n, std::size_t seeds,
                                    std::uint64_t first_seed) {
  MatrixCell cell;
  cell.protocol = protocol;
  cell.regime = regime;
  cell.runs = seeds;

  const bool weak_family = is_weak_family(protocol);

  const auto one = [&](std::uint64_t seed) {
    return run_cell_seed(protocol, regime, n, seed);
  };
  const auto records = parallel_sweep<proto::RunRecord>(first_seed, seeds, one);

  for (const auto& record : records) {
    // Safety: must hold in every regime.
    std::vector<props::PropertyResult> safety;
    safety.push_back(props::check_conservation(record));
    safety.push_back(props::check_escrow_security(record));
    safety.push_back(props::check_cs1(record, weak_family));
    safety.push_back(props::check_cs2(record, weak_family));
    safety.push_back(props::check_cs3(record));
    if (weak_family) {
      safety.push_back(props::check_certificate_consistency(record));
    }
    bool violated = false;
    for (const auto& res : safety) {
      if (res.applicable && !res.holds) {
        violated = true;
        if (cell.example_violations.size() < 4) {
          cell.example_violations.push_back(res.str());
        }
      }
    }
    if (violated) ++cell.safety_violations;

    // Termination: in all-honest runs every customer must terminate within
    // the observation window.
    bool term_failed = false;
    for (int i = 0; i <= record.spec.n; ++i) {
      if (!record.customer(i).terminated) term_failed = true;
    }
    if (term_failed) ++cell.termination_failures;

    // Strong liveness: all honest => Bob paid.
    if (!record.bob_paid()) ++cell.liveness_failures;
  }
  return cell;
}

}  // namespace xcp::exp
