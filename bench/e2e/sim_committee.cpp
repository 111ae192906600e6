// sim-committee-64: sequential single-thread deals of the weak protocol
// with the 64-notary committee transaction manager (Thm 3 config, conforming
// synchronous environment, online early stop). Oracle per deal: Bob paid,
// the safety battery (CC included) holds, and the online monitor stopped
// the run at its decision.

#include <algorithm>
#include <limits>

#include "exp/scenario.hpp"
#include "layers.hpp"
#include "proto/weak/protocol.hpp"
#include "workloads.hpp"

namespace xcp::bench {
namespace {

constexpr int kNotaries = 64;

struct Sizes {
  std::size_t window_deals;  // every window runs deals 0..window_deals-1
  std::size_t min_windows;   // per phase (untraced, traced)
  std::size_t exact_deals;   // prefix the exact counts average over
  std::size_t replay_deals;  // deals re-run for the trace replay probe
};
/// 200 deals (~1.2 s) per window: their p95 has 10 deals beyond it.
Sizes sizes(const Options& o) {
  return o.smoke ? Sizes{5, 2, 5, 3} : Sizes{200, 4, 50, 16};
}

std::uint64_t first_seed(const Options& o) {
  return 1 + (o.seed % (std::uint64_t{1} << 40)) * 65536;
}

proto::weak::WeakConfig deal_config(std::uint64_t seed) {
  proto::weak::WeakConfig cfg =
      exp::thm3_config(proto::weak::TmKind::kNotaryCommittee, 2, seed);
  cfg.env = exp::conforming_env(exp::default_timing());
  cfg.notary_count = kNotaries;
  cfg.online = props::OnlineOptions{/*enabled=*/true, /*early_stop=*/true};
  return cfg;
}

/// Deterministic per-deal counts: compared across phases and runs.
struct Counts {
  std::uint64_t events = 0, deliveries = 0, trace_events = 0, votes = 0;
  std::int64_t decided_at_us = 0;
  bool operator==(const Counts&) const = default;
};

/// Every window runs the run's fixed deal set once more, so repetitions of
/// a deal differ only by what the host did meanwhile. Per deal, the phase
/// keeps its fastest repetition at the reference speed (harness.hpp): the
/// deal's cost with the host's bursts filtered out.
struct Phase {
  std::size_t windows = 0;
  std::vector<double> speeds;   // per window
  std::vector<double> setup_s;  // set-up probes, one before each window
  std::vector<Counts> prefix;   // the first exact_deals deals
  std::vector<double> run_ms;   // best proto::weak::run_weak wall time
  std::vector<double> deal_ms;  // best wall time of config + run + oracle
  std::vector<double> cpu_ms;   // best thread CPU time of the same
  std::vector<double> check_us; // best oracle battery time
};

/// One window: the deal set once, folded into `ph`. With `probe`, a
/// fresh-process set-up probe precedes it.
void run_window(const Options& opt, Phase& ph, bool probe, SpanLog* spans,
                std::uint64_t& ordinal, Result& r) {
  const Sizes sz = sizes(opt);
  const double inf = std::numeric_limits<double>::infinity();
  if (ph.windows == 0) {
    ph.run_ms.assign(sz.window_deals, inf);
    ph.deal_ms.assign(sz.window_deals, inf);
    ph.cpu_ms.assign(sz.window_deals, inf);
    ph.check_us.assign(sz.window_deals, inf);
  }
  const auto keep_best = [](double& best, double v) {
    best = std::min(best, v);
  };
  const props::Label vote = props::Label::find("bft_vote");
  if (probe) ph.setup_s.push_back(probe_setup_seconds(opt));
  const double speed = speed_factor();
  ph.speeds.push_back(speed);
  for (std::uint64_t i = 0; i < sz.window_deals; ++i, ++ordinal) {
    const std::uint64_t seed = first_seed(opt) + 1 + i;
    const std::int64_t c0 = thread_cpu_ns();
    const std::int64_t t0 = now_ns();
    const proto::weak::WeakConfig cfg = deal_config(seed);
    const std::int64_t t1 = now_ns();
    const proto::RunRecord rec = proto::weak::run_weak(cfg);
    const std::int64_t t2 = now_ns();
    const bool paid = rec.bob_paid();
    const std::size_t violated = check_battery(rec, /*weak_family=*/true);
    const std::int64_t t3 = now_ns();
    const std::int64_t c1 = thread_cpu_ns();

    ++r.attempted;
    if (!paid || violated != 0 || !rec.online.early_stopped) {
      r.fail("deal seed " + std::to_string(seed) +
             (paid ? "" : ": Bob unpaid") +
             (violated != 0 ? ": safety battery violated" : "") +
             (rec.online.early_stopped ? "" : ": no online decision"));
    }
    keep_best(ph.run_ms[i], ns_to_ms(t2 - t1) * speed);
    keep_best(ph.deal_ms[i], ns_to_ms(t3 - t0) * speed);
    keep_best(ph.cpu_ms[i], ns_to_ms(c1 - c0) * speed);
    keep_best(ph.check_us[i], static_cast<double>(t3 - t2) / 1e3 * speed);
    if (ph.windows == 0 && i < sz.exact_deals) {
      ph.prefix.push_back(
          {rec.stats.events_executed, rec.stats.messages_delivered,
           rec.trace.size(),
           rec.trace.count_label(props::EventKind::kSend, vote),
           (rec.online.decided_at - TimePoint::origin()).count()});
    }
    if (spans != nullptr) {
      const std::uint64_t root = spans->record("sim.deal", 0, t0, t3, ordinal);
      spans->record("exp.config", root, t0, t1, ordinal);
      spans->record("proto.run", root, t1, t2, ordinal);
      spans->record("props.check", root, t2, t3, ordinal);
    }
  }
  ++ph.windows;
}

}  // namespace

void setup_sim_committee(const Options& opt) {
  const proto::RunRecord rec =
      proto::weak::run_weak(deal_config(first_seed(opt)));
  if (!rec.bob_paid()) throw std::runtime_error("set-up deal: Bob unpaid");
}

Result run_sim_committee(const Options& opt, SpanLog& spans) {
  const Sizes sz = sizes(opt);
  Result r;
  setup_sim_committee(opt);  // this process's own first deal, untimed

  // Windows until --seconds is spent (at least min_windows per phase);
  // traced, they alternate untraced / traced, so host drift hits both
  // kinds alike.
  Phase plain, traced;
  std::uint64_t ordinal = 0;
  const Stopwatch sw;
  while (plain.windows < sz.min_windows ||
         (opt.trace && traced.windows < sz.min_windows) ||
         sw.seconds() < opt.seconds) {
    const bool trace_this = opt.trace && plain.windows > traced.windows;
    run_window(opt, trace_this ? traced : plain, !opt.trace,
               trace_this ? &spans : nullptr, ordinal, r);
  }
  std::string speeds;
  for (double speed : plain.speeds) {
    char buf[32];
    std::snprintf(buf, sizeof buf, " %.3f", speed);
    speeds += buf;
  }
  r.note("sample: " + std::to_string(plain.windows) + " untraced + " +
         std::to_string(traced.windows) + " traced windows of the same " +
         std::to_string(sz.window_deals) + " deals, m=" +
         std::to_string(kNotaries) + " notaries, one thread; speed:" + speeds);

  Counts sum;
  for (const Counts& c : plain.prefix) {
    sum.events += c.events;
    sum.deliveries += c.deliveries;
    sum.trace_events += c.trace_events;
    sum.votes += c.votes;
    sum.decided_at_us += c.decided_at_us;
  }
  r.exact["prefix_deals"] = std::to_string(plain.prefix.size());
  r.exact["prefix_events"] = std::to_string(sum.events);
  r.exact["prefix_deliveries"] = std::to_string(sum.deliveries);
  r.exact["prefix_trace_events"] = std::to_string(sum.trace_events);
  r.exact["prefix_votes"] = std::to_string(sum.votes);
  r.exact["prefix_decided_at_us"] = std::to_string(sum.decided_at_us);

  if (!opt.trace) {
    r.metrics["setup_s"] = median(plain.setup_s);
    r.metrics["deals_per_s"] = 1e3 / mean(plain.deal_ms);
    r.metrics["deal_ms_p50"] = quantile(plain.run_ms, 0.50);
    r.metrics["deal_ms_p95"] = quantile(plain.run_ms, 0.95);
    r.metrics["cpu_ms_per_deal"] = mean(plain.cpu_ms);
    r.metrics["peak_rss_mb"] = self_peak_rss_kb() / 1024.0;
    return r;
  }

  if (traced.prefix != plain.prefix) {
    r.checks_ok = false;
    r.note("FAIL per-deal counts differ between the plain and traced phase");
  }
  const double n = static_cast<double>(plain.prefix.size());
  r.metrics["sim.events_per_deal"] = static_cast<double>(sum.events) / n;
  r.metrics["net.deliveries_per_deal"] =
      static_cast<double>(sum.deliveries) / n;
  r.metrics["props.trace_events_per_deal"] =
      static_cast<double>(sum.trace_events) / n;
  r.metrics["consensus.votes_per_deal"] = static_cast<double>(sum.votes) / n;
  r.metrics["decided_at_ms"] = static_cast<double>(sum.decided_at_us) / 1e3 / n;
  r.metrics["proto.run_us_per_deal"] = mean(traced.run_ms) * 1e3;
  r.metrics["props.check_us_per_deal"] = mean(traced.check_us);
  r.metrics["trace_overhead_pct"] =
      (mean(traced.deal_ms) / mean(plain.deal_ms) - 1.0) * 100.0;

  // Trace replay: the first deals re-run, their traces re-recorded.
  double replay_ns = 0, replayed = 0;
  const double speed = speed_factor();
  for (std::uint64_t i = 0; i < sz.replay_deals; ++i) {
    const proto::RunRecord rec =
        proto::weak::run_weak(deal_config(first_seed(opt) + 1 + i));
    const std::int64_t t0 = now_ns();
    const TimePoint decided = replay_trace(rec);
    const std::int64_t t1 = now_ns();
    spans.record("props.replay", 0, t0, t1, i);
    replay_ns += static_cast<double>(t1 - t0);
    replayed += static_cast<double>(rec.trace.size());
    if (decided != rec.online.decided_at) {
      r.fail("trace replay decided elsewhere than the live monitor, deal " +
             std::to_string(i));
    }
  }
  r.metrics["props.record_ns_per_event"] = replay_ns / replayed * speed;

  consensus::StandaloneCommittee sc;
  sc.notaries = kNotaries;
  measure_cert_layers(sc, consensus::run_standalone_sim(sc).cert, r);

  // No spans inside run_weak yet: the share of a deal that the outside-in
  // layer costs do not explain (trace recording + online monitor per
  // event, one signature check per vote delivered).
  const double explained_ns =
      r.metrics["props.trace_events_per_deal"] *
          r.metrics["props.record_ns_per_event"] +
      r.metrics["consensus.votes_per_deal"] * r.metrics["crypto.sig_verify_ns"];
  r.metrics["unattributed_pct"] =
      (1.0 - explained_ns / (r.metrics["proto.run_us_per_deal"] * 1e3)) * 100.0;
  return r;
}

}  // namespace xcp::bench
