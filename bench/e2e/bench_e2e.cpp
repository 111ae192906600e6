// bench_e2e: the end-to-end benchmark program (README.md). One run = one
// workload at one seed for --seconds of measurement:
//
//   bench_e2e --workload NAME --seed N --seconds S --trace 0|1
//             [--smoke] [--workers W]
//
// Run it from the repository root (bench/e2e/run.py does). Untraced runs
// report the end-to-end metrics, traced runs the per-layer metrics and
// write their spans to build-bench/spans/<workload>-seed<N>.jsonl. Every
// metric prints as `metric <name> <value> <unit>`, deterministic values as
// `exact <name> <value>`, and the last line of stdout is one JSON object:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// Exit status: 0 all outputs correct, 1 some output wrong (the result is
// still printed), 2 usage or set-up error (no result).

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <span>
#include <stdexcept>
#include <string>

#include "harness.hpp"
#include "workloads.hpp"

namespace xcp::bench {
namespace {

struct MetricDef {
  const char* name;
  const char* unit;
};

/// The BENCHMARK.json catalog; run.py checks the two stay identical.
constexpr MetricDef kEndToEnd[] = {
    {"setup_s", "s"},           {"deals_per_s", "1/s"},
    {"deal_ms_p50", "ms"},      {"deal_ms_p95", "ms"},
    {"cpu_ms_per_deal", "ms"},  {"peak_rss_mb", "MB"},
};

constexpr MetricDef kPerLayer[] = {
    {"exp.cell_ms.time-bounded", "ms"},
    {"exp.cell_ms.universal", "ms"},
    {"exp.cell_ms.atomic", "ms"},
    {"exp.cell_ms.weak-trusted", "ms"},
    {"exp.cell_ms.weak-contract", "ms"},
    {"exp.cell_ms.weak-committee", "ms"},
    {"sim.events_per_deal", "count"},
    {"net.deliveries_per_deal", "count"},
    {"props.trace_events_per_deal", "count"},
    {"consensus.votes_per_deal", "count"},
    {"decided_at_ms", "virtual_ms"},
    {"proto.run_us_per_deal", "us"},
    {"props.record_ns_per_event", "ns"},
    {"props.check_us_per_deal", "us"},
    {"crypto.sig_verify_ns", "ns"},
    {"crypto.cert_verify_us", "us"},
    {"wire.cert_bytes", "bytes"},
    {"wire.cert_parse_us", "us"},
    {"wire.cert_serialize_us", "us"},
    {"node.spawn_ms", "ms"},
    {"node.notary_cpu_ms", "ms"},
    {"node.client_cpu_ms", "ms"},
    {"node.notary_wakeups", "count"},
    {"node.notary_maxrss_kb", "KB"},
    {"node.setup_retries", "count"},
    {"node.notary_file_writes", "count"},
    {"node.notary_file_bytes_written", "bytes"},
    {"net.loopback_bytes_per_deal", "bytes"},
    {"net.tcp_segments_per_deal", "count"},
    {"wal.records_per_deal", "count"},
    {"wal.bytes_per_deal", "bytes"},
    {"wal.append_us", "us"},
    {"wal.open_us", "us"},
    {"trace_overhead_pct", "%"},
    {"unattributed_pct", "%"},
};

constexpr const char* kWorkloads[] = {"sweep-matrix", "sim-committee-64",
                                      "node-committee-unix",
                                      "node-committee-tcp-wal"};

[[noreturn]] void usage(const std::string& why) {
  std::fprintf(stderr,
               "bench_e2e: %s\nusage: bench_e2e --workload NAME --seed N "
               "--seconds S --trace 0|1 [--smoke] [--workers W]\nworkloads:",
               why.c_str());
  for (const char* w : kWorkloads) std::fprintf(stderr, " %s", w);
  std::fprintf(stderr, "\n");
  std::exit(2);
}

Options parse(int argc, char** argv) {
  Options o;
  bool have_seed = false, have_seconds = false, have_trace = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    const auto next = [&]() -> std::string {
      if (i + 1 >= argc) usage("missing value for " + flag);
      return argv[++i];
    };
    const auto number = [&](const std::string& v) {
      char* end = nullptr;
      const double x = std::strtod(v.c_str(), &end);
      if (end == v.c_str() || *end != '\0' || !(x >= 0)) {
        usage("bad value '" + v + "' for " + flag);
      }
      return x;
    };
    if (flag == "--workload") {
      o.workload = next();
    } else if (flag == "--seed") {
      const std::string v = next();
      char* end = nullptr;
      o.seed = std::strtoull(v.c_str(), &end, 10);
      if (end == v.c_str() || *end != '\0') usage("bad --seed '" + v + "'");
      have_seed = true;
    } else if (flag == "--seconds") {
      o.seconds = number(next());
      have_seconds = true;
    } else if (flag == "--trace") {
      const std::string v = next();
      if (v != "0" && v != "1") usage("--trace takes 0 or 1");
      o.trace = v == "1";
      have_trace = true;
    } else if (flag == "--smoke") {
      o.smoke = true;
    } else if (flag == "--workers") {
      o.workers = static_cast<unsigned>(number(next()));
    } else if (flag == "--probe-setup") {
      o.probe_setup = true;
    } else {
      usage("unknown flag " + flag);
    }
  }
  bool known = false;
  for (const char* w : kWorkloads) known = known || o.workload == w;
  if (!known) usage("unknown workload '" + o.workload + "'");
  if (!o.probe_setup && (!have_seed || !have_seconds || !have_trace)) {
    usage("--seed, --seconds and --trace are required");
  }
  return o;
}

void setup_only(const Options& o) {
  if (o.workload == "sweep-matrix") {
    setup_sweep(o);
  } else if (o.workload == "sim-committee-64") {
    setup_sim_committee(o);
  } else {
    throw std::runtime_error("workload " + o.workload + " has no probe mode");
  }
  announce_ready();
}

Result run(const Options& o, SpanLog& spans) {
  if (o.workload == "sweep-matrix") return run_sweep(o, spans);
  if (o.workload == "sim-committee-64") return run_sim_committee(o, spans);
  if (o.workload == "node-committee-unix") {
    return run_node_committee(o, spans, NodeMode::kUnix);
  }
  return run_node_committee(o, spans, NodeMode::kTcpJournal);
}

/// Prints the human-readable report and the final JSON line; returns
/// whether every output was correct.
bool report(const Options& o, Result& r) {
  std::printf("workload %s seed %llu seconds %g trace %d%s\n",
              o.workload.c_str(), static_cast<unsigned long long>(o.seed),
              o.seconds, o.trace ? 1 : 0, o.smoke ? " smoke" : "");
  for (const std::string& line : r.notes) std::printf("%s\n", line.c_str());
  for (const auto& [k, v] : r.exact) {
    std::printf("exact %s %s\n", k.c_str(), v.c_str());
  }

  std::string json = "{";
  bool first = true;
  bool finite = true;
  for (const MetricDef& m : o.trace ? std::span<const MetricDef>(kPerLayer)
                                    : std::span<const MetricDef>(kEndToEnd)) {
    const auto it = r.metrics.find(m.name);
    double value = 0.0;
    if (it != r.metrics.end()) {
      value = it->second;
    } else if (!o.trace) {
      throw std::logic_error(std::string("workload did not report ") + m.name);
    }
    if (!std::isfinite(value)) {
      finite = false;
      value = 0.0;
    }
    std::printf("metric %s %.6g %s%s\n", m.name, value, m.unit,
                it == r.metrics.end() ? " (layer not exercised)" : "");
    char buf[256];
    std::snprintf(buf, sizeof buf,
                  "%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                  first ? "" : ", ", m.name, value, m.unit);
    json += buf;
    first = false;
  }
  json += "}";
  if (!finite) {
    r.checks_ok = false;
    std::printf("FAIL a metric was not finite\n");
  }
  const bool correct = r.failed == 0 && r.checks_ok && r.attempted > 0;
  std::printf(
      "{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
      "\"metrics\": %s}\n",
      correct ? "true" : "false", static_cast<unsigned long long>(r.attempted),
      static_cast<unsigned long long>(r.failed), json.c_str());
  std::fflush(stdout);
  return correct;
}

}  // namespace
}  // namespace xcp::bench

int main(int argc, char** argv) {
  using namespace xcp::bench;
  const Options opt = parse(argc, argv);
  try {
    if (opt.probe_setup) {
      setup_only(opt);
      return 0;
    }
    SpanLog spans;
    if (opt.trace) spans.reserve(1 << 16);
    Result r = run(opt, spans);
    if (opt.trace) {
      const std::string path = "build-bench/spans/" + opt.workload + "-seed" +
                               std::to_string(opt.seed) + ".jsonl";
      const char* key = opt.workload == "sweep-matrix" ? "seed" : "deal";
      if (!spans.write_jsonl(path, key)) {
        r.checks_ok = false;
        r.note("FAIL cannot write spans to " + path);
      } else {
        r.note("spans: " + std::to_string(spans.size()) + " written to " +
               path);
      }
    }
    return report(opt, r) ? 0 : 1;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "bench_e2e: %s\n", e.what());
    return 2;
  }
}
