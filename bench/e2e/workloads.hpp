#pragma once
// The benchmark's workloads (README.md has the catalog). Each run_* fills
// in a Result: end-to-end metrics when untraced, per-layer metrics when
// traced. Each setup_* is what a fresh process does before its first
// timed unit; the set-up probe times it in a child process.

#include "harness.hpp"

namespace xcp::bench {

Result run_sweep(const Options& opt, SpanLog& spans);
void setup_sweep(const Options& opt);

Result run_sim_committee(const Options& opt, SpanLog& spans);
void setup_sim_committee(const Options& opt);

enum class NodeMode { kUnix, kTcpJournal };
Result run_node_committee(const Options& opt, SpanLog& spans, NodeMode mode);

}  // namespace xcp::bench
