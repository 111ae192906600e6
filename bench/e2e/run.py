#!/usr/bin/env python3
"""One command for the end-to-end benchmark (see bench/e2e/README.md).

Builds bench/e2e in Release into build-bench/ (incremental after the first
run), runs the C++ program bench_e2e and checks that the metrics it printed
are exactly the ones BENCHMARK.json declares, with the same units. Run from
anywhere:

  python3 bench/e2e/run.py --workload W --seed N --seconds S --trace 0|1
  python3 bench/e2e/run.py --smoke
  python3 bench/e2e/run.py --check-determinism [--smoke] [--seed N]

The last line of stdout is bench_e2e's JSON result. The exit status is
bench_e2e's: 0 when every output was correct, nonzero otherwise.
"""

import argparse
import fcntl
import json
import os
import shutil
import signal
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
BUILD = ROOT / "build-bench"
BENCH_E2E = BUILD / "bin" / "bench_e2e"
WORKLOADS = [
    "sweep-matrix",
    "sim-committee-64",
    "node-committee-unix",
    "node-committee-tcp-wal",
]
# Per-layer metrics whose values are deterministic for a given seed.
EXACT_METRICS = [
    "sim.events_per_deal",
    "net.deliveries_per_deal",
    "props.trace_events_per_deal",
    "consensus.votes_per_deal",
    "decided_at_ms",
    "wire.cert_bytes",
]
RUN_TIMEOUT_S = 170


def log(msg):
    print(f"run.py: {msg}", file=sys.stderr, flush=True)


def build():
    """Configures (once) and builds bench_e2e and xcp_node. Build output
    goes to stderr so stdout stays the benchmark's own."""
    if not (ROOT / "CMakeLists.txt").is_file() or not (ROOT / "src").is_dir():
        log(f"no xcp source tree at {ROOT}; cannot build the benchmark")
        return False
    BUILD.mkdir(exist_ok=True)
    with open(BUILD / ".build.lock", "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        if not (BUILD / "CMakeCache.txt").is_file():
            cmd = ["cmake", "-S", str(ROOT / "bench" / "e2e"), "-B", str(BUILD),
                   "-DCMAKE_BUILD_TYPE=Release"]
            if shutil.which("ninja"):
                cmd += ["-G", "Ninja"]
            if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
                return False
        jobs = str(min(4, os.cpu_count() or 1))
        cmd = ["cmake", "--build", str(BUILD), "--target", "bench_e2e",
               "--parallel", jobs]
        return subprocess.run(cmd, stdout=sys.stderr).returncode == 0


def declared_metrics(trace):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"]
            for m in spec["per_layer" if trace else "end_to_end"]}


def run_bench_e2e(args):
    """Runs bench_e2e with `args` from the repository root; returns
    (exit status, stdout lines). SIGINT/SIGTERM are forwarded, so
    bench_e2e can kill and reap the nodes it spawned."""
    proc = subprocess.Popen([str(BENCH_E2E)] + args, cwd=ROOT,
                            stdout=subprocess.PIPE, text=True)

    def forward(sig, _frame):
        proc.send_signal(sig)

    old = {s: signal.signal(s, forward)
           for s in (signal.SIGINT, signal.SIGTERM)}
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.send_signal(signal.SIGTERM)
        out, _ = proc.communicate()
        log(f"bench_e2e exceeded {RUN_TIMEOUT_S} s and was stopped")
        return 124, out.splitlines()
    finally:
        for s, handler in old.items():
            signal.signal(s, handler)
    return proc.returncode, out.splitlines()


def parse_result(lines, trace):
    """bench_e2e's final JSON line, checked against BENCHMARK.json."""
    if not lines:
        raise ValueError("bench_e2e printed nothing")
    result = json.loads(lines[-1])
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        raise ValueError(f"unexpected result keys {sorted(result)}")
    want = declared_metrics(trace)
    got = {k: v["unit"] for k, v in result["metrics"].items()}
    if got != want:
        missing = sorted(set(want) - set(got))
        extra = sorted(set(got) - set(want))
        units = sorted(k for k in set(want) & set(got) if want[k] != got[k])
        raise ValueError(f"metrics differ from BENCHMARK.json: missing "
                         f"{missing} extra {extra} unit mismatch {units}")
    return result


def exact_values(lines, result):
    """Everything a run reports that must repeat exactly for its seed."""
    values = {}
    for line in lines:
        if line.startswith("exact "):
            _, key, value = line.split(" ", 2)
            values[key] = value
    for name in EXACT_METRICS:
        if name in result["metrics"]:
            values[name] = repr(result["metrics"][name]["value"])
    return values


def bench_once(workload, seed, seconds, trace, extra=()):
    args = ["--workload", workload, "--seed", str(seed), "--seconds",
            str(seconds), "--trace", "1" if trace else "0", *extra]
    code, lines = run_bench_e2e(args)
    try:
        result = parse_result(lines, trace)
    except (ValueError, json.JSONDecodeError) as e:
        for line in lines[:-1]:
            print(line)
        log(f"{workload}: {e}")
        return None, lines, code or 3
    return result, lines, code


def cmd_run(a):
    result, lines, code = bench_once(a.workload, a.seed, a.seconds, a.trace)
    if result is None:
        return code
    for line in lines:
        print(line)
    return code


def cmd_smoke(a):
    """Every workload at tiny size, untraced and traced, oracles on."""
    ok = True
    for workload in WORKLOADS:
        for trace in (False, True):
            result, _, code = bench_once(workload, a.seed, 0, trace,
                                         ["--smoke"])
            good = result is not None and code == 0 and result["correct"]
            ok &= good
            detail = (f"attempted {result['attempted']} "
                      f"failed {result['failed']}" if result else "no result")
            print(f"smoke {workload} trace={int(trace)}: "
                  f"{'ok' if good else 'FAIL'} ({detail})")
    return 0 if ok else 1


def cmd_determinism(a):
    """Exact values must repeat across two runs, and across 1 vs 4 sweep
    workers."""
    extra = ["--smoke"] if a.smoke else []
    ok = True
    for workload in WORKLOADS:
        variants = [("run 1", extra), ("run 2", extra)]
        if workload == "sweep-matrix":
            variants += [("workers 1", extra + ["--workers", "1"]),
                         ("workers 4", extra + ["--workers", "4"])]
        seen = []
        for label, args in variants:
            result, lines, code = bench_once(workload, a.seed, a.seconds,
                                             True, args)
            if result is None or code != 0:
                print(f"determinism {workload} {label}: run failed")
                ok = False
                continue
            seen.append((label, exact_values(lines, result)))
        for label, values in seen[1:]:
            diff = sorted(k for k in set(values) | set(seen[0][1])
                          if values.get(k) != seen[0][1].get(k))
            same = not diff
            ok &= same
            print(f"determinism {workload} {seen[0][0]} vs {label}: "
                  f"{'identical' if same else 'DIFFER in ' + ', '.join(diff)}"
                  f" ({len(values)} exact values)")
    return 0 if ok else 1


def main():
    p = argparse.ArgumentParser(
        description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload", choices=WORKLOADS)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=20)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--smoke", action="store_true",
                   help="every workload at tiny size, untraced and traced")
    p.add_argument("--check-determinism", action="store_true",
                   help="exact values across two runs and sweep workers 1 vs 4")
    a = p.parse_args()
    if not a.smoke and not a.check_determinism and a.workload is None:
        p.error("--workload is required")
    if not build():
        log("build failed")
        return 2
    if a.check_determinism:
        if a.seconds == p.get_default("seconds"):
            a.seconds = 2
        return cmd_determinism(a)
    if a.smoke:
        return cmd_smoke(a)
    return cmd_run(a)


if __name__ == "__main__":
    sys.exit(main())
