#!/usr/bin/env python3
"""Compares benchmark runs of a parent commit and a change.

Give the captured stdout of each run.py invocation as one file, parent and
change alternating (run at least ten pairs, and alternate which side runs
first):

  python3 bench/e2e/compare.py --pairs P1 C1 P2 C2 P3 C3 ...

Every file holds a "workload NAME ..." line and ends with the JSON result.
Files pair up in order: (P1, C1), (P2, C2), ...

For each (workload, metric) the report gives each side's median and
quartiles, the change's win count over the pairs, and a verdict:

  improved    the change wins at least 9 of every 10 pairs (ties count for
              neither) and the medians differ by more than the parent's
              interquartile range;
  regressed   the change's median is worse than the parent's by more than
              the metric's bound (BENCHMARK.json);
  unresolved  the parent's own spread (IQR / median) is wider than the
              bound and not every change run beats every parent run;
  unchanged   none of the above.

Per-layer metrics have no bound: they are improved, worsened (the gain rule
in reverse) or unchanged. Any run with an incorrect output or a failed unit
fails the fail_ratio gate. Exit status: 0 no regression and the gate holds,
1 some metric regressed, 2 the gate failed, 3 bad input.
"""

import argparse
import json
import statistics
import sys
from pathlib import Path

GAIN_WIN_SHARE = 0.9


def load_run(path):
    """(workload, result) from one run's captured stdout."""
    lines = [l for l in Path(path).read_text().splitlines() if l.strip()]
    if not lines:
        raise ValueError(f"{path}: empty")
    workload = None
    for line in lines:
        if line.startswith("workload "):
            workload = line.split()[1]
            break
    if workload is None:
        raise ValueError(f"{path}: no 'workload NAME' line")
    result = json.loads(lines[-1])
    for key in ("correct", "attempted", "failed", "metrics"):
        if key not in result:
            raise ValueError(f"{path}: result lacks '{key}'")
    return workload, result


def quartiles(values):
    """(q1, median, q3); with fewer than two values all three coincide."""
    if len(values) < 2:
        v = values[0]
        return v, v, v
    q1, med, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def classify(parent, change, better, bound):
    """Verdict for one (workload, metric): parent[i] and change[i] are the
    values of pair i. `bound` is None for per-layer metrics."""
    sign = 1.0 if better == "higher" else -1.0
    wins = sum(1 for p, c in zip(parent, change) if sign * (c - p) > 0)
    losses = sum(1 for p, c in zip(parent, change) if sign * (c - p) < 0)
    pairs = len(parent)
    p_q1, p_med, p_q3 = quartiles(parent)
    _, c_med, _ = quartiles(change)
    p_iqr = p_q3 - p_q1
    gap = sign * (c_med - p_med)  # > 0: the change is better

    all_better = all(sign * (c - p) > 0 for c in change for p in parent)
    if wins >= GAIN_WIN_SHARE * pairs and gap > p_iqr:
        verdict = "improved"
    elif bound is None:
        worse = losses >= GAIN_WIN_SHARE * pairs and -gap > p_iqr
        verdict = "worsened" if worse else "unchanged"
    elif p_med != 0 and -gap / abs(p_med) > bound:
        verdict = "regressed"
    elif p_med != 0 and p_iqr / abs(p_med) > bound and not all_better:
        verdict = "unresolved"
    else:
        verdict = "unchanged"
    return {"verdict": verdict, "wins": wins, "pairs": pairs,
            "parent": (p_q1, p_med, p_q3), "change": quartiles(change),
            "delta": (c_med - p_med) / p_med if p_med else 0.0}


def fail_ratio(results):
    attempted = sum(r["attempted"] for r in results)
    failed = sum(r["failed"] for r in results)
    return failed, attempted


def compare(bench, runs):
    """runs: [(workload, parent_result, change_result), ...] in pair order.
    Returns (rows, gate_ok, notes)."""
    specs = {m["name"]: (m["better"], m.get("bound"))
             for m in bench["end_to_end"] + bench["per_layer"]}
    by_workload = {}
    for workload, p, c in runs:
        by_workload.setdefault(workload, []).append((p, c))
    rows, notes = [], []
    gate_ok = True
    for workload, pairs in by_workload.items():
        for side, results in (("parent", [p for p, _ in pairs]),
                              ("change", [c for _, c in pairs])):
            failed, attempted = fail_ratio(results)
            incorrect = sum(1 for r in results if not r["correct"])
            if failed or incorrect:
                gate_ok = False
            notes.append(f"{workload} {side}: fail_ratio {failed}/{attempted}"
                         f", {incorrect} incorrect run(s)")
        names = [n for n in specs if all(n in p["metrics"] and n in c["metrics"]
                                         for p, c in pairs)]
        for name in names:
            better, bound = specs[name]
            parent = [p["metrics"][name]["value"] for p, _ in pairs]
            change = [c["metrics"][name]["value"] for _, c in pairs]
            if not any(parent + change):
                continue  # a layer this workload does not exercise
            row = classify(parent, change, better, bound)
            row.update(workload=workload, metric=name, bound=bound)
            rows.append(row)
    return rows, gate_ok, notes


def main(argv=None):
    ap = argparse.ArgumentParser(
        description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--bench", default=str(Path(__file__).resolve().parents[2]
                                           / "BENCHMARK.json"))
    ap.add_argument("--pairs", nargs="+", required=True,
                    help="result files: parent, change, parent, change, ...")
    a = ap.parse_args(argv)
    try:
        bench = json.loads(Path(a.bench).read_text())
        if len(a.pairs) % 2:
            raise ValueError(
                "need an even number of files (parent/change pairs)")
        runs = []
        for pf, cf in zip(a.pairs[0::2], a.pairs[1::2]):
            (pw, p), (cw, c) = load_run(pf), load_run(cf)
            if pw != cw:
                raise ValueError(f"pair {pf} / {cf} mixes workloads {pw}, {cw}")
            runs.append((pw, p, c))
    except (OSError, ValueError) as e:
        print(f"compare.py: {e}", file=sys.stderr)
        return 3

    rows, gate_ok, notes = compare(bench, runs)
    print(f"{'workload':24} {'metric':30} {'parent q1/med/q3':>30} "
          f"{'change q1/med/q3':>30} {'wins':>6} {'delta':>8}  verdict")
    for r in rows:
        fmt = lambda q: "/".join(f"{x:.4g}" for x in q)
        print(f"{r['workload']:24} {r['metric']:30} {fmt(r['parent']):>30} "
              f"{fmt(r['change']):>30} {r['wins']:>3}/{r['pairs']:<2} "
              f"{r['delta'] * 100:+7.2f}%  {r['verdict']}")
    for n in notes:
        print(n)
    if not gate_ok:
        print("fail_ratio gate: FAILED")
        return 2
    return 1 if any(r["verdict"] == "regressed" for r in rows) else 0


if __name__ == "__main__":
    sys.exit(main())
