#!/usr/bin/env python3
"""Judge a change against its parent from paired benchmark runs.

    python3 bench/e2e/compare.py PARENT.jsonl CHANGE.jsonl [--spec FILE]

Each input holds one JSON line per run, as run.py --log writes them:
{"workload", "seed", "trace", "result"}.  The i-th parent run of a
workload is paired with the i-th change run of it (run them alternating
which side goes first).  For every workload x metric it prints each
side's median and quartiles and a verdict:

  gain        the change wins at least 9 of 10 pairs (ties count for
              neither) and the medians differ by more than the parent's
              quartile distance;
  regression  the change's median is worse than the parent's by more
              than the metric's allowance, or in the median pair by more
              than the paired allowance, or the change failed more
              checks.  The allowance is the metric's bound in
              BENCHMARK.json (a share of the parent's median), the paired
              allowance the smaller of that bound and PAIRED_BOUND (10%);
              neither is less than the metric's floor in FLOORS, so
              setup_s may worsen by 10% or 0.05 s, whichever is larger;
  unresolved  the run-to-run spread (quartile distance, on either side)
              exceeds that side's allowance, unless every change run
              beats every parent run;
  drift       an exact count (sat.* and bmc.* counters on scratch and
              incremental) differs between runs of the same seed;
  ok          none of the above.

Per-layer metrics (trace 1 runs) have no bound: they get gain, loss,
drift or "-".  Exit code 0 when nothing is a regression, unresolved or
drift.  Standard library only.
"""

import argparse
import json
import statistics
import sys
from collections import defaultdict
from pathlib import Path

WIN_SHARE = 0.9
EXACT_WORKLOADS = {"scratch", "incremental"}
EXACT_COUNTS = {
    "sat.decisions", "sat.propagations", "sat.conflicts",
    "bmc.vars_eliminated", "bmc.clauses_subsumed", "bmc.cnf_clauses",
    "bmc.retired_frame_clauses", "sat.vivified_lits",
}
# The bounds in BENCHMARK.json hold between medians of separate sets of
# runs, and each is set by the workload that spreads most on that metric
# (README.md, End-to-end metrics).  The two runs of one pair run back to
# back on the same host, so the median pair is held to this tighter share
# on every metric.
PAIRED_BOUND = 0.1
# Smallest allowed worsening, in the metric's own unit.  Set-up is a few
# milliseconds of work, where a share of the median is below what the
# host's noise moves it by.
FLOORS = {"setup_s": 0.05}
DEFAULT_SPEC = Path(__file__).resolve().parent.parent.parent / "BENCHMARK.json"


def load_runs(path):
    """{(workload, trace): [(seed, result), ...]} in file order."""
    runs = defaultdict(list)
    with open(path) as f:
        for line in f:
            if line.strip():
                r = json.loads(line)
                runs[(r["workload"], r["trace"])].append(
                    (r["seed"], r["result"]))
    return runs


def summarize(values):
    """(median, q1, q3) with the quartiles statistics.quantiles gives."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, med, q3 = statistics.quantiles(values, n=4)
    return med, q1, q3


def allowance(median, bound, floor):
    return max(bound * abs(median), floor)


def too_wide(values, bound, floor):
    med, q1, q3 = summarize(values)
    return q3 - q1 > allowance(med, bound, floor)


def judge(parent, change, better, bound=None, floor=0.0):
    """(verdict, pairs the change won) for one metric from paired value
    lists (see module doc)."""
    sign = 1.0 if better == "higher" else -1.0
    p_med, p_q1, p_q3 = summarize(parent)
    c_med, _, _ = summarize(change)
    pairs = list(zip(parent, change))
    wins = sum(1 for p, c in pairs if sign * (c - p) > 0)
    losses = sum(1 for p, c in pairs if sign * (c - p) < 0)
    beats_all = all(sign * (c - p) > 0 for p in parent for c in change)
    moved = abs(c_med - p_med) > (p_q3 - p_q1)
    if bound is None:
        if moved and wins >= WIN_SHARE * len(pairs):
            return "gain", wins
        if moved and losses >= WIN_SHARE * len(pairs):
            return "loss", wins
        return "-", wins
    if ((too_wide(parent, bound, floor) or too_wide(change, bound, floor))
            and not beats_all):
        return "unresolved", wins
    paired = statistics.median(sign * (p - c) for p, c in pairs)
    if (sign * (p_med - c_med) > allowance(p_med, bound, floor) or
            paired > allowance(p_med, min(bound, PAIRED_BOUND), floor)):
        return "regression", wins
    if moved and wins >= WIN_SHARE * len(pairs) and sign * (c_med - p_med) > 0:
        return "gain", wins
    return "ok", wins


def drifted(workload, metric, parent_runs, change_runs):
    """True when an exact count differs between runs of one seed."""
    if workload not in EXACT_WORKLOADS or metric not in EXACT_COUNTS:
        return False
    seen = defaultdict(set)
    for seed, result in parent_runs + change_runs:
        seen[seed].add(result["metrics"][metric]["value"])
    return any(len(v) > 1 for v in seen.values())


def compare(parent, change, spec):
    """Rows (workload, trace, metric, parent summary, change summary,
    wins, pairs, verdict) for every metric both sides measured."""
    metrics = {0: [(m["name"], m["better"], m["bound"])
                   for m in spec["end_to_end"]],
               1: [(m["name"], m["better"], None) for m in spec["per_layer"]]}
    rows = []
    for key in sorted(set(parent) & set(change)):
        workload, trace = key
        p_runs, c_runs = parent[key], change[key]
        p_failed = sum(r["failed"] for _, r in p_runs)
        c_failed = sum(r["failed"] for _, r in c_runs)
        if c_failed > p_failed:
            rows.append((workload, trace, "failed", (p_failed,) * 3,
                         (c_failed,) * 3, 0, len(c_runs), "regression"))
        for name, better, bound in metrics[trace]:
            p = [r["metrics"][name]["value"] for _, r in p_runs]
            c = [r["metrics"][name]["value"] for _, r in c_runs]
            n = min(len(p), len(c))
            verdict, wins = judge(p[:n], c[:n], better, bound,
                                  FLOORS.get(name, 0.0))
            if drifted(workload, name, p_runs, c_runs):
                verdict = "drift"
            rows.append((workload, trace, name, summarize(p), summarize(c),
                         wins, n, verdict))
    return rows


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("parent")
    ap.add_argument("change")
    ap.add_argument("--spec", default=str(DEFAULT_SPEC))
    args = ap.parse_args(argv)
    with open(args.spec) as f:
        spec = json.load(f)
    rows = compare(load_runs(args.parent), load_runs(args.change), spec)
    if not rows:
        print("no workload was run on both sides", file=sys.stderr)
        return 2
    print(f"{'workload':<12} {'metric':<28} {'parent median [q1, q3]':>34} "
          f"{'change median [q1, q3]':>34} {'wins':>6}  verdict")
    bad = 0
    for workload, _, name, p, c, wins, n, verdict in rows:
        p_text = f"{p[0]:.5g} [{p[1]:.5g}, {p[2]:.5g}]"
        c_text = f"{c[0]:.5g} [{c[1]:.5g}, {c[2]:.5g}]"
        print(f"{workload:<12} {name:<28} {p_text:>34} {c_text:>34} "
              f"{wins:>3}/{n:<3} {verdict}")
        bad += verdict in ("regression", "unresolved", "drift")
    print(f"{len(rows)} rows, {bad} regression/unresolved/drift")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
