#!/usr/bin/env python3
"""Bench trajectory delta: compare this run's BENCH_*.json against the
previous successful run's and emit a GitHub-flavored-markdown summary.

Usage: bench_delta.py <previous-dir> <current-dir>

Always exits 0 — regressions produce ::warning annotations, not
failures: CI runners are noisy shared boxes, and the trajectory is a
signal to read, not a gate.  Headline metrics compared:

  BENCH_solver.json     props/sec per suite row (solver-core throughput)
  BENCH_portfolio.json  race-setup encode-once speedup, total race
                        ratios, lemma-sharing and rank-sharing counters
  BENCH_tape.json       wall time per google-benchmark tape row: replay
                        into one solver, three entrants replaying at
                        once, and the per-depth preprocessing passes

Missing files / keys degrade to "n/a" so the very first run (empty
trajectory) still prints a table that later runs can diff against.
"""

import json
import os
import sys

REGRESSION_TOLERANCE = 0.90  # warn when current < 90% of previous


def load(dirname, filename):
    path = os.path.join(dirname, filename)
    try:
        with open(path) as f:
            return json.load(f)
    except (OSError, json.JSONDecodeError):
        return None


def fmt(v):
    if v is None:
        return "n/a"
    if isinstance(v, float):
        return f"{v:,.3f}" if abs(v) < 1000 else f"{v:,.0f}"
    return f"{v:,}"


def delta(prev, cur):
    if prev is None or cur is None or not prev:
        return "n/a"
    ratio = cur / prev
    arrow = "+" if ratio >= 1 else ""
    return f"{arrow}{(ratio - 1) * 100:.1f}%"


def warn(msg):
    print(f"::warning::{msg}", file=sys.stderr)


def solver_rows(doc):
    """props/sec per row of BENCH_solver.json (schema: rows: [{name, ...,
    props_per_sec}]), tolerating older/partial schemas."""
    out = {}
    if not isinstance(doc, dict):
        return out
    for row in doc.get("rows", []) or []:
        if isinstance(row, dict) and "name" in row:
            out[str(row["name"])] = row.get("props_per_sec")
    totals = doc.get("totals")
    if isinstance(totals, dict) and "props_per_sec" in totals:
        out["TOTAL"] = totals.get("props_per_sec")
    return out


def tape_rows(doc):
    """{row name: (real_time, time_unit)} of a google-benchmark JSON
    (BENCH_tape.json: benchmarks: [{name, real_time, time_unit, ...}]),
    iteration rows only, tolerating older/partial schemas."""
    out = {}
    if not isinstance(doc, dict):
        return out
    for row in doc.get("benchmarks", []) or []:
        if not isinstance(row, dict) or "name" not in row:
            continue
        if row.get("run_type", "iteration") != "iteration":
            continue
        out[str(row["name"])] = (row.get("real_time"),
                                 row.get("time_unit", "ns"))
    return out


def main():
    if len(sys.argv) != 3:
        print("usage: bench_delta.py <previous-dir> <current-dir>",
              file=sys.stderr)
        return 0
    prev_dir, cur_dir = sys.argv[1], sys.argv[2]

    print("## Bench trajectory")
    print()

    # ---- solver core: props/sec per suite row ---------------------------
    prev_solver = load(prev_dir, "BENCH_solver.json")
    cur_solver = load(cur_dir, "BENCH_solver.json")
    prev_rows = solver_rows(prev_solver)
    cur_rows = solver_rows(cur_solver)
    if cur_rows:
        print("### Solver core (props/sec)")
        print()
        print("| model | previous | current | delta |")
        print("|---|---:|---:|---:|")
        for name, cur_v in cur_rows.items():
            prev_v = prev_rows.get(name)
            print(f"| {name} | {fmt(prev_v)} | {fmt(cur_v)} "
                  f"| {delta(prev_v, cur_v)} |")
            if (prev_v and cur_v and
                    cur_v < prev_v * REGRESSION_TOLERANCE):
                warn(f"props/sec regression on {name}: "
                     f"{prev_v:,.0f} -> {cur_v:,.0f}")
        print()
    else:
        print("_no BENCH_solver.json rows in the current run_")
        print()

    # ---- portfolio: race setup + totals + sharing -----------------------
    prev_p = load(prev_dir, "BENCH_portfolio.json") or {}
    cur_p = load(cur_dir, "BENCH_portfolio.json") or {}
    if cur_p:
        metrics = [
            ("race-setup encode-once speedup",
             lambda d: (d.get("race_setup") or {}).get("speedup"), True),
            ("total race ratio vs best single policy",
             lambda d: d.get("total_ratio"), False),
            ("sharing race ratio vs plain race",
             lambda d: d.get("total_share_ratio_vs_plain"), False),
            ("lemmas exported (sharing races)",
             lambda d: d.get("total_clauses_exported"), None),
            ("lemmas imported (sharing races)",
             lambda d: d.get("total_clauses_imported"), None),
            # rank_* counters arrived after the sharing ones; artifacts
            # from older runs simply lack the keys and print "n/a".
            ("rank-sharing race ratio vs lemma-only race",
             lambda d: d.get("total_rank_ratio_vs_share"), False),
            ("cores published (rank-sharing races)",
             lambda d: d.get("total_ranks_published"), None),
            ("rank refreshes (rank-sharing races)",
             lambda d: d.get("total_rank_refreshes"), None),
            # Cancel latency (verdict -> last loser stopped) is reported
            # informationally: microsecond wall times on shared runners
            # are too noisy to gate on.
            ("max cancel latency, us (all races)",
             lambda d: d.get("max_cancel_latency_us"), None),
            # preprocess_* keys arrived with the tape-preprocessing PR;
            # older artifacts lack them and print "n/a".
            ("vars eliminated (preprocess)",
             lambda d: d.get("total_vars_eliminated"), None),
            ("clauses subsumed (preprocess)",
             lambda d: d.get("total_clauses_subsumed"), None),
            ("preprocess time, us (suite)",
             lambda d: d.get("total_preprocess_us"), None),
            ("traced-race retained events",
             lambda d: (d.get("trace") or {}).get("events"), None),
            ("hardware threads on runner",
             lambda d: d.get("hw_threads"), None),
        ]
        print("### Portfolio")
        print()
        print("| metric | previous | current | delta |")
        print("|---|---:|---:|---:|")
        for label, get, higher_is_better in metrics:
            prev_v, cur_v = get(prev_p), get(cur_p)
            print(f"| {label} | {fmt(prev_v)} | {fmt(cur_v)} "
                  f"| {delta(prev_v, cur_v)} |")
            if higher_is_better is None or prev_v is None or cur_v is None:
                continue
            if not prev_v:
                continue
            ratio = cur_v / prev_v
            regressed = (ratio < REGRESSION_TOLERANCE if higher_is_better
                         else ratio > 1 / REGRESSION_TOLERANCE)
            if regressed:
                warn(f"portfolio regression: {label} "
                     f"{fmt(prev_v)} -> {fmt(cur_v)}")
        print()
    else:
        print("_no BENCH_portfolio.json in the current run_")
        print()

    # ---- tape: replay (one consumer, three racing entrants) + passes ----
    prev_t = tape_rows(load(prev_dir, "BENCH_tape.json"))
    cur_t = tape_rows(load(cur_dir, "BENCH_tape.json"))
    if cur_t:
        # Rows added after the previous run (e.g. BM_TapeReplayRace)
        # print "n/a" previous cells.
        print("### Tape replay and preprocessing (wall time)")
        print()
        print("| row | unit | previous | current | delta |")
        print("|---|---|---:|---:|---:|")
        for name, (cur_v, unit) in cur_t.items():
            prev_v, prev_unit = prev_t.get(name, (None, unit))
            if prev_unit != unit:
                prev_v = None
            print(f"| {name} | {unit} | {fmt(prev_v)} | {fmt(cur_v)} "
                  f"| {delta(prev_v, cur_v)} |")
            if (prev_v and cur_v and
                    cur_v > prev_v / REGRESSION_TOLERANCE):
                warn(f"tape regression on {name}: "
                     f"{fmt(prev_v)} -> {fmt(cur_v)} {unit}")
        print()
    else:
        print("_no BENCH_tape.json rows in the current run_")
        print()

    # ---- incremental: fast-path ratios + savepoint/retirement counters --
    prev_i = load(prev_dir, "BENCH_incremental.json") or {}
    cur_i = load(cur_dir, "BENCH_incremental.json") or {}
    if cur_i:
        # BENCH_incremental.json arrived with the incremental fast-path
        # PR; older artifacts lack it and every row prints "n/a".
        metrics = [
            ("fast-path ratio vs plain incremental",
             lambda d: d.get("total_fast_ratio_vs_incremental"), False),
            ("rows with fewer decisions (fast path)",
             lambda d: d.get("rows_decisions_improved"), None),
            ("rows with fewer propagations (fast path)",
             lambda d: d.get("rows_propagations_improved"), None),
            ("rows compared",
             lambda d: d.get("rows_compared"), None),
            ("verdicts all match",
             lambda d: d.get("verdicts_all_match"), None),
        ]
        print("### Incremental fast path")
        print()
        print("| metric | previous | current | delta |")
        print("|---|---:|---:|---:|")
        for label, get, higher_is_better in metrics:
            prev_v, cur_v = get(prev_i), get(cur_i)
            if isinstance(prev_v, bool):
                prev_v = str(prev_v)
            if isinstance(cur_v, bool):
                cur_v = str(cur_v)
            numeric = (isinstance(prev_v, (int, float)) and
                       isinstance(cur_v, (int, float)))
            print(f"| {label} | {fmt(prev_v) if not isinstance(prev_v, str) else prev_v} "
                  f"| {fmt(cur_v) if not isinstance(cur_v, str) else cur_v} "
                  f"| {delta(prev_v, cur_v) if numeric else 'n/a'} |")
            if higher_is_better is None or not numeric or not prev_v:
                continue
            ratio = cur_v / prev_v
            regressed = (ratio < REGRESSION_TOLERANCE if higher_is_better
                         else ratio > 1 / REGRESSION_TOLERANCE)
            if regressed:
                warn(f"incremental regression: {label} "
                     f"{fmt(prev_v)} -> {fmt(cur_v)}")
        # Savepoint hit rate per row — informational (tiny rows solve by
        # propagation alone and legitimately read 0%).
        rows = cur_i.get("rows") or []
        rates = [r.get("savepoint_hit_rate") for r in rows
                 if isinstance(r, dict) and
                 isinstance(r.get("savepoint_hit_rate"), (int, float))]
        if rates:
            print(f"\nmean savepoint hit rate: "
                  f"{100.0 * sum(rates) / len(rates):.1f}%")
        print()
    else:
        print("_no BENCH_incremental.json in the current run_")
        print()

    # ---- service: cache speedup + serving throughput --------------------
    prev_s = load(prev_dir, "BENCH_service.json") or {}
    cur_s = load(cur_dir, "BENCH_service.json") or {}
    if cur_s:
        # BENCH_service.json arrived with the serving-layer PR; older
        # artifacts lack it and every row prints "n/a".
        metrics = [
            ("result-cache speedup (cold / cached round)",
             lambda d: d.get("cache_speedup"), True),
            ("cached jobs/sec (serving pipeline)",
             lambda d: d.get("cached_jobs_per_sec"), True),
            ("dispatch ops/sec (handle_request)",
             lambda d: d.get("dispatch_ops_per_sec"), True),
            ("round-2 submissions all served from cache",
             lambda d: d.get("all_cached"), None),
            ("queue_full rejections in the admission burst",
             lambda d: d.get("burst_rejected_queue_full"), None),
        ]
        print("### Service")
        print()
        print("| metric | previous | current | delta |")
        print("|---|---:|---:|---:|")
        for label, get, higher_is_better in metrics:
            prev_v, cur_v = get(prev_s), get(cur_s)
            if isinstance(prev_v, bool):
                prev_v = str(prev_v)
            if isinstance(cur_v, bool):
                cur_v = str(cur_v)
            numeric = (isinstance(prev_v, (int, float)) and
                       isinstance(cur_v, (int, float)))
            print(f"| {label} "
                  f"| {fmt(prev_v) if not isinstance(prev_v, str) else prev_v} "
                  f"| {fmt(cur_v) if not isinstance(cur_v, str) else cur_v} "
                  f"| {delta(prev_v, cur_v) if numeric else 'n/a'} |")
            if higher_is_better is None or not numeric or not prev_v:
                continue
            ratio = cur_v / prev_v
            regressed = (ratio < REGRESSION_TOLERANCE if higher_is_better
                         else ratio > 1 / REGRESSION_TOLERANCE)
            if regressed:
                warn(f"service regression: {label} "
                     f"{fmt(prev_v)} -> {fmt(cur_v)}")
        print()
    else:
        print("_no BENCH_service.json in the current run_")
        print()

    # ---- memory: arena pauses + rank demotion + process peak -------------
    prev_m = load(prev_dir, "BENCH_memory.json") or {}
    cur_m = load(cur_dir, "BENCH_memory.json") or {}
    if cur_m:
        # BENCH_memory.json arrived with the space-efficiency PR; older
        # artifacts lack it and every row prints "n/a".  Every row is
        # informational: microsecond pauses and sub-second walls on
        # shared runners are too noisy to gate on.
        metrics = [
            ("arena chunk-alloc p99, us",
             lambda d: ((d.get("pauses") or {})
                        .get("arena.chunk_alloc_us") or {}).get("p99_us")),
            ("arena GC pause p99, us",
             lambda d: ((d.get("pauses") or {})
                        .get("arena.gc_pause_us") or {}).get("p99_us")),
            ("demoted-rank race wall, sec",
             lambda d: ((d.get("rank_row") or {})
                        .get("demoted") or {}).get("wall_sec")),
            ("forced-rank race wall, sec",
             lambda d: ((d.get("rank_row") or {})
                        .get("forced") or {}).get("wall_sec")),
            ("peak RSS, kB (bench_memory process)",
             lambda d: (d.get("process") or {}).get("vm_hwm_kb")),
        ]
        print("### Memory")
        print()
        print("| metric | previous | current | delta |")
        print("|---|---:|---:|---:|")
        for label, get in metrics:
            prev_v, cur_v = get(prev_m), get(cur_m)
            print(f"| {label} | {fmt(prev_v)} | {fmt(cur_v)} "
                  f"| {delta(prev_v, cur_v)} |")
        print()
    else:
        print("_no BENCH_memory.json in the current run_")
        print()

    if not prev_rows and not prev_p and not prev_i and not prev_t:
        print("_previous run had no bench artifacts — "
              "this run seeds the trajectory_")

    return 0


if __name__ == "__main__":
    sys.exit(main())
