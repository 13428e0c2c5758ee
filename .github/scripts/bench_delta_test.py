#!/usr/bin/env python3
"""Unit tests for bench_delta.py.

The one contract that matters for the trajectory job: ANY artifact shape
— missing files, missing keys (e.g. a previous run from before the
rank_* counters existed), empty dirs — must degrade to "n/a" cells and
exit 0, never crash.  Run directly: python3 bench_delta_test.py
"""

import io
import json
import os
import sys
import tempfile
import unittest
from contextlib import redirect_stdout

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import bench_delta  # noqa: E402


def write_json(dirname, filename, doc):
    with open(os.path.join(dirname, filename), "w") as f:
        json.dump(doc, f)


def run_delta(prev_dir, cur_dir):
    out = io.StringIO()
    argv = sys.argv
    sys.argv = ["bench_delta.py", prev_dir, cur_dir]
    try:
        with redirect_stdout(out):
            rc = bench_delta.main()
    finally:
        sys.argv = argv
    return rc, out.getvalue()


# A current-run portfolio artifact with the full key set, rank_* included.
CURRENT_PORTFOLIO = {
    "total_ratio": 1.1,
    "total_share_ratio_vs_plain": 0.95,
    "total_clauses_exported": 3000,
    "total_clauses_imported": 48000,
    "total_rank_ratio_vs_share": 0.97,
    "total_ranks_published": 120,
    "total_rank_refreshes": 14,
    "race_setup": {"speedup": 5.8},
    "max_cancel_latency_us": 850,
    "total_vars_eliminated": 900,
    "total_clauses_subsumed": 400,
    "total_preprocess_us": 5200,
    "trace": {"events": 4200},
    "hw_threads": 4,
}


class BenchDeltaTest(unittest.TestCase):
    def test_empty_dirs_degrade_to_na(self):
        with tempfile.TemporaryDirectory() as prev, \
                tempfile.TemporaryDirectory() as cur:
            rc, out = run_delta(prev, cur)
        self.assertEqual(rc, 0)
        self.assertIn("no BENCH_solver.json rows", out)
        self.assertIn("no BENCH_portfolio.json", out)

    def test_previous_artifact_missing_rank_keys(self):
        # The old-vs-new diff the CI job actually performs right after
        # this PR lands: the previous run's BENCH_portfolio.json predates
        # the rank_* counters.  Every rank row must print with an "n/a"
        # previous cell instead of raising.
        old = {k: v for k, v in CURRENT_PORTFOLIO.items()
               if not k.startswith("total_rank")}
        with tempfile.TemporaryDirectory() as prev, \
                tempfile.TemporaryDirectory() as cur:
            write_json(prev, "BENCH_portfolio.json", old)
            write_json(cur, "BENCH_portfolio.json", CURRENT_PORTFOLIO)
            rc, out = run_delta(prev, cur)
        self.assertEqual(rc, 0)
        for label in ("rank-sharing race ratio vs lemma-only race",
                      "cores published (rank-sharing races)",
                      "rank refreshes (rank-sharing races)"):
            row = [l for l in out.splitlines() if label in l]
            self.assertEqual(len(row), 1, label)
            self.assertIn("n/a", row[0])

    def test_previous_artifact_missing_preprocess_keys(self):
        # Same diff one PR later: the previous run's artifact predates
        # the preprocess_* totals.  Those rows print "n/a" previous
        # cells instead of raising.
        old = {k: v for k, v in CURRENT_PORTFOLIO.items()
               if k not in ("total_vars_eliminated",
                            "total_clauses_subsumed",
                            "total_preprocess_us")}
        with tempfile.TemporaryDirectory() as prev, \
                tempfile.TemporaryDirectory() as cur:
            write_json(prev, "BENCH_portfolio.json", old)
            write_json(cur, "BENCH_portfolio.json", CURRENT_PORTFOLIO)
            rc, out = run_delta(prev, cur)
        self.assertEqual(rc, 0)
        for label in ("vars eliminated (preprocess)",
                      "clauses subsumed (preprocess)",
                      "preprocess time, us (suite)"):
            row = [l for l in out.splitlines() if label in l]
            self.assertEqual(len(row), 1, label)
            self.assertIn("n/a", row[0])

    def test_rank_metrics_diff_when_both_present(self):
        prev_doc = dict(CURRENT_PORTFOLIO,
                        total_ranks_published=100,
                        total_rank_refreshes=7)
        with tempfile.TemporaryDirectory() as prev, \
                tempfile.TemporaryDirectory() as cur:
            write_json(prev, "BENCH_portfolio.json", prev_doc)
            write_json(cur, "BENCH_portfolio.json", CURRENT_PORTFOLIO)
            rc, out = run_delta(prev, cur)
        self.assertEqual(rc, 0)
        row = [l for l in out.splitlines()
               if "cores published (rank-sharing races)" in l][0]
        self.assertIn("100", row)
        self.assertIn("120", row)
        self.assertIn("+20.0%", row)

    def test_observability_keys_degrade_and_diff(self):
        # Previous run predates the tracing layer: no cancel latency, no
        # trace section.  Rows print with n/a previous cells; when both
        # runs have the keys, the informational rows diff like any other.
        old = {k: v for k, v in CURRENT_PORTFOLIO.items()
               if k not in ("max_cancel_latency_us", "trace")}
        with tempfile.TemporaryDirectory() as prev, \
                tempfile.TemporaryDirectory() as cur:
            write_json(prev, "BENCH_portfolio.json", old)
            write_json(cur, "BENCH_portfolio.json", CURRENT_PORTFOLIO)
            rc, out = run_delta(prev, cur)
        self.assertEqual(rc, 0)
        for label in ("max cancel latency, us (all races)",
                      "traced-race retained events"):
            row = [l for l in out.splitlines() if label in l]
            self.assertEqual(len(row), 1, label)
            self.assertIn("n/a", row[0])
        with tempfile.TemporaryDirectory() as prev, \
                tempfile.TemporaryDirectory() as cur:
            write_json(prev, "BENCH_portfolio.json",
                       dict(CURRENT_PORTFOLIO, max_cancel_latency_us=1000))
            write_json(cur, "BENCH_portfolio.json", CURRENT_PORTFOLIO)
            rc, out = run_delta(prev, cur)
        self.assertEqual(rc, 0)
        row = [l for l in out.splitlines()
               if "max cancel latency" in l][0]
        self.assertIn("1,000", row)
        self.assertIn("850", row)

    def test_corrupt_json_degrades_to_na(self):
        with tempfile.TemporaryDirectory() as prev, \
                tempfile.TemporaryDirectory() as cur:
            with open(os.path.join(cur, "BENCH_portfolio.json"), "w") as f:
                f.write("{not json")
            write_json(prev, "BENCH_portfolio.json", CURRENT_PORTFOLIO)
            rc, out = run_delta(prev, cur)
        self.assertEqual(rc, 0)
        self.assertIn("no BENCH_portfolio.json", out)

    def test_memory_artifact_absent_degrades(self):
        # The previous run predates BENCH_memory.json entirely AND the
        # current run lacks it too (bench_memory leg skipped): the
        # Memory section must degrade to its absence note, exit 0.
        with tempfile.TemporaryDirectory() as prev, \
                tempfile.TemporaryDirectory() as cur:
            write_json(cur, "BENCH_portfolio.json", CURRENT_PORTFOLIO)
            rc, out = run_delta(prev, cur)
        self.assertEqual(rc, 0)
        self.assertIn("no BENCH_memory.json", out)

    def test_memory_metrics_diff_and_degrade(self):
        # Current run has the full memory artifact, previous has none:
        # every cell on the previous side is "n/a"; with both present
        # the peak RSS diffs numerically.
        cur_memory = {
            "pauses": {
                "arena.chunk_alloc_us": {"count": 40, "p99_us": 63},
                "arena.gc_pause_us": {"count": 2, "p99_us": 1023},
            },
            "rank_row": {
                "demoted": {"wall_sec": 0.08, "ranks_published": 0},
                "forced": {"wall_sec": 0.09, "ranks_published": 40},
            },
            "process": {"vm_hwm_kb": 9600},
        }
        with tempfile.TemporaryDirectory() as prev, \
                tempfile.TemporaryDirectory() as cur:
            write_json(cur, "BENCH_memory.json", cur_memory)
            rc, out = run_delta(prev, cur)
        self.assertEqual(rc, 0)
        self.assertIn("### Memory", out)
        self.assertIn("| peak RSS, kB (bench_memory process) | n/a "
                      "| 9,600 | n/a |", out)

        prev_memory = dict(cur_memory)
        prev_memory["process"] = {"vm_hwm_kb": 9000}
        with tempfile.TemporaryDirectory() as prev, \
                tempfile.TemporaryDirectory() as cur:
            write_json(prev, "BENCH_memory.json", prev_memory)
            write_json(cur, "BENCH_memory.json", cur_memory)
            rc, out = run_delta(prev, cur)
        self.assertEqual(rc, 0)
        self.assertIn("| peak RSS, kB (bench_memory process) | 9,000 "
                      "| 9,600 | +6.7% |", out)

    def test_tape_rows_diff_and_new_row_degrades(self):
        # The previous BENCH_tape.json predates BM_TapeReplayRace: its
        # rows print an "n/a" previous cell; rows both runs have diff.
        def gbench(rows):
            return {"context": {"num_cpus": 4},
                    "benchmarks": [
                        {"name": name, "run_name": name,
                         "run_type": "iteration", "iterations": 10,
                         "real_time": t, "cpu_time": t, "time_unit": "ns"}
                        for name, t in rows]}
        prev_doc = gbench([("BM_TapeReplay/10", 500000.0),
                           ("BM_TapePreprocess/10", 6000000.0)])
        cur_doc = gbench([("BM_TapeReplay/10", 400000.0),
                          ("BM_TapeReplayRace/10/real_time", 900000.0),
                          ("BM_TapePreprocess/10", 6000000.0)])
        with tempfile.TemporaryDirectory() as prev, \
                tempfile.TemporaryDirectory() as cur:
            write_json(prev, "BENCH_tape.json", prev_doc)
            write_json(cur, "BENCH_tape.json", cur_doc)
            rc, out = run_delta(prev, cur)
        self.assertEqual(rc, 0)
        self.assertIn("### Tape replay and preprocessing", out)
        self.assertIn("| BM_TapeReplayRace/10/real_time | ns | n/a "
                      "| 900,000 | n/a |", out)
        self.assertIn("| BM_TapeReplay/10 | ns | 500,000 | 400,000 "
                      "| -20.0% |", out)
        self.assertIn("| BM_TapePreprocess/10 | ns | 6,000,000 "
                      "| 6,000,000 | +0.0% |", out)

    def test_tape_artifact_absent_degrades(self):
        with tempfile.TemporaryDirectory() as prev, \
                tempfile.TemporaryDirectory() as cur:
            write_json(cur, "BENCH_portfolio.json", CURRENT_PORTFOLIO)
            rc, out = run_delta(prev, cur)
        self.assertEqual(rc, 0)
        self.assertIn("no BENCH_tape.json rows", out)


if __name__ == "__main__":
    unittest.main()
