#!/usr/bin/env python3
"""Tests of compare.py's decision rules (python3 bench/e2e/compare_test.py)."""

import json
import os
import statistics
import sys
import tempfile
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
sys.dont_write_bytecode = True
import compare  # noqa: E402

SPEC = {
    "end_to_end": [
        {"name": "latency_ms", "unit": "ms", "better": "lower", "bound": 0.1},
        {"name": "rate", "unit": "1/s", "better": "higher", "bound": 0.1},
    ],
    "per_layer": [
        {"name": "sat.decisions", "unit": "count", "better": "lower"},
    ],
}


def run(workload, seed, trace, failed=0, **metrics):
    return {"workload": workload, "seed": seed, "trace": trace,
            "result": {"correct": failed == 0, "attempted": 100,
                       "failed": failed,
                       "metrics": {k: {"value": v, "unit": "x"}
                                   for k, v in metrics.items()}}}


def runs_by_key(lines):
    by_key = {}
    for r in lines:
        by_key.setdefault((r["workload"], r["trace"]), []).append(
            (r["seed"], r["result"]))
    return by_key


def verdicts(parent, change):
    rows = compare.compare(runs_by_key(parent), runs_by_key(change), SPEC)
    return {(w, name): v for w, _, name, _, _, _, _, v in rows}


class SummaryTest(unittest.TestCase):
    def test_quartiles_match_statistics_quantiles(self):
        values = [5.0, 1.0, 4.0, 2.0, 3.0, 9.0, 7.0]
        q1, med, q3 = statistics.quantiles(values, n=4)
        self.assertEqual(compare.summarize(values), (med, q1, q3))

    def test_single_run_is_its_own_quartiles(self):
        self.assertEqual(compare.summarize([3.0]), (3.0, 3.0, 3.0))


class JudgeTest(unittest.TestCase):
    parent = [100.0 + i for i in range(10)]

    def test_clear_latency_drop_is_a_gain(self):
        change = [90.0 + i for i in range(10)]
        self.assertEqual(compare.judge(self.parent, change, "lower", 0.1)[0],
                         "gain")

    def test_nine_of_ten_rule(self):
        # Eight wins of ten is not enough, even with a lower median.
        change = [v - 8.0 for v in self.parent]
        change[0] += 20.0
        change[1] += 20.0
        verdict, wins = compare.judge(self.parent, change, "lower", 0.1)
        self.assertEqual(wins, 8)
        self.assertEqual(verdict, "ok")

    def test_ties_count_for_neither_side(self):
        verdict, wins = compare.judge(self.parent, list(self.parent),
                                      "lower", 0.1)
        self.assertEqual((verdict, wins), ("ok", 0))

    def test_small_move_inside_parent_spread_is_no_gain(self):
        change = [v - 1.0 for v in self.parent]  # wins every pair
        self.assertEqual(compare.judge(self.parent, change, "lower", 0.1)[0],
                         "ok")

    def test_worse_by_more_than_bound_is_a_regression(self):
        change = [v * 1.2 for v in self.parent]
        self.assertEqual(compare.judge(self.parent, change, "lower", 0.1)[0],
                         "regression")

    def test_worse_within_bound_is_ok(self):
        change = [v * 1.05 for v in self.parent]
        self.assertEqual(compare.judge(self.parent, change, "lower", 0.1)[0],
                         "ok")

    def test_paired_rule_catches_what_host_drift_hides(self):
        # The host slows by up to 20% over the runs; the change costs 15%
        # in every pair.  Within a bound of 0.25 between the medians, but
        # over the paired 10%.
        drifting = [100.0 + 2.0 * i for i in range(10)]
        change = [v * 1.15 for v in drifting]
        self.assertEqual(compare.judge(drifting, change, "lower", 0.25)[0],
                         "regression")
        self.assertEqual(compare.judge(drifting, [v * 1.05 for v in drifting],
                                       "lower", 0.25)[0], "ok")
        self.assertEqual(compare.judge(drifting, [v / 1.15 for v in drifting],
                                       "higher", 0.25)[0], "regression")

    def test_higher_is_better_metrics(self):
        self.assertEqual(
            compare.judge(self.parent, [v * 0.8 for v in self.parent],
                          "higher", 0.1)[0], "regression")
        self.assertEqual(
            compare.judge(self.parent, [v * 1.2 for v in self.parent],
                          "higher", 0.1)[0], "gain")

    def test_spread_wider_than_bound_is_unresolved(self):
        noisy = [60.0, 140.0, 70.0, 130.0, 80.0, 120.0, 90.0, 110.0,
                 100.0, 100.0]
        self.assertEqual(compare.judge(noisy, list(noisy), "lower", 0.1)[0],
                         "unresolved")

    def test_floor_widens_a_small_allowance(self):
        # Quartile distance 50 is over 10% of 100 but under a floor of 60,
        # and so is a worsening by 50.
        noisy = [60.0, 140.0, 70.0, 130.0, 80.0, 120.0, 90.0, 110.0,
                 100.0, 100.0]
        self.assertEqual(compare.judge(noisy, list(noisy), "lower", 0.1,
                                       floor=60.0)[0], "ok")
        self.assertEqual(compare.judge(noisy, [v + 50.0 for v in noisy],
                                       "lower", 0.1, floor=60.0)[0], "ok")
        self.assertEqual(compare.judge(noisy, [v + 70.0 for v in noisy],
                                       "lower", 0.1, floor=60.0)[0],
                         "regression")

    def test_floor_does_not_narrow_a_large_allowance(self):
        change = [v * 1.05 for v in self.parent]
        self.assertEqual(compare.judge(self.parent, change, "lower", 0.1,
                                       floor=0.001)[0], "ok")

    def test_beating_every_run_resolves_a_wide_spread(self):
        noisy = [60.0, 140.0, 70.0, 130.0, 80.0, 120.0, 90.0, 110.0,
                 100.0, 100.0]
        change = [v / 3.0 for v in noisy]
        self.assertEqual(compare.judge(noisy, change, "lower", 0.1)[0],
                         "gain")

    def test_per_layer_metrics_have_no_bound(self):
        change = [v * 1.5 for v in self.parent]
        self.assertEqual(compare.judge(self.parent, change, "lower")[0],
                         "loss")
        self.assertEqual(compare.judge(self.parent, self.parent, "lower")[0],
                         "-")


class CompareTest(unittest.TestCase):
    def test_bounds_come_from_the_spec(self):
        parent = [run("scratch", s, 0, latency_ms=100.0 + 0.1 * s,
                      rate=50.0) for s in range(10)]
        change = [run("scratch", s, 0, latency_ms=(100.0 + 0.1 * s) * 1.08,
                      rate=50.0) for s in range(10)]
        self.assertEqual(verdicts(parent, change)[("scratch", "latency_ms")],
                         "ok")
        looser = json.loads(json.dumps(SPEC))
        looser["end_to_end"][0]["bound"] = 0.05
        rows = compare.compare(runs_by_key(parent), runs_by_key(change),
                               looser)
        self.assertIn(("latency_ms", "regression"),
                      [(r[2], r[7]) for r in rows])

    def test_setup_may_worsen_by_its_bound_or_50_ms(self):
        spec = {"end_to_end": [{"name": "setup_s", "unit": "s",
                                "better": "lower", "bound": 0.1}],
                "per_layer": []}
        # A few milliseconds, with a spread of 50%: within 0.05 s.
        noisy = [0.0024, 0.0042, 0.0025, 0.0041, 0.0024, 0.0043, 0.0026,
                 0.0040, 0.0025, 0.0042]

        def verdict(change):
            parent = [run("scratch", s, 0, setup_s=v)
                      for s, v in enumerate(noisy)]
            moved = [run("scratch", s, 0, setup_s=v)
                     for s, v in enumerate(change)]
            rows = compare.compare(runs_by_key(parent), runs_by_key(moved),
                                   spec)
            return rows[0][7]

        self.assertEqual(verdict(noisy), "ok")
        self.assertEqual(verdict([v + 0.04 for v in noisy]), "ok")
        self.assertEqual(verdict([v + 0.06 for v in noisy]), "regression")
        # Above 0.5 s the 10% share is the larger allowance.
        slow = [1.0 + 0.01 * i for i in range(10)]
        self.assertEqual(compare.judge(slow, [v + 0.08 for v in slow],
                                       "lower", 0.1, floor=0.05)[0], "ok")
        self.assertEqual(compare.judge(slow, [v * 1.15 for v in slow],
                                       "lower", 0.1, floor=0.05)[0],
                         "regression")

    def test_more_failures_is_a_regression(self):
        parent = [run("race", s, 0, latency_ms=100.0, rate=5.0)
                  for s in range(3)]
        change = [run("race", s, 0, failed=1 if s == 2 else 0,
                      latency_ms=100.0, rate=5.0) for s in range(3)]
        self.assertEqual(verdicts(parent, change)[("race", "failed")],
                         "regression")

    def test_exact_count_drift(self):
        parent = [run("scratch", s, 1, **{"sat.decisions": 1000 + s})
                  for s in range(3)]
        same = [run("scratch", s, 1, **{"sat.decisions": 1000 + s})
                for s in range(3)]
        moved = [run("scratch", s, 1, **{"sat.decisions": 1000 + s + (s == 1)})
                 for s in range(3)]
        self.assertEqual(verdicts(parent, same)[("scratch", "sat.decisions")],
                         "-")
        self.assertEqual(verdicts(parent, moved)[("scratch", "sat.decisions")],
                         "drift")

    def test_race_counts_are_not_exact(self):
        parent = [run("race", s, 1, **{"sat.decisions": 1000 + s})
                  for s in range(3)]
        moved = [run("race", s, 1, **{"sat.decisions": 1001 + s})
                 for s in range(3)]
        self.assertNotEqual(
            verdicts(parent, moved)[("race", "sat.decisions")], "drift")

    def test_main_reads_jsonl_and_sets_exit_code(self):
        with tempfile.TemporaryDirectory() as d:
            spec, p, c = (os.path.join(d, n)
                          for n in ("spec.json", "p.jsonl", "c.jsonl"))
            with open(spec, "w") as f:
                json.dump(SPEC, f)
            with open(p, "w") as f:
                for s in range(10):
                    f.write(json.dumps(run("serve", s, 0,
                                           latency_ms=10.0 + 0.1 * s,
                                           rate=20.0)) + "\n")
            with open(c, "w") as f:
                for s in range(10):
                    f.write(json.dumps(run("serve", s, 0,
                                           latency_ms=(10.0 + 0.1 * s) * 1.5,
                                           rate=20.0)) + "\n")
            with open(os.devnull, "w") as null:
                stdout, sys.stdout = sys.stdout, null
                try:
                    same = compare.main([p, p, "--spec", spec])
                    worse = compare.main([p, c, "--spec", spec])
                finally:
                    sys.stdout = stdout
            self.assertEqual((same, worse), (0, 1))


if __name__ == "__main__":
    unittest.main()
