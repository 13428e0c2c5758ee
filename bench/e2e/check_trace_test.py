#!/usr/bin/env python3
"""Tests of check_trace.py's checks (python3 bench/e2e/check_trace_test.py)."""

import os
import sys
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
sys.dont_write_bytecode = True
import check_trace  # noqa: E402


def span(name, sid, parent, ts, dur, check=1, critical=True, derived=False):
    return {"name": name, "ph": "X", "pid": 1, "tid": 1, "ts": ts,
            "dur": dur, "args": {"check": check, "id": sid, "parent": parent,
                                 "derived": derived, "critical": critical}}


def closed_check(solve_us=40.0, lanes=((True,),)):
    """check > model.parse, api.check > bmc.depth per lane > derived
    bmc.preprocess + sat.solve laid back to back from the depth's end, the
    way bench_e2e writes them."""
    spans = [span("check", 1, 0, 0.0, 100.0),
             span("model.parse", 2, 1, 0.0, 10.0),
             span("api.check", 3, 1, 10.0, 90.0)]
    sid = 4
    for (critical,) in lanes:
        spans.append(span("bmc.depth", sid, 3, 10.0, 90.0, critical=critical))
        spans.append(span("sat.solve", sid + 1, sid, 100.0 - solve_us,
                          solve_us, critical=critical, derived=True))
        spans.append(span("bmc.preprocess", sid + 2, sid,
                          100.0 - solve_us - 30.0, 30.0, critical=critical,
                          derived=True))
        sid += 3
    return {"otherData": {"workload": "test"}, "traceEvents": spans}


class CheckTraceTest(unittest.TestCase):
    def test_consistent_trace_passes_and_prints_a_ledger(self):
        errors, ledger = check_trace.check(closed_check())
        self.assertEqual(errors, [])
        self.assertIn("sat.solve", ledger)
        self.assertIn("layers:", ledger)

    def test_engine_durations_longer_than_the_depth_are_reported(self):
        # 40 + 30 us of derived children fit in the 90 us depth; 75 + 30
        # do not, so the first child starts before its parent.
        errors, _ = check_trace.check(closed_check(solve_us=75.0))
        self.assertTrue(any("leaves its parent" in e for e in errors), errors)
        self.assertTrue(any("self time" in e and "< 0" in e for e in errors),
                        errors)

    def test_losing_lanes_are_kept_off_the_critical_path(self):
        errors, ledger = check_trace.check(
            closed_check(lanes=((True,), (False,), (False,))))
        self.assertEqual(errors, [])
        self.assertIn("parallel ms", ledger)

    def test_race_without_a_matched_winner_is_reported(self):
        errors, _ = check_trace.check(
            closed_check(lanes=((False,), (False,))))
        self.assertTrue(any("critical path" in e for e in errors), errors)

    def test_parent_from_another_check_is_reported(self):
        doc = closed_check()
        doc["traceEvents"][1]["args"]["check"] = 2
        errors, _ = check_trace.check(doc)
        self.assertTrue(any("under a span of check" in e for e in errors),
                        errors)


if __name__ == "__main__":
    unittest.main()
