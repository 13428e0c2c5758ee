#!/usr/bin/env python3
"""Validate bench_e2e traces and print their per-layer self-time ledger.

    python3 bench/e2e/check_trace.py TRACE.json [TRACE.json ...]

A trace is the Chrome trace JSON bench_e2e --trace FILE writes.  Checks:

  * every span's parent exists and carries the same check id, each check
    has exactly one root, and every child lies inside its parent (derived
    children are laid out from the engine's own durations and never
    clipped, so durations that do not fit show up here);
  * a span with children has at least one on its own path (a race whose
    winning lane could not be matched has none);
  * every span's self time (its duration minus the part of it that its
    children cover) is >= 0;
  * per check, the self times of the critical-path spans add up to the
    root's duration within 5%.  A race's losing entrants run in parallel
    with the winner: their spans are marked critical=false, validated
    the same way, and reported apart in the ledger.

Exit code 0 when every file passes.  Standard library only.
"""

import json
import sys
from collections import defaultdict

TOLERANCE_US = 0.01  # ts/dur are written with ns resolution
SUM_TOLERANCE = 0.05


def layer_of(name):
    return "bench" if name in ("check", "job") else name.split(".")[0]


def covered(intervals):
    """Length of the union of (start, end) intervals."""
    total, cur_start, cur_end = 0.0, None, None
    for start, end in sorted(intervals):
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def check(doc):
    """Returns (errors, ledger text) for one trace document."""
    errors = []
    workload = doc.get("otherData", {}).get("workload", "?")
    spans = [e for e in doc.get("traceEvents", []) if e.get("ph") == "X"]
    if not spans:
        return [f"{workload}: no spans"], ""
    by_id = {}
    for s in spans:
        sid = s["args"]["id"]
        if sid in by_id:
            errors.append(f"duplicate span id {sid}")
        by_id[sid] = s
    children = defaultdict(list)
    roots = defaultdict(list)
    for s in spans:
        args = s["args"]
        if args["parent"] == 0:
            roots[args["check"]].append(s)
            continue
        parent = by_id.get(args["parent"])
        if parent is None:
            errors.append(f"span {args['id']} ({s['name']}): parent "
                          f"{args['parent']} missing")
            continue
        if parent["args"]["check"] != args["check"]:
            errors.append(f"span {args['id']} ({s['name']}): check "
                          f"{args['check']} under a span of check "
                          f"{parent['args']['check']}")
        if (s["ts"] < parent["ts"] - TOLERANCE_US or
                s["ts"] + s["dur"] >
                parent["ts"] + parent["dur"] + TOLERANCE_US):
            errors.append(f"span {args['id']} ({s['name']}) leaves its "
                          f"parent {parent['name']}")
        children[args["parent"]].append(s)

    self_us = {}
    for s in spans:
        all_kids = children[s["args"]["id"]]
        kids = [c for c in all_kids
                if c["args"]["critical"] == s["args"]["critical"]]
        if all_kids and not kids:
            errors.append(f"span {s['args']['id']} ({s['name']}): no child "
                          f"on its critical path (winner lane not found)")
        own = s["dur"] - covered(
            [(c["ts"], c["ts"] + c["dur"]) for c in kids])
        if own < -TOLERANCE_US:
            errors.append(f"span {s['args']['id']} ({s['name']}): self "
                          f"time {own:.3f} us < 0")
        self_us[s["args"]["id"]] = max(own, 0.0)

    checks = {s["args"]["check"] for s in spans}
    sum_by_check = defaultdict(float)
    for s in spans:
        if s["args"]["critical"]:
            sum_by_check[s["args"]["check"]] += self_us[s["args"]["id"]]
    root_total = 0.0
    for c in sorted(checks):
        if len(roots[c]) != 1:
            errors.append(f"check {c}: {len(roots[c])} roots")
            continue
        root = roots[c][0]
        root_total += root["dur"]
        if abs(sum_by_check[c] - root["dur"]) > SUM_TOLERANCE * root["dur"]:
            errors.append(f"check {c}: self times add up to "
                          f"{sum_by_check[c]:.1f} us, root is "
                          f"{root['dur']:.1f} us")

    by_name = defaultdict(lambda: [0, 0.0, 0.0])  # count, critical, rival
    for s in spans:
        row = by_name[s["name"]]
        row[0] += 1
        row[1 if s["args"]["critical"] else 2] += self_us[s["args"]["id"]]
    by_layer = defaultdict(float)
    for name, (_, crit, _) in by_name.items():
        by_layer[layer_of(name)] += crit

    lines = [f"ledger {workload}: {len(checks)} checks, "
             f"{root_total / 1e3:.1f} ms in roots",
             f"  {'span':<18} {'count':>7} {'self ms':>10} {'share':>7} "
             f"{'parallel ms':>12}"]
    for name, (count, crit, rival) in sorted(
            by_name.items(), key=lambda kv: -kv[1][1]):
        lines.append(f"  {name:<18} {count:>7} {crit / 1e3:>10.1f} "
                     f"{crit / root_total:>7.1%} {rival / 1e3:>12.1f}")
    lines.append("  layers: " + ", ".join(
        f"{layer} {t / root_total:.1%}"
        for layer, t in sorted(by_layer.items(), key=lambda kv: -kv[1])))
    return errors, "\n".join(lines) + "\n"


def check_file(path):
    try:
        with open(path) as f:
            doc = json.load(f)
    except (OSError, ValueError) as e:
        return [f"{path}: {e}"], ""
    return check(doc)


def main(paths):
    if not paths:
        print(__doc__.strip().splitlines()[2].strip(), file=sys.stderr)
        return 2
    status = 0
    for path in paths:
        errors, ledger = check_file(path)
        print(ledger, end="")
        for e in errors[:20]:
            print(f"{path}: {e}", file=sys.stderr)
        if errors:
            print(f"{path}: {len(errors)} errors", file=sys.stderr)
            status = 1
        else:
            print(f"{path}: ok")
    return status


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
