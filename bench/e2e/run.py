#!/usr/bin/env python3
"""Build and run the end-to-end benchmark for one workload.

    python3 bench/e2e/run.py --workload W --seed N --seconds S --trace 0|1
                             [--self-test] [--dump-inputs DIR] [--log FILE]

Run from the root of a checkout.  The first call configures and builds
bench/e2e (the root CMakeLists.txt's refbmc library plus bench_e2e.cpp)
into .bench_build/; later calls only let the build check that it is up
to date.  The binary runs in .bench_build/, so BENCH_e2e_<W>.json and the
trace land there.

--trace 0 reports the end-to-end metrics listed in BENCHMARK.json;
--trace 1 runs the workload untraced and then traced, validates the
trace with check_trace.py and reports the per-layer metrics.  The last
line of standard output is one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

The exit code is 0 only when every verdict was correct.  --log FILE also
appends {"workload", "seed", "trace", "result"} to FILE as one JSON line,
the input format of compare.py.
"""

import argparse
import fcntl
import json
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent.parent
BUILD = ROOT / ".bench_build"
TOTAL_LIMIT_S = 175.0  # one invocation must end within 180 s
BUILD_LIMIT_S = 880.0  # the first invocation may build for up to 900 s

sys.dont_write_bytecode = True  # leave no __pycache__ in the checkout
sys.path.insert(0, str(HERE))
import check_trace  # noqa: E402


def fail(message):
    print(f"run.py: {message}", file=sys.stderr)
    sys.exit(2)


def build():
    if not (ROOT / "CMakeLists.txt").is_file() or not (
            ROOT / "src" / "api" / "refbmc.hpp").is_file():
        fail(f"repository (CMakeLists.txt and src/) not found at {ROOT}")
    BUILD.mkdir(exist_ok=True)
    with open(BUILD / ".lock", "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        steps = []
        if not (BUILD / "CMakeCache.txt").is_file():
            steps.append(["cmake", "-S", str(HERE), "-B", str(BUILD),
                          "-DCMAKE_BUILD_TYPE=Release"])
        steps.append(["cmake", "--build", str(BUILD), "-j4",
                      "--target", "bench_e2e"])
        for cmd in steps:
            done = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                                  timeout=BUILD_LIMIT_S)
            if done.returncode != 0:
                fail(f"build step failed: {' '.join(cmd)}")


def parse_metrics(stdout):
    """`name value unit` lines -> {name: (value, unit)}; other lines skipped."""
    metrics = {}
    for line in stdout.splitlines():
        parts = line.split()
        if len(parts) != 3:
            continue
        try:
            metrics[parts[0]] = (float(parts[1]), parts[2])
        except ValueError:
            continue
    return metrics


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--self-test", action="store_true")
    ap.add_argument("--dump-inputs")
    ap.add_argument("--log")
    args = ap.parse_args()
    started = time.monotonic()

    spec_path = ROOT / "BENCHMARK.json"
    if not spec_path.is_file():
        fail("BENCHMARK.json not found")
    spec = json.loads(spec_path.read_text())
    if args.workload not in [w["name"] for w in spec["workloads"]]:
        fail(f"unknown workload '{args.workload}'")
    if args.seed < 0:
        fail("--seed must be >= 0")

    build()

    trace_file = BUILD / f"trace_{args.workload}.json"
    cmd = [str(BUILD / "bench_e2e"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds)]
    if args.trace:
        cmd += ["--trace", str(trace_file)]
    if args.self_test:
        cmd.append("--self-test")
    if args.dump_inputs:
        cmd += ["--dump-inputs", str(Path(args.dump_inputs).resolve())]
    remaining = TOTAL_LIMIT_S - (time.monotonic() - started)
    try:
        done = subprocess.run(cmd, cwd=BUILD, capture_output=True, text=True,
                              timeout=max(remaining, 30.0))
    except subprocess.TimeoutExpired:
        fail("bench_e2e did not finish in time")
    sys.stderr.write(done.stderr)
    sys.stdout.write(done.stdout)
    if done.returncode not in (0, 1):
        fail(f"bench_e2e exited with {done.returncode}")

    found = parse_metrics(done.stdout)
    listed = spec["per_layer"] if args.trace else spec["end_to_end"]
    metrics = {}
    for m in listed:
        if m["name"] not in found:
            fail(f"bench_e2e did not report {m['name']}")
        value, unit = found[m["name"]]
        if unit != m["unit"]:
            fail(f"{m['name']} reported in {unit}, BENCHMARK.json says "
                 f"{m['unit']}")
        metrics[m["name"]] = {"value": value, "unit": unit}

    attempted = int(found["checks_attempted"][0])
    failed = int(found["checks_failed"][0])
    correct = done.returncode == 0 and failed == 0 and attempted > 0
    if args.trace:
        errors, ledger = check_trace.check_file(trace_file)
        for e in errors[:20]:
            print(f"trace: {e}", file=sys.stderr)
        correct = correct and not errors
        print(ledger, end="")
    result = {"correct": correct, "attempted": attempted, "failed": failed,
              "metrics": metrics}
    if args.log:
        with open(args.log, "a") as log:
            log.write(json.dumps({"workload": args.workload,
                                  "seed": args.seed, "trace": args.trace,
                                  "result": result}) + "\n")
    print(json.dumps(result))
    sys.exit(0 if correct else 1)


if __name__ == "__main__":
    main()
