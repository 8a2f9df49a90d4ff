#!/usr/bin/env python3
"""Served-frame benchmark: builds perfbench from source and runs one workload.

Run from the root of a checkout:

  python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
  python3 perfbench/run.py --compare <result.json> <result.json>
  python3 perfbench/run.py --selftest

A run prints the host fingerprint and the run's details as JSON lines and,
last, {"correct", "attempted", "failed", "metrics"}.  It also writes the
three together to .bench_results/<workload>-seed<n>-trace<t>.json (and a
traced run's spans to the matching .trace.json), which --compare reads.
--compare refuses to compare results from two different hosts.
"""

import argparse
import json
import os
import subprocess
import sys
import unittest
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCH_DIR = Path(__file__).resolve().parent
BUILD_DIR = ROOT / ".bench_build" / "perfbench"
RESULTS_DIR = ROOT / ".bench_results"
# A run measures --seconds after its set-ups and warm-ups; it is given this
# much longer for those, its checks and, when traced, the layer replays.
RUN_SLACK_S = 120

# Fingerprint fields that must match for two results to be comparable.
HOST_FIELDS = ("cpu_model", "nproc", "isa", "l1d_kib", "l2_kib", "l3_kib",
               "kernel_backend", "build_type")


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build(target):
    """Configures and builds `target`; returns its path or None."""
    if subprocess.run(["cmake", "-S", str(BENCH_DIR), "-B", str(BUILD_DIR),
                       "-DCMAKE_BUILD_TYPE=Release"],
                      stdout=sys.stderr).returncode != 0:
        return None
    jobs = str(min(4, os.cpu_count() or 1))
    if subprocess.run(["cmake", "--build", str(BUILD_DIR), "--target", target,
                       "-j", jobs], stdout=sys.stderr).returncode != 0:
        return None
    return BUILD_DIR / target


def parse_output(text):
    """Splits perfbench's stdout into (host, detail, result) dicts.

    The result is the last line; host and detail are the lines keyed so.
    Raises ValueError when the last line is not a result object.
    """
    host, detail = None, None
    lines = [l for l in text.splitlines() if l.strip()]
    if not lines:
        raise ValueError("no output")
    for line in lines[:-1]:
        obj = json.loads(line)
        host = obj.get("host", host)
        detail = obj.get("detail", detail)
    result = json.loads(lines[-1])
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        raise ValueError("last line is not a result: " + lines[-1][:200])
    return host, detail, result


def host_mismatches(a, b):
    """Fingerprint fields on which hosts `a` and `b` differ (missing = differ)."""
    if not a or not b:
        return ["host fingerprint missing"]
    return [f"{f}: {a.get(f)!r} != {b.get(f)!r}"
            for f in HOST_FIELDS if a.get(f) != b.get(f)]


def compare(path_a, path_b):
    a = json.loads(Path(path_a).read_text())
    b = json.loads(Path(path_b).read_text())
    diff = host_mismatches(a.get("host"), b.get("host"))
    if diff:
        print("HOST MISMATCH: these results come from different hosts; "
              "their metrics are not comparable.")
        for d in diff:
            print("  " + d)
        return 3
    ma, mb = a["result"]["metrics"], b["result"]["metrics"]
    for name in sorted(set(ma) | set(mb)):
        va = ma.get(name, {}).get("value")
        vb = mb.get(name, {}).get("value")
        ratio = f"{vb / va:.3f}" if va and vb is not None else "-"
        unit = (ma.get(name) or mb.get(name))["unit"]
        print(f"{name:40s} {va!s:>22} {vb!s:>22} {unit:>9} x{ratio}")
    return 0


def selftest():
    tests = build("perfbench_tests")
    if tests is None:
        return 1
    if subprocess.run([str(tests)]).returncode != 0:
        return 1
    suite = unittest.defaultTestLoader.discover(str(BENCH_DIR / "tests"),
                                                pattern="test_*.py")
    return 0 if unittest.TextTestRunner().run(suite).wasSuccessful() else 1


def main(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload")
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--trace", choices=("0", "1"), default="0")
    p.add_argument("--compare", nargs=2, metavar="RESULT")
    p.add_argument("--selftest", action="store_true")
    args = p.parse_args(argv)
    if args.compare:
        return compare(*args.compare)
    if args.selftest:
        return selftest()
    if not args.workload:
        p.error("--workload is required")

    binary = build("perfbench")
    if binary is None:
        log("perfbench: build failed")
        return 1
    RESULTS_DIR.mkdir(exist_ok=True)
    stem = RESULTS_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    cmd = [str(binary), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", args.trace]
    if args.trace == "1":
        cmd += ["--trace-out", str(stem) + ".trace.json"]
    timeout = args.seconds + RUN_SLACK_S
    try:
        run = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                             timeout=timeout)
    except subprocess.TimeoutExpired:
        log(f"perfbench: no result within {timeout:g} s")
        return 1
    try:
        host, detail, result = parse_output(run.stdout)
    except ValueError as e:
        log(f"perfbench: exit {run.returncode}, unreadable output: {e}")
        return run.returncode or 1
    (Path(str(stem) + ".json")).write_text(json.dumps(
        {"host": host, "detail": detail, "result": result}, indent=1) + "\n")
    sys.stdout.write(run.stdout)
    sys.stdout.flush()
    return run.returncode


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
