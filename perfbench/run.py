#!/usr/bin/env python3
"""Builds and runs the end-to-end scheduler benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --selftest
    python3 perfbench/run.py --report [--seed N] [--seconds S]

Run from the root of a checkout. Every run first builds the benchmark program, hbench,
from the checkout's sources into .bench_build/ (a no-op rebuild takes about a second).
The last line of standard output is the run's JSON result: --trace 0 gives the end-to-end
metrics, --trace 1 the per-layer metrics of a traced run of the same seed. --report
runs every workload both ways, prints one table, and compares each workload's
simulated digest with the one perfbench/reference.json records for the default seed.
"""

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build"
BUILD_TYPE = "RelWithDebInfo"
WORKLOADS = ("workstation", "tenants-1e6", "tenants-1e5-sharded")
BUILD_TIMEOUT_S = 700
# hbench is stopped after this long. The slowest run measured, tenants-1e6 with
# --seconds 30 on a 4-vCPU Xeon, takes up to 42 s (--trace 1: 34 s); the margin is for
# a slower host, and a stopped run still ends within three minutes.
RUN_TIMEOUT_S = 170
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


def build():
    """Builds hbench; returns its path, or None with the build log on stderr."""
    BUILD.mkdir(exist_ok=True)
    log_path = BUILD / "build.log"
    steps = []
    if not (BUILD / "CMakeCache.txt").exists():
        steps.append(["cmake", "-S", str(HERE), "-B", str(BUILD),
                      f"-DCMAKE_BUILD_TYPE={BUILD_TYPE}"])
    jobs = str(min(4, os.cpu_count() or 1))
    steps.append(["cmake", "--build", str(BUILD), "--target", "hbench", "-j", jobs])
    with open(log_path, "w") as log:
        for cmd in steps:
            try:
                done = subprocess.run(cmd, stdout=log, stderr=subprocess.STDOUT,
                                      timeout=BUILD_TIMEOUT_S)
            except (OSError, subprocess.TimeoutExpired) as e:
                print(f"build failed: {e}", file=sys.stderr)
                return None
            if done.returncode != 0:
                log.flush()
                print(log_path.read_text()[-4000:], file=sys.stderr)
                print("build failed", file=sys.stderr)
                return None
    return BUILD / "hbench"


def run_hbench(binary, args):
    """Runs hbench; returns (stdout lines, parsed result) or None."""
    try:
        done = subprocess.run([str(binary)] + args, stdout=subprocess.PIPE,
                              text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print(f"hbench {' '.join(args)}: timed out", file=sys.stderr)
        return None
    lines = done.stdout.splitlines()
    if done.returncode != 0 or not lines:
        print("\n".join(lines), file=sys.stderr)
        print(f"hbench {' '.join(args)}: exit code {done.returncode}", file=sys.stderr)
        return None
    try:
        result = json.loads(lines[-1])
    except json.JSONDecodeError:
        result = None
    if not isinstance(result, dict) or set(result) != RESULT_KEYS:
        print("\n".join(lines), file=sys.stderr)
        print("hbench printed no result line", file=sys.stderr)
        return None
    return lines, result


def digest_of(lines):
    """The run's `digest {...}` line, parsed."""
    for line in lines:
        if line.startswith("digest "):
            return json.loads(line[len("digest "):])
    return None


def report(binary, reference, seed, seconds):
    rows = []
    ok = True
    for name in WORKLOADS:
        for trace in ("0", "1"):
            out = run_hbench(binary, ["--workload", name, "--seed", str(seed),
                                      "--seconds", str(seconds), "--trace", trace])
            if out is None:
                return 1
            lines, result = out
            print("\n".join(lines[:-1]))
            ok = ok and result["correct"]
            if trace == "0":
                rows.append((name, "ops.attempted", result["attempted"], "count"))
                rows.append((name, "ops.failed", result["failed"], "count"))
                expected = reference["digests"][name]
                digest = digest_of(lines)
                if seed == expected["seed"]:
                    same = digest is not None and digest["hash"] == expected["hash"]
                    print(f"{name}: digest {'matches' if same else 'DIFFERS FROM'} the "
                          f"reference {expected['hash']}")
            for metric, m in result["metrics"].items():
                rows.append((name, metric, m["value"], m["unit"]))
    print()
    print(f"{'workload':<22} {'metric':<30} {'value':>18}  unit")
    for name, metric, value, unit in rows:
        print(f"{name:<22} {metric:<30} {value:>18.6g}  {unit}")
    print("all checks passed" if ok else "SOME CHECKS FAILED")
    return 0 if ok else 1


def main():
    reference = json.loads((HERE / "reference.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=reference["seeds"]["default"])
    parser.add_argument("--seconds", type=int, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--selftest", action="store_true")
    parser.add_argument("--report", action="store_true")
    args = parser.parse_args()
    if not (args.selftest or args.report or args.workload):
        parser.error("give --workload, --selftest or --report")
    if args.seed < 0 or args.seconds < 1:
        parser.error("--seed must be >= 0 and --seconds >= 1")

    binary = build()
    if binary is None:
        return 1
    if args.selftest:
        return subprocess.run([str(binary), "--selftest"], timeout=RUN_TIMEOUT_S).returncode
    if args.report:
        return report(binary, reference, args.seed, args.seconds)
    out = run_hbench(binary, ["--workload", args.workload, "--seed", str(args.seed),
                              "--seconds", str(args.seconds), "--trace", str(args.trace)])
    if out is None:
        return 1
    print("\n".join(out[0]), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
