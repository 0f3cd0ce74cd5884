#!/usr/bin/env python3
"""Entry point of the benchmark.

    python3 perfbench/run.py --workload <train|serve|loop> --seed N \
        --seconds S --trace <0|1>
    python3 perfbench/run.py --selftest

Run from the root of a source checkout. The first call configures and
builds the program's libraries and the benchmark driver from source into
.bench_build/ (a no-op rebuild afterwards); scratch files go to
.bench_work/ and are removed when the run ends. The driver's standard
output is passed through: its last line is the result object
{"correct", "attempted", "failed", "metrics"}, whose metrics are checked
against BENCHMARK.json's end_to_end (--trace 0) or per_layer (--trace 1)
list. Build logs go to standard error. --selftest builds and runs the
self-test of the benchmark's own statistics instead.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
BUILD_DIR = ROOT / ".bench_build"
WORK_ROOT = ROOT / ".bench_work"
WORKLOADS = ("train", "serve", "loop")


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(2)


def run_logged(cmd):
    """Runs a build step with its output on stderr; fails the run on error."""
    proc = subprocess.run(cmd, cwd=ROOT, stdout=sys.stderr, stderr=sys.stderr)
    if proc.returncode != 0:
        fail(f"build step failed ({proc.returncode}): {' '.join(cmd)}")


def build(targets):
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        fail(f"no program sources under {ROOT}; run from a source checkout")
    if not (BUILD_DIR / "CMakeCache.txt").is_file():
        run_logged(["cmake", "-S", str(BENCH_DIR), "-B", str(BUILD_DIR),
                    "-DCMAKE_BUILD_TYPE=Release"])
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    run_logged(["cmake", "--build", str(BUILD_DIR), "-j", jobs,
                "--target", *targets])


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", choices=WORKLOADS)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=30)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--selftest", action="store_true")
    args = p.parse_args()

    if args.selftest:
        build(["perfbench_selftest"])
        sys.exit(subprocess.run([str(BUILD_DIR / "perfbench_selftest")]).returncode)
    if args.workload is None:
        fail("--workload is required")

    build(["perfbench"])
    work_dir = WORK_ROOT / f"{args.workload}-{os.getpid()}"
    cmd = [str(BUILD_DIR / "perfbench"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), "--work-dir", str(work_dir)]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, timeout=170,
                              stdout=subprocess.PIPE, text=True)
    except subprocess.TimeoutExpired:
        fail("workload timed out")
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
        try:
            WORK_ROOT.rmdir()
        except OSError:
            pass
    sys.stdout.write(proc.stdout)
    sys.stdout.flush()
    if proc.returncode != 0:
        sys.exit(proc.returncode)
    check_result(proc.stdout, args.trace)


def check_result(stdout, trace):
    """Fails the run unless its last line reports every metric of the
    manifest's end_to_end (untraced) or per_layer (traced) list, in its
    unit, and nothing else."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    want = {m["name"]: m["unit"]
            for m in spec["per_layer" if trace else "end_to_end"]}
    lines = stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
        got = {k: v["unit"] for k, v in result["metrics"].items()}
    except (IndexError, ValueError, KeyError, TypeError):
        fail("the last line is not a result object")
    if got != want:
        fail(f"reported metrics {got} differ from the manifest's {want}")


if __name__ == "__main__":
    main()
