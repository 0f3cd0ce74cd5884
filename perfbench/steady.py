#!/usr/bin/env python3
"""Steadiness check: is every end-to-end metric repeatable within its bound?

    python3 perfbench/steady.py [--runs 10] [--workloads train,serve,loop]
                                [--first-seed 101]

Runs each workload --runs times, alternating workloads run by run, each
run with its own seed and BENCHMARK.json's run_seconds, through
perfbench/run.py with tracing off. For every end-to-end metric it prints
the median, the inter-quartile range (statistics.quantiles(values, n=4))
as a share of the median, the (max - min) / median spread, and the bound
BENCHMARK.json fixes for the metric. A metric whose IQR share exceeds its
bound fails; one above a third of its bound is flagged as not yet steady.
Each run's host probes (scalar drift ratio, fork-join times) are printed
beside its metrics and summarised per workload, never gated.
Failed or incorrect runs fail the check. Exit code 0 when nothing failed.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def run_once(workload, seed, seconds):
    cmd = [sys.executable, str(ROOT / "perfbench" / "run.py"),
           "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    stamp = next((json.loads(l)["stamp"] for l in lines
                  if l.startswith('{"stamp"')), {})
    if proc.returncode != 0 or not lines:
        return None, stamp
    return json.loads(lines[-1]), stamp


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--runs", type=int, default=10)
    p.add_argument("--workloads", default="")
    p.add_argument("--first-seed", type=int, default=101)
    args = p.parse_args()

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    workloads = ([w for w in args.workloads.split(",") if w] or
                 [w["name"] for w in spec["workloads"]])
    seconds = spec["run_seconds"]

    values = {w: {} for w in workloads}
    # Host probes from each run's stamp: reported, never gated.
    probes = ("drift_ratio", "forkjoin_before_ms", "forkjoin_after_ms")
    drift = {w: {k: [] for k in probes} for w in workloads}
    bad = 0
    for i in range(args.runs):
        for w in workloads:
            seed = args.first_seed + i
            result, stamp = run_once(w, seed, seconds)
            if result is None or not result["correct"] or result["failed"]:
                print(f"{w} seed {seed}: run failed or incorrect: {result}")
                bad += 1
                continue
            for name, m in result["metrics"].items():
                values[w].setdefault(name, []).append(m["value"])
            for k in probes:
                drift[w][k].append(stamp.get(k, 0.0))
            print(f"{w} seed {seed}: " + ", ".join(
                f"{n}={m['value']:.6g}" for n, m in result["metrics"].items())
                + " | " + ", ".join(f"{k}={stamp.get(k, 0.0):.4g}"
                                    for k in probes),
                flush=True)

    print(f"\n{'workload':8} {'metric':14} {'n':>3} {'median':>12} "
          f"{'iqr/med':>8} {'range/med':>9} {'bound':>6}  verdict")
    for w in workloads:
        for name, vals in values[w].items():
            med = statistics.median(vals)
            if len(vals) >= 2:
                q = statistics.quantiles(vals, n=4)
                iqr = (q[2] - q[0]) / med if med else float("inf")
            else:
                iqr = 0.0
            rng = (max(vals) - min(vals)) / med if med else float("inf")
            bound = bounds.get(name)
            if bound is None:
                verdict = "NO BOUND"
                bad += 1
            elif iqr > bound:
                verdict = "FAIL: iqr over bound"
                bad += 1
            elif iqr > bound / 3:
                verdict = "not steady (iqr over bound/3)"
            else:
                verdict = "ok"
            print(f"{w:8} {name:14} {len(vals):3d} {med:12.6g} {iqr:8.4f} "
                  f"{rng:9.4f} {bound if bound is not None else '-':>6}  "
                  f"{verdict}")
        for k, vals in drift[w].items():
            if vals:
                print(f"{w:8} ({k}) {len(vals):3d} "
                      f"{statistics.median(vals):12.4f}  "
                      f"min {min(vals):.4f} max {max(vals):.4f}")
    sys.exit(1 if bad else 0)


if __name__ == "__main__":
    main()
