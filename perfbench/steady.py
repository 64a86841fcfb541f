"""Steadiness check for the benchmark.

Usage (from the repository root):
    python3 perfbench/steady.py [--workload NAME ...] [--runs N] [--seed S]
                                [--seconds S] [--trace]

Runs ``run.py`` N times per workload, each with another seed (S, S+1, ...),
and prints every end-to-end metric's median and quartiles next to its bound
from BENCHMARK.json.  The spread is (q3 - q1) / median; the benchmark is
steady when each spread other than ``setup_s`` stays below a third of its
bound.  ``cost p90/p50`` is the op-cost spread of the workload.  With
``--runs 1`` it is the one command that prints every end-to-end metric of
every workload.

With ``--trace`` each workload runs twice with the same seed under the span
recorder; the per-layer metrics of the first run are printed, and every
``.calls`` count must repeat exactly.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def run_once(workload: str, seed: int, seconds: int, trace: bool) -> dict:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(int(trace))]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
    if proc.returncode != 0:
        sys.exit(f"{' '.join(cmd)} exited {proc.returncode}:\n{proc.stderr}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    if not result["correct"]:
        print(f"{workload} seed {seed}: {result['failed']} of {result['attempted']} "
              f"operations failed\n{proc.stderr}", file=sys.stderr)
    return result


def steadiness(spec: dict, workload: str, seeds: list[int], seconds: int) -> bool:
    runs = [run_once(workload, seed, seconds, False) for seed in seeds]
    attempted = sum(r["attempted"] for r in runs)
    failed = sum(r["failed"] for r in runs)
    cost = [r["metrics"]["latency_p90_ms"]["value"] / r["metrics"]["latency_p50_ms"]["value"]
            for r in runs]
    print(f"\n{workload}: {len(runs)} runs, seeds {seeds[0]}..{seeds[-1]}, "
          f"error_rate {failed / attempted:.6f} ({failed}/{attempted}), "
          f"cost p90/p50 {statistics.median(cost):.2f}")
    print(f"  {'metric':<16}{'unit':<7}{'median':>12}{'q1':>12}{'q3':>12}"
          f"{'spread':>9}{'bound':>8}")
    steady = failed == 0
    for metric in spec["end_to_end"]:
        name = metric["name"]
        values = [r["metrics"][name]["value"] for r in runs]
        med = statistics.median(values)
        if len(values) > 1:
            q1, _, q3 = statistics.quantiles(values, n=4)
        else:
            q1 = q3 = med
        spread = (q3 - q1) / med if med else float("inf")
        flag = ""
        if name != "setup_s" and spread > metric["bound"] / 3:
            flag = "  > bound/3"
            steady = False
        print(f"  {name:<16}{metric['unit']:<7}{med:>12.5g}{q1:>12.5g}{q3:>12.5g}"
              f"{spread:>9.3f}{metric['bound']:>8.2f}{flag}")
    return steady


def trace_check(spec: dict, workload: str, seed: int, seconds: int) -> bool:
    first, second = (run_once(workload, seed, seconds, True) for _ in range(2))
    print(f"\n{workload} traced, seed {seed}:")
    same = True
    for metric in spec["per_layer"]:
        name = metric["name"]
        a = first["metrics"][name]["value"]
        b = second["metrics"][name]["value"]
        flag = ""
        if name.endswith(".calls") and a != b:
            flag = f"  differs: {b}"
            same = False
        print(f"  {name:<50}{a:>12.5g} {metric['unit']}{flag}")
    return same


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", action="append", choices=names)
    parser.add_argument("--runs", type=int, default=5)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=spec["run_seconds"])
    parser.add_argument("--trace", action="store_true")
    args = parser.parse_args()
    ok = True
    for workload in args.workload or names:
        if args.trace:
            ok &= trace_check(spec, workload, args.seed, args.seconds)
        else:
            seeds = list(range(args.seed, args.seed + args.runs))
            ok &= steadiness(spec, workload, seeds, args.seconds)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
