"""Reference-normalized benchmark of quadalg.

Usage:
    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root.  One client in one thread drives a closed loop
over a seeded, fixed-count list of operations (the count is ``S`` times the
workload's nominal rate, so both sides of a comparison do identical work).
The list is split into batches.  Within a batch, short slices of a fixed
pure-Python calibration kernel (``calib.py``) run between the operations, and
the batch's operation wall time is scaled by the slices' nominal time over
their measured time.  Timings are therefore in ms, s and 1/s "at reference
speed", and the host's speed changes cancel out.

Every result is checked against an independent oracle after timing.  The last
line of stdout is one JSON object: ``correct``, ``attempted``, ``failed`` and
``metrics``, the ``end_to_end`` metrics of BENCHMARK.json with ``--trace 0``
and its ``per_layer`` metrics with ``--trace 1``.  The traced run first runs
the untraced pass, then the same operations with the span recorder of
``spans.py`` installed; the ratio of the two is ``trace.overhead_ratio``.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import os
import platform
import random
import resource
import statistics
import subprocess
import sys
import time
from collections import defaultdict
from pathlib import Path
from types import SimpleNamespace

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

import calib  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

BATCHES = 24
MIN_OPS = 100  # so that p90 has at least ten samples beyond it
SETUP_REPS = 7
PROBE_TIMEOUT_S = 60
MODULES = ("ring", "forms", "picard", "algebras", "glue", "cli")


class Failure:
    """An operation that raised."""

    def __init__(self, exc: BaseException):
        self.reason = f"{type(exc).__name__}: {exc}"


def load_program() -> SimpleNamespace:
    if not (SRC / "quadalg" / "__init__.py").is_file():
        sys.exit(f"perfbench: quadalg sources not found under {SRC}")
    sys.path.insert(0, str(SRC))
    mods = {m: importlib.import_module(f"quadalg.{m}") for m in MODULES}
    if Path(mods["cli"].__file__).resolve().parent != SRC / "quadalg":
        sys.exit(f"perfbench: imported quadalg from {mods['cli'].__file__}, not {SRC}")
    return SimpleNamespace(**mods)


def load_spec() -> dict:
    path = ROOT / "BENCHMARK.json"
    if not path.is_file():
        sys.exit(f"perfbench: {path} not found")
    return json.loads(path.read_text())


def measure_setup(workload: str) -> tuple[list[float], list[float]]:
    """Reference-normalized and raw seconds of SETUP_REPS cold set-ups."""
    norm, raw = [], []
    for _ in range(SETUP_REPS):
        proc = subprocess.run([sys.executable, str(HERE / "setup_probe.py"), workload],
                              capture_output=True, text=True, timeout=PROBE_TIMEOUT_S,
                              check=True)
        probe = json.loads(proc.stdout.strip().splitlines()[-1])
        raw.append(probe["setup_s"])
        norm.append(probe["setup_norm_s"])
    return norm, raw


def timed_pass(work, ops, tracer=None):
    """Run ops in BATCHES batches, with a kernel slice before every group of
    ``work.ops_per_slice`` operations and one after the last group.

    An operation's latency is scaled by the two slices around its group; a
    batch's operation time by all slices of the batch.  Returns the results,
    the normalized latencies, one (ops, operation seconds, kernel seconds,
    nominal kernel seconds) tuple per batch and, when traced, the normalized
    self seconds per span name.
    """
    results, latencies, batches = [], [], []
    self_norm: defaultdict[str, float] = defaultdict(float)
    clock = time.perf_counter
    kernel, steps, every = calib.kernel, work.slice_steps, work.ops_per_slice
    nominal = calib.nominal_s(steps)

    def timed_slice():
        t0 = clock()
        kernel(steps)
        return clock() - t0

    bounds = [len(ops) * b // BATCHES for b in range(BATCHES + 1)]
    for lo, hi in zip(bounds, bounds[1:]):
        gc.collect()
        gc.freeze()  # the benchmark's own objects stay out of the program's collections
        slices = [timed_slice()]
        op_s = 0.0
        for start in range(lo, hi, every):
            lat = []
            for op in ops[start:min(start + every, hi)]:
                t0 = clock()
                try:
                    res = op()
                except Exception as exc:  # an operation failure, counted below
                    res = Failure(exc)
                lat.append(clock() - t0)
                results.append(res)
            slices.append(timed_slice())
            factor = 2 * nominal / (slices[-2] + slices[-1])
            latencies += [x * factor for x in lat]
            op_s += sum(lat)
        kernel_s = sum(slices)
        batches.append((hi - lo, op_s, kernel_s, nominal * len(slices)))
        if tracer is not None:
            factor = nominal * len(slices) / kernel_s
            for name, secs in tracer.take_self_s().items():
                self_norm[name] += secs * factor
    gc.unfreeze()
    return results, latencies, batches, self_norm


def normalized_s(batches) -> float:
    return sum(op_s * nominal / kernel_s for _, op_s, kernel_s, nominal in batches)


def commit_id() -> str:
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            return (ROOT / ".git" / ref[5:]).read_text().strip()[:12]
        return ref[:12]
    except OSError:
        return "unknown"


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    spec = load_spec()
    qa = load_program()
    work = workloads.WORKLOADS[args.workload]
    count = max(MIN_OPS, round(args.seconds * work.rate))

    rng = random.Random(args.seed)
    warm_inputs = work.generate(rng, work.warmup)
    inputs = work.generate(rng, count)

    setup_norm, setup_raw = measure_setup(args.workload)
    state = [step() for step in work.prepare(qa)]
    for op in work.bind(qa, state, warm_inputs):
        try:
            op()
        except Exception:  # warm-up is not scored; the timed pass counts failures
            pass
    ops = work.bind(qa, state, inputs)
    results, latencies, batches, _ = timed_pass(work, ops)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    reasons = []
    for item, res in zip(inputs, results):
        reasons.append(res.reason if isinstance(res, Failure)
                       else work.check_one(state, item, res))

    # raw milliseconds of a reference-size kernel, per batch
    kernel_ms = [k / nominal * calib.REFERENCE_S * 1e3 for _, _, k, nominal in batches]
    k1, k2, k3 = statistics.quantiles(kernel_ms, n=4)
    metrics = {
        "ops_per_s": statistics.median(n * k / (op_s * nominal)
                                       for n, op_s, k, nominal in batches),
        "latency_p50_ms": statistics.median(latencies) * 1e3,
        "latency_p90_ms": statistics.quantiles(latencies, n=10)[8] * 1e3,
        "setup_s": statistics.median(setup_norm),
        "peak_rss_mb": peak_rss_mb,
        "host.calib_ms_p50": k2,
        "host.calib_ms_iqr": k3 - k1,
        "host.wall_ops_per_s": count / sum(op_s for _, op_s, _, _ in batches),
    }

    if args.trace:
        tracer = spans.Tracer()
        tracer.install(qa)
        try:
            traced, _, traced_batches, self_norm = timed_pass(work, ops, tracer)
        finally:
            tracer.uninstall()
        for i, (res, again) in enumerate(zip(results, traced)):
            if reasons[i] is None and (isinstance(again, Failure) or again != res):
                reasons[i] = "traced result differs from untraced result"
        metrics["trace.overhead_ratio"] = (normalized_s(traced_batches)
                                           / normalized_s(batches))
        for mod_name, qualname in spans.TARGETS:
            name = f"{mod_name}.{qualname}"
            metrics[f"{name}.calls"] = tracer.calls[name] / count
            metrics[f"{name}.self_ms"] = self_norm[name] * 1e3 / count

    failed = sum(r is not None for r in reasons)
    metrics["success_rate"] = 1 - failed / count
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    missing = [m["name"] for m in wanted if m["name"] not in metrics]
    if missing:
        sys.exit(f"perfbench: no measurement for {', '.join(missing)}")

    for reason in [r for r in reasons if r is not None][:5]:
        print(f"perfbench: FAILED {reason}", file=sys.stderr)
    print(f"# workload={args.workload} seed={args.seed} ops={count} batches={BATCHES} "
          f"latency_samples={len(latencies)} error_rate={failed / count:.6f}")
    print(f"# host python={platform.python_version()} nproc={os.cpu_count()} "
          f"commit={commit_id()} calib_ms_p50={k2:.3f} calib_ms_iqr={k3 - k1:.3f} "
          f"wall_ops_per_s={metrics['host.wall_ops_per_s']:.2f} "
          f"setup_s_raw={statistics.median(setup_raw):.4f}")
    for m in wanted:
        print(f"# {m['name']} = {metrics[m['name']]:.6g} {m['unit']}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": count,
        "failed": failed,
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]}
                    for m in wanted},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
