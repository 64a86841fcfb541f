"""Time one cold set-up of a workload in a fresh interpreter.

Usage: python3 perfbench/setup_probe.py WORKLOAD

Times ``import quadalg`` and then each step of the workload's own
preparation (ring construction, class groups), with a calibration kernel run
before, between and after them.  Each segment is scaled by the two kernel
runs around it.  Prints one JSON object: the raw and the reference-normalized
set-up seconds.
"""

from __future__ import annotations

import importlib
import json
import sys
import time
from pathlib import Path
from types import SimpleNamespace

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import calib  # noqa: E402

MODULES = ("ring", "forms", "picard", "algebras", "glue", "cli")


def main() -> None:
    clock = time.perf_counter
    segments = []
    calib.measure()  # the first run warms the interpreter's specializations
    kernels = [calib.measure()]
    sys.path.insert(0, str(HERE.parent / "src"))
    t0 = clock()
    qa = SimpleNamespace(**{m: importlib.import_module(f"quadalg.{m}") for m in MODULES})
    segments.append(clock() - t0)
    kernels.append(calib.measure())
    import workloads  # benchmark code, kept out of the timed segments
    for step in workloads.WORKLOADS[sys.argv[1]].prepare(qa):
        t0 = clock()
        step()
        segments.append(clock() - t0)
        kernels.append(calib.measure())
    normalized = sum(seg * 2 * calib.REFERENCE_S / (before + after)
                     for seg, before, after in zip(segments, kernels, kernels[1:]))
    print(json.dumps({"setup_s": sum(segments), "setup_norm_s": normalized}))


if __name__ == "__main__":
    main()
