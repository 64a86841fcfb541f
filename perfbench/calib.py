"""Fixed pure-Python calibration kernel that sets the benchmark's time base.

The kernel mixes the kinds of work the library does on its hot paths: small
int arithmetic and gcd, construction of a small slotted object through a
Python-level ``__init__``, string formatting and dict updates.  A kernel of
int arithmetic alone tracked the host's speed worse: a busy neighbour slows
division-heavy and allocation-heavy code by different amounts.  The kernel
never imports quadalg, so a change to the library cannot change the time
base.

The speed of a shared host moves by tens of percent within a second, so a
single kernel run before a batch says little about the batch.  The benchmark
therefore runs short kernel slices between the operations of a batch, and
scales the batch's operation time by the slices' nominal time over their
measured time.  Both then sample the same moments of the host.
"""

from __future__ import annotations

import time
from math import gcd

# A kernel of REFERENCE_STEPS steps that takes REFERENCE_S seconds runs at
# reference speed.  Fixed once: changing either rescales every timing metric.
REFERENCE_STEPS = 15_000
REFERENCE_S = 0.025


class _Node:
    __slots__ = ("a", "b")

    def __init__(self, a: int, b: int):
        self.a = a
        self.b = b


def kernel(steps: int) -> int:
    table: dict[str, int] = {}
    acc = 0
    x = 1
    for i in range(1, steps + 1):
        x = (x * 48271 + i) % 2147483647
        node = _Node(x & 1023, gcd(x, i * 6))
        key = f"k{node.a % 97}"
        table[key] = table.get(key, 0) + node.b
        acc += len(key) + (node.a >> 3)
    return acc + sum(table.values())


def nominal_s(steps: int) -> float:
    """Seconds that `steps` kernel steps take at reference speed."""
    return steps * REFERENCE_S / REFERENCE_STEPS


def measure(steps: int = REFERENCE_STEPS) -> float:
    """Wall seconds of one kernel run."""
    t0 = time.perf_counter()
    kernel(steps)
    return time.perf_counter() - t0
