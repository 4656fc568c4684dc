"""A fixed pure-Python loop that tracks how fast the host runs Python right now.

On a shared host the speed a Python process gets drifts by about ±17 %
over tens of seconds (this loop measured 12 to 22 ms on a 2-vCPU VM),
which moves a 20 s run's median op time by as much.  The benchmark
therefore times this loop between ops and reports each op as
``op / reference * NOMINAL_S``: seconds on a host where the loop takes
``NOMINAL_S``.  The loop mixes integer arithmetic with allocation of
small tuples and strings and dict stores, as qpolar's own work does.
Raw times are printed beside the normalized ones.
"""

from __future__ import annotations

import statistics
from time import perf_counter

NOMINAL_S = 0.015  # the loop's median on a 2-vCPU x86-64 VM, Python 3.11.7


def _loop_s() -> float:
    start = perf_counter()
    total = 0
    for i in range(150_000):
        total += i & 7
    table = {}
    for i in range(20_000):
        table[i & 255] = (i, str(i))  # small, so the loop adds nothing to peak RSS
    return perf_counter() - start


def reference_s(repeats: int = 1) -> float:
    """Run the loop ``repeats`` times; return the median wall time in seconds."""
    return statistics.median(_loop_s() for _ in range(repeats))


def normalized(seconds: float, reference: float) -> float:
    return seconds / reference * NOMINAL_S
