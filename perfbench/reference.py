"""A fixed reference computation that measures how fast a CPU is right now.

    python3 perfbench/reference.py    # prints its time in seconds

On a shared machine other tenants slow a CPU down by tens of percent for
seconds to minutes at a time.  run.py times this computation, in a process
of its own pinned to the pass's CPU, just before and just after each pass,
and divides the pass's time by the faster of the two: the quotient,
``wall_ref``, is the time to finish the workload in multiples of this
computation's time, and moves far less than seconds do when the machine
slows down.

The computation mixes the three kinds of work the package spends its time
on: an interpreter loop over Python ints, compiling and running Python code,
and numpy slice arithmetic on int64 arrays (a GF(p) long division).  It
never imports hyptorsion, so no change to the package can move it.
"""

from __future__ import annotations

import statistics
from time import perf_counter

import numpy as np

REPEATS = 3

_SOURCE = "\n".join(
    f"def f{i}(a, b):\n    x = [a * {i} + b for _ in range(3)]\n    return {{'k{i}': x, 'v': (a, b)}}\n"
    for i in range(60)
)


def _interpreter():
    s = 0
    for i in range(500_000):
        s += i * i % 7
    return s


def _compile():
    # small pieces, so that the parser's memory stays below the package's own
    for _ in range(10):
        namespace = {}
        exec(compile(_SOURCE, "<reference>", "exec"), namespace)
    return namespace["f59"](1, 2)


def _numpy():
    p = 5
    a = np.arange(4000, dtype=np.int64) % p
    b = (np.arange(1500, dtype=np.int64) * 3 + 1) % p
    for _ in range(2):
        rem = a.copy()
        for i in range(len(a) - 1, 1499, -1):
            c = int(rem[i])
            rem[i - 1499 : i] -= c * b[:-1]
            rem[i - 1499 : i] %= p
    return rem


def reference_s() -> float:
    """Seconds the reference computation takes now: for each of its parts the
    median of REPEATS timings, summed."""
    total = 0.0
    for part in (_interpreter, _compile, _numpy):
        times = []
        for _ in range(REPEATS):
            t = perf_counter()
            part()
            times.append(perf_counter() - t)
        total += statistics.median(times)
    return total


if __name__ == "__main__":
    print(reference_s())
