"""The reference loop that scales the benchmark's timings.

The speed of a shared machine drifts with other tenants' load. On a 2-core
VM the median time of the same verify call moved by a third from one 9 s
process to the next (0.26 to 0.42 s), and a fixed pure-Python loop run
between the calls moved with it: the ratio of the two moved by a tenth. So
every timing the benchmark gates is divided by the time of this loop taken
just before it and multiplied by REFERENCE_NOMINAL_S: the figures read as
times on a machine where the loop takes REFERENCE_NOMINAL_S. The loop uses
no part of the program, so a program change moves the scaled times as much
as the raw ones. The raw figures are kept beside them in each result's
``# meta`` line.
"""

from __future__ import annotations

import math
from array import array
from itertools import combinations
from time import perf_counter

# How often the reference loop runs between ops, and its time on the
# machine the timings are scaled to.
REFERENCE_EVERY_S = 0.1
REFERENCE_NOMINAL_S = 0.004
_REFERENCE_LABELS = tuple(combinations(range(1, 13), 4))


def reference_loop() -> int:
    """Fixed pure-Python work that uses nothing of the program, shaped like
    its hot paths: set algebra on 4-subsets of 1..12 building big-int bit
    rows, a colex sort of tuples and a string join."""
    total = 0
    for u in _REFERENCE_LABELS[::40]:
        su = set(u)
        row = 0
        for j, v in enumerate(_REFERENCE_LABELS):
            if len(su.intersection(v)) == 3:
                row |= 1 << j
        total += row.bit_count()
    colex = sorted((v[::-1], i) for i, v in enumerate(_REFERENCE_LABELS))
    return total + len(colex) + len(",".join(map(str, _REFERENCE_LABELS)))


def reference_time() -> float:
    """Seconds one ``reference_loop`` takes."""
    t0 = perf_counter()
    reference_loop()
    return perf_counter() - t0


class Reference:
    """Runs ``reference_loop`` every REFERENCE_EVERY_S between ops and keeps
    its latest time, which scales the op times taken after it."""

    def __init__(self) -> None:
        self.times = array("d")
        self.last = -math.inf
        self.tick()

    def tick(self) -> None:
        if perf_counter() - self.last >= REFERENCE_EVERY_S:
            self.times.append(reference_time())
            self.last = perf_counter()

    @property
    def scale(self) -> float:
        return REFERENCE_NOMINAL_S / self.times[-1]
