"""Host-speed probe: a fixed piece of exact arithmetic timed between tasks.

A shared host changes speed in spells lasting seconds to minutes: the same
task can take twice as long in one run as in the next, with the process on
the CPU the whole time.  A timed loop cannot filter out a spell that covers
the whole run, so the benchmark measures the host's speed alongside the
program and reports every time at the reference speed:

    normalized time = measured time * REFERENCE_S / mean probe time around it

The speed can change by half within a second, so the probes that scale a
task's time are the nearest ones: two just before it and two just after
it.  A set-up process is scaled by probes it takes itself (see run.py).

The probe is ``reference_work``: Bareiss elimination on fixed integer
matrices, ``Fraction`` sums and integer dot-product scans, the same kinds
of interpreter work as convexkit's hull and mixed-volume kernels.  It
never calls convexkit, so a change to the program moves the normalized
times exactly as it moves the measured ones.  Each probe runs the work
once untimed (so the probe does not pay for cache lines the preceding
task evicted) and once timed, with the garbage collector off.

``REFERENCE_S`` is the probe's median time on a 2-core Xeon VM (KVM,
Python 3.11.7) in a quiet spell, so on that host normalized times read
close to the measured ones.  It is a fixed constant: it only sets the
scale and is the same for every commit measured.
"""

from __future__ import annotations

import bisect
import gc
import random
import statistics
import time
from fractions import Fraction

REFERENCE_S = 0.0012
NEIGHBOURS = 2  # a time is scaled by this many probes before it and after it
MIN_PROBES = 5  # probes taken before and after each timed loop

_rng = random.Random(20100509)
_MATRICES = [
    [[_rng.randint(-10**6, 10**6) for _ in range(7)] for _ in range(7)] for _ in range(6)
]
_POINTS = [
    tuple(Fraction(_rng.randint(-100, 100), _rng.randint(1, 10)) for _ in range(3))
    for _ in range(40)
]
_NORMALS = [tuple(_rng.randint(-10**4, 10**4) for _ in range(3)) for _ in range(80)]
_CANDIDATES = [tuple(_rng.randint(-10**5, 10**5) for _ in range(3)) for _ in range(60)]


def _bareiss_last_pivot(matrix):
    a = [row[:] for row in matrix]
    n = len(a)
    prev = 1
    for k in range(n - 1):
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) // prev
        prev = a[k][k]
    return a[-1][-1]


def reference_work():
    """A fixed amount of exact arithmetic; returns a checksum."""
    det = sum(_bareiss_last_pivot(m) for m in _MATRICES)
    total = Fraction(0)
    for x, y, z in _POINTS:
        total += x * y - z
    hits = {}
    for a, b, c in _NORMALS:
        best = max(_CANDIDATES, key=lambda q: a * q[0] + b * q[1] + c * q[2])
        hits[best] = hits.get(best, 0) + 1
    return det, total, len(hits)


def probe():
    """Seconds one warm run of ``reference_work`` takes right now."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        reference_work()
        start = time.perf_counter()
        reference_work()
        return time.perf_counter() - start
    finally:
        if enabled:
            gc.enable()


class Speedometer:
    """Probe times taken through a run, and the scale they give each moment."""

    def __init__(self):
        self.at = []  # perf_counter when each probe started, ascending
        self.took = []

    def sample(self, count=1):
        for _ in range(count):
            self.at.append(time.perf_counter())
            self.took.append(probe())

    def local_probe_s(self, start, seconds):
        """Mean time of the NEIGHBOURS probes on each side of an interval."""
        before = bisect.bisect_left(self.at, start)
        after = bisect.bisect_left(self.at, start + seconds)
        near = self.took[max(0, before - NEIGHBOURS):before] + self.took[after:after + NEIGHBOURS]
        return statistics.fmean(near)

    def normalize(self, start, seconds):
        """``seconds`` measured from ``start``, rescaled to the reference speed."""
        return seconds * REFERENCE_S / self.local_probe_s(start, seconds)
