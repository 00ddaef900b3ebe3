"""A fixed reference probe for the speed of this machine at a given moment.

The host's speed for pure-Python code drifts by tens of percent over
seconds to minutes (shared cores, frequency changes).  Timing the same fixed
probe right before and right after an operation tells how fast the machine
ran while the operation ran, and scaling the operation's time by
``REFERENCE_S / probe time`` removes most of that drift.  The probe mixes what
the engine does: set and dict work on small adjacency sets, a bitmask subset
DP over a small table, and scattered reads from a list too large for the
caches.  It never calls the engine, so no change to the engine moves it.
"""

from __future__ import annotations

from time import perf_counter

# About the probe's median time between operations on the machine the
# baseline was measured on (2-vCPU x86-64 VM, CPython 3); it only sets the
# scale of scaled times.
REFERENCE_S = 0.006

_BIG = [0, 1, 2, 3, 4, 5, 6, 7] * (1 << 16)  # 4 MB of pointers
_ADJ = {i: set(range(i % 37, i % 37 + 40)) for i in range(120)}


def _probe():
    s = 0
    memo = {}
    for i in range(120):
        a = _ADJ[i]
        for j in range(i % 9, 120, 9):
            s += len(a & _ADJ[j])
            memo[(i, j)] = s
    m = 10
    f = [0] * (1 << m)
    f[0] = 1
    for mask in range(1 << m):
        fm = f[mask]
        for i in range(m):
            b = 1 << i
            if not mask & b:
                f[mask | b] += fm
    big, k = _BIG, 1
    for _ in range(4000):
        k = (k * 1103515245 + 12345) & 0x7FFFF
        s += big[k]
    return s + f[-1]


def probe():
    """Seconds the reference probe takes now."""
    t0 = perf_counter()
    _probe()
    return perf_counter() - t0


class SpeedClock:
    """Times work in steps, with the probe run between steps.

    ``step()`` ends the current step and returns its wall time and its time
    scaled to the reference speed by the mean of the probes on either side.
    Probe time is never inside a step.  ``wall`` and ``scaled`` are the
    totals over all steps.
    """

    def __init__(self):
        self.wall = self.scaled = 0.0
        self._before = probe()
        self._t0 = perf_counter()

    def step(self):
        wall = perf_counter() - self._t0
        after = probe()
        scaled = wall * 2 * REFERENCE_S / (self._before + after)
        self.wall += wall
        self.scaled += scaled
        self._before = after
        self._t0 = perf_counter()
        return wall, scaled
