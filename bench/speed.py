"""Machine-speed probe that puts times from a noisy shared host on one scale.

On a small shared machine the speed of the same Python code drifts by up to
half over seconds to minutes, as neighbours load the host. A run cannot
escape such a slow phase, but it can measure it: between operations the
worker times this fixed probe, and scales each operation's wall time by
REFERENCE_S / probe time around it. A change to limitlab does not touch the
probe, so it moves the scaled times exactly as it moves the wall times.

The probe is the geometric mean of two small kernels: interpreter
arithmetic, and method calls with dictionary hits and JSON encoding. On the
sweep, reduction and checker workloads, the first slowed by 1.05-1.10 times
and the second by 0.73-0.79 times as much as the operations did (log-log
slopes), so their mean tracks the operations. A kernel of random reads from
a large table was dropped: its slope ranged from 0.46 to 1.24. The kernels
allocate no objects that outlive them, so they do not shift garbage
collections into or out of limitlab's code.
"""

from __future__ import annotations

import json
import statistics
import time

# Probe time that defines the reference speed. Between operations on a
# 2-CPU x86-64 host with Python 3.11 the probe took 1.6e-4 to 2.8e-4 s, so
# scaled times there read on the order of wall times.
REFERENCE_S = 2.2e-4


class _Step:
    __slots__ = ("scale", "offset")

    def __init__(self, scale: int, offset: int) -> None:
        self.scale = scale
        self.offset = offset

    def hit(self, x: int) -> bool:
        return (x * self.scale + self.offset) % 5 == 0


class SpeedProbe:
    def __init__(self) -> None:
        self._lookup = {i: (i * 7) % 1000 for i in range(512)}
        self._step = _Step(31, 7)
        self._record = {"t": 1, "w": 12, "verdict": 1, "queries": {"consistency": 3, "detector": 9}}

    def _arithmetic(self) -> int:
        s = 0
        for i in range(5000):
            s += i % 7
        return s

    def _calls(self) -> int:
        get = self._lookup.get
        hit = self._step.hit
        n = 0
        for i in range(600):
            if hit(get(i & 511, 0)):
                n += 1
        for _ in range(10):
            n += len(json.dumps(self._record, sort_keys=True))
        return n

    def measure(self) -> float:
        """Geometric mean of the two kernel times, in seconds."""
        perf = time.perf_counter
        start = perf()
        self._arithmetic()
        middle = perf()
        self._calls()
        return ((middle - start) * (perf() - middle)) ** 0.5


def scale_factors(positions: list[int], values: list[float], count: int) -> list[float]:
    """Scale factor for each of ``count`` operations.

    ``values[j]`` was measured just before operation ``positions[j]``
    (ascending, starting at 0). Each operation takes the median of the two
    probes before and the two after it, which damps the probe's own noise.
    """
    out = []
    j = 0
    for i in range(count):
        while j + 1 < len(positions) and positions[j + 1] <= i:
            j += 1
        out.append(REFERENCE_S / statistics.median(values[max(j - 1, 0): j + 3]))
    return out
