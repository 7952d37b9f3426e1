"""Machine-speed probe: a fixed loop timed over and over while the work runs.

On a shared machine the same code runs up to 1.7x faster or slower for
seconds at a time, and run-level medians of wall time shift by 20-30%.  The
probe measures that drift while the work runs.  A reported time is the wall
time of an interval minus the probe's own time inside it, scaled by
(REFERENCE_S / median probe time around the interval) ** EXPONENT: about the
seconds on a machine where one probe unit takes REFERENCE_S.

The probe never calls the program, so a faster program cannot make the probe
faster and cancel its own gain.  Its mix follows what the program spends time
on: tuple and dict work, exact Fraction elimination and small int64 products.
"""

import statistics
import threading
import time
from bisect import bisect_left, bisect_right
from contextlib import contextmanager
from fractions import Fraction

import numpy as np

REFERENCE_S = 1e-3
# The probe slows more than the program in the machine's slow phases; scaling
# by (REFERENCE_S / probe time) ** EXPONENT matches them better.  0.75 gave the
# smallest worst ten-run spread over the four workloads; see README.md.
EXPONENT = 0.75
PERIOD_S = 0.05   # about 2-3% of the run goes to the probe
WINDOW_S = 0.5    # probe samples within this window around an interval count
MIN_SAMPLES = 5

_M = np.arange(36, dtype=np.int64).reshape(6, 6)


def probe_unit():
    acc, seen = 0, {}
    for i in range(120):
        key = (i % 7, i % 11)
        seen[key] = seen.get(key, 0) + i
        acc += key[0] * key[1]
    rows = [[Fraction((i * 7 + j * 3) % 11 - 5, 1 + (i + j) % 4) for j in range(7)]
            for i in range(6)]
    for p in range(6):
        pivot = next((r for r in range(p, 6) if rows[r][p]), None)
        if pivot is None:
            continue
        rows[p], rows[pivot] = rows[pivot], rows[p]
        inv = 1 / rows[p][p]
        rows[p] = [x * inv for x in rows[p]]
        for r in range(6):
            if r != p and rows[r][p]:
                f = rows[r][p]
                rows[r] = [x - f * y for x, y in zip(rows[r], rows[p])]
    for i in range(8):
        acc += int((_M @ _M[i % 6]).min())
    return acc, rows[0][-1]


def _start(unit):
    return unit[0]


class Probe:
    """Use as a context manager; the thread runs between enter and exit.

    Short calls are never interrupted: between calls the caller runs a unit
    inline through between(), and the thread samples only while a call marked
    busy() has already run for longer than PERIOD_S.  What a unit takes out
    of a long call is subtracted by scaled()."""

    def __init__(self):
        self.units = []  # (start, end) of each probe unit, in time order
        self._busy_since = None
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._run, name="speed-probe", daemon=True)

    def __enter__(self):
        self._thread.start()
        return self

    def __exit__(self, *exc):
        self._stop.set()
        self._thread.join()

    def _run(self):
        while not self._stop.wait(PERIOD_S):
            since = self._busy_since
            if since is not None and time.perf_counter() - since > PERIOD_S:
                self.sample()

    def sample(self):
        start = time.perf_counter()
        probe_unit()
        self.units.append((start, time.perf_counter()))

    def between(self):
        """Run a unit inline, between calls, if none ran for PERIOD_S."""
        if not self.units or time.perf_counter() - self.units[-1][1] >= PERIOD_S:
            self.sample()

    def settle(self):
        """MIN_SAMPLES units inline after the last call, so its window is full."""
        for _ in range(MIN_SAMPLES):
            self.sample()

    @contextmanager
    def busy(self):
        """Mark a call the thread may sample inside once it runs long."""
        self._busy_since = time.perf_counter()
        try:
            yield
        finally:
            self._busy_since = None

    def _around(self, start, end):
        units, n = self.units, len(self.units)
        mid = (start + end) / 2
        lo = bisect_left(units, min(start, mid - WINDOW_S / 2), hi=n, key=_start)
        hi = bisect_right(units, max(end, mid + WINDOW_S / 2), hi=n, key=_start)
        if hi - lo < MIN_SAMPLES:
            lo, hi = max(0, lo - MIN_SAMPLES), min(n, hi + MIN_SAMPLES)
        return units[lo:hi]

    def factor(self, start, end):
        """Reference seconds per wall second around [start, end]."""
        speed = statistics.median(e - s for s, e in self._around(start, end))
        return (REFERENCE_S / speed) ** EXPONENT

    def scaled(self, start, end):
        """Reference seconds of the wall interval [start, end]."""
        window = self._around(start, end)
        inside = sum(min(end, e) - max(start, s) for s, e in window if s < end and e > start)
        speed = statistics.median(e - s for s, e in window)
        return (end - start - inside) * (REFERENCE_S / speed) ** EXPONENT
