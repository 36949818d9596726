"""Machine-speed calibration: times at a fixed nominal machine speed.

The shared hosts this benchmark runs on change speed by up to 1.7x over
seconds to minutes (other tenants' load on the same cores and caches), far
more than any bound a timing could be held to.  So every benchmark
process times fixed reference kernels that do not touch czo every
``SAMPLE_EVERY_S`` seconds, from a timer signal whose handler runs between
two bytecodes of whatever the process is doing, and every reported time is
rescaled by the machine's speed at that moment::

    time at nominal speed = measured time * nominal / reference time

where the reference time is the median, over the samples around the timed
interval, of the summed times of the kernels in a *mix*, and nominal is
the sum of their ``NOMINAL_S``.  A change to czo moves the rescaled times
as it moves the measured ones; a change of machine speed moves both the
measured time and the reference and cancels.  Time spent sampling is
taken out of the intervals it falls in.

The kernels are the three kinds of work czo does: ``loop``, a pure Python
loop; ``calls``, many numpy calls on tiny arrays; ``copy``, an in-cache
array copy.  Noise does not slow them alike, so each kind of timed work
is rescaled by the mix that tracked it best on a 2-core shared Xeon VM:

- the ``cz_decompose`` recursion (``dyadic``) by loop+calls: interquartile
  spread of 10-second medians over 3 minutes 3%, against 36% unscaled;
- the warm T_eps apply (``sweep``) by all three: 3%, against 21%;
- whole ``czo`` processes (``cli``) by all three: coefficient of variation
  of one kind's process time over 4 passes 7% on average, against 19%;
- process start-up and import (``setup_s``) by copy: 8%, against 15%.

Samples carry ``time.monotonic()`` times, which on Linux are comparable
across processes, so a parent can use its children's samples.
"""

from __future__ import annotations

import math
import signal
import statistics
import time

import numpy as np

KERNELS = ("loop", "calls", "copy")
NOMINAL_S = {"loop": 0.001, "calls": 0.00125, "copy": 0.002}
INTERPRETED = ("loop", "calls")         # Python loops over numpy calls
ARRAYS = KERNELS                        # the same plus dense array work
STARTUP = ("copy",)                     # process start and import
MIX = {"cli": ARRAYS, "dyadic": INTERPRETED, "sweep": ARRAYS}
SAMPLE_EVERY_S = 0.25           # timer period in a benchmark process
PAD_S = 0.5                     # samples this close to an interval count
MIN_SAMPLES = 3                 # else the nearest ones are used
CHUNK_S = 1.0                   # long intervals are rescaled piecewise

_SMALL = np.arange(64.0) - 31.5
_COPY = {}


def reference() -> tuple[float, float, float]:
    """Seconds each kernel takes now, in the order of ``KERNELS``."""
    if not _COPY:
        _COPY["src"] = np.ones(1 << 19)            # 4 MiB, cache-resident
        _COPY["dst"] = np.empty(1 << 19)
        np.copyto(_COPY["dst"], _COPY["src"])
    t0 = time.perf_counter()
    acc = 0
    for i in range(10_000):
        acc += i * i % 7
    t1 = time.perf_counter()
    for i in range(150):
        float(np.mean(np.abs(_SMALL[i % 32:i % 32 + 16])))
    t2 = time.perf_counter()
    for _ in range(3):
        np.copyto(_COPY["dst"], _COPY["src"])
    t3 = time.perf_counter()
    return t1 - t0, t2 - t1, t3 - t2


class Speed:
    """Reference samples ``(monotonic start, loop, calls, copy seconds)``
    of one or more processes, and the rescaling of intervals by them."""

    def __init__(self):
        self.samples = []

    def sample(self, n: int = 1) -> None:
        for _ in range(n):
            t0 = time.monotonic()
            self.samples.append((t0, *reference()))

    def start_timer(self) -> None:
        """Sample every SAMPLE_EVERY_S seconds until ``stop_timer``."""
        signal.signal(signal.SIGALRM, lambda *_: self.sample())
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_EVERY_S, SAMPLE_EVERY_S)

    def stop_timer(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def extend(self, samples) -> None:
        self.samples.extend(tuple(s) for s in samples)

    def factor(self, t0: float, t1: float, mix=ARRAYS) -> float:
        """Nominal over measured reference time of ``mix`` around
        [t0, t1]."""
        cols = [1 + KERNELS.index(k) for k in mix]
        near = [s for s in self.samples if t0 - PAD_S <= s[0] <= t1 + PAD_S]
        if len(near) < MIN_SAMPLES:
            mid = 0.5 * (t0 + t1)
            near = sorted(self.samples, key=lambda s: abs(s[0] - mid))
            near = near[:MIN_SAMPLES]
        measured = statistics.median(sum(s[c] for c in cols) for s in near)
        return sum(NOMINAL_S[k] for k in mix) / measured

    def scaled(self, t0: float, t1: float, mix=ARRAYS) -> float:
        """Seconds of [t0, t1] at nominal speed, sampling time excluded."""
        pieces = max(1, math.ceil((t1 - t0) / CHUNK_S))
        total = 0.0
        for k in range(pieces):
            a = t0 + (t1 - t0) * k / pieces
            b = t0 + (t1 - t0) * (k + 1) / pieces
            spent = sum(sum(s[1:]) for s in self.samples if a <= s[0] < b)
            total += max(b - a - spent, 0.0) * self.factor(a, b, mix)
        return total

    def median_factor(self, mix=ARRAYS) -> float:
        return self.factor(-math.inf, math.inf, mix)
