"""Host speed, measured on the benchmark's own core next to the program.

On the shared 2-vCPU virtual machine this benchmark was written on, the
speed of a core changes in phases lasting from a second to minutes, by up
to 1.8x, and the two cores' phases are nearly independent.  It is not
steal: the program's CPU time equals its wall time, and a loop reading the
clock sees no pauses.  Raw timings of the same code on that host differed
by 44% between two sets of runs half an hour apart.

So the benchmark pins itself, and through inheritance every process it
starts, to one core, and runs a small fixed kernel of exact rational
arithmetic (the kind of work the program does) right before and right
after each timed piece.  The piece's time is multiplied by
``REFERENCE_S`` over the mean of the two kernel times: "seconds at the
reference speed".  The kernel is the benchmark's own code, so a change
to the program cannot move it; a change that makes the program slower
shows in full.  Garbage collection is off while the kernel runs, so
objects the program leaves behind do not slow the kernel.
"""

from __future__ import annotations

import gc
import os
import signal
import time
from fractions import Fraction
from math import gcd

# Kernel seconds that define the reference speed: about the kernel's time
# in a fast phase of the host above.
REFERENCE_S = 0.0025
WARMUP = 20


def pin() -> int:
    """Pin this process (and the processes it starts later) to one core."""
    cpu = min(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})
    return cpu


def _series_reciprocal(n: int = 24):
    coefficients = [Fraction(1, i + 1) for i in range(n)]
    out = [Fraction(1)]
    for m in range(1, n):
        out.append(-sum((coefficients[j] * out[m - j] for j in range(1, m + 1)), Fraction(0)))
    return out


def _pseudo_remainder(a, b):
    a = list(a)
    while len(a) >= len(b):
        lead, scale = a[-1], b[-1]
        a = [c * scale for c in a]
        shift = len(a) - len(b)
        for i, c in enumerate(b):
            a[i + shift] -= c * lead
        a.pop()
        while a and a[-1] == 0:
            a.pop()
    return a


def _primitive(p):
    content = 0
    for c in p:
        content = gcd(content, c)
    return [c // content for c in p] if content else p


def _polynomial_gcds():
    for s in range(12):
        a = [((i * 7 + s) % 11) - 5 for i in range(14)] + [1]
        b = [((i * 5 + s) % 13) - 6 for i in range(11)] + [1]
        while b:
            a, b = b, _primitive(_pseudo_remainder(a, b))


def kernel():
    _series_reciprocal()
    _polynomial_gcds()


class Speedometer:
    """Kernel samples, and the scale factors they give."""

    def __init__(self):
        for _ in range(WARMUP):
            self._time_kernel()
        self.samples = []

    @staticmethod
    def _time_kernel() -> float:
        gc.disable()
        try:
            start = time.perf_counter()
            kernel()
            return time.perf_counter() - start
        finally:
            gc.enable()

    def sample(self) -> float:
        """Seconds one run of the kernel takes now."""
        elapsed = self._time_kernel()
        self.samples.append(elapsed)
        return elapsed

    @staticmethod
    def scale(before: float, after: float) -> float:
        """Factor from seconds to reference seconds for a piece between two samples."""
        return 2 * REFERENCE_S / (before + after)


class Timeline:
    """Back-to-back timed pieces, scaled by the samples around them.

    A sample is taken at the start, whenever ``spacing`` seconds have
    passed since the last one, and at the end; each piece is scaled by the
    mean of the two samples that bracket it.
    """

    def __init__(self, meter: Speedometer, spacing: float):
        self.meter = meter
        self.spacing = spacing
        self.samples = [meter.sample()]
        self.last_at = time.perf_counter()
        self.pieces = []

    def add(self, *seconds: float):
        self.pieces.append((len(self.samples) - 1, seconds))
        if time.perf_counter() - self.last_at >= self.spacing:
            self.samples.append(self.meter.sample())
            self.last_at = time.perf_counter()

    def scaled(self) -> list:
        """The pieces' times in reference seconds, in the order added."""
        self.samples.append(self.meter.sample())
        return [
            [value * self.meter.scale(self.samples[i], self.samples[i + 1]) for value in values]
            for i, values in self.pieces
        ]


class Interrupted:
    """Reference seconds of in-process work, sampled while it runs.

    A timer signal interrupts the work every ``tick`` seconds for one
    speed sample (Python runs the handler between bytecodes of the main
    thread), and each stretch of work is scaled by the samples on either
    side of it; the time spent sampling is not counted.  A span open in a
    tracer still covers the samples taken inside it, about 1% of its time.
    """

    def __init__(self, meter: Speedometer, tick: float):
        self.meter = meter
        self.tick = tick
        self.wall = self.scaled = 0.0

    def _sample(self, *_):
        stretch = time.perf_counter() - self._start
        after = self.meter.sample()
        self.wall += stretch
        self.scaled += stretch * self.meter.scale(self._before, after)
        self._before = after
        self._start = time.perf_counter()

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        self._before = self.meter.sample()
        self._start = time.perf_counter()
        signal.setitimer(signal.ITIMER_REAL, self.tick, self.tick)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        self._sample()
        signal.signal(signal.SIGALRM, self._previous)
