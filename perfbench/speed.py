"""The host's momentary speed, sampled with a fixed reference loop.

The benchmark shares a few cores of a host whose speed flips between two
levels up to 1.8 times apart, several times a second, and whose share of
time at each level drifts over minutes (clock frequency and contention
from other tenants; load inside the container does not explain it).  CPU
time drifts with it, so CPU time does not help, and a median over more ops
does not either.  The reference loop does the same kind of work as
fracspec's hot path, ``jacobi.gauss_jacobi`` (Python-level Jacobi
recurrences on one-element and small numpy arrays, log-gamma on floats),
and never calls fracspec, so a change to the library cannot move it.  Its
time moves with the host in proportion to the time of a solve: over 60
N=24 solves whose wall times spread by a coefficient of variation of 0.23,
the fitted exponent of solve time on loop time was 0.99 and the times at
reference speed spread by 0.045.

While a ``Sampler`` is active, a SIGALRM timer runs the loop every
SAMPLE_EVERY_S seconds of wall time, inside whatever is running (between
two bytecodes of the main thread), and keeps how long it took.  The time
spent in these samples is kept in ``Sampler.stolen``, so that the caller
can take it out of the intervals it measures.  A stretch of work that took
``t`` ms of wall time is reported as ``t * mean(REF_MS / loop_ms)`` over
the samples taken during it: the time it would take on a host where the
loop always takes REF_MS, called "at reference speed".  REF_MS is the
loop's time in the slower, more common of the two states of the machine
the benchmark was defined on (a 2-vCPU KVM guest on an Intel Xeon Sapphire
Rapids host, Python 3.11, numpy 2.4), so there a time at reference speed is
close to the wall-clock time in that state.
"""

from __future__ import annotations

import bisect
import math
import signal
import time

import numpy as np

REF_MS = 1.3
SAMPLE_EVERY_S = 0.025
MIN_WINDOW_S = 0.5  # a shorter stretch is charged the samples of this much time around it


def _coefficients(m: int, a: float, b: float):
    s = a + b
    return (2.0 * (m + 1) * (m + s + 1) * (2 * m + s), (2 * m + s + 1) * (a * a - b * b),
            (2 * m + s) * (2 * m + s + 1) * (2 * m + s + 2),
            2.0 * (m + a) * (m + b) * (2 * m + s + 2))


def _jacobi(n: int, a: float, b: float, t: np.ndarray) -> np.ndarray:
    """P_n^{(a,b)}(t) by the three-term recurrence."""
    Pm1 = np.ones_like(t)
    P = 0.5 * ((a + b + 2.0) * t + a - b)
    for m in range(1, n):
        a1, a2, a3, a4 = _coefficients(m, a, b)
        P, Pm1 = ((a2 + a3 * t) * P - a4 * Pm1) / a1, P
    return P


GRID = np.cos(np.pi * np.arange(257) / 256)


def reference_loop() -> float:
    """A fixed amount of work, a mix of recurrences on one-element arrays
    (as in Newton polishing), on a 257-point grid (as in root bracketing)
    and log-gamma calls on floats; returns a checksum so nothing is
    skipped."""
    acc = 0.0
    for i in range(3):
        acc += float(_jacobi(30, 0.3, -0.4, np.array([0.1 * i]))[0])
    acc += float(_jacobi(30, 0.3, -0.4, GRID)[3])
    for m in range(1, 300):
        acc += math.lgamma(m + 1.3)
    return acc


class Sampler:
    """Use as a context manager; only one may be active.  A sample is the
    wall time at its middle and how long the loop took (ms)."""

    def __init__(self):
        self.times: list[float] = []
        self.loop_ms: list[float] = []
        self.stolen = 0.0  # seconds spent sampling so far
        self._busy = False

    def _sample(self, signum, frame):
        if self._busy:  # a tick that fell inside a sample
            return
        self._busy = True
        t0 = time.perf_counter()
        reference_loop()
        t1 = time.perf_counter()
        self.times.append(0.5 * (t0 + t1))
        self.loop_ms.append((t1 - t0) * 1e3)
        self.stolen += time.perf_counter() - t0
        self._busy = False

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_EVERY_S, SAMPLE_EVERY_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, self._previous)

    def speed(self, t0: float, t1: float) -> float:
        """Mean of REF_MS / loop ms over the samples taken between t0 and t1,
        widened about its middle to MIN_WINDOW_S; 1.0 is reference speed."""
        pad = max(0.0, 0.5 * (MIN_WINDOW_S - (t1 - t0)))
        lo = bisect.bisect_left(self.times, t0 - pad)
        hi = bisect.bisect_right(self.times, t1 + pad)
        if lo == hi:  # no sample that near: take the nearest one
            lo = min(lo, len(self.times) - 1)
            if lo > 0 and self.times[lo] - t1 > t0 - self.times[lo - 1]:
                lo -= 1
            hi = lo + 1
        inside = self.loop_ms[lo:hi]
        return sum(REF_MS / ms for ms in inside) / len(inside)
