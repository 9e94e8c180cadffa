"""Machine-speed normalisation for a shared host.

On a 2-vCPU VM shared with other tenants the same pure-Python work runs
up to twice as slow for stretches of seconds (a fixed 20 ms loop timed
back to back for a minute took 14-30 ms, and its 5-second medians 17-21
ms), and whole 20-second runs differed by up to 30%.  A run that lands in
a slow stretch would read as a regression.  While a run measures, a timer signal runs a fixed
calibration loop every PERIOD_S seconds; each interval the workload is
timed over is then rescaled by how long the loop took around that time,
relative to REFERENCE_S.  Time spent in the loop itself is left out.
"""
from __future__ import annotations

import bisect
import signal
import statistics
import time
from fractions import Fraction
from typing import List, Tuple

PERIOD_S = 0.2
# Median duration of calibrate() on the reference machine: a 2-vCPU VM,
# Python 3.11.7.
REFERENCE_S = 0.0021
# Samples on each side of a sample that its smoothed duration takes the
# median over.
WINDOW = 5

# Sparse products over tuple-keyed dicts with Fraction coefficients, as in
# the library's polynomial layer, and small list-of-lists matrix products
# mod p, as in its group action.  The loop never calls the library, so a
# change to the library cannot move it.
_LEFT = {((("y", i, j), 1),): Fraction(i + 1, j + 2)
         for i in range(6) for j in range(4)}
_RIGHT = {((("c", i, j), 1),): Fraction(j + 1, i + 3)
          for i in range(4) for j in range(3)}
_MATRIX = [[(3 * i + 5 * j) % 7 for j in range(6)] for i in range(6)]


def _reduce(value: int, p: int) -> int:
    return value % p


def _matmul(a, b, p: int):
    n = len(a)
    out = [[_reduce(0, p) for _ in range(n)] for _ in range(n)]
    for i in range(n):
        for k in range(n):
            if a[i][k] == 0:
                continue
            for j in range(n):
                out[i][j] = _reduce(out[i][j] + a[i][k] * b[k][j], p)
    return out


def calibrate() -> int:
    product: dict = {}
    for mono_a, coef_a in _LEFT.items():
        for mono_b, coef_b in _RIGHT.items():
            key = tuple(sorted(mono_a + mono_b))
            product[key] = product.get(key, 0) + coef_a * coef_b
    matrix = _MATRIX
    for _ in range(8):
        matrix = _matmul(matrix, _MATRIX, 7)
    return len(product) + matrix[0][0]


class SpeedSampler:
    """Context manager that samples calibration times while it is open;
    afterwards ``scaled`` converts intervals to reference-speed seconds."""

    def __init__(self) -> None:
        self.samples: List[Tuple[float, float]] = []
        self._previous = None
        self._starts: List[float] = []
        self._ends: List[float] = []
        self._factors: List[float] = []

    def _sample(self, _signum=None, _frame=None) -> None:
        start = time.perf_counter()
        calibrate()
        self.samples.append((start, time.perf_counter()))

    def __enter__(self) -> "SpeedSampler":
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        self._sample()
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)
        self._sample()
        self._segments()

    def _segments(self) -> None:
        """Workload time between consecutive samples, each piece with the
        speed factor of the sample that closes it."""
        durations = [end - start for start, end in self.samples]
        self._starts, self._ends, self._factors = [], [], []
        previous_end = float("-inf")
        for k, (start, end) in enumerate(self.samples):
            window = durations[max(0, k - WINDOW):k + WINDOW + 1]
            factor = REFERENCE_S / statistics.median(window)
            self._starts.append(previous_end)
            self._ends.append(start)
            self._factors.append(factor)
            previous_end = end
        self._starts.append(previous_end)
        self._ends.append(float("inf"))
        self._factors.append(self._factors[-1])

    def slowdown(self) -> float:
        """Median calibration time over the run, relative to REFERENCE_S."""
        return statistics.median(e - s for s, e in self.samples) / \
            REFERENCE_S

    def scaled(self, start: float, end: float) -> float:
        """Seconds that [start, end] would have taken at reference speed,
        not counting the calibration loops inside it."""
        total = 0.0
        k = bisect.bisect_right(self._ends, start)
        while k < len(self._starts) and self._starts[k] < end:
            overlap = min(end, self._ends[k]) - max(start, self._starts[k])
            if overlap > 0:
                total += overlap * self._factors[k]
            k += 1
        return total
