"""Machine-speed probe: a fixed computation timed around and during benchmark items.

On a shared host the same work can take 25 % longer from one minute to the
next.  The benchmark scales each item's time by the mean probe time around
and during it, and reports seconds at the speed where the probe takes
``NOMINAL_S``.  Repeating one 68-instance exact-small pass eight times, that
cut the run-to-run coefficient of variation from 0.14 to 0.03.  Items longer
than a second are sampled during the run too, by an interval timer whose
handler runs the probe; the time spent in the handler is taken out of the
item's time.

The probe mixes the operations the program spends its time in: big-int
AND and popcount, small tuples and dict inserts, and small symmetric
eigen-solves.  It calls nothing in ``bipart``, so no change to the program
can move it.
"""

from __future__ import annotations

import random
import signal
from time import perf_counter

import numpy as np

# Median probe time on a 2-core x86-64 host (Python 3.11, numpy 2.4, one BLAS
# thread), so that normalised seconds read close to raw seconds there.
NOMINAL_S = 0.0045

_ROWS = [random.Random(1).getrandbits(512) for _ in range(128)]
_MATRIX = np.random.default_rng(1).random((40, 40))
_MATRIX = _MATRIX + _MATRIX.T


def _once() -> float:
    start = perf_counter()
    bits = 0
    table = {}
    for r in range(30):
        for i, row in enumerate(_ROWS):
            both = row & _ROWS[(i * 7 + r) & 127]
            bits += both.bit_count()
            table[(i, r)] = (both, i)
    for _ in range(20):
        np.linalg.eigvalsh(_MATRIX)
    return perf_counter() - start


def probe() -> float:
    """Seconds the probe takes now; the lesser of two tries, to skip one-off stalls."""
    return min(_once(), _once())


class SpeedMeter:
    """Probe samples taken while an item runs, one per ``interval`` seconds."""

    def __init__(self, interval: float = 1.0) -> None:
        self.interval = interval
        self.samples: list[float] = []
        self.spent = 0.0  # seconds spent probing inside the item

    def _sample(self, _signum, _frame) -> None:
        start = perf_counter()
        self.samples.append(probe())
        self.spent += perf_counter() - start

    def __enter__(self) -> "SpeedMeter":
        self.samples, self.spent = [], 0.0
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, self.interval, self.interval)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)
