"""A fixed calibration loop that turns measured seconds into reference seconds.

The host this benchmark runs on is shared: the speed of the same job
drifts by a third from one minute to the next, in wall and CPU time
alike.  So the benchmark times this loop before and after every job and
every set-up and reports each time scaled by ``REFERENCE_S`` over the
loop's time next to it.  A change to ``mftroute`` moves the job's time
and not the loop's, so it still shows; a slower host moves both.

The loop spends its time on the kinds of work the jobs do: splitting a
1.5 MB text into lines and parsing and formatting numbers, walking a large
list of Python floats in random order, many small NumPy calls, and
scalar binomial sums with ``math.fsum``.  It uses no ``mftroute`` code.
"""

from __future__ import annotations

import math
import random
from time import perf_counter, process_time

import numpy as np

# Typical time of the loop on the 2-core shared virtual machine where the
# baseline was recorded; it only sets the scale of every reported time.
REFERENCE_S = 0.05

_TEXT = "\n".join(f"{i % 97} {i % 89} {i * 0.37:.17g}" for i in range(50000))
_FLOATS = [float(i) for i in range(400000)]
random.Random(0).shuffle(_FLOATS)
_GRID = np.linspace(0.0, 1.0, 2000)
_SEGMENTS = np.arange(0, 2000, 5)
_OWNER = np.arange(2000) // 5
_K = np.arange(301.0)


def _text() -> int:
    total = 0.0
    for line in _TEXT.splitlines()[::4]:
        i, j, value = line.split()
        total += float(value) + int(i) - int(j)
    return len(",".join(repr(x * total) for x in range(6000)))


def _objects() -> float:
    return sum(_FLOATS)


def _arrays() -> float:
    y = _GRID
    for _ in range(400):
        y = np.exp(-y).cumsum() / y.size
        y = np.add.reduceat(y, _SEGMENTS)[_OWNER]
    return float(y[0])


def _scalars() -> float:
    total = 0.0
    for step in range(350):
        p = 0.3 + step * 1e-4
        log_pmf = _K * math.log(p) + (300 - _K) * math.log1p(-p)
        total += math.fsum(np.log((_K + 1.0) / 301) * np.exp(log_pmf - log_pmf.max()))
    return total


def calibrate() -> tuple[float, float]:
    """Wall and CPU seconds of one pass of the calibration loop."""
    wall0, cpu0 = perf_counter(), process_time()
    _text()
    _objects()
    _arrays()
    _scalars()
    return perf_counter() - wall0, process_time() - cpu0
