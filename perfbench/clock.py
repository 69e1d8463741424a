"""Wall times scaled to a reference machine speed.

On a shared machine the same fixed work can take up to 1.6x as long from one
minute to the next, and that drift moves every timing of a run together. The
benchmark therefore times a fixed calibration loop next to each measurement
and scales the measured wall time by REFERENCE_MS / (calibration time). The
loop uses only the standard library (Fraction arithmetic and dict stores, the
operations jetinv spends its time on), so no change to jetinv can move it.
Raw times are printed beside the scaled ones.
"""

from __future__ import annotations

from fractions import Fraction
from time import perf_counter

# About the loop's time on the 2.1 GHz x86-64 vCPU (Python 3.11) the benchmark
# was built on. Only its being constant matters: it sets the scale of every time.
REFERENCE_MS = 5.0


def calibrate() -> float:
    """Time the fixed calibration loop, in ms."""
    start = perf_counter()
    acc = Fraction(0)
    seen = {}
    for i in range(1, 900):
        acc += Fraction(i, i + 7)
        seen[(i, i % 7)] = acc
    return (perf_counter() - start) * 1000.0


def scale(raw: float, cal_ms: float) -> float:
    """A raw duration expressed at the reference machine speed."""
    return raw * REFERENCE_MS / cal_ms
