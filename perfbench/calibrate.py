"""Host-speed calibration for the benchmark's time metrics.

On a shared host the speed of one core drifts: a fixed loop timed back to
back varied by up to 1.8x over a minute, in phases lasting minutes, and
process CPU time drifted as much as wall time.  Raw seconds from runs a few
minutes apart are therefore not comparable.

``seconds()`` times a fixed pure-Python ``Fraction`` elimination that shares
no code with wittartin, so no change to the package can move it.  The
benchmark times it next to every measurement and reports
``scale(raw, calibration)``: the raw seconds at the host speed at which the
calibration takes ``REFERENCE_S``.
"""

from __future__ import annotations

from fractions import Fraction
from time import perf_counter

REFERENCE_S = 0.1
_REPS = 100
_N = 8


def _eliminate() -> Fraction:
    m = [[Fraction(1, i + j + 1) + (i == j) for j in range(_N)]
         for i in range(_N)]
    for c in range(_N):
        inv = 1 / m[c][c]
        for r in range(c + 1, _N):
            f = m[r][c] * inv
            m[r] = [x - f * y for x, y in zip(m[r], m[c])]
    return m[-1][-1]


def seconds() -> float:
    """Wall time of the fixed calibration work, about 0.1 s."""
    start = perf_counter()
    for _ in range(_REPS):
        _eliminate()
    return perf_counter() - start


def scale(raw: float, calibration: float) -> float:
    """``raw`` seconds rescaled to the reference host speed."""
    return raw * REFERENCE_S / calibration
