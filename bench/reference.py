"""A fixed reference computation that gauges how fast the machine runs right now.

On a shared machine the speed of interpreter-bound code drifts by tens
of percent over tens of seconds, as neighbours come and go, and the
drift is slower than one run.  This kernel has the same make-up as a
protocol round (a 4-amplitude numpy state, a 4x4 product, Born weights,
one uniform draw, a Python loop over outcomes, a small object per
iteration) but shares no code with the package, so its run time moves
with the machine and not with the program.  Timed between the
workload's repeats, its fastest run measures the machine's speed over
the same stretch of time.
"""

from __future__ import annotations

import numpy as np

ITERATIONS = 600
_INV = 0.5**0.5
_MATRIX = np.array(
    [[0.0, _INV, -_INV, 0.0], [0.0, _INV, _INV, 0.0], [_INV, 0.0, 0.0, _INV], [_INV, 0.0, 0.0, -_INV]]
)
_STATE = np.array([0.0, _INV, -_INV, 0.0], dtype=np.complex128)


def reference_kernel() -> int:
    """Sample ITERATIONS Bell-like outcomes; returns their sum so nothing is skipped."""
    rng = np.random.default_rng(12345)
    total = 0
    for i in range(ITERATIONS):
        state = np.where(i & 1, -_STATE, _STATE)
        probs = np.abs(_MATRIX @ state) ** 2
        r = rng.random()
        acc = 0.0
        outcome = 3
        for k in range(4):
            acc += float(probs[k])
            if r < acc:
                outcome = k
                break
        record = (i, outcome)
        total += record[1]
    return total
