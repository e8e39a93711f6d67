"""A fixed computation, independent of aladin, that gauges the machine's speed.

On a shared host identical work can run up to twice as slow for minutes at a
time, for a whole run.  run.py times this computation many times through a
run; its best time is the run's unit of speed, and the solve times divided by
it hold still while the host's speed drifts.  It mixes what the solver does:
small Python objects and dicts built and looked up, and small dense numpy
solves.  It calls nothing in aladin, so a change to the library cannot move it.
"""

from __future__ import annotations

import time

import numpy as np

_RNG = np.random.default_rng(0)
_A = _RNG.standard_normal((8, 8)) + 8.0 * np.eye(8)
_B = _RNG.standard_normal(8)


def reference_s():
    """Seconds one pass of the reference computation takes (a few ms)."""
    t0 = time.perf_counter()
    memo = {}
    acc = 0.0
    for k in range(15000):
        key = (k % 101, k % 7)
        node = memo.get(key)
        if node is None:
            node = memo[key] = [float(k), key, {"k": k}]
        acc += node[0]
    x = _B
    for _ in range(200):
        x = np.linalg.solve(_A, x + 1e-9 * acc)
    elapsed = time.perf_counter() - t0
    if not np.isfinite(x).all():
        raise ArithmeticError("reference solve is not finite")
    return elapsed
