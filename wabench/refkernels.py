"""Fixed pure-numpy reference kernels for drift-adjusted job cost.

The host's speed drifts in phases lasting several seconds, so a job's
wall time mixes the program's cost with the host's current speed.  Each
job is followed by one of these kernels; ``job / kernel`` divides the
host's speed out.  The kernels import nothing from ``warpalign`` and
must never change: a change to them changes ``job_p50_ref``.

``small`` is call-overhead bound, like the annealer's inner loop: many
numpy calls on arrays of about 20 to 100 elements.  ``large`` is
memory-bandwidth bound, like the batched SIR path: a few passes over a
20000 x 100 array (16 MB per operand).
"""

from __future__ import annotations

import time

import numpy as np

_LARGE_SHAPE = (20000, 100)


class SmallKernel:
    """Knot sort, cumulative sum, interpolation and a trapezoid per rep."""

    def __init__(self, reps: int):
        rng = np.random.default_rng(12345)
        self.u = rng.random((reps, 19))
        self.g = rng.random((reps, 20)) + 0.1
        self.t = np.linspace(0.0, 1.0, 100)

    def __call__(self) -> float:
        t = self.t
        start = time.perf_counter()
        for u, g in zip(self.u, self.g):
            x = np.concatenate(([0.0], np.sort(u), [1.0]))
            y = np.concatenate(([0.0], np.cumsum(g / g.sum())))
            if not (np.all(np.diff(x) > 0) and np.all(np.diff(y) > 0)):
                raise AssertionError("reference kernel input is not monotone")
            v = np.interp(t, x, y)
            np.trapezoid(v * v, t)
        return time.perf_counter() - start


class LargeKernel:
    """Squared-difference row sums and a square root over 16 MB operands."""

    def __init__(self, reps: int):
        rng = np.random.default_rng(12345)
        self.reps = reps
        self.a = rng.random(_LARGE_SHAPE)
        self.b = rng.random(_LARGE_SHAPE)
        self.c = np.empty(_LARGE_SHAPE)

    def __call__(self) -> float:
        a, b, c = self.a, self.b, self.c
        start = time.perf_counter()
        for _ in range(self.reps):
            np.subtract(a, b, out=c)
            np.multiply(c, c, out=c)
            c.sum(axis=1)
            np.sqrt(a, out=c)
        return time.perf_counter() - start


KERNELS = {"small": SmallKernel, "large": LargeKernel}
