"""Piecewise-linear warp maps of [0,1] and of the unit-circumference circle.

A warp map is an increasing continuous self-map of [0,1] that fixes both
endpoints.  Everything here is piecewise linear (PL), represented by knot
sequences, which keeps evaluation, inversion, composition and restriction
exact.  Warps of the circle are represented extrinsically as a PL warp of
[0,1] plus an unwrapping seed.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

__all__ = [
    "MIN_INCREMENT",
    "PLWarp",
    "CircularWarp",
    "identity",
    "compose",
    "restrict",
    "convex_blend",
    "sup_dist",
    "make_circular",
    "check_grid",
    "uniform_grid",
    "batch_eval",
]

# Smallest knot-value increment kept after clamping.  Dirichlet draws with
# very small shape parameters can underflow to zero, which would break
# strict monotonicity of sampled warps.
MIN_INCREMENT = 1e-10


def _clamp_increments(p) -> np.ndarray:
    """Increments clamped to ``MIN_INCREMENT`` and renormalised to sum to one
    along the last axis."""
    p = np.maximum(p, MIN_INCREMENT)
    p /= p.sum(axis=-1, keepdims=True)
    return p


def _increment_values(p) -> np.ndarray:
    """Knot values 0, cumsum(_clamp_increments(p)) along the last axis, with
    the last value set to exactly 1."""
    p = _clamp_increments(p)
    values = np.zeros(p.shape[:-1] + (p.shape[-1] + 1,))
    np.cumsum(p, axis=-1, out=values[..., 1:])
    values[..., -1] = 1.0
    return values


def check_grid(values) -> np.ndarray:
    """Validate a discretization grid: strictly increasing from 0 to 1."""
    g = np.atleast_1d(np.asarray(values, dtype=float))
    if g.ndim != 1 or g.size < 2:
        raise ValueError("grid needs at least two points")
    if g[0] != 0.0 or g[-1] != 1.0:
        raise ValueError("grid must start at 0 and end at 1")
    if not np.all(np.diff(g) > 0):
        raise ValueError("grid must be strictly increasing")
    return g


def uniform_grid(m: int) -> np.ndarray:
    """Equispaced grid of m points on [0,1]."""
    if m < 2:
        raise ValueError("grid needs at least two points")
    return np.linspace(0.0, 1.0, m)


def _dedupe_knots(x: np.ndarray, y: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Drop knots that collide in either coordinate after float rounding."""
    keep = [0]
    for k in range(1, x.size):
        if x[k] > x[keep[-1]] and y[k] > y[keep[-1]]:
            keep.append(k)
    if keep[-1] != x.size - 1:
        # endpoint must survive; drop its colliding predecessor instead
        keep[-1] = x.size - 1
    idx = np.asarray(keep)
    return x[idx], y[idx]


class PLWarp:
    """Piecewise-linear increasing bijection of [0,1].

    Knots are pairs ``(x[k], y[k])`` with both coordinates strictly
    increasing from 0 to 1; between knots the map interpolates linearly.
    Instances are immutable and safe to share between threads.
    """

    __slots__ = ("x", "y")

    def __init__(self, x, y):
        x = np.atleast_1d(np.asarray(x, dtype=float)).copy()
        y = np.atleast_1d(np.asarray(y, dtype=float)).copy()
        if x.ndim != 1 or x.shape != y.shape or x.size < 2:
            raise ValueError("knots must be two equal-length 1-d sequences")
        if x[0] != 0.0 or x[-1] != 1.0 or not np.all(np.diff(x) > 0):
            raise ValueError("knot positions must increase strictly from 0 to 1")
        if y[0] != 0.0 or y[-1] != 1.0 or not np.all(np.diff(y) > 0):
            raise ValueError("knot values must increase strictly from 0 to 1")
        x.setflags(write=False)
        y.setflags(write=False)
        self.x = x
        self.y = y

    @classmethod
    def from_increments(cls, x, increments) -> "PLWarp":
        """Build a warp from knot positions and positive value increments.

        Increments below ``MIN_INCREMENT`` are clamped and the vector is
        renormalized, so degenerate (underflowed) simplex draws still yield
        a strictly increasing warp.
        """
        return cls(x, _increment_values(np.asarray(increments, dtype=float)))

    @property
    def knots(self) -> np.ndarray:
        return np.column_stack((self.x, self.y))

    def __call__(self, t):
        t = np.asarray(t, dtype=float)
        if np.any(t < 0.0) or np.any(t > 1.0):
            raise ValueError("warp maps are defined on [0,1]")
        out = np.interp(t, self.x, self.y)
        return float(out) if out.ndim == 0 else out

    def derivative(self, t):
        """Slope at t.  At interior knots the right-segment slope is used;
        at t=1 the left-segment slope (right-continuous convention)."""
        t = np.asarray(t, dtype=float)
        if np.any(t < 0.0) or np.any(t > 1.0):
            raise ValueError("warp maps are defined on [0,1]")
        idx = np.searchsorted(self.x, t, side="right") - 1
        idx = np.clip(idx, 0, self.x.size - 2)
        slope = (self.y[idx + 1] - self.y[idx]) / (self.x[idx + 1] - self.x[idx])
        return float(slope) if slope.ndim == 0 else slope

    def inverse(self) -> "PLWarp":
        """Swap knot coordinates; exact inverse of a PL bijection."""
        return PLWarp(self.y, self.x)

    def to_dict(self) -> dict:
        return {"knots": [[float(a), float(b)] for a, b in zip(self.x, self.y)]}

    def to_json(self) -> str:
        return json.dumps(self.to_dict())

    @classmethod
    def from_dict(cls, data: dict) -> "PLWarp":
        knots = np.asarray(data["knots"], dtype=float)
        return cls(knots[:, 0], knots[:, 1])

    def __repr__(self):
        return f"PLWarp({self.x.size} knots)"


def identity() -> PLWarp:
    return PLWarp([0.0, 1.0], [0.0, 1.0])


def compose(outer: PLWarp, inner: PLWarp) -> PLWarp:
    """The warp ``t -> outer(inner(t))``.

    The result carries knots at the union of inner's knots and the
    preimages under inner of outer's knots, so the composition is exact
    at every point, not just at knots.
    """
    preimages = np.interp(outer.x, inner.y, inner.x)
    x = np.union1d(inner.x, preimages)
    y = outer(inner(x))
    y[0], y[-1] = 0.0, 1.0
    if not (np.all(np.diff(x) > 0) and np.all(np.diff(y) > 0)):
        x, y = _dedupe_knots(x, y)
    return PLWarp(x, y)


def restrict(w: PLWarp, a: float, b: float) -> PLWarp:
    """Restriction of a warp to [a,b], rescaled back to a warp of [0,1].

    Implements ``u -> (w((1-u)a + ub) - w(a)) / (w(b) - w(a))``.
    """
    if not 0.0 <= a < b <= 1.0:
        raise ValueError("need 0 <= a < b <= 1")
    wa, wb = w(a), w(b)
    interior = w.x[(w.x > a) & (w.x < b)]
    u = np.concatenate(([0.0], (interior - a) / (b - a), [1.0]))
    vals = (w(a + u * (b - a)) - wa) / (wb - wa)
    vals[0], vals[-1] = 0.0, 1.0
    if not (np.all(np.diff(u) > 0) and np.all(np.diff(vals) > 0)):
        u, vals = _dedupe_knots(u, vals)
    return PLWarp(u, vals)


def convex_blend(w1: PLWarp, w2: PLWarp, weight: float) -> PLWarp:
    """Pointwise convex combination ``weight*w1 + (1-weight)*w2``.

    A convex combination of PL warps with matching endpoints is again a
    PL warp; its knots live on the union of the two knot sets.
    """
    if not 0.0 <= weight <= 1.0:
        raise ValueError("weight must lie in [0,1]")
    x = np.union1d(w1.x, w2.x)
    y = weight * w1(x) + (1.0 - weight) * w2(x)
    y[0], y[-1] = 0.0, 1.0
    if not np.all(np.diff(y) > 0):
        x, y = _dedupe_knots(x, y)
    return PLWarp(x, y)


def sup_dist(w1: PLWarp, w2: PLWarp) -> float:
    """Supremum distance between two PL warps, computed exactly.

    The difference of two PL functions is PL, so the sup is attained on
    the union of the knot sets.
    """
    x = np.union1d(w1.x, w2.x)
    return float(np.max(np.abs(w1(x) - w2(x))))


def batch_eval(knots_x: np.ndarray, knots_y: np.ndarray, t, with_slope: bool = False,
               chunk: int = 4096):
    """Evaluate many PL warps at common points t.

    ``knots_x`` and ``knots_y`` are (size, K) arrays whose rows are the
    knot positions/values of individual warps.  Returns a (size, len(t))
    array of values, plus the matching right-continuous slopes when
    ``with_slope`` is set.
    """
    knots_x = np.asarray(knots_x, dtype=float)
    knots_y = np.asarray(knots_y, dtype=float)
    t = np.atleast_1d(np.asarray(t, dtype=float))
    size, kk = knots_x.shape
    out = np.empty((size, t.size))
    slopes = np.empty((size, t.size)) if with_slope else None
    for lo in range(0, size, chunk):
        hi = min(lo + chunk, size)
        sx = knots_x[lo:hi]
        sy = knots_y[lo:hi]
        idx = (sx[:, :, None] <= t[None, None, :]).sum(axis=1) - 1
        np.clip(idx, 0, kk - 2, out=idx)
        x0 = np.take_along_axis(sx, idx, axis=1)
        x1 = np.take_along_axis(sx, idx + 1, axis=1)
        y0 = np.take_along_axis(sy, idx, axis=1)
        y1 = np.take_along_axis(sy, idx + 1, axis=1)
        sl = (y1 - y0) / (x1 - x0)
        out[lo:hi] = y0 + sl * (t[None, :] - x0)
        if with_slope:
            slopes[lo:hi] = sl
    if with_slope:
        return out, slopes
    return out


@dataclass(frozen=True)
class CircularWarp:
    """Orientation-preserving warp of the circle of unit circumference.

    Stored as a PL warp ``base`` of [0,1] plus the unwrapping ``seed``
    c in (0,1]; evaluation is ``(base(t) + c) mod 1``.  ``wrap_point`` is
    the unique t_c where the mod-1 reduction wraps (the left limit there
    is 1, the right limit 0).  For the degenerate seed c = 1 the map
    coincides with ``base`` and the wrap sits at 0.
    """

    base: PLWarp
    seed: float
    wrap_point: float

    def __call__(self, t):
        v = self.base(t)
        if self.seed == 1.0:
            return v
        shifted = np.asarray(v) + self.seed
        out = np.where(shifted >= 1.0, shifted - 1.0, shifted)
        return float(out) if out.ndim == 0 else out

    def to_dict(self) -> dict:
        d = self.base.to_dict()
        d["seed"] = float(self.seed)
        d["wrap_point"] = float(self.wrap_point)
        return d

    def to_json(self) -> str:
        return json.dumps(self.to_dict())

    @classmethod
    def from_dict(cls, data: dict) -> "CircularWarp":
        base = PLWarp.from_dict(data)
        return cls(base=base, seed=float(data["seed"]),
                   wrap_point=float(data["wrap_point"]))


def make_circular(g: PLWarp, c: float) -> CircularWarp:
    """Wrap a PL warp of [0,1] into a circle warp with seed c in (0,1].

    The wrap point solves ``g(t_c) = 1 - c``; the containing segment is
    located by bisection on the knot values and the crossing is solved
    exactly on that segment.
    """
    if not 0.0 < c <= 1.0:
        raise ValueError("seed must lie in (0, 1]")
    if c == 1.0:
        return CircularWarp(base=g, seed=1.0, wrap_point=0.0)
    target = 1.0 - c
    j = int(np.searchsorted(g.y, target, side="left"))
    j = min(max(j, 1), g.x.size - 1)
    t_c = g.x[j - 1] + (target - g.y[j - 1]) * (g.x[j] - g.x[j - 1]) / (g.y[j] - g.y[j - 1])
    return CircularWarp(base=g, seed=float(c), wrap_point=float(t_c))
