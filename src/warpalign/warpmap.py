"""Piecewise-linear warp maps of [0,1] and of the unit-circumference circle.

A warp map is an increasing continuous self-map of [0,1] that fixes both
endpoints.  Everything here is piecewise linear (PL), represented by knot
sequences, which keeps evaluation, inversion, composition and restriction
exact.  Warps of the circle are represented extrinsically as a PL warp of
[0,1] plus an unwrapping seed.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np
# The compiled kernel behind np.interp.  On real input np.interp dispatches,
# checks fp for complex values and calls it with the same arguments, so a
# direct call gives the same bits without those Python-level calls.  This
# is private numpy API, present at this path throughout numpy 2.x: before
# raising the `numpy<3` bound in pyproject.toml, check that it still is.
from numpy._core.multiarray import interp as _interp

__all__ = [
    "MIN_INCREMENT",
    "PLWarp",
    "CircularWarp",
    "identity",
    "compose",
    "restrict",
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


def _floor_normalize(p: np.ndarray, floor: float) -> np.ndarray:
    """``p`` floored at ``floor`` and scaled to sum to one along the last
    axis, in place: ``p`` must be a float array the caller owns."""
    np.maximum(p, floor, out=p)
    p /= np.add.reduce(p) if p.ndim == 1 else np.add.reduce(p, axis=-1, keepdims=True)
    return p


def _increment_values(p: np.ndarray) -> np.ndarray:
    """Knot values 0, cumsum of ``p`` clamped to ``MIN_INCREMENT`` and
    renormalised, along the last axis, with the last value set to exactly
    1; ``p`` is clamped in place."""
    p = _floor_normalize(p, MIN_INCREMENT)
    values = np.zeros(p.shape[:-1] + (p.shape[-1] + 1,))
    np.add.accumulate(p, axis=-1, out=values[..., 1:])
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
        dx, dy = np.diff(x), np.diff(y)
        gap = dx.min()
        if x[0] != 0.0 or x[-1] != 1.0 or not gap > 0:
            raise ValueError("knot positions must increase strictly from 0 to 1")
        if y[0] != 0.0 or y[-1] != 1.0 or not np.all(dy > 0):
            raise ValueError("knot values must increase strictly from 0 to 1")
        # dy <= 1, so only a subnormal spacing can overflow a slope dy/dx
        if gap < 2.0**-1022 and np.any(dy > dx * np.finfo(float).max):
            raise ValueError("knot spacing too small: a segment slope is not finite")
        x.setflags(write=False)
        y.setflags(write=False)
        self.x = x
        self.y = y

    @classmethod
    def from_increments(cls, x, increments) -> "PLWarp":
        """Build a warp from knot positions and positive value increments.

        Increments below ``MIN_INCREMENT`` are clamped and the vector is
        renormalized, so degenerate (underflowed) simplex draws still yield
        a strictly increasing warp.  The clamp works on a copy: the
        argument is not changed.
        """
        return cls(x, _increment_values(np.array(increments, dtype=float)))

    def __call__(self, t):
        t = np.asarray(t, dtype=float)
        if not ((t >= 0.0) & (t <= 1.0)).all():  # NaN fails too
            raise ValueError("warp maps are defined on [0,1]")
        out = _interp(t, self.x, self.y)
        return float(out) if out.ndim == 0 else out

    def derivative(self, t):
        """Slope at t.  At interior knots the right-segment slope is used;
        at t=1 the left-segment slope (right-continuous convention)."""
        t = np.asarray(t, dtype=float)
        if not ((t >= 0.0) & (t <= 1.0)).all():  # NaN fails too
            raise ValueError("warp maps are defined on [0,1]")
        # t's segment is the number of interior knots at or below t
        seg = self.x[1:-1].searchsorted(t, side="right")
        slope = (np.diff(self.y) / np.diff(self.x))[seg]
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
    preimages = _interp(outer.x, inner.y, inner.x)
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


def sup_dist(w1: PLWarp, w2: PLWarp) -> float:
    """Supremum distance between two PL warps, computed exactly.

    The difference of two PL functions is PL, so the sup is attained on
    the union of the knot sets.
    """
    x = np.union1d(w1.x, w2.x)
    return float(np.max(np.abs(w1(x) - w2(x))))


def batch_eval(knots_x: np.ndarray, knots_y: np.ndarray, t, with_slope: bool = False):
    """Evaluate many PL warps at common points t.

    ``knots_x`` and ``knots_y`` are (size, K) arrays whose rows are the
    knots of valid warps, and ``t`` is sorted in [0,1].  Returns a
    (size, len(t)) array of values, plus the matching right-continuous
    slopes when ``with_slope`` is set.  Each row is ``PLWarp.__call__``
    and ``PLWarp.derivative`` of that row's warp, bit for bit: the value
    is ``np.interp``'s ``slope*(t - x0) + y0`` on the segment located.
    """
    knots_x = np.asarray(knots_x, dtype=float)
    knots_y = np.asarray(knots_y, dtype=float)
    t = np.atleast_1d(np.asarray(t, dtype=float))
    if t.ndim != 1 or t.size and not (t[0] >= 0.0 and t[-1] <= 1.0
                                      and np.all(t[1:] >= t[:-1])):
        raise ValueError("t must be sorted and lie in [0,1]")
    values = np.empty((knots_x.shape[0], t.size))
    gathered = np.empty_like(values)
    table, idx = _lookup(knots_x, knots_y, t, values, gathered)
    if with_slope:
        return values, np.take(table, idx, out=gathered, mode="clip")
    return values


def _lookup(knots_x: np.ndarray, knots_y: np.ndarray, t: np.ndarray,
            values: np.ndarray, gathered: np.ndarray):
    """``batch_eval`` on checked float input, written into ``values``.

    ``values`` and ``gathered`` are (size, len(t)) float arrays, and
    ``gathered`` is left holding each point's segment start value.
    Returns ``(table, idx)``: ``table`` is the (size, K) segment-slope
    table, ``(y1 - y0)/(x1 - x0)`` per segment with a last column of
    zeros that no index reaches, and ``idx`` indexes each point's segment
    in the flattened knot rows, so ``np.take(table, idx)`` is each point's
    slope and ``np.take(f(table), idx)`` is ``f`` of it without applying
    ``f`` per point.  Every index is in range, so the gathers clip
    instead of checking bounds.
    """
    size, kk = knots_x.shape
    m = t.size
    # The segment of t_j in row r is the number of interior knots <= t_j:
    # each knot adds one from the first t at or past it onwards.  Counted
    # over the flattened rows, a knot past every t adds one from the next
    # row's first point, and the running count there includes all
    # K - 2 interior knots of each earlier row, so row r's count is its
    # segment plus r * (K - 2), and its flat index adds 2 * r more.
    first = t.searchsorted(knots_x[:, 1:-1], side="left")
    first += m * np.arange(size)[:, None]
    idx = np.bincount(first.ravel(), minlength=size * m)[:size * m]
    np.add.accumulate(idx, out=idx)
    idx = idx.reshape(size, m)
    idx += np.arange(0, 2 * size, 2)[:, None]
    table = np.zeros((size, kk))
    np.divide(knots_y[:, 1:] - knots_y[:, :-1], knots_x[:, 1:] - knots_x[:, :-1],
              out=table[:, :-1])
    np.take(knots_x, idx, out=values, mode="clip")
    np.subtract(t, values, out=values)
    values *= np.take(table, idx, out=gathered, mode="clip")
    values += np.take(knots_y, idx, out=gathered, mode="clip")
    # t is sorted, so the points exactly at 1 are its trailing run
    values[:, t.searchsorted(1.0):] = knots_y[:, -1:]
    return table, idx


@dataclass(frozen=True)
class CircularWarp:
    """Orientation-preserving warp of the circle of unit circumference.

    Stored as a PL warp ``base`` of [0,1] plus the unwrapping ``seed``
    c in (0,1]; evaluation is ``(base(t) + c) mod 1``.  ``wrap_point`` is
    the unique t_c where the mod-1 reduction wraps (the left limit there
    is 1, the right limit 0).  It is computed, not given: bisection on
    the knot values finds the segment where ``base(t_c) = 1 - c``, and
    the crossing is solved exactly on it.  For the degenerate seed c = 1
    the map coincides with ``base`` and the wrap sits at 0.
    """

    base: PLWarp
    seed: float
    wrap_point: float = field(init=False)

    def __post_init__(self):
        c = float(self.seed)
        if not 0.0 < c <= 1.0:
            raise ValueError("seed must lie in (0, 1]")
        x, y, target = self.base.x, self.base.y, 1.0 - c
        j = min(max(int(np.searchsorted(y, target, side="left")), 1), x.size - 1)
        # c = 1 gives target 0, j = 1 and t_c = 0 exactly
        t_c = x[j - 1] + (target - y[j - 1]) * (x[j] - x[j - 1]) / (y[j] - y[j - 1])
        object.__setattr__(self, "seed", c)
        object.__setattr__(self, "wrap_point", float(t_c))

    def __call__(self, t):
        v = self.base(t)
        if self.seed == 1.0:
            return v
        shifted = np.asarray(v) + self.seed
        out = np.where(shifted >= 1.0, shifted - 1.0, shifted)
        return float(out) if out.ndim == 0 else out

    def to_dict(self) -> dict:
        d = self.base.to_dict()
        d["seed"] = self.seed
        d["wrap_point"] = self.wrap_point
        return d

    def to_json(self) -> str:
        return json.dumps(self.to_dict())

    @classmethod
    def from_dict(cls, data: dict) -> "CircularWarp":
        """Rebuild a circle warp, rejecting a ``wrap_point`` that differs."""
        warp = cls(PLWarp.from_dict(data), float(data["seed"]))
        stored = float(data["wrap_point"])
        if stored != warp.wrap_point:
            raise ValueError(f"wrap_point {stored!r} contradicts the knots and seed, "
                             f"which give {warp.wrap_point!r}")
        return warp


def make_circular(g: PLWarp, c: float) -> CircularWarp:
    """Wrap a PL warp of [0,1] into a circle warp with seed c in (0,1]."""
    return CircularWarp(g, c)
