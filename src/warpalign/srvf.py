"""Curves, square-root velocity functions, and the warping action.

A curve g: [0,1] -> R^d (d = 1, 2, 3) is stored as sampled points on a
grid; its square-root velocity function (SRVF) is q = g' / sqrt(|g'|).
Under the SRVF the reparameterization g -> g o w acts by
q -> (q o w) * sqrt(w'), and the flat L2 metric becomes an elastic
metric on curves.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.integrate import cumulative_trapezoid

from .warpmap import PLWarp, check_grid, uniform_grid

__all__ = [
    "Curve",
    "Srvf",
    "arc_length",
    "resample",
    "warp_curve",
    "to_srvf",
    "from_srvf",
    "unit_normalize",
    "l2_norm",
    "inner_product",
    "warp_action",
    "l2_dist",
    "shape_dist",
    "geodesic",
    "warp_energy",
]

_ZERO_SPEED = 1e-12


def _as_points(points) -> np.ndarray:
    pts = np.asarray(points, dtype=float)
    if pts.ndim == 1:
        pts = pts[:, None]
    if pts.ndim != 2 or not 1 <= pts.shape[1] <= 3:
        raise ValueError("points must be an (m, d) array with d in {1,2,3}")
    if not np.isfinite(pts).all():
        raise ValueError("points must be finite (no NaN or inf)")
    return pts


@dataclass(frozen=True)
class Curve:
    """Sampled curve with an open or closed topology flag.

    Closed curves must repeat the first point as the last one.
    """

    grid: np.ndarray
    points: np.ndarray
    topology: str = "open"

    def __post_init__(self):
        grid = check_grid(self.grid)
        pts = _as_points(self.points)
        if pts.shape[0] != grid.size:
            raise ValueError("grid and points lengths differ")
        if self.topology not in ("open", "closed"):
            raise ValueError("topology must be 'open' or 'closed'")
        if self.topology == "closed":
            if not np.all(np.abs(pts[0] - pts[-1]) <= 1e-9):
                raise ValueError("closed curve must end where it starts")
        grid.setflags(write=False)
        pts.setflags(write=False)
        object.__setattr__(self, "grid", grid)
        object.__setattr__(self, "points", pts)

    @property
    def dim(self) -> int:
        return self.points.shape[1]


@dataclass(frozen=True)
class Srvf:
    """Square-root velocity values on a grid.

    ``is_shape`` marks exactly unit-norm representatives used for shape
    distances; construct those with :func:`unit_normalize`.
    """

    grid: np.ndarray
    values: np.ndarray
    topology: str = "open"
    is_shape: bool = False

    def __post_init__(self):
        grid = check_grid(self.grid)
        vals = _as_points(self.values)
        if vals.shape[0] != grid.size:
            raise ValueError("grid and values lengths differ")
        if self.topology not in ("open", "closed"):
            raise ValueError("topology must be 'open' or 'closed'")
        grid.setflags(write=False)
        vals.setflags(write=False)
        object.__setattr__(self, "grid", grid)
        object.__setattr__(self, "values", vals)
        if self.is_shape:
            nrm = l2_norm(self)
            if abs(nrm - 1.0) > 1e-6:
                raise ValueError("is_shape requires unit L2 norm")

    @property
    def dim(self) -> int:
        return self.values.shape[1]


def arc_length(curve: Curve) -> float:
    """Length of the sampled polyline."""
    return float(np.sum(np.linalg.norm(np.diff(curve.points, axis=0), axis=1)))


def resample(curve: Curve, m: int) -> Curve:
    """Resample onto a uniform grid of m points by linear interpolation."""
    if m < 2:
        raise ValueError("need at least two sample points")
    grid = uniform_grid(m)
    pts = np.column_stack([
        np.interp(grid, curve.grid, curve.points[:, j]) for j in range(curve.dim)
    ])
    if curve.topology == "closed":
        pts[-1] = pts[0]
    return Curve(grid, pts, curve.topology)


def warp_curve(curve: Curve, w: PLWarp) -> Curve:
    """The reparameterized curve ``g o w`` sampled on the original grid."""
    t = w(curve.grid)
    pts = np.column_stack([
        np.interp(t, curve.grid, curve.points[:, j]) for j in range(curve.dim)
    ])
    if curve.topology == "closed":
        pts[-1] = pts[0]
    return Curve(curve.grid, pts, curve.topology)


def _require_uniform(grid: np.ndarray):
    step = np.diff(grid)
    if not np.allclose(step, step[0], rtol=0.0, atol=1e-12):
        raise ValueError("operation requires a uniform grid; resample first")


def to_srvf(curve: Curve) -> Srvf:
    """SRVF of a curve: q = g'/sqrt(|g'|), with q = 0 where |g'| vanishes.

    Derivatives use central differences, one-sided at the endpoints of
    open curves and cyclic for closed curves.
    """
    if curve.grid.size < 3:
        raise ValueError("need at least three sample points")
    if curve.topology == "closed":
        _require_uniform(curve.grid)
        step = curve.grid[1] - curve.grid[0]
        pts = curve.points[:-1]
        deriv = (np.roll(pts, -1, axis=0) - np.roll(pts, 1, axis=0)) / (2.0 * step)
        deriv = np.vstack((deriv, deriv[:1]))
    else:
        deriv = np.gradient(curve.points, curve.grid, axis=0)
    speed = np.linalg.norm(deriv, axis=1)
    q = np.zeros_like(deriv)
    moving = speed >= _ZERO_SPEED
    q[moving] = deriv[moving] / np.sqrt(speed[moving])[:, None]
    return Srvf(curve.grid, q, curve.topology)


def from_srvf(q: Srvf, start=None) -> Curve:
    """Integrate an SRVF back to a curve: g(t) = start + int_0^t q|q|.

    The result is always returned with open topology; reconstructions of
    closed-curve SRVFs do not close exactly in general and no closure
    projection is applied.
    """
    if start is None:
        start = np.zeros(q.dim)
    start = np.asarray(start, dtype=float).reshape(1, q.dim)
    speed = np.linalg.norm(q.values, axis=1)
    integrand = q.values * speed[:, None]
    pts = cumulative_trapezoid(integrand, q.grid, axis=0, initial=0.0) + start
    return Curve(q.grid, pts, "open")


def _trapezoid_weights(grid: np.ndarray) -> np.ndarray:
    w = np.zeros(grid.size)
    half = np.diff(grid) / 2.0
    w[:-1] += half
    w[1:] += half
    return w


def l2_norm(q: Srvf) -> float:
    return float(np.sqrt(np.trapezoid(np.sum(q.values ** 2, axis=1), q.grid)))


def inner_product(q1: Srvf, q2: Srvf) -> float:
    _check_same_grid(q1, q2)
    return float(np.trapezoid(np.sum(q1.values * q2.values, axis=1), q1.grid))


def unit_normalize(q: Srvf) -> Srvf:
    """Scale to exactly unit L2 norm and mark the result as a shape."""
    nrm = l2_norm(q)
    if nrm <= 0.0:
        raise ValueError("cannot normalize a zero SRVF")
    return Srvf(q.grid, q.values / nrm, q.topology, is_shape=True)


def _interp_columns(grid: np.ndarray, values: np.ndarray, at: np.ndarray) -> np.ndarray:
    return np.column_stack([
        np.interp(at, grid, values[:, j]) for j in range(values.shape[1])
    ])


def _warp_values(grid: np.ndarray, values: np.ndarray, x: np.ndarray,
                 y: np.ndarray) -> np.ndarray:
    """``(q o w) * sqrt(w')`` on raw arrays: SRVF values sampled on a grid
    under the PL warp with knots ``(x, y)``, which must be a valid warp."""
    wt = np.interp(grid, x, y)
    idx = np.searchsorted(x, grid, side="right") - 1
    np.clip(idx, 0, x.size - 2, out=idx)
    slope = (y[idx + 1] - y[idx]) / (x[idx + 1] - x[idx])
    return _interp_columns(grid, values, wt) * np.sqrt(slope)[:, None]


def warp_action(q: Srvf, w: PLWarp) -> Srvf:
    """The warped SRVF ``(q o w) * sqrt(w')`` on q's grid.

    q is evaluated by linear interpolation of its sampled values; the
    warp derivative uses the right-continuous convention.  The L2 norm
    is preserved up to discretization error, so the result is not
    flagged as an exact unit-norm shape.
    """
    vals = _warp_values(q.grid, q.values, w.x, w.y)
    return Srvf(q.grid, vals, q.topology, is_shape=False)


def _check_same_grid(q1: Srvf, q2: Srvf):
    if q1.grid.size != q2.grid.size or not np.array_equal(q1.grid, q2.grid):
        raise ValueError("SRVFs live on different grids; resample first")


def l2_dist(q1: Srvf, q2: Srvf) -> float:
    """Trapezoidal L2 distance between two SRVFs on a common grid."""
    _check_same_grid(q1, q2)
    diff = q1.values - q2.values
    return float(np.sqrt(np.trapezoid(np.sum(diff ** 2, axis=1), q1.grid)))


def warp_energy(q1: Srvf, q2: Srvf, w: PLWarp) -> float:
    """Alignment energy ``|| q1 - (q2 o w) sqrt(w') ||^2``."""
    return l2_dist(q1, warp_action(q2, w)) ** 2


def shape_dist(q1: Srvf, q2: Srvf) -> float:
    """Great-circle distance between unit-norm SRVFs (arccos of the inner
    product, clamped against float overshoot)."""
    if not (q1.is_shape and q2.is_shape):
        raise ValueError("shape_dist needs unit-norm SRVFs; use unit_normalize")
    ip = np.clip(inner_product(q1, q2), -1.0, 1.0)
    return float(np.arccos(ip))


def geodesic(q1: Srvf, q2: Srvf, steps: int) -> list[Srvf]:
    """Geodesic path between SRVFs, endpoints included.

    Unit-norm shapes follow the great-circle arc on the SRVF sphere;
    anything else interpolates linearly in SRVF space.
    """
    if steps < 2:
        raise ValueError("need at least two steps")
    _check_same_grid(q1, q2)
    fractions = np.linspace(0.0, 1.0, steps)
    path = []
    if q1.is_shape and q2.is_shape:
        psi = shape_dist(q1, q2)
        if psi >= np.pi - 1e-6:
            raise ValueError("antipodal shapes have no unique geodesic")
        for s in fractions:
            if psi < 1e-9:
                vals = (1.0 - s) * q1.values + s * q2.values
            else:
                vals = (np.sin((1.0 - s) * psi) * q1.values
                        + np.sin(s * psi) * q2.values) / np.sin(psi)
            path.append(Srvf(q1.grid, vals, q1.topology, is_shape=True))
    else:
        for s in fractions:
            vals = (1.0 - s) * q1.values + s * q2.values
            path.append(Srvf(q1.grid, vals, q1.topology, is_shape=False))
    path[0] = q1
    path[-1] = q2
    return path
