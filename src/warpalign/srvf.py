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

from .warpmap import PLWarp, _interp, _lookup, check_count, check_grid, uniform_grid

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


def _check_samples(obj, field: str):
    """Check and freeze the grid and the (m, d) ``field`` array of a sampled
    ``Curve`` or ``Srvf``: d in {1,2,3}, finite values, one per grid point,
    and a known topology."""
    grid = check_grid(obj.grid)
    vals = np.asarray(getattr(obj, field), dtype=float)
    if vals.ndim == 1:
        vals = vals[:, None]
    if vals.ndim != 2 or not 1 <= vals.shape[1] <= 3:
        raise ValueError("points must be an (m, d) array with d in {1,2,3}")
    if not np.isfinite(vals).all():
        raise ValueError("points must be finite (no NaN or inf)")
    if vals.shape[0] != grid.size:
        raise ValueError(f"grid and {field} lengths differ")
    if obj.topology not in ("open", "closed"):
        raise ValueError("topology must be 'open' or 'closed'")
    grid.setflags(write=False)
    vals.setflags(write=False)
    object.__setattr__(obj, "grid", grid)
    object.__setattr__(obj, field, vals)


@dataclass(frozen=True)
class Curve:
    """Sampled curve with an open or closed topology flag.

    Closed curves must repeat the first point as the last one.
    """

    grid: np.ndarray
    points: np.ndarray
    topology: str = "open"

    def __post_init__(self):
        _check_samples(self, "points")
        if self.topology == "closed":
            if not np.all(np.abs(self.points[0] - self.points[-1]) <= 1e-9):
                raise ValueError("closed curve must end where it starts")

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
        _check_samples(self, "values")
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


def _nonzero_length(curve: Curve) -> float:
    """``arc_length``, rejecting a curve whose length is (numerically) zero:
    its SRVF vanishes, so every distance and alignment of it is void."""
    length = arc_length(curve)
    if length <= 1e-12:
        raise ValueError("degenerate (zero-length) curve")
    return length


def resample(curve: Curve, m: int) -> Curve:
    """Resample onto a uniform grid of m points by linear interpolation."""
    grid = uniform_grid(m)
    pts = _interp_columns(curve.grid, curve.points, grid)
    if curve.topology == "closed":
        pts[-1] = pts[0]
    return Curve(grid, pts, curve.topology)


def warp_curve(curve: Curve, w: PLWarp) -> Curve:
    """The reparameterized curve ``g o w`` sampled on the original grid."""
    pts = _interp_columns(curve.grid, curve.points, w(curve.grid))
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
    integrand = q.values * np.linalg.norm(q.values, axis=1)[:, None]
    # scipy's cumulative_trapezoid(initial=0.0) arithmetic, to the last bit
    steps = np.diff(q.grid)[:, None] * (integrand[1:] + integrand[:-1]) / 2.0
    pts = np.vstack([np.zeros((1, q.dim)), np.cumsum(steps, axis=0)]) + start
    return Curve(q.grid, pts, "open")


def _trapezoid_weights(grid: np.ndarray) -> np.ndarray:
    w = np.zeros(grid.size)
    half = np.diff(grid) / 2.0
    w[:-1] += half
    w[1:] += half
    return w


def _trapezoid(y: np.ndarray, dt: np.ndarray) -> float:
    """``np.trapezoid(y, grid)`` for ``dt = grid[1:] - grid[:-1]``, with
    numpy's own arithmetic, so the result is the same to the last bit."""
    s = y[1:] + y[:-1]
    s *= dt
    s /= 2.0
    return float(np.add.reduce(s))


def _sq_l2(v: np.ndarray, dt: np.ndarray) -> float:
    """Squared trapezoid L2 norm of (m, d) values ``v`` on a grid with
    spacings ``dt``, squaring ``v`` in place: ``v`` must be an array the
    caller owns.  The result is ``np.trapezoid(np.sum(v ** 2, axis=1),
    grid)`` to the last bit; a sum over one column is that column, so
    for d = 1 it is read directly.  The annealer's energy, warp_energy,
    l2_dist and l2_norm all run this one kernel."""
    v *= v
    return _trapezoid(v[:, 0] if v.shape[1] == 1 else np.add.reduce(v, axis=1), dt)


def l2_norm(q: Srvf) -> float:
    g = q.grid
    return float(np.sqrt(_sq_l2(np.array(q.values), g[1:] - g[:-1])))


def inner_product(q1: Srvf, q2: Srvf) -> float:
    _check_same_grid(q1, q2)
    g = q1.grid
    return _trapezoid((q1.values * q2.values).sum(axis=1), g[1:] - g[:-1])


def unit_normalize(q: Srvf) -> Srvf:
    """Scale to exactly unit L2 norm and mark the result as a shape."""
    nrm = l2_norm(q)
    if nrm <= 0.0:
        raise ValueError("cannot normalize a zero SRVF")
    return Srvf(q.grid, q.values / nrm, q.topology, is_shape=True)


def _interp_columns(grid: np.ndarray, values: np.ndarray, at: np.ndarray) -> np.ndarray:
    """Each column of (m, d) ``values`` on ``grid`` read at the points ``at``,
    as a new (len(at), d) array; for d = 1 it is a view of the one column
    interpolated."""
    if values.shape[1] == 1:
        return _interp(at, grid, values[:, 0])[:, None]
    out = np.empty((at.size, values.shape[1]))
    for j in range(values.shape[1]):
        out[:, j] = _interp(at, grid, values[:, j])
    return out


def _warp_values(grid: np.ndarray, values: np.ndarray, x: np.ndarray,
                 y: np.ndarray) -> np.ndarray:
    """``(q o w) * sqrt(w')`` on raw arrays: SRVF values sampled on a grid
    under the PL warp with knots ``(x, y)``, which must be a valid warp.

    A grid point takes the slope of the segment that starts at or before
    it (right-continuous), and points at or past the last interior knot
    take the last segment's: counting interior knots at or below t gives
    that segment's index directly.
    """
    root_slope = y[1:] - y[:-1]
    root_slope /= x[1:] - x[:-1]
    np.sqrt(root_slope, out=root_slope)
    seg = x[1:-1].searchsorted(grid, side="right")
    warped = _interp_columns(grid, values, _interp(grid, x, y))
    warped *= root_slope[seg][:, None]
    return warped


def _warp_sse_batch(grid: np.ndarray, values: np.ndarray, target: np.ndarray,
                    x: np.ndarray, y: np.ndarray, sse: np.ndarray,
                    work: np.ndarray) -> None:
    """Write into ``sse`` each row's sum of squared residuals ``target -
    _warp_values(grid, values, x[r], y[r])`` for R warps with (R, K) knot
    rows ``(x, y)``.  ``work`` is a (2, >= R, len(grid)) float workspace
    that the call overwrites.

    Per dimension j, in order, the row sums of the squared residuals of
    column j are added up, and each row sum is that of a C-contiguous
    (R, m) array, so every row rounds as a single warp's would.  The root
    slope is gathered from the square root of each row's segment-slope
    table.  Beyond the workspace, a call holds one (R, m) array at a
    time: the segment index, then each dimension's residuals, formed in
    the interpolation's output."""
    rows = x.shape[0]
    at, root_slope = work[0, :rows], work[1, :rows]
    table, idx = _lookup(x, y, grid, at, root_slope)
    np.take(np.sqrt(table, out=table), idx, out=root_slope, mode="clip")
    del table, idx  # each dimension's residuals take the index's place
    for j in range(values.shape[1]):
        resid = _interp(at, grid, values[:, j])
        resid *= root_slope
        np.subtract(target[:, j], resid, out=resid)
        np.square(resid, out=resid)
        if j == 0:
            np.add.reduce(resid, axis=1, out=sse)
        else:
            sse += np.add.reduce(resid, axis=1)
        del resid  # before the next dimension's interp allocates


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
    """Two SRVFs are comparable: the same grid and the same dimension."""
    if q1.grid.size != q2.grid.size or not np.array_equal(q1.grid, q2.grid):
        raise ValueError("SRVFs live on different grids; resample first")
    if q1.dim != q2.dim:
        raise ValueError("SRVFs have different dimensions")


def l2_dist(q1: Srvf, q2: Srvf) -> float:
    """Trapezoidal L2 distance between two SRVFs on a common grid."""
    _check_same_grid(q1, q2)
    g = q1.grid
    return float(np.sqrt(_sq_l2(q1.values - q2.values, g[1:] - g[:-1])))


def warp_energy(q1: Srvf, q2: Srvf, w: PLWarp) -> float:
    """Alignment energy ``|| q1 - (q2 o w) sqrt(w') ||^2``.

    This is the annealer's own arithmetic, so it equals a function-mode
    ``sa_align`` run's ``final_energy`` for the run's warp exactly, and
    ``l2_dist(q1, warp_action(q2, w)) ** 2`` to rounding.
    """
    _check_same_grid(q1, q2)
    g = q1.grid
    return _sq_l2(q1.values - _warp_values(g, q2.values, w.x, w.y), g[1:] - g[:-1])


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
    check_count("steps", steps, 2)
    _check_same_grid(q1, q2)
    shape = q1.is_shape and q2.is_shape
    # psi below 1e-9 takes the linear path: non-shapes, and shapes too close for the arc
    psi = shape_dist(q1, q2) if shape else 0.0
    if psi >= np.pi - 1e-6:
        raise ValueError("antipodal shapes have no unique geodesic")
    path = [q1]
    for s in np.linspace(0.0, 1.0, steps)[1:-1]:
        if psi < 1e-9:
            vals = (1.0 - s) * q1.values + s * q2.values
        else:
            vals = (np.sin((1.0 - s) * psi) * q1.values
                    + np.sin(s * psi) * q2.values) / np.sin(psi)
        path.append(Srvf(q1.grid, vals, q1.topology, is_shape=shape))
    path.append(q2)
    return path
