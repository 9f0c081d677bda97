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
        if self.is_shape and not _has_unit_norm(self.grid, self.values):
            raise ValueError("is_shape requires unit L2 norm")

    @property
    def dim(self) -> int:
        return self.values.shape[1]


def arc_length(curve: Curve) -> float:
    """Length of the sampled polyline."""
    return float(np.sum(np.linalg.norm(np.diff(curve.points, axis=0), axis=1)))


def _nonzero_length(curve: Curve) -> float:
    """``arc_length``, rejecting a curve whose length is (numerically) zero
    or overflows: every distance and alignment of it would be void."""
    with np.errstate(over="ignore"):
        length = arc_length(curve)
    if length <= 1e-12:
        raise ValueError("degenerate (zero-length) curve")
    if not np.isfinite(length):
        raise ValueError("curve length overflows float64; rescale the curve")
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
    open curves and cyclic for closed curves.  A speed |g'| that overflows
    to inf, which would make q = 0 there, is refused.
    """
    if curve.grid.size < 3:
        raise ValueError("need at least three sample points")
    with np.errstate(over="ignore"):
        if curve.topology == "closed":
            _require_uniform(curve.grid)
            step = curve.grid[1] - curve.grid[0]
            pts = curve.points[:-1]
            deriv = (np.roll(pts, -1, axis=0) - np.roll(pts, 1, axis=0)) / (2.0 * step)
            deriv = np.vstack((deriv, deriv[:1]))
        else:
            deriv = np.gradient(curve.points, curve.grid, axis=0)
        speed = np.linalg.norm(deriv, axis=1)
    if not np.isfinite(speed).all():
        raise ValueError("curve speed |g'| overflows float64; rescale the curve")
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
    """Trapezoid weights of a grid: half its spacing at each end, and the
    sum of the two half spacings beside each interior point."""
    half = grid[1:] - grid[:-1]
    half /= 2.0
    w = np.empty(grid.size)
    w[0], w[-1] = half[0], half[-1]
    np.add(half[:-1], half[1:], out=w[1:-1])
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
    for d = 1 it is read directly.  This is the kernel of l2_dist and
    l2_norm; alignment energies run ``_energy`` instead."""
    v *= v
    return _trapezoid(v[:, 0] if v.shape[1] == 1 else np.add.reduce(v, axis=1), dt)


def _energy_target(v1: np.ndarray, grid: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The per-pair terms of ``_energy`` for the (m, d) values ``v1`` to
    align onto: the trapezoid weights of ``grid`` repeated over d columns,
    so that a product with (m, d) values needs no broadcast, and the
    (d, m) target ``(v1 * weights).T``.  ``target @ v2`` is also the
    cross-covariance from which ``shapeops._procrustes`` finds the
    rotation of v2 onto v1."""
    weights = np.repeat(_trapezoid_weights(grid)[:, None], v1.shape[1], axis=1)
    return weights, (v1 * weights).T


def _energy_terms(target: np.ndarray, weights: np.ndarray,
                  v: np.ndarray) -> tuple[float, list[list[float]]]:
    """``(B, M)`` of the (m, d) values ``v``: the squared trapezoid norm
    B = tr((v * weights)^T v) and the (d, d) cross-covariance M = target @ v
    as Python rows, the form ``_energy`` and ``shapeops._procrustes``
    read.  B is M's own arithmetic with v in the target's place, so for
    ``v`` equal to the values v1 the target was built from, B and tr(M)
    agree to the last bit, and so does A = tr(target @ v1), the A of
    ``_energy``."""
    return _trace(((v * weights).T @ v).tolist()), (target @ v).tolist()


def _trace(rows: list[list[float]]) -> float:
    """Trace of a small square matrix given as Python rows, its diagonal
    summed in index order."""
    total = rows[0][0]
    for j in range(1, len(rows)):
        total += rows[j][j]
    return total


def _energy(a: float, b: float, cross: list[list[float]],
            rot: list[list[float]] | None = None, optimal: bool = False) -> float:
    """The alignment energy ``|| v1 - R v ||^2 = A + B - 2 <R, M>_F`` from
    the squared norms A of v1 and B of v, and their cross-covariance M
    (see ``_energy_terms``); ``rot`` is R, or None for the identity.  M
    and R are Python rows, so a call makes no numpy call.

    <R, M> is the trace of M for the identity, and otherwise the sum of
    the products R_ij M_ij in row-major order, which at R = I is the
    trace in the same order.  So v = v1 scores exactly 0.0 under the
    identity, and, since the rounding of A + B - 2 <R, M> is of the order
    of A + B, a rounding-level negative is returned as 0.0.

    ``optimal`` says that R is M's Procrustes rotation, the maximiser of
    <R, M> over SO(d).  The identity is in SO(d), so <R, M> is then at
    least tr(M), and is read as such: the computed R can fall short of
    it by an ulp of its diagonal, which would leave v = v1 a
    rounding-level positive energy.

    Every alignment energy runs this kernel: the annealer's proposals and
    accepts, and ``warp_energy``."""
    if rot is None:
        inner = _trace(cross)
    else:
        inner = 0.0
        for r_row, m_row in zip(rot, cross):
            for r, m in zip(r_row, m_row):
                inner += r * m
    if optimal:
        inner = max(inner, _trace(cross))
    e = a + b - 2.0 * inner
    return e if e > 0.0 else 0.0


def l2_norm(q: Srvf) -> float:
    return _l2_norm(q.grid, q.values)


def _l2_norm(grid: np.ndarray, values: np.ndarray) -> float:
    return float(np.sqrt(_sq_l2(np.array(values), grid[1:] - grid[:-1])))


def _has_unit_norm(grid: np.ndarray, values: np.ndarray) -> bool:
    """The ``is_shape`` rule: the L2 norm of ``values`` on ``grid`` is 1 to 1e-6."""
    return abs(_l2_norm(grid, values) - 1.0) <= 1e-6


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


def _interp_columns(grid: np.ndarray, values: np.ndarray, at: np.ndarray,
                    scale: np.ndarray | None = None) -> np.ndarray:
    """Each column of (m, d) ``values`` on ``grid`` read at the points ``at``,
    times ``scale`` (one factor per point) if given, as a new
    (len(at), d) array; for d = 1 it is a view of the one column
    interpolated.  Each column is scaled as it is written."""
    if values.shape[1] == 1:
        col = _interp(at, grid, values[:, 0])
        if scale is not None:
            col *= scale
        return col[:, None]
    out = np.empty((at.size, values.shape[1]))
    for j in range(values.shape[1]):
        if scale is None:
            out[:, j] = _interp(at, grid, values[:, j])
        else:
            np.multiply(_interp(at, grid, values[:, j]), scale, out=out[:, j])
    return out


def _warp_values(grid: np.ndarray, values: np.ndarray, x: np.ndarray,
                 y: np.ndarray, dx: np.ndarray | None = None) -> np.ndarray:
    """``(q o w) * sqrt(w')`` on raw arrays: SRVF values sampled on a grid
    under the PL warp with knots ``(x, y)``, which must be a valid warp;
    ``dx`` is the knot spacing ``x[1:] - x[:-1]`` if the caller has it.

    A grid point takes the slope of the segment that starts at or before
    it (right-continuous), and points at or past the last interior knot
    take the last segment's: counting interior knots at or below t gives
    that segment's index directly.
    """
    root_slope = y[1:] - y[:-1]
    root_slope /= x[1:] - x[:-1] if dx is None else dx
    np.sqrt(root_slope, out=root_slope)
    seg = x[1:-1].searchsorted(grid, side="right")
    return _interp_columns(grid, values, _interp(grid, x, y), root_slope[seg])


# grids of 8-byte values per row of a ``_warp_sse_batch`` chunk: the warped
# points, a gather buffer, and the segment index or one dimension's residuals
_ROW_ARRAYS = 3


def _warp_sse_batch(grid: np.ndarray, values: np.ndarray, target: np.ndarray,
                    x: np.ndarray, y: np.ndarray, sse: np.ndarray,
                    budget: int = 0) -> None:
    """Write into ``sse`` each row's sum of squared residuals ``target -
    _warp_values(grid, values, x[r], y[r])`` for R warps with (R, K) knot
    rows ``(x, y)``, in chunks of as many rows as ``budget`` bytes hold at
    ``_ROW_ARRAYS`` grids a row, and at least one, through one workspace.

    Per dimension j, in order, the row sums of the squared residuals of
    column j are added up, and each row sum is that of a C-contiguous
    (rows, m) array, so every row rounds as a single warp's would, in any
    chunk.  The root slope is gathered from the square root of each row's
    segment-slope table.  Beyond the workspace, a chunk holds one
    (rows, m) array at a time: the segment index, then each dimension's
    residuals, formed in the interpolation's output."""
    rows = x.shape[0]
    chunk = max(1, min(rows, budget // (_ROW_ARRAYS * 8 * grid.size)))
    work = np.empty((2, chunk, grid.size))
    for lo in range(0, rows, chunk):
        hi = min(lo + chunk, rows)
        at, root_slope = work[0, :hi - lo], work[1, :hi - lo]
        table, idx = _lookup(x[lo:hi], y[lo:hi], grid, at, root_slope)
        np.take(np.sqrt(table, out=table), idx, out=root_slope, mode="clip")
        del table, idx  # each dimension's residuals take the index's place
        for j in range(values.shape[1]):
            resid = _interp(at, grid, values[:, j])
            resid *= root_slope
            np.subtract(target[:, j], resid, out=resid)
            np.square(resid, out=resid)
            if j == 0:
                np.add.reduce(resid, axis=1, out=sse[lo:hi])
            else:
                sse[lo:hi] += np.add.reduce(resid, axis=1)
            del resid  # before the next dimension's interp allocates


def warp_action(q: Srvf, w: PLWarp) -> Srvf:
    """The warped SRVF ``(q o w) * sqrt(w')`` on q's grid.

    q is evaluated by linear interpolation of its sampled values; the
    warp derivative uses the right-continuous convention.  The L2 norm
    is preserved up to discretization error, so the result is not
    flagged as an exact unit-norm shape.  A closed q is read on the
    interval too, so the warped SRVF's last sample is in general not its
    first; the closed-mode aligners read both curves on the circle
    (``shapeops.apply_seed``), which rebuilds it from the first.
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

    It runs ``_energy``, the annealer's own kernel, so it equals a
    function-mode ``sa_align`` run's ``final_energy`` for the run's warp
    exactly, and ``l2_dist(q1, warp_action(q2, w)) ** 2`` to rounding.
    Closed SRVFs are read on the interval, as ``warp_action`` reads them,
    seam included.  The closed-mode aligners read both curves on the
    circle, so a closed-mode result scores as ``warp_energy(apply_seed(q1,
    0.0), rotate(apply_seed(q2, seed), rotation), warp)``.
    """
    _check_same_grid(q1, q2)
    weights, target = _energy_target(q1.values, q1.grid)
    warped = _warp_values(q1.grid, q2.values, w.x, w.y)
    return _energy(_trace((target @ q1.values).tolist()),
                   *_energy_terms(target, weights, warped))


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
