from pathlib import Path

import numpy as np
from hypothesis import settings
from hypothesis import strategies as st

from warpalign import (Curve, PLWarp, PosteriorSample, apply_seed, log_density, marginal_loglik,
                       normalize_length, sample_batch, to_srvf, uniform_grid, unit_normalize,
                       warp_action)
from warpalign.align_dp import _REFINE, _STEPS, _fine_values, _lattice, _step_costs
from warpalign.fixtures import bean_curve, closed_shape_pair
from warpalign.io import _fmt
from warpalign.shapeops import _two_periods
from warpalign.warpmap import MIN_INCREMENT, _dedupe_knots, batch_eval

__all__ = ["pl_warps", "knot_rows", "smooth_curves", "fourier_values",
           "reference_partitions", "reference_draw", "reference_sir_posterior",
           "quadrature_posterior", "enumerate_path_costs", "reference_dp_align_closed",
           "reference_procrustes", "convex_blend", "write_srvf", "bean_curve_3d", "seam_pair"]

# deterministic exploration: the suite doubles as an acceptance gate
settings.register_profile("ci", derandomize=True)
settings.load_profile("ci")


@st.composite
def pl_warps(draw, max_segments=6, min_increment=0.05):
    """Random PL warps with bounded slopes (increment-based construction).

    Raise ``min_increment`` to restrict to gentler warps where a test's
    tolerance is discretization-limited.
    """
    k = draw(st.integers(min_value=2, max_value=max_segments))
    dx = draw(st.lists(st.floats(min_increment, 1.0), min_size=k, max_size=k))
    dy = draw(st.lists(st.floats(min_increment, 1.0), min_size=k, max_size=k))
    x = np.concatenate(([0.0], np.cumsum(dx)))
    y = np.concatenate(([0.0], np.cumsum(dy)))
    x /= x[-1]
    y /= y[-1]
    x[-1] = y[-1] = 1.0
    return PLWarp(x, y)


@st.composite
def knot_rows(draw, points, max_rows=4, max_interior=5):
    """(R, K) knot arrays of valid warps that share a knot count K.

    Interior knots are drawn from the interior of ``points``, so some sit
    exactly on them, and from off-point positions kept clear of the ends,
    where a subnormal spacing would overflow the slope.
    """
    rows = draw(st.integers(1, max_rows))
    inner = draw(st.integers(0, max_interior))
    interior = st.floats(1e-6, 1.0 - 1e-6)
    if points.size > 2:
        interior = st.one_of(st.sampled_from(points[1:-1].tolist()), interior)
    xs, ys = [], []
    for _ in range(rows):
        x = draw(st.lists(interior, min_size=inner, max_size=inner, unique=True))
        dy = draw(st.lists(st.floats(0.05, 1.0), min_size=inner + 1, max_size=inner + 1))
        y = np.concatenate(([0.0], np.cumsum(dy)))
        y /= y[-1]
        y[-1] = 1.0
        xs.append(np.concatenate(([0.0], np.sort(x), [1.0])))
        ys.append(y)
    return np.array(xs), np.array(ys)


def fourier_values(t: np.ndarray, coeffs) -> np.ndarray:
    """Smooth 1-d signal from a few Fourier coefficients."""
    out = np.zeros_like(t)
    for k, (a, b) in enumerate(coeffs, start=1):
        out += a * np.sin(2 * np.pi * k * t) + b * np.cos(2 * np.pi * k * t)
    return out


@st.composite
def smooth_curves(draw, m=80, dim=1, amplitude=1.0, max_harmonics=3):
    coeff = st.tuples(st.floats(-amplitude, amplitude),
                      st.floats(-amplitude, amplitude))
    t = uniform_grid(m)
    cols = []
    for _ in range(dim):
        coeffs = draw(st.lists(coeff, min_size=1, max_size=max_harmonics))
        cols.append(fourier_values(t, coeffs) + t)
    return Curve(t, np.column_stack(cols))


def reference_partitions(size, n, rng):
    """``size`` rows of n - 1 sorted uniforms padded with 0 and 1, drawn as
    one (size, n - 1) block; rows that are not strictly increasing are
    redrawn together, in row order, until none is left."""
    knots = np.empty((size, n + 1))
    knots[:, 0], knots[:, -1] = 0.0, 1.0
    u = knots[:, 1:-1]
    u[...] = rng.random((size, n - 1))
    u.sort(axis=1)
    while not (knots[:, 1:] > knots[:, :-1]).all():
        bad = ~(knots[:, 1:] > knots[:, :-1]).all(axis=1)
        u[bad] = np.sort(rng.random((int(bad.sum()), n - 1)), axis=1)
    return knots


def reference_draw(prior, size, rng, partition=None):
    """``sample_batch`` in plain numpy: ``reference_partitions`` for every
    row, then for each 1024-row block in row order one ``standard_gamma``
    call over ``a + 1`` in array order, then one boosting uniform per
    shape, each gamma times U^(1/a), then the 1e-300 floor, the
    ``MIN_INCREMENT`` clamp and the cumulative sum.

    Returns (knots, values)."""
    n = prior.partition_size
    if partition is None:
        knots = reference_partitions(size, n, rng)
    else:
        knots = np.tile(np.asarray(partition, dtype=float), (size, 1))
    values = np.zeros_like(knots)
    for lo in range(0, size, 1024):
        h = np.interp(knots[lo:lo + 1024], prior.mean_warp.x, prior.mean_warp.y)
        a = np.maximum(prior.concentration * (h[:, 1:] - h[:, :-1]), 1e-12)
        p = rng.standard_gamma(a + 1.0)
        p = p * rng.random(a.shape) ** (1.0 / a)
        p = np.maximum(p, 1e-300)
        p /= p.sum(axis=1, keepdims=True)
        p = np.maximum(p, MIN_INCREMENT)
        p /= p.sum(axis=1, keepdims=True)
        values[lo:lo + 1024, 1:] = np.cumsum(p, axis=1)
    values[:, -1] = 1.0
    return knots, values


def reference_sir_posterior(q1, q2, cfg, rng):
    """SIR as first written, independent of the package's warp-action
    kernels: a broadcast compare-sum segment lookup over all draws at once,
    then one ``np.interp`` pass per dimension, and one ``PLWarp`` per
    resampled draw.  Assumes every log likelihood is finite."""
    grid = q1.grid
    knots, values = sample_batch(cfg.prior, cfg.prior_draws, rng)
    idx = (knots[:, :, None] <= grid).sum(axis=1) - 1
    np.clip(idx, 0, knots.shape[1] - 2, out=idx)
    x0, x1 = np.take_along_axis(knots, idx, 1), np.take_along_axis(knots, idx + 1, 1)
    y0, y1 = np.take_along_axis(values, idx, 1), np.take_along_axis(values, idx + 1, 1)
    slope = (y1 - y0) / (x1 - x0)
    evals = y0 + slope * (grid - x0)
    sse = np.zeros(cfg.prior_draws)
    for j in range(q2.dim):
        warped = np.interp(evals, grid, q2.values[:, j]) * np.sqrt(slope)
        sse += np.sum((q1.values[:, j] - warped) ** 2, axis=1)
    loglik = -(cfg.a0 + 0.5 * q1.values.size) * np.log(cfg.b0 + 0.5 * sse)
    weights = np.exp(loglik - loglik.max())
    weights /= weights.sum()
    picks = rng.choice(cfg.prior_draws, size=cfg.resample_size, replace=True, p=weights)
    return PosteriorSample([PLWarp(knots[i], values[i]) for i in picks], weights,
                           1.0 / float(np.sum(weights ** 2)))


def quadrature_posterior(q1, q2, cfg, t, nodes):
    """Posterior mean, standard deviation and 2.5% and 97.5% quantiles of
    the warp at the points ``t`` at partition size 2, the posterior CDF of
    the knot position s at the grid nodes, and the posterior CDF of the
    warp at ``t`` as a function, by a Gauss-Legendre product rule.

    A warp of ``cfg.prior`` is then one interior knot (s, v): s ~ U(0, 1),
    and v | s has the Dirichlet density of ``log_density``; the likelihood
    is ``marginal_loglik``.  Where s crosses a grid node, that node moves
    to the other segment and takes its slope, so the likelihood jumps: the
    s-integral is split at the grid nodes, with ``nodes`` points in each
    interval.  The v-integral takes ``10 * nodes`` equal panels of 4
    points.  Reading q2 between its grid values leaves kinks in both
    variables, so the rule converges at about second order in ``1/nodes``,
    and a caller compares two values of ``nodes``.  The CDF of s at a grid
    node sums the weights of every s-interval below it, over all v.  The
    warp's CDF at x sums the weights of the nodes whose warp at t is at
    most x, and its p-quantile is the least node value where that sum
    reaches p.

    Returns (mean, sd, quantiles (2, len(t)), s CDF, warp CDF)."""
    assert cfg.prior.partition_size == 2
    gx, gw = np.polynomial.legendre.leggauss(nodes)
    lo, hi = q1.grid[:-1, None], q1.grid[1:, None]
    s, ws = ((lo + hi + (hi - lo) * gx) / 2).ravel(), ((hi - lo) * gw / 2).ravel()
    vx, vw = np.polynomial.legendre.leggauss(4)
    edges = np.linspace(0.0, 1.0, 10 * nodes + 1)
    lo, hi = edges[:-1, None], edges[1:, None]
    v, wv = ((lo + hi + (hi - lo) * vx) / 2).ravel(), ((hi - lo) * vw / 2).ravel()
    log_post = np.array([[marginal_loglik(q1, q2, PLWarp([0.0, si, 1.0], [0.0, vj, 1.0]),
                                          cfg.a0, cfg.b0)
                          + log_density(cfg.prior, [0.0, si, 1.0], [vj]) for vj in v]
                         for si in s])
    weights = np.exp(log_post - log_post.max()) * np.outer(ws, wv)
    weights /= weights.sum()
    n = s.size * v.size
    knots = np.column_stack([np.zeros(n), np.repeat(s, v.size), np.ones(n)])
    values = np.column_stack([np.zeros(n), np.tile(v, s.size), np.ones(n)])
    at_t = batch_eval(knots, values, t)
    flat = weights.ravel()
    mean = flat @ at_t
    order = np.argsort(at_t, axis=0)
    reached = np.cumsum(flat[order], axis=0)
    quantiles = np.take_along_axis(at_t, order, 0)[
        [(reached >= p).argmax(axis=0) for p in (0.025, 0.975)], np.arange(t.size)]
    per_interval = weights.sum(axis=1).reshape(-1, nodes).sum(axis=1)
    s_cdf = np.concatenate(([0.0], np.cumsum(per_interval)))
    return (mean, np.sqrt(flat @ (at_t - mean) ** 2), quantiles, s_cdf,
            lambda x: flat @ (at_t <= x))


def enumerate_path_costs(q1, q2) -> float:
    """Brute-force oracle: minimum DP energy over all monotone lattice
    paths, for SRVFs on one uniform grid, the lattice.

    Paths are enumerated independently of the DP recursion; segment costs
    are the package's ``_step_costs`` tables and the summation order is
    the DP's, so the minima are comparable exactly.  A step is taken only
    when it stays on the lattice, so every index is inside its table.
    """
    m = q1.grid.size
    q2f = _fine_values(q2.grid, q2.values, _REFINE)
    cost = {(a, b): _step_costs(q1.values, q2f, _REFINE, (a, b)) for a, b in _STEPS}
    best = [np.inf]

    def walk(i, j, acc):
        if (i, j) == (m - 1, m - 1):
            best[0] = min(best[0], acc)
            return
        for a, b in _STEPS:
            if i + a <= m - 1 and j + b <= m - 1:
                walk(i + a, j + b, acc + cost[(a, b)][i, j])

    walk(0, 0, 0.0)
    return best[0]


def reference_dp_align_closed(q1, q2, cfg):
    """The closed-curve seed search one seed at a time, in plain numpy: the
    strict-``<`` row recurrence with a full distance and step-choice table
    per seed (ties go to the earlier step), the first seed of least
    energy, and a backtrack of its path.  Step costs are the package's
    ``_step_costs`` tables against two periods of q2's fine values, both
    curves read at seed 0, and seed k reads columns [k, k + m - b) of step
    (a, b)'s table, so energies compare bit for bit.

    Returns (seed, knot x, knot y, energy).
    """
    m = q1.grid.size
    n = m - 1
    seeds = range(0, n, cfg.seed_stride)
    best_pos, best_energy, best_choice = None, np.inf, None
    grid, q1v, q2v = _lattice(apply_seed(q1, 0.0), apply_seed(q2, 0.0), cfg.grid_size)
    fine = _two_periods(_fine_values(grid, q2v, _REFINE))
    tables = [_step_costs(q1v, fine, _REFINE, step) for step in _STEPS]
    for pos, k in enumerate(seeds):
        dist = np.full((m, m), np.inf)
        dist[0, 0] = 0.0
        choice = np.full((m, m), -1)
        for i in range(1, m):
            for si, (a, b) in enumerate(_STEPS):
                if i < a:
                    continue
                cand = dist[i - a, :m - b] + tables[si][i - a, k:k + m - b]
                better = cand < dist[i, b:]
                dist[i, b:][better] = cand[better]
                choice[i, b:][better] = si
        if best_pos is None or dist[m - 1, m - 1] < best_energy:
            best_pos, best_energy, best_choice = pos, dist[m - 1, m - 1], choice
    nodes = [(m - 1, m - 1)]
    while nodes[-1] != (0, 0):
        i, j = nodes[-1]
        a, b = _STEPS[best_choice[i, j]]
        nodes.append((i - a, j - b))
    xs = np.array([q1.grid[i] for i, _ in reversed(nodes)])
    ys = np.array([q1.grid[j] for _, j in reversed(nodes)])
    return seeds[best_pos] / n, xs, ys, float(best_energy)


def reference_procrustes(v1, v2, weights):
    """The Procrustes rotation of (m, d) values v2 onto v1 under trapezoid
    weights as first written, for every d: U V^T from the SVD of the
    weighted cross-covariance, with the last column of U flipped when
    ``np.linalg.det`` of U V^T is negative."""
    if v1.shape[1] == 1:
        return np.eye(1)
    a = (v1 * weights[:, None]).T @ v2
    u, _, vt = np.linalg.svd(a)
    if np.linalg.det(u @ vt) < 0.0:
        u[:, -1] *= -1.0
    return u @ vt


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


def write_srvf(q, path) -> Path:
    """Export SRVF values as a plot-ready CSV (t,q1[,q2,q3])."""
    path = Path(path)
    lines = ["t," + ",".join(f"q{j + 1}" for j in range(q.dim))]
    for t, row in zip(q.grid, q.values):
        lines.append(",".join([_fmt(t)] + [_fmt(v) for v in row]))
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return path


def bean_curve_3d(m: int = 41) -> Curve:
    """``bean_curve`` lifted into R^3 by a z column of 0.2 sin 2 pi t."""
    bean = bean_curve(m)
    z = 0.2 * np.sin(2.0 * np.pi * bean.grid)
    z[-1] = z[0]
    return Curve(bean.grid, np.column_stack((bean.points, z)), "closed")


def seam_pair(m: int = 101) -> tuple:
    """The bundled closed blobs at m points as unit-norm SRVFs, warped by
    ``PLWarp([0, 0.3, 1], [0, 0.5, 1])`` and unit-normalised again: the
    warp action reads each on the interval, so neither SRVF's last sample
    is its first."""
    warp = PLWarp([0.0, 0.3, 1.0], [0.0, 0.5, 1.0])
    return tuple(unit_normalize(warp_action(unit_normalize(to_srvf(normalize_length(c))), warp))
                 for c in closed_shape_pair(m))
