"""Distributions on warp maps: sampling, densities and moment formulas.

The central object is a Dirichlet-process style law on increasing
self-maps of [0,1], parameterized by a mean warp H and a concentration
theta.  Conditional on a knot partition ``s_0 < ... < s_n``, the warp
increments are Dirichlet distributed with parameters
``theta * (H(s_k) - H(s_{k-1}))``, which gives Beta knot marginals
``gamma(s_k) ~ Beta(theta*H(s_k), theta*(1 - H(s_k)))``, mean H and
variance ``H(1-H)/(1+theta)``.  Fixed equispaced partitions with a
constant Dirichlet parameter are also provided; as the partition
refines, that construction degenerates onto a deterministic limit map,
which ``degeneracy_report`` measures empirically.
"""

from __future__ import annotations

import math
from collections.abc import Iterator
from dataclasses import dataclass

import numpy as np

from .warpmap import (MIN_INCREMENT, PLWarp, CircularWarp, _floor_normalize,
                      _increment_values, _interp, check_count, check_grid,
                      check_nonnegative, check_positive, make_circular, sup_dist)

__all__ = [
    "WarpPrior",
    "SeedDistribution",
    "gamma_variates",
    "dirichlet_sample",
    "sample_fixed",
    "sample",
    "sample_batch",
    "sample_circular",
    "log_density",
    "prior_moments",
    "degeneracy_report",
    "beta_cdf_warp",
]

_TWO_PI = 2.0 * np.pi


@dataclass(frozen=True)
class WarpPrior:
    """Mean warp, partition size and concentration of the warp law."""

    mean_warp: PLWarp
    partition_size: int = 20
    concentration: float = 10.0

    def __post_init__(self):
        check_count("partition_size", self.partition_size, 2)
        check_positive("concentration", self.concentration)


@dataclass(frozen=True)
class SeedDistribution:
    """Distribution of the circle unwrapping seed.

    ``uniform`` draws the seed uniformly on the circle; ``von_mises``
    concentrates around ``center`` with concentration ``kappa`` (kappa=0
    reduces to uniform).
    """

    kind: str = "uniform"
    center: float = 0.0
    kappa: float = 0.0

    def __post_init__(self):
        if self.kind not in ("uniform", "von_mises"):
            raise ValueError("kind must be 'uniform' or 'von_mises'")
        if not 0.0 <= self.center < 1.0:
            raise ValueError("center must lie in [0,1)")
        check_nonnegative("kappa", self.kappa)

    @classmethod
    def uniform(cls) -> "SeedDistribution":
        return cls("uniform")

    @classmethod
    def von_mises(cls, center: float, kappa: float) -> "SeedDistribution":
        return cls("von_mises", center=center, kappa=kappa)

    def sample(self, rng: np.random.Generator) -> float:
        if self.kind == "uniform":
            return 1.0 - rng.random()  # lands in (0, 1]
        c = (self.center + rng.vonmises(0.0, self.kappa) / _TWO_PI) % 1.0
        return c if c > 0.0 else 1.0


def gamma_variates(shapes, rng: np.random.Generator) -> np.ndarray:
    """Gamma(shape, 1) draws, elementwise over an array of shapes.

    Every shape is boosted by the identity ``G(a) = G(a+1) * U^(1/a)``,
    which holds for every a > 0 (Marsaglia & Tsang 2000) and stays
    accurate when a is tiny.  The random stream is fixed: one
    ``standard_gamma`` call over ``shapes + 1`` in array order, then one
    uniform per shape, in array order.
    """
    return _boosted_gammas(np.asarray(shapes, dtype=float), rng)


def _boosted_gammas(shapes: np.ndarray, rng: np.random.Generator, u=None) -> np.ndarray:
    """``gamma_variates`` of a float array, boosted by the uniforms ``u``
    of its shape if given, else by uniforms drawn after the gammas."""
    # a 0-d shape gives a Python float; asarray makes it an array to boost
    g = np.asarray(rng.standard_gamma(shapes + 1.0))
    if u is None:
        u = rng.random(shapes.shape)
    g *= u ** (1.0 / shapes)
    return g


def dirichlet_sample(params, rng: np.random.Generator) -> np.ndarray:
    """Dirichlet draw via normalized Gamma variates.

    Components that underflow are clamped to ``MIN_INCREMENT`` and the
    vector renormalized, so every returned coordinate is strictly
    positive and the vector sums to one.
    """
    params = np.atleast_1d(np.asarray(params, dtype=float))
    if params.ndim != 1 or params.size < 1:
        raise ValueError("params must be a nonempty 1-d sequence")
    if not np.all(np.isfinite(params)) or np.any(params <= 0.0):
        raise ValueError("Dirichlet parameters must be positive")
    return _dirichlet(params, rng)


def _dirichlet(params: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    """``dirichlet_sample`` of float parameters its caller has checked: the
    one draw of every fixed-partition warp's increments."""
    p = _floor_normalize(_boosted_gammas(params, rng), 1e-300)
    return _floor_normalize(p, MIN_INCREMENT)


def sample_fixed(n: int, alpha: float, rng: np.random.Generator) -> PLWarp:
    """Warp from a fixed equispaced partition with a flat Dirichlet.

    Knots sit at k/n and the n increments are Dirichlet(alpha, ..., alpha).
    As n grows this law collapses onto the identity warp.
    """
    check_count("n", n, 2)
    check_positive("alpha", alpha)
    t = np.linspace(0.0, 1.0, n + 1)
    return PLWarp.from_increments(t, _dirichlet(np.full(n, float(alpha)), rng))


# Rows per ``gamma_variates`` call of a batch draw (see ``_draw_blocks``)
# and per uniform fill of ``_random_partitions``, and iterations per block
# of an annealing chain's pre-drawn randomness (see ``align_sa._chain_draws``):
# it bounds their working memory and fixes the streams of the last two.
_DRAW_ROWS = 1024


def _random_partitions(size: int | None, n: int, rng: np.random.Generator) -> np.ndarray:
    """Rows of sorted interior uniforms padded with the endpoints, or one
    such row as a 1-d array for ``size=None``; a row that is not strictly
    increasing (a repeated uniform, or a zero) is redrawn.  The uniforms
    go into the knot rows ``_DRAW_ROWS`` rows at a time, in the C order of
    one (size, n - 1) draw, which is never held."""
    knots = np.empty((1 if size is None else size, n + 1))
    knots[:, 0], knots[:, -1] = 0.0, 1.0
    u = knots[:, 1:-1]
    for lo in range(0, len(knots), _DRAW_ROWS):
        rows = u[lo:lo + _DRAW_ROWS]
        rows[...] = rng.random(rows.shape)
    u.sort(axis=1)
    while np.count_nonzero(knots[:, 1:] <= knots[:, :-1]):
        bad = ~(knots[:, 1:] > knots[:, :-1]).all(axis=1)
        u[bad] = np.sort(rng.random((int(bad.sum()), n - 1)), axis=1)
    return knots if size is not None else knots[0]


def _draw(mean_x: np.ndarray, mean_y: np.ndarray, n: int, theta: float,
          rng: np.random.Generator, knots=None, u=None) -> tuple[np.ndarray, np.ndarray]:
    """Warps on raw mean knots, without the checks of ``sample``: one
    warp as 1-d knot and value arrays, or, given (R, n+1) partition rows
    ``knots``, one warp per row.

    The Dirichlet parameters are ``theta * diff(H(knots))``, floored at
    1e-12.  Drawn from ``rng`` alone, one warp's random stream and values
    are those of row 0 of a one-row batch (see ``_draw_blocks``): the
    partition, the gammas, then the boosting uniforms.  A caller that
    draws ahead passes the partition ``knots`` and the n boosting
    uniforms ``u``; the draw then makes one generator call, the gammas.
    """
    if knots is None:
        knots = _random_partitions(None, n, rng)
    h = _interp(knots, mean_x, mean_y)
    a = h[..., 1:] - h[..., :-1]
    a *= theta
    np.maximum(a, 1e-12, out=a)
    return knots, _increment_values(_floor_normalize(_boosted_gammas(a, rng, u), 1e-300))


def _draw_blocks(prior: WarpPrior, size: int, rng: np.random.Generator,
                 knots=None) -> tuple[np.ndarray, np.ndarray, Iterator[slice]]:
    """Start a draw of ``size`` warps: the one producer of batch draws.

    Draws every partition now, unless ``knots`` gives them, and returns
    ``(knots, values, blocks)``.  Iterating ``blocks`` fills ``values``
    one ``_DRAW_ROWS``-row block at a time through ``_draw``, in row
    order, and yields each block's row slice once its values are final,
    so a caller can use a block while the next one is drawn.  The working
    memory beyond the returned arrays stays bounded by one block.
    """
    x, y = prior.mean_warp.x, prior.mean_warp.y
    n, theta = prior.partition_size, prior.concentration
    if knots is None:
        knots = _random_partitions(size, n, rng)
    values = np.empty(knots.shape)

    def blocks():
        for lo in range(0, size, _DRAW_ROWS):
            rows = slice(lo, min(lo + _DRAW_ROWS, size))
            values[rows] = _draw(x, y, n, theta, rng, knots[rows])[1]
            yield rows

    return knots, values, blocks()


def sample_batch(prior: WarpPrior, size: int, rng: np.random.Generator,
                 partition=None) -> tuple[np.ndarray, np.ndarray]:
    """Draw many warps at once; returns (knots, values) row matrices.

    Each row is one warp: knot positions from sorted uniforms (or the
    supplied fixed partition), increments Dirichlet with parameters
    ``theta * diff(H(knots))``.  The random stream is the partition
    uniforms of every row, then one ``gamma_variates`` call per block of
    ``_DRAW_ROWS`` rows, in row order.
    """
    check_count("size", size, 1)
    knots = None if partition is None else np.tile(check_grid(partition), (size, 1))
    knots, values, blocks = _draw_blocks(prior, size, rng, knots)
    for _ in blocks:
        pass
    return knots, values


def sample(prior: WarpPrior, rng: np.random.Generator, partition=None) -> PLWarp:
    """One warp from the prior: row 0 of ``sample_batch(prior, 1, ...)``."""
    knots = None if partition is None else check_grid(partition)
    return PLWarp(*_draw(prior.mean_warp.x, prior.mean_warp.y, prior.partition_size,
                         prior.concentration, rng, knots))


def sample_circular(prior: WarpPrior, seed_dist: SeedDistribution,
                    rng: np.random.Generator) -> CircularWarp:
    """Circle warp: draw the seed, draw an interval warp, wrap mod 1."""
    c = seed_dist.sample(rng)
    gamma = sample(prior, rng)
    return make_circular(gamma, c)


def log_density(prior: WarpPrior, partition, values) -> float:
    """Log density of warp values at the interior points of a partition.

    This is the Dirichlet density of the increments with parameters
    ``theta * diff(H(partition))`` (standard normalization, exponents
    ``a_i - 1``), expressed in the coordinates ``values``.
    """
    s = check_grid(partition)
    v = np.atleast_1d(np.asarray(values, dtype=float))
    if v.size != s.size - 2:
        raise ValueError("values must match the interior of the partition")
    x = np.concatenate(([0.0], v, [1.0]))
    if np.any(np.diff(x) <= 0.0):
        raise ValueError("values must be strictly increasing inside (0,1)")
    a = prior.concentration * np.diff(prior.mean_warp(s))
    if np.any(a <= 0.0):
        raise ValueError("partition too fine for the mean warp resolution")
    p = np.diff(x)
    return float(math.lgamma(prior.concentration) - sum(map(math.lgamma, a.tolist()))
                 + np.sum((a - 1.0) * np.log(p)))


def prior_moments(prior: WarpPrior, t):
    """Pointwise mean H(t) and variance H(t)(1-H(t))/(1+theta)."""
    h = prior.mean_warp(t)
    return h, h * (1.0 - h) / (1.0 + prior.concentration)


def check_sizes(n_list) -> list[int]:
    """The partition sizes of ``degeneracy_report``: a nonempty list of
    counts of at least 1, returned as ints."""
    if len(n_list) == 0:
        raise ValueError("n_list must be nonempty")
    return [check_count("n", n, 1) for n in n_list]


def degeneracy_report(n_list, alpha: float, partition_cdf: PLWarp, samples: int,
                      rng: np.random.Generator) -> list[tuple[int, float]]:
    """Median sup-distance of fixed-partition samples to their limit map.

    For each n the partition is induced by ``partition_cdf`` at k/n and
    increments are Dirichlet(alpha, ..., alpha); the limit of the
    construction is the inverse of ``partition_cdf`` (the quantile map),
    which is the identity for an equispaced partition.
    """
    n_list = check_sizes(n_list)
    check_positive("alpha", alpha)
    check_count("samples", samples, 1)
    limit = partition_cdf.inverse()
    rows = []
    for n in n_list:
        t = partition_cdf(np.linspace(0.0, 1.0, n + 1))
        t[0], t[-1] = 0.0, 1.0
        dists = np.empty(samples)
        flat = np.full(n, float(alpha))
        for k in range(samples):
            dists[k] = sup_dist(PLWarp.from_increments(t, _dirichlet(flat, rng)), limit)
        rows.append((n, float(np.median(dists))))
    return rows


def _betainc(a: float, b: float, x: np.ndarray) -> np.ndarray:
    """Regularised incomplete beta function I_x(a, b) for x in (0, 1).

    The continued fraction is evaluated by the modified Lentz method
    (Numerical Recipes §6.4) where it converges fast, x below
    (a+1)/(a+b+2), and through I_x(a, b) = 1 - I_{1-x}(b, a) above.  A
    point leaves the loop once its last step changed the fraction by at
    most two ulps, and the loop ends when every point has left it.
    """
    flip = x > (a + 1.0) / (a + b + 2.0)
    p, q, z = np.where(flip, b, a), np.where(flip, a, b), np.where(flip, 1.0 - x, x)
    d, c, g, at, k = np.zeros_like(z), np.ones_like(z), np.ones_like(z), np.arange(z.size), 0
    while at.size:
        k += 1
        m = k // 2
        num = z * (m * (q - m) / ((p + 2 * m - 1.0) * (p + 2 * m)) if k % 2 == 0 else
                   -(p + m) * (p + q + m) / ((p + 2 * m) * (p + 2 * m + 1.0)))
        d, c = 1.0 + num * d, 1.0 + num / c
        d[np.abs(d) < 1e-300], c[np.abs(c) < 1e-300] = 1e-300, 1e-300
        step = c / d
        g[at] *= step
        live = np.abs(step - 1.0) > 2.0 * np.finfo(float).eps
        p, q, z, d, c, at = p[live], q[live], z[live], 1.0 / d[live], c[live], at[live]
    i = np.exp(_log_prefactor(a, b, x)) / g
    return np.where(flip, 1.0 - i / b, i / a)


def _lgammacor(x: float) -> float:
    """The Stirling remainder lgamma(x) - (x - 1/2) log x + x - log sqrt(2 pi)
    for x >= 10 (the role of R's ``lgammacor``), by its asymptotic series
    in 1/x to the 1/x^13 term: the first term left out is below 3e-17."""
    z = 1.0 / (x * x)
    return (1 / 12 - z * (1 / 360 - z * (1 / 1260 - z * (1 / 1680 - z * (
        1 / 1188 - z * (691 / 360360 - z / 156)))))) / x


def _log_prefactor(a: float, b: float, x: np.ndarray) -> np.ndarray:
    """log(x^a (1 - x)^b / B(a, b)) for x in (0, 1).  Once a shape is 10
    or more, log B comes from Stirling's series as in R's ``lbeta``, so
    its terms of size a log a cancel by hand; with both shapes at least 10
    so does the exponent, as in TOMS 708's ``brcomp``: its value at the
    mode x0 = a/(a+b), plus a log1p(-lam/a) + b log1p(lam/b) for
    lam = a (1-x) - b x, whose linear terms cancel."""
    p, q = min(a, b), max(a, b)
    if p >= 10.0:
        at_mode = (0.5 * (math.log(p) + math.log1p(-p / (p + q)) - math.log(_TWO_PI))
                   - _lgammacor(p) - _lgammacor(q) + _lgammacor(p + q))
        lam = a * (1.0 - x) - b * x
        u, v = -lam / a, lam / b
        return at_mode - a * (u - np.log1p(u)) - b * (v - np.log1p(v))
    if q >= 10.0:
        lbeta = (math.lgamma(p) + _lgammacor(q) - _lgammacor(p + q) + p - p * math.log(p + q)
                 + (q - 0.5) * math.log1p(-p / (p + q)))
    else:
        lbeta = math.lgamma(a) + math.lgamma(b) - math.lgamma(a + b)
    return a * np.log(x) + b * np.log1p(-x) - lbeta


def beta_cdf_warp(a: float, b: float, knots: int = 1001) -> PLWarp:
    """Beta(a,b) distribution function sampled as a fine PL warp.

    The incomplete beta function's continued fraction limits the accuracy:
    within 1e-11 of the exact CDF at shapes up to 1e4, and up to about
    3e-11 at shapes near 1e6, next to the fraction's split at
    (a+1)/(a+b+2).  A shape of about 1.3e154 or more overflows the
    fraction and is rejected."""
    check_positive("Beta parameters a and b", a, b)
    check_count("knots", knots, 2)
    t = np.linspace(0.0, 1.0, knots)
    # the continued fraction's terms multiply two shapes, so a shape of
    # about 1.3e154 or more overflows them
    with np.errstate(over="raise"):
        try:
            inner = _betainc(a, b, t[1:-1])
        except FloatingPointError:
            raise ValueError("Beta parameters a and b overflow the incomplete beta "
                             "function's continued fraction (a shape of about 1.3e154 "
                             "or more)") from None
    y = np.concatenate(([0.0], inner, [1.0]))
    return PLWarp.from_increments(t, np.diff(y))
