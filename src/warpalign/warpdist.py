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
from dataclasses import dataclass

import numpy as np
from scipy.special import gammaln
from scipy.stats import beta as beta_dist

from .warpmap import (PLWarp, CircularWarp, _clamp_increments, _increment_values, check_grid,
                      make_circular, sup_dist)

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
        if self.partition_size < 2:
            raise ValueError("partition size must be at least 2")
        if not (math.isfinite(self.concentration) and self.concentration > 0.0):
            raise ValueError("concentration must be positive and finite")


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
        if self.kappa < 0.0:
            raise ValueError("kappa must be nonnegative")

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

    Shapes below one use the boosting identity
    ``G(a) = G(a+1) * U^(1/a)``, which behaves better than direct
    sampling when a is tiny.
    """
    shapes = np.asarray(shapes, dtype=float)
    out = np.empty_like(shapes)
    small = shapes < 1.0
    large = ~small
    if np.any(large):
        out[large] = rng.standard_gamma(shapes[large])
    if np.any(small):
        a = shapes[small]
        out[small] = rng.standard_gamma(a + 1.0) * rng.random(a.shape) ** (1.0 / a)
    return out


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
    return _clamp_increments(_normalized_gammas(params, rng))


def _normalized_gammas(shapes: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    g = np.maximum(gamma_variates(shapes, rng), 1e-300)
    return g / g.sum(axis=-1, keepdims=True)


def sample_fixed(n: int, alpha: float, rng: np.random.Generator) -> PLWarp:
    """Warp from a fixed equispaced partition with a flat Dirichlet.

    Knots sit at k/n and the n increments are Dirichlet(alpha, ..., alpha).
    As n grows this law collapses onto the identity warp.
    """
    if n < 2:
        raise ValueError("need at least two increments")
    if not alpha > 0.0:
        raise ValueError("alpha must be positive")
    t = np.linspace(0.0, 1.0, n + 1)
    p = dirichlet_sample(np.full(n, alpha), rng)
    return PLWarp.from_increments(t, p)


def _random_partitions(size: int, n: int, rng: np.random.Generator) -> np.ndarray:
    """Rows of sorted interior uniforms padded with the endpoints."""
    u = np.sort(rng.random((size, n - 1)), axis=1)
    while True:
        ok = (np.diff(u, axis=1) > 0).all(axis=1) & (u[:, 0] > 0.0) & (u[:, -1] < 1.0)
        if ok.all():
            break
        bad = ~ok
        u[bad] = np.sort(rng.random((int(bad.sum()), n - 1)), axis=1)
    knots = np.empty((size, n + 1))
    knots[:, 0], knots[:, 1:-1], knots[:, -1] = 0.0, u, 1.0
    return knots


def _draw(mean_x: np.ndarray, mean_y: np.ndarray, n: int, theta: float, size: int,
          rng: np.random.Generator, knots=None) -> tuple[np.ndarray, np.ndarray]:
    """The sampler core on raw mean knots; see ``sample_batch``."""
    if knots is None:
        knots = _random_partitions(size, n, rng)
    h = np.interp(knots, mean_x, mean_y)
    a = np.maximum(theta * np.diff(h, axis=1), 1e-12)
    return knots, _increment_values(_normalized_gammas(a, rng))


def sample_batch(prior: WarpPrior, size: int, rng: np.random.Generator,
                 partition=None) -> tuple[np.ndarray, np.ndarray]:
    """Draw many warps at once; returns (knots, values) row matrices.

    Each row is one warp: knot positions from sorted uniforms (or the
    supplied fixed partition), increments Dirichlet with parameters
    ``theta * diff(H(knots))``.
    """
    if size < 1:
        raise ValueError("size must be positive")
    knots = None if partition is None else np.tile(check_grid(partition), (size, 1))
    return _draw(prior.mean_warp.x, prior.mean_warp.y, prior.partition_size,
                 prior.concentration, size, rng, knots)


def sample(prior: WarpPrior, rng: np.random.Generator, partition=None) -> PLWarp:
    """One warp from the prior: row 0 of ``sample_batch(prior, 1, ...)``."""
    knots, values = sample_batch(prior, 1, rng, partition)
    return PLWarp(knots[0], values[0])


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
    return float(gammaln(prior.concentration) - gammaln(a).sum()
                 + np.sum((a - 1.0) * np.log(p)))


def prior_moments(prior: WarpPrior, t):
    """Pointwise mean H(t) and variance H(t)(1-H(t))/(1+theta)."""
    h = prior.mean_warp(t)
    return h, h * (1.0 - h) / (1.0 + prior.concentration)


def degeneracy_report(n_list, alpha: float, partition_cdf: PLWarp, samples: int,
                      rng: np.random.Generator) -> list[tuple[int, float]]:
    """Median sup-distance of fixed-partition samples to their limit map.

    For each n the partition is induced by ``partition_cdf`` at k/n and
    increments are Dirichlet(alpha, ..., alpha); the limit of the
    construction is the inverse of ``partition_cdf`` (the quantile map),
    which is the identity for an equispaced partition.
    """
    if len(n_list) == 0:
        raise ValueError("n_list must be nonempty")
    limit = partition_cdf.inverse()
    rows = []
    for n in n_list:
        t = partition_cdf(np.linspace(0.0, 1.0, int(n) + 1))
        t[0], t[-1] = 0.0, 1.0
        dists = np.empty(samples)
        flat = np.full(int(n), alpha)
        for k in range(samples):
            w = PLWarp.from_increments(t, dirichlet_sample(flat, rng))
            dists[k] = sup_dist(w, limit)
        rows.append((int(n), float(np.median(dists))))
    return rows


def beta_cdf_warp(a: float, b: float, knots: int = 1001) -> PLWarp:
    """Beta(a,b) distribution function sampled as a fine PL warp."""
    t = np.linspace(0.0, 1.0, knots)
    y = beta_dist.cdf(t, a, b)
    y[0], y[-1] = 0.0, 1.0
    return PLWarp.from_increments(t, np.diff(y))
