"""Bayesian alignment by sampling importance resampling (SIR).

Prior draws come from the warp-map distribution; each draw is weighted
by a Gaussian likelihood of the SRVF residuals whose precision has been
integrated out under a conjugate Gamma prior, then resampled in
proportion to the weights.  The posterior sample yields a mean warp and
pointwise credible bands.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .srvf import Srvf, _check_same_grid, _warp_values
from .warpdist import WarpPrior, sample_batch
from .warpmap import PLWarp, batch_eval, check_grid, identity

__all__ = [
    "BayesConfig",
    "PosteriorSample",
    "LikelihoodCollapseError",
    "marginal_loglik",
    "sir_posterior",
    "posterior_summary",
]


class LikelihoodCollapseError(RuntimeError):
    """Raised when every importance weight underflows to zero."""


def _default_prior() -> WarpPrior:
    return WarpPrior(identity(), partition_size=20, concentration=10.0)


@dataclass(frozen=True)
class BayesConfig:
    """Prior, Gamma hyperparameters and SIR sample sizes."""

    prior: WarpPrior = field(default_factory=_default_prior)
    a0: float = 0.01
    b0: float = 0.01
    prior_draws: int = 20000
    resample_size: int = 2000

    def __post_init__(self):
        if not all(math.isfinite(v) and v > 0.0 for v in (self.a0, self.b0)):
            raise ValueError("Gamma hyperparameters must be positive and finite")
        if not self.prior_draws >= self.resample_size >= 1:
            raise ValueError("need prior_draws >= resample_size >= 1")


@dataclass(frozen=True)
class PosteriorSample:
    """Resampled warps plus the full normalized weight vector."""

    warps: list[PLWarp]
    weights: np.ndarray
    ess: float


def marginal_loglik(q1: Srvf, q2: Srvf, warp: PLWarp, a0: float = 0.01,
                    b0: float = 0.01) -> float:
    """Precision-marginalized Gaussian log likelihood, up to a constant.

    With residual sum of squares SSE over the grid samples, the value is
    ``-(a0 + n/2) * log(b0 + SSE/2)`` where n counts residual components;
    terms that do not depend on the warp are dropped since only weight
    ratios matter for SIR.
    """
    _check_same_grid(q1, q2)
    warped = _warp_values(q1.grid, q2.values, warp.x, warp.y)
    sse = float(np.sum((q1.values - warped) ** 2))
    n_resid = q1.values.size
    return -(a0 + 0.5 * n_resid) * math.log(b0 + 0.5 * sse)


def sir_posterior(q1: Srvf, q2: Srvf, cfg: BayesConfig = BayesConfig(),
                  rng: np.random.Generator | None = None) -> PosteriorSample:
    """Draw from the warp posterior by importance resampling.

    The importance function is the prior itself: draw ``prior_draws``
    warps, weight by the marginal likelihood (stabilized by a max shift),
    and resample ``resample_size`` warps with replacement.
    """
    if rng is None:
        rng = np.random.default_rng()
    _check_same_grid(q1, q2)
    grid = q1.grid
    n_draws = cfg.prior_draws

    knots, values = sample_batch(cfg.prior, n_draws, rng)
    evals, slopes = batch_eval(knots, values, grid, with_slope=True)
    sse = np.zeros(n_draws)
    with np.errstate(over="ignore"):
        for j in range(q2.dim):
            warped = np.interp(evals, grid, q2.values[:, j]) * np.sqrt(slopes)
            sse += np.sum((q1.values[:, j][None, :] - warped) ** 2, axis=1)
        loglik = -(cfg.a0 + 0.5 * q1.values.size) * np.log(cfg.b0 + 0.5 * sse)

    finite = np.isfinite(loglik)
    if not finite.any():
        raise LikelihoodCollapseError("all importance weights vanished")
    shifted = np.where(finite, loglik - loglik[finite].max(), -np.inf)
    weights = np.exp(shifted)
    weights /= weights.sum()
    ess = 1.0 / float(np.sum(weights ** 2))

    picks = rng.choice(n_draws, size=cfg.resample_size, replace=True, p=weights)
    warps = [PLWarp(knots[i], values[i]) for i in picks]
    return PosteriorSample(warps=warps, weights=weights, ess=ess)


def posterior_summary(post: PosteriorSample, grid) -> tuple[PLWarp, np.ndarray, np.ndarray]:
    """Cross-sectional mean warp and pointwise 95% credible band.

    The mean of monotone warps is monotone in exact arithmetic; any float
    leftovers are repaired by a cumulative max before rebuilding the warp.
    """
    if not post.warps:
        raise ValueError("posterior sample is empty")
    g = check_grid(grid)
    vals = np.stack([w(g) for w in post.warps])
    mean = np.maximum.accumulate(vals.mean(axis=0))
    mean[0], mean[-1] = 0.0, 1.0
    mean_warp = PLWarp.from_increments(g, np.diff(mean))
    lower = np.percentile(vals, 2.5, axis=0)
    upper = np.percentile(vals, 97.5, axis=0)
    return mean_warp, lower, upper
