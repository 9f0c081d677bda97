"""Bayesian alignment by sampling importance resampling (SIR).

Prior draws come from the warp-map distribution; each draw is weighted
by a Gaussian likelihood of the SRVF residuals whose precision has been
integrated out under a conjugate Gamma prior, then resampled in
proportion to the weights.  The posterior sample yields a mean warp and
pointwise credible bands.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field

import numpy as np

from .srvf import Srvf, _check_same_grid, _warp_sse_batch
from .warpdist import WarpPrior, _draw_blocks
from .warpmap import PLWarp, check_count, check_grid, check_positive, identity

__all__ = [
    "BayesConfig",
    "PosteriorSample",
    "LikelihoodCollapseError",
    "marginal_loglik",
    "sir_posterior",
    "posterior_summary",
]


# memory budget for the weighting threads' working arrays: per draw in a
# block, a thread holds at most three grids of 8-byte values, its workspace
# (the warped points and a gather buffer) and either the segment index or
# one dimension's residuals; no thread's block is below the floor
_BLOCK_BYTES = 3 << 19
_MIN_BLOCK_BYTES = _BLOCK_BYTES // 4
_ROW_ARRAYS = 3


class LikelihoodCollapseError(RuntimeError):
    """Raised when every importance weight underflows to zero."""


def _cpu_count() -> int:
    """CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


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
        check_positive("Gamma hyperparameters a0 and b0", self.a0, self.b0)
        check_count("resample_size", self.resample_size, 1)
        check_count("prior_draws", self.prior_draws, self.resample_size)


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
    ratios matter for SIR.  The SSE kernel and the formula are
    ``sir_posterior``'s, so its weights are these values' to the last bit.
    ``a0`` and ``b0`` must be positive and finite, as in ``BayesConfig``.
    """
    check_positive("Gamma hyperparameters a0 and b0", a0, b0)
    _check_same_grid(q1, q2)
    grid, sse = q1.grid, np.empty(1)
    _warp_sse_batch(grid, q2.values, q1.values, warp.x[None], warp.y[None], sse,
                    np.empty((2, 1, grid.size)))
    return float(_loglik(sse, q1.values.size, a0, b0)[0])


def _loglik(sse: np.ndarray, n_resid: int, a0: float, b0: float) -> np.ndarray:
    """``-(a0 + n/2) * log(b0 + SSE/2)`` per residual sum of squares in
    ``sse``, over ``n_resid`` residual components: the one formula behind
    ``marginal_loglik`` and the SIR weights."""
    return -(a0 + 0.5 * n_resid) * np.log(b0 + 0.5 * sse)


def sir_posterior(q1: Srvf, q2: Srvf, cfg: BayesConfig = BayesConfig(),
                  rng: np.random.Generator | None = None) -> PosteriorSample:
    """Draw from the warp posterior by importance resampling.

    The importance function is the prior itself: draw ``prior_draws``
    warps, weight by the marginal likelihood (stabilized by a max shift),
    and resample ``resample_size`` warps with replacement.  The prior is
    drawn in blocks of ``_DRAW_ROWS`` rows, and W threads weigh the
    draws: W is the smallest of the CPUs this process may use, the number
    of full-budget weighing blocks and ``_BLOCK_BYTES // _MIN_BLOCK_BYTES``.
    With W > 1, W - 1 pool threads weigh each finished draw block from a
    queue while the calling thread draws the next; once the draw is done
    the calling thread joins them until the queue is empty.  With W = 1
    the draw comes first, then the weighing.  A thread weighs a block in
    sub-blocks that share ``_BLOCK_BYTES`` of working arrays with the
    other threads, ``_ROW_ARRAYS`` 8-byte grids per draw, so a sub-block
    is 327 draws at m = 100 and W = 2; it allocates its workspace once
    per call.  Each row's weight is computed alone, so the result does
    not depend on W.  A draw resampled more than once appears as one
    shared ``PLWarp``.
    """
    if rng is None:
        rng = np.random.default_rng()
    _check_same_grid(q1, q2)
    grid = q1.grid
    n_draws = cfg.prior_draws

    knots, values, blocks = _draw_blocks(cfg.prior, n_draws, rng)
    q1v, q2v = q1.values, q2.values
    row_bytes = _ROW_ARRAYS * 8 * grid.size
    n_blocks = -(-n_draws // max(1, _BLOCK_BYTES // row_bytes))
    workers = max(1, min(_cpu_count(), n_blocks, _BLOCK_BYTES // _MIN_BLOCK_BYTES))
    block = max(1, min(n_draws, _BLOCK_BYTES // workers // row_bytes))
    sse = np.empty(n_draws)

    def weigh(ranges):
        work = np.empty((2, block, grid.size))
        # numpy's error state is per thread
        with np.errstate(over="ignore"):
            for rows in ranges:
                for lo in range(rows.start, rows.stop, block):
                    hi = min(lo + block, rows.stop)
                    _warp_sse_batch(grid, q2v, q1v, knots[lo:hi], values[lo:hi],
                                    sse[lo:hi], work)

    if workers == 1:
        for _ in blocks:
            pass
        weigh([slice(0, n_draws)])
    else:
        # imported on first use: concurrent.futures loads logging, which every
        # import of the package would otherwise pay for
        from concurrent.futures import ThreadPoolExecutor
        from queue import SimpleQueue
        finished = SimpleQueue()
        with ThreadPoolExecutor(workers - 1) as pool:
            futures = [pool.submit(weigh, iter(finished.get, None))
                       for _ in range(workers - 1)]
            try:
                for rows in blocks:
                    finished.put(rows)
            finally:
                # one stop marker per thread, also if the draw fails: a pool
                # thread left waiting would hang the pool's shutdown
                for _ in range(workers):
                    finished.put(None)
            weigh(iter(finished.get, None))
            for future in futures:
                future.result()
    loglik = _loglik(sse, q1v.size, cfg.a0, cfg.b0)

    finite = np.isfinite(loglik)
    if not finite.any():
        raise LikelihoodCollapseError("all importance weights vanished")
    loglik -= np.max(loglik, where=finite, initial=-np.inf)
    loglik[~finite] = -np.inf
    weights = np.exp(loglik, out=loglik)
    weights /= weights.sum()
    ess = 1.0 / float(np.sum(weights ** 2))

    picks = rng.choice(n_draws, size=cfg.resample_size, replace=True, p=weights)
    distinct, which = np.unique(picks, return_inverse=True)
    built = [PLWarp(knots[i], values[i]) for i in distinct]
    return PosteriorSample(warps=[built[i] for i in which], weights=weights, ess=ess)


def posterior_summary(post: PosteriorSample, grid) -> tuple[PLWarp, np.ndarray, np.ndarray]:
    """Cross-sectional mean warp and pointwise 95% credible band.

    The mean of monotone warps is monotone in exact arithmetic; any float
    leftovers are repaired by a cumulative max before rebuilding the warp.
    """
    if not post.warps:
        raise ValueError("posterior sample is empty")
    g = check_grid(grid)
    evaluated: dict[int, np.ndarray] = {}
    for w in post.warps:
        if id(w) not in evaluated:
            evaluated[id(w)] = w(g)
    vals = np.stack([evaluated[id(w)] for w in post.warps])
    mean = np.maximum.accumulate(vals.mean(axis=0))
    mean[0], mean[-1] = 0.0, 1.0
    mean_warp = PLWarp.from_increments(g, np.diff(mean))
    lower, upper = np.percentile(vals, [2.5, 97.5], axis=0)
    return mean_warp, lower, upper
