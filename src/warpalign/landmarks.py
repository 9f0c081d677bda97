"""Landmark-constrained alignment by decomposition.

Matched landmark pairs are pinned exactly with a PL pre-warp; the
remaining freedom is aligned independently on each inter-landmark
segment with the concentration and partition size rescaled by segment
length (the restriction of the warp law to a subinterval is the same
family with concentration scaled by the interval's mean-warp mass).
Segment warps are glued and composed with the pre-warp, so the final
warp interpolates every landmark pair exactly.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .align_bayes import BayesConfig, PosteriorSample, posterior_summary, sir_posterior
from .align_sa import AlignmentResult, SaConfig, sa_align
from .srvf import Curve, resample, to_srvf, warp_curve
from .warpdist import WarpPrior
from .warpmap import PLWarp, compose, identity

__all__ = [
    "LandmarkSet",
    "SegmentAlignment",
    "ConstrainedResult",
    "landmark_prewarp",
    "constrained_align",
]


@dataclass(frozen=True)
class LandmarkSet:
    """Matched domain positions (a_i on curve 1, b_i on curve 2)."""

    pairs: np.ndarray

    def __post_init__(self):
        pairs = np.asarray(self.pairs, dtype=float)
        if pairs.size == 0:
            pairs = pairs.reshape(0, 2)
        if pairs.ndim != 2 or pairs.shape[1] != 2:
            raise ValueError("landmarks must be an (n, 2) array of pairs a,b")
        # written so that NaN, for which every comparison is False, fails
        if not np.all((pairs > 0.0) & (pairs < 1.0)):
            raise ValueError("landmark positions must lie strictly inside (0,1)")
        if not np.all(np.diff(pairs, axis=0) > 0.0):
            raise ValueError("landmark positions must be strictly increasing")
        pairs.setflags(write=False)
        object.__setattr__(self, "pairs", pairs)

    @property
    def a(self) -> np.ndarray:
        return self.pairs[:, 0]

    @property
    def b(self) -> np.ndarray:
        return self.pairs[:, 1]

    def __len__(self) -> int:
        return self.pairs.shape[0]


@dataclass(frozen=True)
class SegmentAlignment:
    """Outcome of one unconstrained sub-problem."""

    interval: tuple[float, float]
    config: SaConfig | BayesConfig
    result: AlignmentResult | PosteriorSample


@dataclass(frozen=True)
class ConstrainedResult:
    """Composed warp plus per-segment details.

    ``warp`` maps curve-1 parameters to curve-2 parameters and passes
    through every landmark pair exactly.  For the Bayes method
    ``posterior_warps`` holds composed posterior draws (segment draws
    glued index by index), suitable for credible bands.
    """

    warp: PLWarp
    prewarp: PLWarp
    method: str
    segments: list[SegmentAlignment]
    posterior_warps: list[PLWarp] | None = None


def landmark_prewarp(lm: LandmarkSet) -> PLWarp:
    """PL warp through (0,0), every (a_i, b_i), and (1,1).

    Warping curve 2 by this map moves its landmarks to curve 1's
    positions, since (g2 o w)(a_i) = g2(b_i).
    """
    x = np.concatenate(([0.0], lm.a, [1.0]))
    y = np.concatenate(([0.0], lm.b, [1.0]))
    return PLWarp(x, y)


def _segment_curve(curve: Curve, lo: float, hi: float) -> Curve:
    inside = (curve.grid > lo) & (curve.grid < hi)
    ts = np.concatenate(([lo], curve.grid[inside], [hi]))
    if ts.size < 3:
        raise ValueError(
            f"segment [{lo:g}, {hi:g}] has fewer than 3 sample points; "
            "resample the curves on a finer grid")
    pts = np.column_stack([
        np.interp(ts, curve.grid, curve.points[:, j]) for j in range(curve.dim)
    ])
    u = (ts - lo) / (hi - lo)
    u[0], u[-1] = 0.0, 1.0
    return resample(Curve(u, pts, "open"), ts.size)


def _glue(cuts: np.ndarray, seg_warps: list[PLWarp]) -> PLWarp:
    xs, ys = [0.0], [0.0]
    for k, w in enumerate(seg_warps):
        lo, hi = cuts[k], cuts[k + 1]
        span = hi - lo
        gx = lo + span * w.x
        gy = lo + span * w.y
        gx[0] = gy[0] = lo
        gx[-1] = gy[-1] = hi
        xs.extend(gx[1:])
        ys.extend(gy[1:])
    return PLWarp(xs, ys)


def _scaled_sa_config(cfg: SaConfig, span: float) -> SaConfig:
    return replace(cfg, n=max(2, round(cfg.n * span)), theta=cfg.theta * span)


def _scaled_bayes_config(cfg: BayesConfig, span: float) -> BayesConfig:
    prior = WarpPrior(identity(),
                      partition_size=max(2, round(cfg.prior.partition_size * span)),
                      concentration=cfg.prior.concentration * span)
    return replace(cfg, prior=prior)


def constrained_align(g1: Curve, g2: Curve, lm: LandmarkSet, method: str,
                      cfg: SaConfig | BayesConfig,
                      rng: np.random.Generator | None = None,
                      segment_rngs: list[np.random.Generator] | None = None,
                      ) -> ConstrainedResult:
    """Landmark-constrained alignment of g2 onto g1.

    Steps: pre-warp g2 so its landmarks sit at curve 1's positions, align
    each inter-landmark segment independently with the chosen method
    (``"sa"`` or ``"bayes"``) under length-rescaled settings, glue the
    segment warps, and compose with the pre-warp.  With no landmarks this
    reduces exactly to the unconstrained method.  Segments consume
    independent RNG streams (spawned from ``rng`` unless ``segment_rngs``
    is supplied).  Each Bayes segment's prior is centred on the identity,
    so with landmarks ``prior.mean_warp`` must be the identity.
    """
    if method not in ("sa", "bayes"):
        raise ValueError("method must be 'sa' or 'bayes'")
    if method == "bayes" and len(lm) and not np.array_equal(cfg.prior.mean_warp.x,
                                                            cfg.prior.mean_warp.y):
        raise ValueError("landmark-constrained Bayes centres every segment's prior on "
                         "the identity; prior.mean_warp must be the identity")
    if not np.array_equal(g1.grid, g2.grid):
        raise ValueError("curves must share a common grid; resample first")
    if rng is None:
        rng = np.random.default_rng()

    if len(lm) == 0:
        q1, q2 = to_srvf(g1), to_srvf(g2)
        if method == "sa":
            res = sa_align(q1, q2, cfg, rng)
            seg = SegmentAlignment((0.0, 1.0), cfg, res)
            return ConstrainedResult(res.warp, identity(), method, [seg])
        post = sir_posterior(q1, q2, cfg, rng)
        seg = SegmentAlignment((0.0, 1.0), cfg, post)
        return ConstrainedResult(_posterior_mean(post, g1.grid), identity(),
                                 method, [seg], posterior_warps=post.warps)

    pre = landmark_prewarp(lm)
    g2p = warp_curve(g2, pre)
    cuts = np.concatenate(([0.0], lm.a, [1.0]))
    n_seg = cuts.size - 1
    if segment_rngs is None:
        segment_rngs = rng.spawn(n_seg)
    elif len(segment_rngs) != n_seg:
        raise ValueError(f"need {n_seg} segment RNGs")

    segments: list[SegmentAlignment] = []
    seg_warps: list[PLWarp] = []
    draws_per_segment: list[list[PLWarp]] = []
    for k in range(n_seg):
        lo, hi = float(cuts[k]), float(cuts[k + 1])
        span = hi - lo
        s1 = _segment_curve(g1, lo, hi)
        s2 = _segment_curve(g2p, lo, hi)
        q1, q2 = to_srvf(s1), to_srvf(s2)
        if method == "sa":
            seg_cfg = _scaled_sa_config(cfg, span)
            res = sa_align(q1, q2, seg_cfg, segment_rngs[k])
            seg_warps.append(res.warp)
        else:
            seg_cfg = _scaled_bayes_config(cfg, span)
            res = sir_posterior(q1, q2, seg_cfg, segment_rngs[k])
            seg_warps.append(_posterior_mean(res, q1.grid))
            draws_per_segment.append(res.warps)
        segments.append(SegmentAlignment((lo, hi), seg_cfg, res))

    glued = _glue(cuts, seg_warps)
    total = compose(pre, glued)
    posterior_warps = None
    if method == "bayes":
        count = min(len(d) for d in draws_per_segment)
        posterior_warps = [
            compose(pre, _glue(cuts, [draws_per_segment[k][i] for k in range(n_seg)]))
            for i in range(count)
        ]
    return ConstrainedResult(total, pre, method, segments, posterior_warps)


def _posterior_mean(post: PosteriorSample, grid: np.ndarray) -> PLWarp:
    mean_warp, _, _ = posterior_summary(post, grid)
    return mean_warp
