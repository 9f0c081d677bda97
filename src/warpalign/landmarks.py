"""Landmark-constrained alignment by decomposition.

Matched pairs (a_k, b_k), with a_0 = b_0 = 0 and a_{K+1} = b_{K+1} = 1,
split the problem into unconstrained segment problems.  Segment k takes
curve 1 on [a_k, a_{k+1}] and curve 2 on [b_k, b_{k+1}], both rescaled to
[0,1], and aligns them with the concentration and partition size scaled
by the segment's length (the restriction of the warp law to a
subinterval is the same family with concentration scaled by the
interval's mean-warp mass).  The constrained warp lays the segment warps
w_k end to end:

    w(a_k + (a_{k+1} - a_k) u) = b_k + (b_{k+1} - b_k) w_k(u),  u in [0,1],

so it passes through every landmark pair exactly.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .align_bayes import BayesConfig, PosteriorSample, posterior_summary, sir_posterior
from .align_sa import AlignmentResult, SaConfig, sa_align
from .srvf import Curve, _interp_columns, to_srvf
from .warpdist import WarpPrior
from .warpmap import PLWarp, identity, uniform_grid

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
    """Glued warp plus per-segment details.

    ``warp`` maps curve-1 parameters to curve-2 parameters: on
    [a_k, a_{k+1}] it is segment k's warp rescaled onto [b_k, b_{k+1}], so
    it passes through every landmark pair exactly.  ``prewarp`` is the PL
    warp through the pairs (:func:`landmark_prewarp`).  For the Bayes
    method ``warp`` glues the segment posterior means, and
    ``posterior_warps`` glues the segment draws index by index, one shared
    ``PLWarp`` wherever the segment draws are all shared, for credible bands.
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


def _segment_curve(curve: Curve, lo: float, hi: float, m: int) -> Curve:
    """``curve`` on [lo, hi], sampled at ``lo + (hi - lo) * u`` on the
    uniform grid u of m points, as an open curve on u."""
    u = uniform_grid(m)
    at = lo + (hi - lo) * u
    at[-1] = hi
    return Curve(u, _interp_columns(curve.grid, curve.points, at), "open")


def _glue(cuts1: np.ndarray, cuts2: np.ndarray, draws: list[list[PLWarp]]) -> list[PLWarp]:
    """Lay segment warps end to end, index by index: glued warp i takes
    segment k's i-th warp from [cuts1[k], cuts1[k+1]] onto
    [cuts2[k], cuts2[k+1]].  The knots of all distinct glued warps are
    computed at once as stacked rows, and a glued warp whose segment warps
    are all shared objects is built once and shared."""
    slot: dict[tuple[int, ...], int] = {}
    which = [slot.setdefault(key, len(slot))
             for key in zip(*([id(w) for w in d] for d in draws))]
    first = np.unique(which, return_index=True)[1]
    start = np.zeros((first.size, 1))
    xs, ys = [start], [start]
    for k, d in enumerate(draws):
        gx = cuts1[k] + (cuts1[k + 1] - cuts1[k]) * np.stack([d[i].x[1:] for i in first])
        gy = cuts2[k] + (cuts2[k + 1] - cuts2[k]) * np.stack([d[i].y[1:] for i in first])
        gx[:, -1], gy[:, -1] = cuts1[k + 1], cuts2[k + 1]
        xs.append(gx)
        ys.append(gy)
    built = [PLWarp(x, y) for x, y in zip(np.concatenate(xs, axis=1),
                                          np.concatenate(ys, axis=1))]
    return [built[j] for j in which]


def _scaled_sa_config(cfg: SaConfig, span: float) -> SaConfig:
    return replace(cfg, n=max(2, round(cfg.n * span)), theta=cfg.theta * span)


def _scaled_bayes_config(cfg: BayesConfig, span: float) -> BayesConfig:
    prior = WarpPrior(identity(),
                      partition_size=max(2, round(cfg.prior.partition_size * span)),
                      concentration=cfg.prior.concentration * span)
    return replace(cfg, prior=prior)


def constrained_align(g1: Curve, g2: Curve, lm: LandmarkSet, method: str,
                      cfg: SaConfig | BayesConfig,
                      rng: np.random.Generator | None = None) -> ConstrainedResult:
    """Landmark-constrained alignment of g2 onto g1.

    Each segment k samples curve 1 at a_k + (a_{k+1} - a_k) u and curve 2
    at b_k + (b_{k+1} - b_k) u on a uniform grid u with as many points as
    curve 1's grid has inside (a_k, a_{k+1}), plus the two ends; aligns
    them with the chosen method (``"sa"``, in function mode, or
    ``"bayes"``) under length-rescaled settings; and the segment warps are
    glued from [a_k, a_{k+1}] onto [b_k, b_{k+1}].  With no landmarks this
    reduces exactly to the unconstrained method.  Segments consume
    independent RNG streams spawned from ``rng``.  Each Bayes segment's
    prior is centred on the identity, so with landmarks
    ``prior.mean_warp`` must be the identity.
    """
    kind = {"sa": SaConfig, "bayes": BayesConfig}.get(method)
    if kind is None:
        raise ValueError("method must be 'sa' or 'bayes'")
    if not isinstance(cfg, kind):
        raise ValueError(f"method {method!r} takes a {kind.__name__}, not {type(cfg).__name__}")
    if method == "bayes" and len(lm) and not np.array_equal(cfg.prior.mean_warp.x,
                                                            cfg.prior.mean_warp.y):
        raise ValueError("landmark-constrained Bayes centres every segment's prior on "
                         "the identity; prior.mean_warp must be the identity")
    if not np.array_equal(g1.grid, g2.grid):
        raise ValueError("curves must share a common grid; resample first")
    if rng is None:
        rng = np.random.default_rng()
    prewarp = landmark_prewarp(lm)

    if len(lm) == 0:
        q1, q2 = to_srvf(g1), to_srvf(g2)
        if method == "sa":
            res = sa_align(q1, q2, cfg, rng)
            seg = SegmentAlignment((0.0, 1.0), cfg, res)
            return ConstrainedResult(res.warp, prewarp, method, [seg])
        post = sir_posterior(q1, q2, cfg, rng)
        seg = SegmentAlignment((0.0, 1.0), cfg, post)
        return ConstrainedResult(posterior_summary(post, g1.grid)[0], prewarp,
                                 method, [seg], posterior_warps=post.warps)

    cuts1, cuts2 = prewarp.x, prewarp.y

    segments: list[SegmentAlignment] = []
    seg_warps: list[PLWarp] = []
    draws_per_segment: list[list[PLWarp]] = []
    for k, seg_rng in enumerate(rng.spawn(cuts1.size - 1)):
        lo, hi = float(cuts1[k]), float(cuts1[k + 1])
        span = hi - lo
        m = np.count_nonzero((g1.grid > lo) & (g1.grid < hi)) + 2
        if m < 3:
            raise ValueError(
                f"segment [{lo:g}, {hi:g}] has fewer than 3 sample points; "
                "resample the curves on a finer grid")
        q1 = to_srvf(_segment_curve(g1, lo, hi, m))
        q2 = to_srvf(_segment_curve(g2, cuts2[k], cuts2[k + 1], m))
        if method == "sa":
            seg_cfg = _scaled_sa_config(cfg, span)
            res = sa_align(q1, q2, seg_cfg, seg_rng)
            seg_warps.append(res.warp)
        else:
            seg_cfg = _scaled_bayes_config(cfg, span)
            res = sir_posterior(q1, q2, seg_cfg, seg_rng)
            seg_warps.append(posterior_summary(res, q1.grid)[0])
            draws_per_segment.append(res.warps)
        segments.append(SegmentAlignment((lo, hi), seg_cfg, res))

    posterior_warps = _glue(cuts1, cuts2, draws_per_segment) if method == "bayes" else None
    return ConstrainedResult(_glue(cuts1, cuts2, [[w] for w in seg_warps])[0],
                             prewarp, method, segments, posterior_warps)
