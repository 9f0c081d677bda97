#!/usr/bin/env python3
"""End-to-end alignment demo on the bundled synthetic curves.

Runs, at a desk scale: annealed and Bayesian alignment of the two-bump
functions, landmark-constrained Bayesian alignment of the ECG-like
complexes, annealed shape alignment of the spirals, and closed-curve
alignment of the planar blobs (annealing vs seed-search DP).  Prints a
summary table and leaves plot-ready artifacts in the output directory.
"""

import argparse
from pathlib import Path

import numpy as np

from warpalign import (
    BayesConfig,
    DpConfig,
    PosteriorSample,
    SaConfig,
    apply_seed,
    constrained_align,
    dp_align,
    dp_align_closed,
    l2_dist,
    normalize_length,
    optimal_rotation,
    posterior_summary,
    rotate,
    sa_align,
    sa_align_closed,
    sa_align_open_shape,
    shape_dist,
    sir_posterior,
    to_srvf,
    unit_normalize,
    warp_action,
    warp_curve,
)
from warpalign.fixtures import (
    closed_shape_pair,
    pqrst_landmarks,
    pqrst_pair,
    spiral_pair,
    two_bump_pair,
)
from warpalign.io import write_band, write_curve, write_trace, write_warp


def shapeify(curve):
    return unit_normalize(to_srvf(normalize_length(curve)))


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--outdir", type=Path, default=Path("out/demo"))
    args = ap.parse_args()
    out = args.outdir
    out.mkdir(parents=True, exist_ok=True)
    rng = np.random.default_rng(args.seed)

    # functions: annealing and DP on the two-bump pair
    c1, c2 = two_bump_pair(100)
    q1, q2 = to_srvf(c1), to_srvf(c2)
    before = l2_dist(q1, q2)
    w_dp, _ = dp_align(q1, q2, DpConfig(grid_size=100))
    d_dp = l2_dist(q1, warp_action(q2, w_dp))
    sa = sa_align(q1, q2, SaConfig(blend=1.0, theta=1000.0, t0=1.0,
                                   cooling=1.0005), rng)
    d_sa = l2_dist(q1, warp_action(q2, sa.warp))
    write_warp(sa.warp, out / "two_bump_sa_warp.json")
    write_trace(out / "two_bump_sa_trace.csv", sa.energy_trace)
    write_curve(warp_curve(c2, sa.warp), out / "two_bump_aligned.csv")
    print(f"two-bump functions: dist before {before:.3f}, "
          f"DP {d_dp:.3f}, annealing {d_sa:.3f}")

    # functions: Bayesian posterior on the same pair
    post = sir_posterior(q1, q2, BayesConfig(), rng)
    mean_warp, lower, upper = posterior_summary(post, q1.grid)
    d_bayes = l2_dist(q1, warp_action(q2, mean_warp))
    write_band(out / "two_bump_band.csv", q1.grid, lower, mean_warp(q1.grid), upper)
    print(f"two-bump Bayes:     posterior-mean dist {d_bayes:.3f}, "
          f"ESS {post.ess:.1f}")

    # landmark-constrained Bayesian alignment of the ECG-like pair
    p1, p2 = pqrst_pair(100)
    lm = pqrst_landmarks()
    res = constrained_align(p1, p2, lm, "bayes", BayesConfig(b0=5.0), rng)
    grid = np.union1d(p1.grid, lm.a)
    count = len(res.posterior_warps)
    draws = PosteriorSample(res.posterior_warps, np.full(count, 1.0 / count), float(count))
    mean_warp, lower, upper = posterior_summary(draws, grid)
    write_band(out / "pqrst_band.csv", grid, lower, mean_warp(grid), upper)
    write_warp(res.warp, out / "pqrst_warp.json")
    at_lm = [float(upper[np.searchsorted(grid, a)] - lower[np.searchsorted(grid, a)])
             for a in lm.a]
    print(f"pqrst landmarks:    band width at pinned points {max(at_lm):.2e}")

    # open 3-d shapes: spirals
    s1, s2 = spiral_pair(100)
    qs1, qs2 = shapeify(s1), shapeify(s2)
    pre = shape_dist(qs1, unit_normalize(rotate(qs2, optimal_rotation(qs1, qs2))))
    res_o = sa_align_open_shape(qs1, qs2, SaConfig(mode="open_shape", blend=1.0,
                                                   theta=500.0, t0=1.0,
                                                   cooling=1.0005), rng)
    post_d = shape_dist(qs1, unit_normalize(rotate(warp_action(qs2, res_o.warp),
                                                   res_o.rotation)))
    write_warp(res_o.warp, out / "spiral_warp.json")
    write_trace(out / "spiral_trace.csv", res_o.energy_trace)
    print(f"spirals:            shape dist {pre:.3f} -> {post_d:.3f}")

    # closed planar shapes: annealing vs DP with seed search
    b1, b2 = closed_shape_pair(61)
    qb1, qb2 = shapeify(b1), shapeify(b2)
    s_dp, w_dpc, _ = dp_align_closed(qb1, qb2, DpConfig(grid_size=61))
    d_dpc = l2_dist(qb1, warp_action(apply_seed(qb2, s_dp), w_dpc))
    res_c = sa_align_closed(qb1, qb2, SaConfig(mode="closed_shape", blend=1.0,
                                               theta=500.0, t0=1.0,
                                               cooling=1.0005), rng)
    d_sac = l2_dist(qb1, rotate(warp_action(apply_seed(qb2, res_c.seed),
                                            res_c.warp), res_c.rotation))
    write_warp(res_c.warp, out / "closed_warp.json")
    print(f"closed blobs:       DP+seed {d_dpc:.3f}, annealing {d_sac:.3f} "
          f"(seed {res_c.seed:.2f})")
    print(f"artifacts in {out}/")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
