"""Acceptance checks, one test per criterion.

Each test prints a single ``[PASS]``/``[FAIL]`` line (run with ``-s`` to
see them on success).  Tolerances are fixed here, not tuned at runtime.
Monte Carlo checks use fixed seeds, so the suite is deterministic.
"""

import math
import time
from itertools import combinations

import numpy as np
from scipy import stats

from conftest import enumerate_path_costs
from warpalign import (
    BayesConfig,
    DpConfig,
    PLWarp,
    SaConfig,
    SeedDistribution,
    Srvf,
    WarpPrior,
    apply_seed,
    beta_cdf_warp,
    constrained_align,
    dp_align,
    dp_align_closed,
    dirichlet_sample,
    identity,
    l2_dist,
    marginal_loglik,
    metropolis_accept,
    normalize_length,
    optimal_rotation,
    posterior_summary,
    rotate,
    sa_align,
    sa_align_closed,
    sa_align_open_shape,
    sample_batch,
    sample_circular,
    shape_dist,
    sir_posterior,
    sup_dist,
    to_srvf,
    unit_normalize,
    uniform_grid,
    warp_action,
)
from warpalign.cli import main
from warpalign.fixtures import (
    bean_curve,
    closed_shape_pair,
    pqrst_landmarks,
    pqrst_pair,
    spiral_pair,
    two_bump_pair,
)
from warpalign.io import write_curve
from warpalign.warpmap import batch_eval


def report(num: int, name: str, ok: bool, detail: str = ""):
    tag = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"[{tag}] criterion {num:2d}: {name}{suffix}")
    assert ok, f"criterion {num} failed: {name}{suffix}"


def shapeify(curve):
    return unit_normalize(to_srvf(normalize_length(curve)))


def test_criterion_01_prior_moments():
    start = time.perf_counter()
    rng = np.random.default_rng(101)
    prior = WarpPrior(identity(), 80, 10.0)
    knots, vals = sample_batch(prior, 10_000, rng)
    points = np.array([0.25, 0.5, 0.75])
    draws = batch_eval(knots, vals, points)
    ok = True
    details = []
    for j, s in enumerate(points):
        x = draws[:, j]
        se = x.std() / math.sqrt(x.size)
        mean_ok = abs(x.mean() - s) < 3 * se
        target_var = s * (1 - s) / 11.0
        var_ok = abs(x.var() - target_var) < 0.1 * target_var
        ok &= mean_ok and var_ok
        details.append(f"s={s}:|dm|={abs(x.mean()-s):.2e} var rel err "
                       f"{abs(x.var()-target_var)/target_var:.3f}")
    elapsed = time.perf_counter() - start
    ok &= elapsed < 30.0
    report(1, "prior mean/variance formulas", ok,
           "; ".join(details) + f"; {elapsed:.1f}s")


def test_criterion_02_beta_knot_marginal():
    rng = np.random.default_rng(102)
    theta = 10.0
    partition = [0.0, 0.2, 0.45, 0.7, 1.0]
    prior = WarpPrior(identity(), len(partition) - 1, theta)
    _, vals = sample_batch(prior, 10_000, rng, partition=partition)
    pvals = []
    for idx, s in enumerate(partition[1:-1], start=1):
        dist = stats.beta(theta * s, theta * (1.0 - s))
        pvals.append(stats.kstest(vals[:, idx], dist.cdf).pvalue)
    ok = all(p > 0.01 for p in pvals)
    report(2, "Beta knot marginals (KS level 0.01)", ok,
           "p=" + ",".join(f"{p:.3f}" for p in pvals))


def test_criterion_03_subset_invariance():
    rng = np.random.default_rng(103)
    theta = 10.0
    a, mid, b = 0.2, 0.45, 0.8
    partition = [0.0, a, mid, b, 1.0]
    prior = WarpPrior(identity(), len(partition) - 1, theta)
    _, vals = sample_batch(prior, 10_000, rng, partition=partition)
    restricted = (vals[:, 2] - vals[:, 1]) / (vals[:, 3] - vals[:, 1])
    u = (mid - a) / (b - a)
    mean_se = restricted.std() / math.sqrt(restricted.size)
    mean_ok = abs(restricted.mean() - u) < 3 * mean_se
    target_var = u * (1 - u) / (1.0 + theta * (b - a))
    sample_var = restricted.var()
    centered = (restricted - restricted.mean()) ** 2
    var_se = centered.std() / math.sqrt(restricted.size)
    var_ok = abs(sample_var - target_var) < 3 * var_se
    report(3, "subset invariance moments (rescaled theta)", mean_ok and var_ok,
           f"|dm|={abs(restricted.mean()-u):.2e} |dv|={abs(sample_var-target_var):.2e}")


def test_criterion_04_degeneracy_and_bridge():
    rng = np.random.default_rng(104)

    def median_dist(n, cdf, limit, samples=200):
        t = cdf(np.linspace(0.0, 1.0, n + 1))
        t[0], t[-1] = 0.0, 1.0
        flat = np.full(n, 1.2)
        return float(np.median([
            sup_dist(PLWarp.from_increments(t, dirichlet_sample(flat, rng)), limit)
            for _ in range(samples)]))

    med_20 = median_dist(20, identity(), identity())
    med_500 = median_dist(500, identity(), identity())
    uniform_ok = med_20 / med_500 >= 3.0

    beta_cdf = beta_cdf_warp(2.0, 1.0)
    beta_limit = beta_cdf.inverse()
    bmed_20 = median_dist(20, beta_cdf, beta_limit)
    bmed_500 = median_dist(500, beta_cdf, beta_limit)
    beta_ok = bmed_20 / bmed_500 >= 3.0

    # fluctuation scale at the midpoint matches the bridge variance t(1-t)
    n = 100
    mids = np.array([
        np.cumsum(dirichlet_sample(np.full(n, 1.0), rng))[n // 2 - 1]
        for _ in range(4000)])
    bridge_var = n * np.var(mids - 0.5)
    bridge_ok = abs(bridge_var - 0.25) < 0.15 * 0.25
    report(4, "fixed-partition degeneracy and bridge variance",
           uniform_ok and beta_ok and bridge_ok,
           f"uniform ratio {med_20/med_500:.2f}, beta ratio {bmed_20/bmed_500:.2f}, "
           f"bridge var {bridge_var:.4f}")


def test_criterion_05_circular_warps():
    rng = np.random.default_rng(105)
    prior = WarpPrior(identity(), 20, 10.0)
    grid = np.linspace(0.0, 1.0, 400)
    ok = True
    for _ in range(200):
        cw = sample_circular(prior, SeedDistribution.uniform(), rng)
        if cw.seed < 1.0:
            ok &= cw(0.0) == cw.seed
            ok &= 0.0 < cw.wrap_point < 1.0
            ok &= int(np.sum(np.diff(cw(grid)) < 0)) == 1

    t = np.linspace(0.0, 1.0, 2001)
    quad = PLWarp(t, np.concatenate(([0.0], t[1:-1] ** 2, [1.0])))
    from warpalign import make_circular
    t_c = make_circular(quad, 0.94).wrap_point
    tc_ok = abs(t_c - 0.2449) <= 0.005
    report(5, "circle warps: seed value, unique wrap, quadratic wrap point",
           ok and tc_ok, f"t_c={t_c:.4f}")


def test_criterion_06_dp_oracle_equivalence():
    rng = np.random.default_rng(106)
    cfg = DpConfig(grid_size=6)
    mismatches = 0
    for _ in range(50):
        q1 = Srvf(uniform_grid(6), rng.normal(size=(6, 1)))
        q2 = Srvf(uniform_grid(6), rng.normal(size=(6, 1)))
        _, energy = dp_align(q1, q2, cfg)
        oracle = enumerate_path_costs(q1, q2)
        if energy != oracle:
            mismatches += 1
    report(6, "DP equals exhaustive path enumeration on 6x6 grids",
           mismatches == 0, f"{mismatches} mismatches in 50 pairs")


def test_criterion_07_sa_correctness():
    # exact acceptance rule on fixed tuples
    rule_ok = (metropolis_accept(2.0, 1.0, 5.0, 0.9999)
               and metropolis_accept(1.0, 4.0, 3.0, math.exp(-1.0) - 1e-12)
               and not metropolis_accept(1.0, 4.0, 3.0, math.exp(-1.0) + 1e-12)
               and metropolis_accept(1.0, 1.0, 0.01, 0.99))

    m = 100
    t = uniform_grid(m)
    from warpalign import Curve
    q1 = to_srvf(Curve(t, t + 0.15 * np.sin(2 * np.pi * t)
                       + 0.05 * np.sin(6 * np.pi * t)))

    # self alignment stays at the identity
    start = time.perf_counter()
    res_self = sa_align(q1, q1, SaConfig(), np.random.default_rng(107))
    self_time = time.perf_counter() - start
    self_ok = (sup_dist(res_self.warp, identity()) <= 0.05
               and res_self.final_energy <= res_self.initial_energy)

    # recovery of a generic (non-lattice) warp, against the DP baseline
    w0 = PLWarp([0.0, 0.2, 0.55, 1.0], [0.0, 0.45, 0.6, 1.0])
    q2 = warp_action(q1, w0)
    start = time.perf_counter()
    cfg = SaConfig(blend=1.0, theta=2000.0, t0=0.5, cooling=1.0005)
    res = sa_align(q1, q2, cfg, np.random.default_rng(0))
    sa_time = time.perf_counter() - start
    energy_ok = res.final_energy < 0.05 * res.initial_energy
    w_dp, _ = dp_align(q1, q2, DpConfig(grid_size=m))
    d_dp = l2_dist(q1, warp_action(q2, w_dp))
    d_sa = l2_dist(q1, warp_action(q2, res.warp))
    dp_ok = d_sa <= 1.1 * d_dp
    time_ok = sa_time < 60.0 and self_time < 60.0
    report(7, "SA: exact rule, identity recovery, known-warp vs DP",
           rule_ok and self_ok and energy_ok and dp_ok and time_ok,
           f"E%init={100*res.final_energy/res.initial_energy:.2f}, "
           f"d_sa={d_sa:.4f}, d_dp={d_dp:.4f}, run {sa_time:.1f}s")


def test_criterion_08_shape_pipeline():
    # rotation recovery
    c1, c2 = spiral_pair(80)
    q1 = shapeify(c1)
    ang = np.pi / 5
    rot = np.array([[np.cos(ang), -np.sin(ang), 0.0],
                    [np.sin(ang), np.cos(ang), 0.0],
                    [0.0, 0.0, 1.0]])
    q_rot = Srvf(q1.grid, q1.values @ rot.T, q1.topology, is_shape=True)
    res_rot = sa_align_open_shape(q1, q_rot, SaConfig(mode="open_shape",
                                                      max_iters=2000),
                                  np.random.default_rng(108))
    rot_ok = np.linalg.norm(res_rot.rotation.matrix - rot.T, 2) < 1e-2

    # seed recovery within one grid step (closed curves)
    qb = shapeify(bean_curve(61))
    q_shift = apply_seed(qb, 0.3)
    seed_dp, _, e_dp_seed = dp_align_closed(qb, q_shift, DpConfig(grid_size=61))
    step = 1.0 / 60.0
    seed_ok = (min(abs(seed_dp - 0.7), abs(seed_dp - 0.7 + 1),
                   abs(seed_dp - 0.7 - 1)) <= step + 1e-12
               and e_dp_seed < 1e-6)

    # spiral pair: warping at least halves the rotation-only distance
    q2 = shapeify(c2)
    pre = shape_dist(q1, unit_normalize(rotate(q2, optimal_rotation(q1, q2))))
    cfg = SaConfig(mode="open_shape", blend=1.0, theta=500.0, t0=1.0,
                   cooling=1.0005, max_iters=12000)
    res = sa_align_open_shape(q1, q2, cfg, np.random.default_rng(6))
    post = shape_dist(q1, unit_normalize(rotate(warp_action(q2, res.warp),
                                                res.rotation)))
    spiral_ok = post <= 0.5 * pre

    # closed-curve SA is comparable to seed-search DP on the bundled blobs
    qa, qcb = (shapeify(c) for c in closed_shape_pair(61))
    s_dp, w_dp, _ = dp_align_closed(qa, qcb, DpConfig(grid_size=61))
    d_dp = l2_dist(qa, warp_action(apply_seed(qcb, s_dp), w_dp))
    cfg_c = SaConfig(mode="closed_shape", blend=1.0, theta=500.0, t0=1.0,
                     cooling=1.0005, max_iters=15000)
    res_c = sa_align_closed(qa, qcb, cfg_c, np.random.default_rng(3))
    d_sa = l2_dist(qa, rotate(warp_action(apply_seed(qcb, res_c.seed),
                                          res_c.warp), res_c.rotation))
    closed_ok = d_sa <= d_dp + 0.1

    report(8, "shape pipeline: rotation, seed, spiral reduction, closed SA vs DP",
           rot_ok and seed_ok and spiral_ok and closed_ok,
           f"pre={pre:.3f} post={post:.3f}, closed d_sa={d_sa:.3f} d_dp={d_dp:.3f}")


def test_criterion_09_bayesian_sir():
    # exact weights on a hand-computed toy
    g = uniform_grid(3)
    q1 = Srvf(g, np.array([[1.0], [2.0], [1.0]]))
    q2 = Srvf(g, np.array([[1.0], [1.0], [1.0]]))
    warps = [identity(),
             PLWarp([0.0, 0.5, 1.0], [0.0, 0.25, 1.0]),
             PLWarp([0.0, 0.5, 1.0], [0.0, 0.75, 1.0])]
    logs = []
    for w in warps:
        vals = np.interp(w(g), g, q2.values[:, 0])
        slope = w.derivative(g)
        sse = float(np.sum((q1.values[:, 0] - vals * np.sqrt(slope)) ** 2))
        logs.append(-(0.01 + 1.5) * math.log(0.01 + sse / 2.0))
    lib = np.array([marginal_loglik(q1, q2, w, 0.01, 0.01) for w in warps])
    toy_ok = np.allclose(lib, np.array(logs), atol=1e-12)

    # self-alignment posterior mean close to the identity
    c1, c2 = two_bump_pair(100)
    qa = to_srvf(c1)
    post = sir_posterior(qa, qa, BayesConfig(), np.random.default_rng(109))
    mean_warp, _, _ = posterior_summary(post, qa.grid)
    self_ok = sup_dist(mean_warp, identity()) < 0.1

    # landmark-constrained run: zero-width band at the pinned positions.
    # b0=5 keeps the importance weights from collapsing onto a single draw,
    # so the band between landmarks stays visibly positive.
    p1, p2 = pqrst_pair(100)
    lm = pqrst_landmarks()
    res = constrained_align(p1, p2, lm, "bayes", BayesConfig(b0=5.0),
                            np.random.default_rng(110))
    grid = np.union1d(uniform_grid(100), lm.a)
    vals = np.stack([w(grid) for w in res.posterior_warps])
    width = np.percentile(vals, 97.5, axis=0) - np.percentile(vals, 2.5, axis=0)
    at_lm = [width[np.searchsorted(grid, a)] for a in lm.a]
    between = [width[np.searchsorted(grid, t)] for t in (0.19, 0.53, 0.84)]
    lm_ok = all(w < 1e-6 for w in at_lm) and all(w > 0.0 for w in between)

    report(9, "SIR: exact weights, self-alignment, landmark band",
           toy_ok and self_ok and lm_ok,
           f"sup(mean,id)={sup_dist(mean_warp, identity()):.3f}, "
           f"band@lm={max(at_lm):.1e}")


def test_criterion_10_robustness():
    c1, c2 = two_bump_pair(60)
    q1, q2 = to_srvf(c1), to_srvf(c2)
    grid = uniform_grid(60)
    base = dict(n=20, theta=100.0, t0=10.0, cooling=1.0001, max_iters=1500)
    variations = ([{**base, "n": n} for n in (10, 20, 40)]
                  + [{**base, "theta": th} for th in (50.0, 100.0, 150.0)]
                  + [{**base, "t0": t0} for t0 in (5.0, 10.0, 15.0)]
                  + [{**base, "cooling": c} for c in (1.0001, 1.001)])
    means = []
    for k, kwargs in enumerate(variations):
        cfg = SaConfig(**kwargs)
        reps = [sa_align(q1, q2, cfg, np.random.default_rng(7000 + 100 * k + r)).warp(grid)
                for r in range(20)]
        means.append(np.mean(reps, axis=0))
    dists = [float(np.max(np.abs(a - b))) for a, b in combinations(means, 2)]
    ok = max(dists) < 0.1
    report(10, "SA robustness across n, theta, T0, cooling", ok,
           f"max pairwise {max(dists):.4f} over {len(dists)} pairs")


def test_criterion_11_cli_determinism(tmp_path, capsys):
    c1, c2 = two_bump_pair(60)
    a = write_curve(c1, tmp_path / "a.csv")
    b = write_curve(c2, tmp_path / "b.csv")
    s1, s2 = closed_shape_pair(41)
    ca = write_curve(s1, tmp_path / "ca.csv")
    cb = write_curve(s2, tmp_path / "cb.csv")
    lm_path = tmp_path / "lm.csv"
    lm_path.write_text("a,b\n0.38,0.44\n0.68,0.75\n")
    p1, p2 = pqrst_pair(100)
    pa = write_curve(p1, tmp_path / "pa.csv")
    pb = write_curve(p2, tmp_path / "pb.csv")

    commands = {
        "sample-warps": ["sample-warps", "--n", "10", "--theta", "5",
                         "--count", "30", "--seed", "9"],
        "degeneracy": ["degeneracy", "--alpha", "1.2", "--ns", "20,100",
                       "--samples", "40", "--seed", "9"],
        "distance": ["distance", str(a), str(b), "--points", "60"],
        "geodesic": ["geodesic", str(a), str(b), "--steps", "3",
                     "--points", "60"],
        "align-dp": ["align-dp", str(ca), str(cb), "--points", "41", "--shape"],
        "align-sa": ["align-sa", str(a), str(b), "--points", "60",
                     "--iters", "150", "--seed", "9"],
        "align-sa-lm": ["align-sa", str(pa), str(pb), "--iters", "100",
                        "--landmarks", str(lm_path), "--seed", "9"],
        "align-bayes": ["align-bayes", str(a), str(b), "--points", "60",
                        "--draws", "400", "--resample", "80", "--seed", "9"],
    }
    ok = True
    bad = []
    for name, args in commands.items():
        payloads = []
        for attempt in ("x", "y"):
            out = tmp_path / f"{name}-{attempt}"
            code = main(args + ["--outdir", str(out)])
            stdout = capsys.readouterr().out
            if code != 0:
                ok = False
                bad.append(f"{name}: exit {code}")
                break
            files = {p.name: p.read_bytes() for p in sorted(out.iterdir())}
            payloads.append((stdout, files))
        else:
            if payloads[0] != payloads[1]:
                ok = False
                bad.append(name)
    report(11, "CLI determinism under fixed seeds", ok, ", ".join(bad) or "all byte-identical")
