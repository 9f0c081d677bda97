import math
from itertools import combinations

import numpy as np
import pytest

from conftest import (bean_curve_3d, convex_blend, reference_partitions, reference_procrustes,
                      seam_pair)
from warpalign import (
    PLWarp,
    Rotation,
    SaConfig,
    SeedDistribution,
    Srvf,
    apply_seed,
    identity,
    metropolis_accept,
    normalize_length,
    optimal_rotation,
    rotate,
    sa_align,
    sa_align_closed,
    sa_align_open_shape,
    shape_dist,
    sup_dist,
    to_srvf,
    unit_normalize,
    uniform_grid,
    warp_action,
    warp_energy,
)
from warpalign import align_sa
from warpalign.align_sa import align, _chain_draws, _propose_seed, _propose_warp, _temperature
from warpalign.fixtures import bean_curve, pqrst_pair, spiral_pair, two_bump_pair
from warpalign.srvf import _energy, _energy_target, _energy_terms, _sq_l2, _trace
from warpalign.srvf import _trapezoid_weights, _warp_values
from warpalign.warpdist import _draw


def shapeify(curve):
    return unit_normalize(to_srvf(normalize_length(curve)))


def bump_srvfs(m=60):
    c1, c2 = two_bump_pair(m)
    return to_srvf(c1), to_srvf(c2)


class TestMetropolisRule:
    def test_improvement_always_accepted(self):
        assert metropolis_accept(2.0, 1.0, 5.0, 0.999999)
        assert metropolis_accept(2.0, 2.0, 5.0, 0.999999)

    def test_threshold_at_exp_minus_one(self):
        # worsening by exactly T: acceptance probability is e^{-1}
        p = math.exp(-1.0)
        assert metropolis_accept(1.0, 1.0 + 3.0, 3.0, p - 1e-12)
        assert not metropolis_accept(1.0, 1.0 + 3.0, 3.0, p + 1e-12)

    @pytest.mark.parametrize("e_cur,e_prop,temp,u", [
        (1.0, 2.0, 1.0, 0.2), (1.0, 2.0, 1.0, 0.5),
        (0.3, 0.9, 0.1, 0.001), (5.0, 5.5, 2.0, 0.77),
        (2.0, 1.5, 0.01, 0.99),
    ])
    def test_matches_formula(self, e_cur, e_prop, temp, u):
        expected = u < min(1.0, math.exp((e_cur - e_prop) / temp))
        assert metropolis_accept(e_cur, e_prop, temp, u) == expected

    def test_zero_temperature_accepts_only_downhill(self):
        assert metropolis_accept(2.0, 1.0, 0.0, 0.5)
        assert metropolis_accept(2.0, 2.0, 0.0, 0.5)
        assert not metropolis_accept(1.0, 1.0 + 1e-12, 0.0, 0.0)


class TestSchedule:
    def test_geometric_cooling(self):
        cfg = SaConfig(t0=10.0, cooling=1.0001)
        for k in (0, 1, 10, 2000):
            assert abs(_temperature(cfg, k) - 10.0 / 1.0001 ** k) < 1e-9

    @pytest.mark.parametrize("settings,frozen_at", [
        ({"cooling": 10.0}, 309),  # cooling**k overflows
        ({"t0": 1e-300, "cooling": 1.5}, 150),  # t0 / cooling**k underflows
    ], ids=["overflow", "underflow"])
    def test_frozen_schedule_runs(self, settings, frozen_at):
        cfg = SaConfig(max_iters=400, **settings)
        assert _temperature(cfg, frozen_at) == 0.0
        q1, q2 = bump_srvfs()
        res = sa_align(q1, q2, cfg, np.random.default_rng(0))
        assert res.energy_trace.size == cfg.max_iters + 2
        # at T = 0 the chain never goes uphill
        assert np.all(np.diff(res.energy_trace[frozen_at:]) <= 0.0)


class TestProposals:
    def test_blend_matches_convex_combination(self):
        cfg = SaConfig(blend=0.9)
        current = PLWarp([0.0, 0.4, 1.0], [0.0, 0.55, 1.0])
        knots, _, ident, u, _, _ = next(_chain_draws(cfg, False, np.random.default_rng(0)))
        prop = PLWarp(*_propose_warp(current.x, current.y, cfg, np.random.default_rng(1),
                                     knots, u, ident))
        # reproduce the draw to compare against the reference blend
        drawn = PLWarp(*_draw(current.x, current.y, cfg.n, cfg.theta, np.random.default_rng(1),
                              knots, u))
        ref = convex_blend(drawn, identity(), 0.9)
        assert sup_dist(prop, ref) < 1e-12

    def test_proposals_are_valid_warps(self):
        rng = np.random.default_rng(1)
        cfg = SaConfig()
        x, y = identity().x, identity().y
        for _, (knots, _, ident, u, _, _) in zip(range(100), _chain_draws(cfg, False, rng)):
            x, y = _propose_warp(x, y, cfg, rng, knots, u, ident)
            assert x[0] == 0.0 and x[-1] == 1.0
            assert np.all(np.diff(x) > 0) and np.all(np.diff(y) > 0)
            assert y[0] == 0.0 and y[-1] == 1.0

    def test_energy_helper_matches_public_energy(self):
        # the annealer's kernel on raw arrays, its plain-numpy reference and
        # warp_energy agree bit for bit, and the direct residual to rounding
        q1, q2 = bump_srvfs()
        w = PLWarp([0.0, 0.3, 1.0], [0.0, 0.42, 1.0])
        g = q1.grid
        warped = _warp_values(g, q2.values, w.x, w.y)
        weights, target = _energy_target(q1.values, g)
        fast = _energy(_trace((target @ q1.values).tolist()),
                       *_energy_terms(target, weights, warped))
        assert fast == warp_energy(q1, q2, w)
        assert fast == reference_energy(q1.values, warped, g)
        direct = _sq_l2(q1.values - warped, g[1:] - g[:-1])
        assert abs(fast - direct) <= 1e-14


class TestFunctionAlignment:
    def test_self_alignment_keeps_identity(self):
        q1, _ = bump_srvfs()
        res = sa_align(q1, q1, SaConfig(max_iters=500), np.random.default_rng(2))
        assert res.initial_energy == 0.0
        assert res.final_energy == 0.0
        assert sup_dist(res.warp, identity()) <= 0.05

    def test_deterministic(self):
        q1, q2 = bump_srvfs()
        cfg = SaConfig(max_iters=400)
        a = sa_align(q1, q2, cfg, np.random.default_rng(7))
        b = sa_align(q1, q2, cfg, np.random.default_rng(7))
        assert np.array_equal(a.warp.x, b.warp.x)
        assert np.array_equal(a.warp.y, b.warp.y)
        assert np.array_equal(a.energy_trace, b.energy_trace)
        assert a.final_energy == b.final_energy

    def test_trace_contract(self):
        q1, q2 = bump_srvfs()
        res = sa_align(q1, q2, SaConfig(max_iters=300), np.random.default_rng(3))
        assert res.energy_trace[0] == res.initial_energy
        assert res.energy_trace[-1] == res.final_energy
        assert res.final_energy <= res.initial_energy
        running_min = np.minimum.accumulate(res.energy_trace)
        assert np.all(np.diff(running_min) <= 0)

    @pytest.mark.parametrize("pair", [two_bump_pair, pqrst_pair])
    def test_energies_are_warp_energy(self, pair):
        c1, c2 = pair()
        q1, q2 = to_srvf(c1), to_srvf(c2)
        start = warp_energy(q1, q2, identity())
        for seed in range(10):
            res = sa_align(q1, q2, SaConfig(max_iters=300), np.random.default_rng(seed))
            assert res.initial_energy == start
            assert res.final_energy == warp_energy(q1, q2, res.warp)

    def test_known_warp_recovery(self):
        q1, _ = bump_srvfs(80)
        w0 = PLWarp([0.0, 0.45, 1.0], [0.0, 0.3, 1.0])
        q2 = warp_action(q1, w0)
        cfg = SaConfig(blend=1.0, theta=1000.0, t0=1.0, cooling=1.0005,
                       max_iters=8000)
        res = sa_align(q1, q2, cfg, np.random.default_rng(4))
        assert res.final_energy < 0.05 * res.initial_energy
        assert sup_dist(res.warp, w0.inverse()) < 0.05

    def test_grid_mismatch_rejected(self):
        q1 = Srvf(uniform_grid(30), np.ones((30, 1)))
        q2 = Srvf(uniform_grid(40), np.ones((40, 1)))
        with pytest.raises(ValueError):
            sa_align(q1, q2, SaConfig(max_iters=10), np.random.default_rng(0))

    def test_dimension_mismatch_rejected(self):
        g = uniform_grid(30)
        q1, q2 = Srvf(g, np.ones((30, 1))), Srvf(g, np.ones((30, 2)))
        with pytest.raises(ValueError, match="different dimensions"):
            sa_align(q1, q2, SaConfig(max_iters=10), np.random.default_rng(0))

    def test_config_robustness(self):
        # replicate-mean warps from perturbed settings land close together
        q1, q2 = bump_srvfs()
        grid = uniform_grid(q1.grid.size)
        means = []
        for k, kwargs in enumerate([
            {}, {"n": 10}, {"n": 40}, {"theta": 50.0}, {"theta": 150.0},
        ]):
            cfg = SaConfig(max_iters=2000, **kwargs)
            reps = [sa_align(q1, q2, cfg, np.random.default_rng(1000 * k + r)).warp(grid)
                    for r in range(6)]
            means.append(np.mean(reps, axis=0))
        for a, b in combinations(means, 2):
            assert np.max(np.abs(a - b)) < 0.1


class TestOpenShapeAlignment:
    def test_rotation_recovery(self):
        c1, _ = spiral_pair(80)
        q1 = shapeify(c1)
        ang = np.pi / 5
        rot = np.array([[np.cos(ang), -np.sin(ang), 0.0],
                        [np.sin(ang), np.cos(ang), 0.0],
                        [0.0, 0.0, 1.0]])
        q2 = Srvf(q1.grid, q1.values @ rot.T, q1.topology, is_shape=True)
        res = sa_align_open_shape(q1, q2, SaConfig(mode="open_shape", max_iters=2000),
                                  np.random.default_rng(5))
        aligned = unit_normalize(rotate(warp_action(q2, res.warp), res.rotation))
        assert shape_dist(q1, aligned) < 0.05
        assert np.linalg.norm(res.rotation.matrix - rot.T, 2) < 1e-2

    def test_spiral_distance_reduction(self):
        c1, c2 = spiral_pair(80)
        q1, q2 = shapeify(c1), shapeify(c2)
        from warpalign import optimal_rotation
        pre = shape_dist(q1, unit_normalize(rotate(q2, optimal_rotation(q1, q2))))
        cfg = SaConfig(mode="open_shape", blend=1.0, theta=500.0, t0=1.0,
                       cooling=1.0005, max_iters=8000)
        res = sa_align_open_shape(q1, q2, cfg, np.random.default_rng(6))
        aligned = unit_normalize(rotate(warp_action(q2, res.warp), res.rotation))
        assert shape_dist(q1, aligned) <= 0.5 * pre

    def test_rejects_non_shapes(self):
        q = to_srvf(spiral_pair(40)[0])
        with pytest.raises(ValueError, match="unit-norm"):
            sa_align_open_shape(q, q, SaConfig(mode="open_shape", max_iters=10),
                                np.random.default_rng(0))

    def test_rejects_one_dimensional_shapes(self):
        q = unit_normalize(bump_srvfs(40)[0])
        with pytest.raises(ValueError, match="dimension 2 or 3"):
            sa_align_open_shape(q, q, SaConfig(mode="open_shape", max_iters=10),
                                np.random.default_rng(0))


class TestClosedAlignment:
    def test_seed_and_warp_recovery(self):
        q1 = shapeify(bean_curve(61))
        q2 = apply_seed(q1, 0.3)
        cfg = SaConfig(mode="closed_shape", blend=1.0, theta=500.0, t0=1.0,
                       cooling=1.0005, max_iters=8000)
        res = sa_align_closed(q1, q2, cfg, np.random.default_rng(0))
        assert res.final_energy < 0.05
        # undoing a 0.3 shift needs a 0.7 shift (shifts compose additively)
        step = 1.0 / (q1.grid.size - 1)
        assert min(abs(res.seed - 0.7), abs(res.seed - 0.7 + 1.0),
                   abs(res.seed - 0.7 - 1.0)) <= step + 1e-12

    def test_concentrated_kappa_freezes_seed(self):
        rng = np.random.default_rng(1)
        n_distinct = 100
        moved = 0
        for _ in range(1000):
            prop = _propose_seed(42, rng.vonmises(0.0, 1e6), n_distinct)
            if abs(prop - 42) > 1:
                moved += 1
        assert moved <= 10  # seed stays within one grid step >= 99% of the time

    def test_rejects_open_curves(self):
        c1, _ = spiral_pair(40)
        q = shapeify(c1)
        with pytest.raises(ValueError, match="closed-curve"):
            sa_align_closed(q, q, SaConfig(mode="closed_shape", max_iters=10),
                            np.random.default_rng(0))

    def test_closed_curve_in_r3(self):
        q1 = shapeify(bean_curve_3d(41))
        q2 = apply_seed(q1, 0.3)
        res = sa_align_closed(q1, q2, SaConfig(mode="closed_shape", max_iters=400),
                              np.random.default_rng(0))
        rot = res.rotation.matrix
        assert rot.shape == (3, 3)
        assert np.allclose(rot.T @ rot, np.eye(3), atol=1e-12)
        assert np.linalg.det(rot) > 0.0
        aligned = rotate(apply_seed(q2, res.seed), res.rotation)
        assert abs(res.final_energy - warp_energy(q1, aligned, res.warp)) <= 1e-9

    @pytest.mark.parametrize("seed", range(5))
    def test_energy_reads_both_curves_on_the_circle(self, seed):
        # neither curve's last sample is its first: the chain scores q1 at
        # seed 0 and q2 at the result's seed, both read as apply_seed does
        q1, q2 = seam_pair()
        res = sa_align_closed(q1, q2, rng=np.random.default_rng(seed))
        aligned = rotate(apply_seed(q2, res.seed), res.rotation)
        energy = warp_energy(apply_seed(q1, 0.0), aligned, res.warp)
        assert abs(res.final_energy - energy) <= 1e-9

    def test_deterministic(self):
        q1 = shapeify(bean_curve(41))
        q2 = apply_seed(q1, 0.2)
        cfg = SaConfig(mode="closed_shape", max_iters=300)
        a = sa_align_closed(q1, q2, cfg, np.random.default_rng(9))
        b = sa_align_closed(q1, q2, cfg, np.random.default_rng(9))
        assert a.seed == b.seed and a.final_energy == b.final_energy
        assert np.array_equal(a.warp.y, b.warp.y)


class TestOnePassPerProposal:
    @pytest.mark.parametrize("mode", ["function", "open_shape", "closed_shape"])
    def test_accept_reuses_the_proposals_terms(self, mode, monkeypatch):
        # each proposal warps q2 once and passes over the grid once (B and
        # M); an accept, which refreshes the rotation, adds neither
        calls = {"_warp_values": 0, "_energy_terms": 0}
        for name in calls:
            kernel = getattr(align_sa, name)

            def counted(*args, kernel=kernel, name=name):
                calls[name] += 1
                return kernel(*args)
            monkeypatch.setattr(align_sa, name, counted)
        q1, q2 = TestReferenceAnnealer.pair(mode)
        res = align(q1, q2, SaConfig(mode=mode, max_iters=300), np.random.default_rng(0))
        assert np.count_nonzero(np.diff(res.energy_trace[:-1])) > 10  # accepts happened
        proposals = res.energy_trace.size - 2
        assert calls == {"_warp_values": proposals + 1, "_energy_terms": proposals + 1}

    @pytest.mark.parametrize("mode", ["open_shape", "closed_shape"])
    def test_result_rotation_is_read_only(self, mode):
        # the chain carries the rotation as rows and builds one Rotation
        q1, q2 = TestReferenceAnnealer.pair(mode)
        res = align(q1, q2, SaConfig(mode=mode, max_iters=50), np.random.default_rng(0))
        assert res.rotation.matrix.dtype == np.float64
        assert res.rotation.matrix.shape == (q1.dim, q1.dim)
        assert not res.rotation.matrix.flags.writeable
        with pytest.raises(ValueError):
            res.rotation.matrix[0, 0] = 2.0


class TestModeRule:
    """Each mode-named aligner rejects a config of another mode."""

    @pytest.mark.parametrize("aligner,mode", [
        (sa_align, "open_shape"), (sa_align, "closed_shape"),
        (sa_align_open_shape, "function"), (sa_align_open_shape, "closed_shape"),
        (sa_align_closed, "function"), (sa_align_closed, "open_shape"),
    ])
    def test_named_aligner_rejects_other_mode(self, aligner, mode):
        # a closed planar shape pair is valid input for every mode
        q1 = shapeify(bean_curve(41))
        q2 = apply_seed(q1, 0.2)
        with pytest.raises(ValueError, match=f"mode only, not '{mode}'"):
            aligner(q1, q2, SaConfig(mode=mode, max_iters=10), np.random.default_rng(0))


def reference_gammas(a, rng, u):
    """Gamma(a) draws: one gamma of shape a + 1 per shape in array order,
    each boosted by its pre-drawn uniform as Gamma(a+1) * U^(1/a)."""
    return rng.standard_gamma(a + 1.0) * u ** (1.0 / a)


def reference_proposal(x, y, cfg, rng, px, u):
    """Knots of a warp drawn centred at ``(x, y)`` on the partition ``px``
    with boosting uniforms ``u``, blended toward the identity, written out
    in plain numpy."""
    a = np.maximum(cfg.theta * np.diff(np.interp(px, x, y)), 1e-12)
    g = np.maximum(reference_gammas(a, rng, u), 1e-300)
    p = np.maximum(g / g.sum(), 1e-10)  # clamp at MIN_INCREMENT and renormalise
    p = p / p.sum()
    values = np.concatenate(([0.0], np.cumsum(p)))
    values[-1] = 1.0
    py = cfg.blend * values + (1.0 - cfg.blend) * px
    py[0], py[-1] = 0.0, 1.0
    return px, py


def reference_warp_values(grid, values, x, y):
    """``(q o w) * sqrt(w')`` with right-continuous slopes (left at t=1)."""
    idx = np.clip(np.searchsorted(x, grid, side="right") - 1, 0, x.size - 2)
    slope = (y[idx + 1] - y[idx]) / (x[idx + 1] - x[idx])
    wt = np.interp(grid, x, y)
    cols = [np.interp(wt, grid, values[:, j]) for j in range(values.shape[1])]
    return np.column_stack(cols) * np.sqrt(slope)[:, None]


def reference_roll(values, k):
    """Closed-curve values shifted by k distinct grid points."""
    shifted = np.roll(values[:-1], -k, axis=0)
    return np.vstack((shifted, shifted[:1]))


def reference_energy(v1, v, grid, rot=None, optimal=False):
    """``srvf._energy`` in plain numpy: ``|| v1 - R v ||^2`` as A + B - 2 <R, M>
    from the squared norms A and B, each the trace of a weighted Gram
    matrix, and the cross-covariance M.  <R, M> is the trace of M for the
    identity (``rot`` None), else the running sum of R * M in row-major
    order; ``optimal`` (R is M's Procrustes rotation) reads it as at least
    tr(M).  A negative result is returned as 0.0."""
    w = _trapezoid_weights(grid)[:, None]
    target = (v1 * w).T
    a = np.trace(target @ v1)
    b = np.trace((v * w).T @ v)
    cross = target @ v
    if rot is None:
        inner = np.trace(cross)
    else:
        inner = np.cumsum(rot * cross)[-1]
    if optimal:
        inner = max(inner, np.trace(cross))
    e = float(a + b - 2.0 * inner)
    return e if e > 0.0 else 0.0


def reference_anneal(q1, q2, cfg, rng, residual=False, rotate_first=False,
                     rotation=optimal_rotation):
    """The annealer written in plain numpy, independent of the package's
    sampler, warp-action and energy kernels; only the Procrustes step goes
    through ``rotation``, by default the public ``optimal_rotation``.

    Each proposal is scored by ``reference_energy`` from the warped
    values, as the package does; on accept the shape modes refresh the
    rotation from the warped values and rescore with it.  ``residual``
    instead sums the squared residual of q1 and the rotated warped values
    on the grid, the arithmetic the package used before, and
    ``rotate_first`` does the same with q2 rotated before it is warped;
    warp action is linear in the values, and every form is the same
    energy, so all agree up to rounding.  ``reference_rotation`` in place
    of ``optimal_rotation`` agrees up to rounding too.

    The randomness that does not depend on the chain's state is drawn for
    a block of B = min(1024, iterations left) iterations at a time: B
    partitions, B rows of n boosting uniforms, in closed mode B von Mises
    steps, then B accept uniforms.  Each iteration then draws only its
    gammas.

    In closed mode both curves are read on the circle from the start, as
    their seed-0 rolls, which rebuild the last sample from the first.

    Returns (warp knots, seed, rotation, energy trace) in the shape of
    AlignmentResult; seed is None outside closed mode and rotation None
    in function mode.
    """
    grid = q1.grid
    shape = cfg.mode != "function"
    closed = cfg.mode == "closed_shape"
    n_distinct = grid.size - 1

    def energy(q2v, rot, x, y, optimal=False):
        if not (residual or rotate_first):
            warped = reference_warp_values(grid, q2v, x, y)
            return reference_energy(q1.values, warped, grid,
                                    None if rot is None else rot.matrix, optimal)
        if rot is None:
            warped = reference_warp_values(grid, q2v, x, y)
        elif rotate_first:
            warped = reference_warp_values(grid, q2v @ rot.matrix.T, x, y)
        else:
            warped = reference_warp_values(grid, q2v, x, y) @ rot.matrix.T
        resid = q1.values - warped
        return float(np.trapezoid(np.sum(resid ** 2, axis=1), grid))

    x, y, seed, q2v = np.array([0.0, 1.0]), np.array([0.0, 1.0]), 0.0, q2.values
    if closed:
        q1 = Srvf(grid, reference_roll(q1.values, 0), "closed")
        q2v = reference_roll(q2.values, 0)
    rot = rotation(q1, Srvf(grid, q2v, q2.topology)) if shape else None
    e = energy(q2v, rot, x, y, optimal=True)
    best = (x, y, seed, rot, e)
    trace, stale = [e], 0
    for it in range(cfg.max_iters):
        j = it % 1024
        if j == 0:
            size = min(1024, cfg.max_iters - it)
            knots = reference_partitions(size, cfg.n, rng)
            uniforms = rng.random((size, cfg.n))
            if closed:
                steps = rng.vonmises(0.0, cfg.von_mises_kappa, size)
            accepts = rng.random(size)
        temp = cfg.t0 / cfg.cooling ** it
        seed_prop, q2v_prop = seed, q2v
        if closed:
            raw = (seed + steps[j] / (2.0 * math.pi)) % 1.0
            k = int(np.round(raw * n_distinct)) % n_distinct
            seed_prop = k / n_distinct
            if seed_prop != seed:
                q2v_prop = reference_roll(q2.values, k)
        px, py = reference_proposal(x, y, cfg, rng, knots[j], uniforms[j])
        e_prop = energy(q2v_prop, rot, px, py)
        if metropolis_accept(e, e_prop, temp, accepts[j]):
            x, y, seed, q2v, e = px, py, seed_prop, q2v_prop, e_prop
            if shape:
                warped = reference_warp_values(grid, q2v, x, y)
                rot = rotation(q1, Srvf(grid, warped, q2.topology))
                e = energy(q2v, rot, x, y, optimal=True)
            stale = 0
            if e < best[4]:
                best = (x, y, seed, rot, e)
        else:
            stale += 1
        trace.append(e)
        if temp < 1e-3 and stale >= 500:
            break
    trace.append(best[4])
    return best[0], best[1], best[2] if closed else None, best[3], np.asarray(trace)


def reference_rotation(q1, q2):
    """``optimal_rotation`` through the SVD-and-determinant reference."""
    return Rotation(reference_procrustes(q1.values, q2.values, _trapezoid_weights(q1.grid)))


class TestReferenceAnnealer:
    """``sa_align*`` against ``reference_anneal``: every output bit for bit."""

    PAPER = {}
    COLD = {"blend": 1.0, "t0": 1.0, "cooling": 1.0005}
    # Dirichlet shapes mostly far above 1, with one in twenty below 1 (a
    # spacing under 1e-4): every shape is boosted, whatever its size
    STIFF = {"theta": 1e4}
    # every Dirichlet shape below 1, where U^(1/a) spans many decades
    LOOSE = {"theta": 0.5}
    # "closed_seam" runs closed_shape mode on ``seam_pair``, whose last
    # samples are not their first
    MODES = ["function", "open_shape", "closed_shape", "closed_seam"]

    @staticmethod
    def pair(mode):
        if mode == "function":
            return bump_srvfs(50)
        if mode == "open_shape":
            c1, c2 = spiral_pair(50)
            return shapeify(c1), shapeify(c2)
        if mode == "closed_seam":
            return seam_pair()
        q1 = shapeify(bean_curve(41))
        return q1, apply_seed(q1, 0.3)

    @staticmethod
    def config(mode, **settings):
        return SaConfig(mode="closed_shape" if mode == "closed_seam" else mode, **settings)

    @pytest.mark.parametrize("settings", [PAPER, COLD], ids=["paper", "cold"])
    @pytest.mark.parametrize("mode", MODES)
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_matches_reference(self, mode, settings, seed):
        q1, q2 = self.pair(mode)
        self.check(q1, q2, self.config(mode, max_iters=250, **settings), seed)

    @pytest.mark.parametrize("settings", [STIFF, LOOSE], ids=["stiff", "loose"])
    @pytest.mark.parametrize("mode", MODES)
    def test_gamma_branches_match_reference(self, mode, settings):
        q1, q2 = self.pair(mode)
        self.check(q1, q2, self.config(mode, max_iters=250, **settings), 4)

    def test_stop_rule_matches_reference(self):
        # cold from the start: the chain stops after 500 rejections in a row
        q1, q2 = self.pair("function")
        cfg = SaConfig(t0=1e-4, cooling=1.01, max_iters=5000)
        res = self.check(q1, q2, cfg, 3)
        assert res.energy_trace.size < cfg.max_iters + 2

    @pytest.mark.parametrize("mode", MODES)
    def test_block_boundary_matches_reference(self, mode):
        # a full 1024-iteration block of pre-drawn randomness, then a short one
        q1, q2 = self.pair(mode)
        res = self.check(q1, q2, self.config(mode, max_iters=1100), 5)
        assert res.energy_trace.size == 1100 + 2

    @pytest.mark.parametrize("mode", MODES)
    def test_stop_mid_block_matches_reference(self, mode):
        # the chain cools below 1e-3 within its first block and stops inside
        # its second, leaving the rest of that block's draws unused
        q1, q2 = self.pair(mode)
        cfg = self.config(mode, t0=0.1, cooling=1.006, max_iters=5000)
        res = self.check(q1, q2, cfg, 5)
        assert 1024 < res.energy_trace.size - 2 < 2048

    @staticmethod
    def check(q1, q2, cfg, seed):
        res = align(q1, q2, cfg, np.random.default_rng(seed))
        x, y, ref_seed, rot, trace = reference_anneal(q1, q2, cfg,
                                                      np.random.default_rng(seed))
        assert np.array_equal(res.warp.x, x)
        assert np.array_equal(res.warp.y, y)
        assert np.array_equal(res.energy_trace, trace)
        assert res.initial_energy == trace[0] and res.final_energy == trace[-1]
        assert res.seed == ref_seed
        if rot is None:
            assert res.rotation is None
        else:
            assert np.array_equal(res.rotation.matrix, rot.matrix)
        # the squared residual on the grid (the arithmetic before the energy
        # kernel) makes the same moves and finds the same rotations; so do
        # the rotate-then-warp arithmetic and an SVD Procrustes step
        # independent of the package's kernel, up to the SVD's rounding
        variants = [{"residual": True}]
        if rot is not None:
            variants += [{"rotate_first": True}, {"rotation": reference_rotation}]
        for variant in variants:
            x, y, ref_seed, ref_rot, trace = reference_anneal(
                q1, q2, cfg, np.random.default_rng(seed), **variant)
            assert np.array_equal(res.warp.x, x)
            assert np.array_equal(res.warp.y, y)
            assert res.seed == ref_seed
            if "rotation" in variant:
                assert np.max(np.abs(res.rotation.matrix - ref_rot.matrix)) <= 1e-12
            elif rot is not None:
                assert np.array_equal(res.rotation.matrix, ref_rot.matrix)
            assert res.energy_trace.size == trace.size
            assert np.max(np.abs(res.energy_trace - trace)) <= 1e-12
        return res


class TestConfigValidation:
    def test_bad_cooling(self):
        with pytest.raises(ValueError):
            SaConfig(cooling=1.0)

    def test_bad_blend(self):
        with pytest.raises(ValueError):
            SaConfig(blend=1.5)

    def test_bad_mode(self):
        with pytest.raises(ValueError):
            SaConfig(mode="torus")

    @pytest.mark.parametrize("field,value,match", [
        ("n", 1, "n must be at least 2"),
        ("theta", 0.0, "theta, t0 must be positive"),
        ("t0", -1.0, "theta, t0 must be positive"),
        ("von_mises_kappa", -1.0, "kappa must be finite and nonnegative"),
        ("max_iters", 0, "max_iters must be at least 1 and an integer, not 0"),
        ("n", 3.5, "n must be at least 2 and an integer, not 3.5"),
        ("n", True, "n must be at least 2 and an integer, not True"),
        ("max_iters", 100.0, "max_iters must be at least 1 and an integer, not 100.0"),
        ("theta", math.inf, "theta, t0 must be positive and finite"),
        ("t0", math.nan, "theta, t0 must be positive and finite"),
    ])
    def test_out_of_range_field_rejected(self, field, value, match):
        with pytest.raises(ValueError, match=match):
            SaConfig(**{field: value})

    @pytest.mark.parametrize("kappa", [math.nan, math.inf, -1.0])
    def test_kappa_rule_is_the_seed_distributions(self, kappa):
        # both feed rng.vonmises: one rule, with one message, rejects a bad kappa
        message = "^kappa must be finite and nonnegative$"
        with pytest.raises(ValueError, match=message):
            SaConfig(mode="closed_shape", von_mises_kappa=kappa)
        with pytest.raises(ValueError, match=message):
            SeedDistribution.von_mises(0.5, kappa)
