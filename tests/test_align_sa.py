import math
from itertools import combinations

import numpy as np
import pytest

from warpalign import (
    PLWarp,
    SaConfig,
    Srvf,
    WarpPrior,
    apply_seed,
    convex_blend,
    identity,
    metropolis_accept,
    normalize_length,
    optimal_rotation,
    rotate,
    sa_align,
    sa_align_closed,
    sa_align_open_shape,
    sample,
    shape_dist,
    sup_dist,
    to_srvf,
    unit_normalize,
    uniform_grid,
    warp_action,
    warp_energy,
)
from warpalign.align_sa import align, _energy, _propose_seed, _propose_warp, _temperature
from warpalign.fixtures import bean_curve, spiral_pair, two_bump_pair


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


class TestSchedule:
    def test_geometric_cooling(self):
        cfg = SaConfig(t0=10.0, cooling=1.0001)
        for k in (0, 1, 10, 2000):
            assert abs(_temperature(cfg, k) - 10.0 / 1.0001 ** k) < 1e-9


class TestProposals:
    def test_blend_matches_convex_combination(self):
        rng = np.random.default_rng(0)
        cfg = SaConfig(blend=0.9)
        current = PLWarp([0.0, 0.4, 1.0], [0.0, 0.55, 1.0])
        prop = PLWarp(*_propose_warp(current.x, current.y, cfg, rng))
        # reproduce the draw to compare against the reference blend
        rng2 = np.random.default_rng(0)
        drawn = sample(WarpPrior(current, cfg.n, cfg.theta), rng2)
        ref = convex_blend(drawn, identity(), 0.9)
        assert sup_dist(prop, ref) < 1e-12

    def test_proposals_are_valid_warps(self):
        rng = np.random.default_rng(1)
        cfg = SaConfig()
        x, y = identity().x, identity().y
        for _ in range(100):
            x, y = _propose_warp(x, y, cfg, rng)
            assert x[0] == 0.0 and x[-1] == 1.0
            assert np.all(np.diff(x) > 0) and np.all(np.diff(y) > 0)
            assert y[0] == 0.0 and y[-1] == 1.0

    def test_energy_helper_matches_public_energy(self):
        q1, q2 = bump_srvfs()
        w = PLWarp([0.0, 0.3, 1.0], [0.0, 0.42, 1.0])
        fast = _energy(q1.values, q1.grid, q2.values, w.x, w.y)
        assert fast == pytest.approx(warp_energy(q1, q2, w), abs=1e-12)


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
        with pytest.raises(ValueError):
            sa_align_open_shape(q, q, SaConfig(max_iters=10),
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
            prop = _propose_seed(42, 1e6, n_distinct, rng)
            if abs(prop - 42) > 1:
                moved += 1
        assert moved <= 10  # seed stays within one grid step >= 99% of the time

    def test_rejects_open_curves(self):
        c1, _ = spiral_pair(40)
        q = shapeify(c1)
        with pytest.raises(ValueError):
            sa_align_closed(q, q, SaConfig(max_iters=10), np.random.default_rng(0))

    def test_deterministic(self):
        q1 = shapeify(bean_curve(41))
        q2 = apply_seed(q1, 0.2)
        cfg = SaConfig(mode="closed_shape", max_iters=300)
        a = sa_align_closed(q1, q2, cfg, np.random.default_rng(9))
        b = sa_align_closed(q1, q2, cfg, np.random.default_rng(9))
        assert a.seed == b.seed and a.final_energy == b.final_energy
        assert np.array_equal(a.warp.y, b.warp.y)


def reference_anneal(q1, q2, cfg, rng):
    """The annealer written with the public objects: a PLWarp per proposal,
    ``sample``, ``warp_action``, ``optimal_rotation`` and ``apply_seed``.

    Returns (warp, seed, rotation, energy trace) in the shape of
    AlignmentResult; seed is None outside closed mode and rotation None
    in function mode.
    """
    grid = q1.grid
    shape = cfg.mode != "function"
    closed = cfg.mode == "closed_shape"
    n_distinct = grid.size - 1

    def energy(q2s, rot, w):
        q2r = q2s if rot is None else Srvf(grid, rot.apply(q2s.values), q2s.topology)
        resid = q1.values - warp_action(q2r, w).values
        return float(np.trapezoid(np.sum(resid ** 2, axis=1), grid))

    w, seed, q2s = identity(), 0.0, q2
    rot = optimal_rotation(q1, q2) if shape else None
    e = energy(q2s, rot, w)
    best = (w, seed, rot, e)
    trace, stale = [e], 0
    for it in range(cfg.max_iters):
        temp = cfg.t0 / cfg.cooling ** it
        seed_prop, q2s_prop = seed, q2s
        if closed:
            raw = (seed + rng.vonmises(0.0, cfg.von_mises_kappa) / (2.0 * math.pi)) % 1.0
            seed_prop = (int(np.round(raw * n_distinct)) % n_distinct) / n_distinct
            if seed_prop != seed:
                q2s_prop = apply_seed(q2, seed_prop)
        drawn = sample(WarpPrior(w, cfg.n, cfg.theta), rng)
        y = cfg.blend * drawn.y + (1.0 - cfg.blend) * drawn.x
        y[0], y[-1] = 0.0, 1.0
        prop = PLWarp(drawn.x, y)
        e_prop = energy(q2s_prop, rot, prop)
        if metropolis_accept(e, e_prop, temp, rng.random()):
            w, seed, q2s, e = prop, seed_prop, q2s_prop, e_prop
            if shape:
                rot = optimal_rotation(q1, warp_action(q2s, w))
                e = energy(q2s, rot, w)
            stale = 0
            if e < best[3]:
                best = (w, seed, rot, e)
        else:
            stale += 1
        trace.append(e)
        if temp < 1e-3 and stale >= 500:
            break
    trace.append(best[3])
    return best[0], best[1] if closed else None, best[2], np.asarray(trace)


class TestReferenceAnnealer:
    """``sa_align*`` against ``reference_anneal``: every output bit for bit."""

    PAPER = {}
    COLD = {"blend": 1.0, "t0": 1.0, "cooling": 1.0005}

    @staticmethod
    def pair(mode):
        if mode == "function":
            return bump_srvfs(50)
        if mode == "open_shape":
            c1, c2 = spiral_pair(50)
            return shapeify(c1), shapeify(c2)
        q1 = shapeify(bean_curve(41))
        return q1, apply_seed(q1, 0.3)

    @pytest.mark.parametrize("settings", [PAPER, COLD], ids=["paper", "cold"])
    @pytest.mark.parametrize("mode", ["function", "open_shape", "closed_shape"])
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_matches_reference(self, mode, settings, seed):
        q1, q2 = self.pair(mode)
        cfg = SaConfig(mode=mode, max_iters=250, **settings)
        self.check(q1, q2, cfg, seed)

    def test_stop_rule_matches_reference(self):
        # cold from the start: the chain stops after 500 rejections in a row
        q1, q2 = self.pair("function")
        cfg = SaConfig(t0=1e-4, cooling=1.01, max_iters=5000)
        res = self.check(q1, q2, cfg, 3)
        assert res.energy_trace.size < cfg.max_iters + 2

    @staticmethod
    def check(q1, q2, cfg, seed):
        res = align(q1, q2, cfg, np.random.default_rng(seed))
        warp, ref_seed, rot, trace = reference_anneal(q1, q2, cfg,
                                                      np.random.default_rng(seed))
        assert np.array_equal(res.warp.x, warp.x)
        assert np.array_equal(res.warp.y, warp.y)
        assert np.array_equal(res.energy_trace, trace)
        assert res.initial_energy == trace[0] and res.final_energy == trace[-1]
        assert res.seed == ref_seed
        if rot is None:
            assert res.rotation is None
        else:
            assert np.array_equal(res.rotation.matrix, rot.matrix)
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
