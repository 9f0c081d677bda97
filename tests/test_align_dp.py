from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import bean_curve_3d, reference_dp_align_closed
from warpalign import (
    Curve,
    DpConfig,
    PLWarp,
    Srvf,
    apply_seed,
    dp_align,
    dp_align_closed,
    dp_warp_energy,
    identity,
    normalize_length,
    sup_dist,
    to_srvf,
    unit_normalize,
    uniform_grid,
    warp_action,
)
from warpalign import align_dp
from warpalign.align_dp import _refinement, _fine_values, _seed_bytes, _segment_costs
from warpalign.fixtures import _radial_curve, bean_curve, two_bump_pair


def enumerate_path_costs(q1: Srvf, q2: Srvf, cfg: DpConfig) -> float:
    """Brute-force oracle: minimum energy over all monotone lattice paths.

    Paths are enumerated independently of the DP recursion; segment costs
    and their summation order match the implementation so the minima are
    comparable exactly.
    """
    m = cfg.grid_size
    refine = _refinement(cfg.neighborhood)
    dt = 1.0 / (m - 1)
    q2f = _fine_values(q2.grid, q2.values, refine)
    cost = {s: _segment_costs(q1.values, q2f, m, refine, s, dt)
            for s in cfg.neighborhood}
    best = [np.inf]

    def walk(i, j, acc):
        if (i, j) == (m - 1, m - 1):
            best[0] = min(best[0], acc)
            return
        for a, b in cfg.neighborhood:
            if i + a <= m - 1 and j + b <= m - 1:
                walk(i + a, j + b, acc + cost[(a, b)][i, j])

    walk(0, 0, 0.0)
    return best[0]


def random_srvf(rng, m=6, dim=1) -> Srvf:
    return Srvf(uniform_grid(m), rng.normal(size=(m, dim)))


def smooth_pair(m=60):
    c1, c2 = two_bump_pair(m)
    return to_srvf(c1), to_srvf(c2)


class TestDpAlign:
    def test_self_alignment_identity(self):
        q1, _ = smooth_pair()
        cfg = DpConfig(grid_size=60)
        warp, energy = dp_align(q1, q1, cfg)
        assert energy < 1e-9
        assert sup_dist(warp, identity()) == 0.0

    def test_energy_recompute_matches(self):
        q1, q2 = smooth_pair()
        cfg = DpConfig(grid_size=60)
        warp, energy = dp_align(q1, q2, cfg)
        assert abs(dp_warp_energy(q1, q2, warp, cfg) - energy) < 1e-9

    def test_energy_not_above_identity(self):
        rng = np.random.default_rng(0)
        for _ in range(5):
            q1 = random_srvf(rng, m=40)
            q2 = random_srvf(rng, m=40)
            cfg = DpConfig(grid_size=40)
            _, energy = dp_align(q1, q2, cfg)
            assert energy <= dp_warp_energy(q1, q2, identity(), cfg) + 1e-12

    def test_known_warp_recovery(self):
        # q2 = q1 warped by a lattice warp whose inverse the neighborhood can
        # represent; the curve has informative derivative everywhere so the
        # warp is identifiable
        m = 101
        t = uniform_grid(m)
        q1 = to_srvf(Curve(t, t + 0.15 * np.sin(2 * np.pi * t)))
        w0 = PLWarp([0.0, 0.5, 1.0], [0.0, 0.25, 1.0])
        q2 = warp_action(q1, w0)
        cfg = DpConfig(grid_size=m)
        warp, _ = dp_align(q1, q2, cfg)
        assert sup_dist(warp, w0.inverse()) <= 2.0 / cfg.grid_size

    def test_matches_bruteforce_small_neighborhood(self):
        rng = np.random.default_rng(1)
        cfg = DpConfig(grid_size=6, neighborhood=((1, 1), (1, 2), (2, 1)))
        for _ in range(20):
            q1, q2 = random_srvf(rng), random_srvf(rng)
            _, energy = dp_align(q1, q2, cfg)
            assert energy == enumerate_path_costs(q1, q2, cfg)

    def test_matches_bruteforce_default_neighborhood(self):
        rng = np.random.default_rng(2)
        cfg = DpConfig(grid_size=6)
        for _ in range(20):
            q1, q2 = random_srvf(rng, dim=2), random_srvf(rng, dim=2)
            _, energy = dp_align(q1, q2, cfg)
            assert energy == enumerate_path_costs(q1, q2, cfg)

    def test_joint_rotation_invariance(self):
        rng = np.random.default_rng(3)
        q1 = random_srvf(rng, m=30, dim=2)
        q2 = random_srvf(rng, m=30, dim=2)
        ang = 0.8
        rot = np.array([[np.cos(ang), -np.sin(ang)], [np.sin(ang), np.cos(ang)]])
        q1r = Srvf(q1.grid, q1.values @ rot.T)
        q2r = Srvf(q2.grid, q2.values @ rot.T)
        cfg = DpConfig(grid_size=30)
        _, e_plain = dp_align(q1, q2, cfg)
        _, e_rot = dp_align(q1r, q2r, cfg)
        assert abs(e_plain - e_rot) < 1e-9

    def test_grid_mismatch_rejected(self):
        q1 = Srvf(uniform_grid(10), np.ones((10, 1)))
        q2 = Srvf(uniform_grid(12), np.ones((12, 1)))
        with pytest.raises(ValueError):
            dp_align(q1, q2, DpConfig(grid_size=10))

    def test_dimension_mismatch_rejected(self):
        g = uniform_grid(10)
        q1, q2 = Srvf(g, np.ones((10, 1))), Srvf(g, np.ones((10, 2)))
        with pytest.raises(ValueError, match="different dimensions"):
            dp_align(q1, q2, DpConfig(grid_size=10))

    def test_unreachable_neighborhood_rejected(self):
        q = Srvf(uniform_grid(6), np.ones((6, 1)))
        cfg = DpConfig(grid_size=6, neighborhood=((2, 2),))
        with pytest.raises(ValueError):
            dp_align(q, q, cfg)


class TestDpAlignClosed:
    def closed_shape(self, m=41):
        return unit_normalize(to_srvf(normalize_length(bean_curve(m))))

    def test_identical_curves(self):
        q = self.closed_shape()
        seed, warp, energy = dp_align_closed(q, q, DpConfig(grid_size=q.grid.size))
        assert seed == 0.0
        assert energy < 1e-9
        assert sup_dist(warp, identity()) == 0.0

    def test_seed_recovery(self):
        # q2 = q1 shifted by 0.3; the reported seed shifts q2, so 0.7 undoes it
        q1 = self.closed_shape()
        q2 = apply_seed(q1, 0.3)
        seed, _, energy = dp_align_closed(q1, q2, DpConfig(grid_size=q1.grid.size))
        step = 1.0 / (q1.grid.size - 1)
        assert min(abs(seed - 0.7), abs(seed - 0.7 + 1), abs(seed - 0.7 - 1)) <= step
        assert energy < 1e-6

    def test_closed_curve_in_r3(self):
        q1 = unit_normalize(to_srvf(normalize_length(bean_curve_3d(41))))
        q2 = apply_seed(q1, 0.3)
        seed, _, _ = dp_align_closed(q1, q2, DpConfig(grid_size=q1.grid.size))
        step = 1.0 / (q1.grid.size - 1)
        assert min(abs(seed - 0.7), abs(seed - 0.7 + 1), abs(seed - 0.7 - 1)) <= step

    def test_best_not_worse_than_zero_seed(self):
        q1 = self.closed_shape()
        q2 = apply_seed(q1, 0.4)
        cfg = DpConfig(grid_size=q1.grid.size)
        _, _, best_energy = dp_align_closed(q1, q2, cfg)
        _, zero_energy = dp_align(q1, q2, cfg)
        assert best_energy <= zero_energy + 1e-12

    def test_open_curves_rejected(self):
        q = Srvf(uniform_grid(10), np.ones((10, 2)))
        with pytest.raises(ValueError):
            dp_align_closed(q, q, DpConfig(grid_size=10))

    def test_seed_stride_thins_candidates(self):
        q1 = self.closed_shape(21)
        q2 = apply_seed(q1, 0.25)
        cfg = DpConfig(grid_size=21, seed_stride=4)
        seed, _, _ = dp_align_closed(q1, q2, cfg)
        assert (round(seed * 20)) % 4 == 0


class TestBatchedSeedSearch:
    """The batched seed search returns what a per-seed loop of dp_align returns."""

    @staticmethod
    def per_seed_reference(q1, q2, cfg):
        n = q1.grid.size - 1
        seeds = [k / n for k in range(0, n, cfg.seed_stride)]
        results = [dp_align(q1, apply_seed(q2, s), cfg) for s in seeds]
        best = int(np.argmin([e for _, e in results]))
        return seeds[best], results[best][0], results[best][1]

    def assert_matches_loop(self, q1, q2, cfg):
        seed, warp, energy = dp_align_closed(q1, q2, cfg)
        ref_seed, ref_warp, ref_energy = self.per_seed_reference(q1, q2, cfg)
        assert seed == ref_seed
        assert np.array_equal(warp.x, ref_warp.x)
        assert np.array_equal(warp.y, ref_warp.y)
        assert abs(energy - ref_energy) <= 1e-12
        return seed

    def bean(self, m=41):
        return unit_normalize(to_srvf(normalize_length(bean_curve(m))))

    def test_matching_grid(self):
        q1 = self.bean()
        self.assert_matches_loop(q1, apply_seed(q1, 0.3), DpConfig(grid_size=41))

    def test_seed_stride(self):
        q1 = self.bean()
        self.assert_matches_loop(q1, apply_seed(q1, 0.3),
                                 DpConfig(grid_size=41, seed_stride=4))

    def test_input_grid_differs_from_lattice(self):
        q1 = self.bean()
        self.assert_matches_loop(q1, apply_seed(q1, 0.3), DpConfig(grid_size=30))

    def test_identical_curves_pick_seed_zero(self):
        q = self.bean()
        assert self.assert_matches_loop(q, q, DpConfig(grid_size=41)) == 0.0

    def test_one_seed_per_block(self, monkeypatch):
        monkeypatch.setattr(align_dp, "_BLOCK_BYTES", 1)
        q1 = self.bean()
        q2 = apply_seed(q1, 0.3)
        self.assert_matches_loop(q1, q2, DpConfig(grid_size=41, seed_stride=3))
        self.assert_matches_loop(q1, q2, DpConfig(grid_size=30, seed_stride=3))
        assert self.assert_matches_loop(q1, q1, DpConfig(grid_size=30)) == 0.0

    def test_unrelated_curves(self):
        rng = np.random.default_rng(5)
        vals = rng.normal(size=(41, 2))
        vals[-1] = vals[0]
        q2 = Srvf(uniform_grid(41), vals, "closed")
        self.assert_matches_loop(self.bean(), q2, DpConfig(grid_size=41))
        self.assert_matches_loop(self.bean(), q2, DpConfig(grid_size=25, seed_stride=3))


@st.composite
def closed_srvfs(draw, m):
    """Closed SRVFs on m points: a unit-length radial blob, raw values, or
    raw values repeating with a period that divides m-1."""
    kind = draw(st.sampled_from(["blob", "raw", "periodic"]))
    if kind == "blob":
        harmonic = st.tuples(st.integers(1, 4), st.floats(0.0, 0.3), st.floats(0.0, 6.3))
        curve = _radial_curve(m, draw(st.lists(harmonic, min_size=1, max_size=3)))
        return unit_normalize(to_srvf(normalize_length(curve)))
    period = m - 1
    if kind == "periodic":
        period = draw(st.sampled_from([p for p in range(1, m // 2) if (m - 1) % p == 0]))
    point = st.tuples(st.floats(-3.0, 3.0), st.floats(-3.0, 3.0))
    base = np.array(draw(st.lists(point, min_size=period, max_size=period)))
    vals = np.tile(base, ((m - 1) // period, 1))
    return Srvf(uniform_grid(m), np.vstack((vals, vals[:1])), "closed")


class TestSeedPassOracle:
    """The energy-only seed pass and the winner's re-solve against the
    per-seed strict-``<`` recurrence of ``reference_dp_align_closed``: the
    seed, the knots and the energy bit for bit."""

    @staticmethod
    def assert_matches_oracle(q1, q2, cfg, per_block=None):
        block_bytes = align_dp._BLOCK_BYTES
        if per_block is not None:
            block_bytes = per_block * _seed_bytes(cfg.grid_size, cfg.neighborhood,
                                                  q1.grid.size != cfg.grid_size)
        with mock.patch.object(align_dp, "_BLOCK_BYTES", block_bytes):
            seed, warp, energy = dp_align_closed(q1, q2, cfg)
            ref_seed, ref_x, ref_y, ref_energy = reference_dp_align_closed(q1, q2, cfg)
        assert seed == ref_seed
        assert np.array_equal(warp.x, ref_x)
        assert np.array_equal(warp.y, ref_y)
        assert energy == ref_energy
        return seed

    @settings(max_examples=40, deadline=None)
    @given(st.data())
    def test_matches_per_seed_recurrence(self, data):
        m = data.draw(st.integers(6, 24), label="m")
        q1 = data.draw(closed_srvfs(m), label="q1")
        q2 = q1 if data.draw(st.booleans(), label="same") else data.draw(closed_srvfs(m))
        on_lattice = data.draw(st.booleans(), label="on_lattice")
        grid_size = m if on_lattice else data.draw(
            st.integers(5, 26).filter(lambda g: g != m), label="grid_size")
        stride = data.draw(st.sampled_from([1, 3]), label="seed_stride")
        per_block = data.draw(st.sampled_from([None, 1, 2, 5]), label="seeds_per_block")
        self.assert_matches_oracle(q1, q2, DpConfig(grid_size=grid_size, seed_stride=stride),
                                   per_block)

    @pytest.mark.parametrize("grid_size", [41, 30])
    @pytest.mark.parametrize("per_block", [None, 1, 3])
    def test_tied_seeds_go_to_the_first(self, grid_size, per_block):
        # q2 repeats every 10 of its 40 distinct points, so seeds 10 apart
        # have identical costs and energies
        base = np.random.default_rng(6).normal(size=(10, 2))
        vals = np.tile(base, (4, 1))
        q2 = Srvf(uniform_grid(41), np.vstack((vals, vals[:1])), "closed")
        q1 = unit_normalize(to_srvf(normalize_length(bean_curve(41))))
        cfg = DpConfig(grid_size=grid_size)
        assert self.assert_matches_oracle(q1, q2, cfg, per_block) < 10 / 40

    @pytest.mark.parametrize("grid_size", [41, 30])
    @pytest.mark.parametrize("per_block", [None, 1, 3])
    def test_identical_curves_pick_seed_zero(self, grid_size, per_block):
        q = unit_normalize(to_srvf(normalize_length(bean_curve(41))))
        cfg = DpConfig(grid_size=grid_size)
        assert self.assert_matches_oracle(q, q, cfg, per_block) == 0.0


class TestDpConfig:
    def test_diagonal_step_promoted_first(self):
        cfg = DpConfig(neighborhood=((2, 1), (1, 1), (1, 2)))
        assert cfg.neighborhood[0] == (1, 1)

    def test_validation(self):
        with pytest.raises(ValueError):
            DpConfig(grid_size=2)
        with pytest.raises(ValueError):
            DpConfig(neighborhood=())
        with pytest.raises(ValueError):
            DpConfig(neighborhood=((0, 1),))
