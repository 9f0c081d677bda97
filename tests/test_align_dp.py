from collections import deque
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import bean_curve_3d, enumerate_path_costs, reference_dp_align_closed
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
from warpalign.align_dp import _DEFAULT_STEPS, _band, _seed_bytes
from warpalign.fixtures import _radial_curve, bean_curve, two_bump_pair


def random_srvf(rng, m=6, dim=1) -> Srvf:
    return Srvf(uniform_grid(m), rng.normal(size=(m, dim)))


def smooth_pair(m=60):
    c1, c2 = two_bump_pair(m)
    return to_srvf(c1), to_srvf(c2)


def on_some_path(steps, m: int) -> np.ndarray:
    """(m, m) mask of the nodes on some lattice path from (0,0) to
    (m-1,m-1): a BFS forward from (0,0) intersected with a BFS backward
    from (m-1,m-1)."""
    def bfs(start, sign):
        seen = np.zeros((m, m), dtype=bool)
        seen[start] = True
        queue = deque([start])
        while queue:
            i, j = queue.popleft()
            for a, b in steps:
                node = (i + sign * a, j + sign * b)
                if 0 <= node[0] < m and 0 <= node[1] < m and not seen[node]:
                    seen[node] = True
                    queue.append(node)
        return seen

    return bfs((0, 0), 1) & bfs((m - 1, m - 1), -1)


def interp_path_energy(q1: Srvf, q2: Srvf, nodes) -> float:
    """DP energy of the lattice path through ``nodes``, segment by segment:
    q2 read with ``np.interp`` at every q1 node a segment spans, times
    sqrt(slope), and the squared difference integrated by the trapezoid
    rule.  Independent of the package's fine-grid step costs."""
    t = q1.grid
    total = 0.0
    for (i0, j0), (i1, j1) in zip(nodes[:-1], nodes[1:]):
        slope = (t[j1] - t[j0]) / (t[i1] - t[i0])
        at = t[j0] + slope * (t[i0:i1 + 1] - t[i0])
        warped = np.column_stack([np.interp(at, t, col) for col in q2.values.T])
        sq = np.sum((q1.values[i0:i1 + 1] - np.sqrt(slope) * warped) ** 2, axis=1)
        total += float(np.sum((sq[1:] + sq[:-1]) / 2.0 * np.diff(t[i0:i1 + 1])))
    return total


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

    def test_energy_recompute_is_exact(self):
        # the recomputation sums the same step costs in the same order, on
        # the input grid and on a regridded lattice alike
        for m in (40, 100):
            q1, q2 = smooth_pair(m)
            for grid_size in (m, 37, 80, 120):
                cfg = DpConfig(grid_size=grid_size)
                warp, energy = dp_align(q1, q2, cfg)
                assert dp_warp_energy(q1, q2, warp, cfg) == energy

    def test_energy_of_steps_outside_the_neighborhood(self):
        # steps (3,1), (2,3) and (7,8): 3 and 7 do not divide the default
        # neighborhood's refinement times b, so q2 is read between its
        # refined nodes
        t = uniform_grid(13)
        q1 = to_srvf(Curve(t, np.sin(3 * t)))
        q2 = to_srvf(Curve(t, np.cos(2 * t) + t ** 2))
        nodes = [(0, 0), (3, 1), (5, 4), (12, 12)]
        warp = PLWarp(np.array([i for i, _ in nodes]) / 12, np.array([j for _, j in nodes]) / 12)
        energy = dp_warp_energy(q1, q2, warp, DpConfig(grid_size=13))
        assert energy == pytest.approx(2.16563126106383, rel=1e-12)
        assert energy == pytest.approx(interp_path_energy(q1, q2, nodes), rel=1e-12)

    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_energy_of_any_lattice_path(self, data):
        m = data.draw(st.integers(3, 16), label="m")
        q1 = Srvf(uniform_grid(m), np.array(data.draw(
            st.lists(st.floats(-2.0, 2.0), min_size=2 * m, max_size=2 * m))).reshape(m, 2))
        q2 = Srvf(uniform_grid(m), np.array(data.draw(
            st.lists(st.floats(-2.0, 2.0), min_size=2 * m, max_size=2 * m))).reshape(m, 2))
        inner = data.draw(st.lists(st.integers(1, m - 2), max_size=4, unique=True), label="xs")
        k = len(inner)
        ys = data.draw(st.lists(st.integers(1, m - 2), min_size=k, max_size=k, unique=True),
                       label="ys")
        nodes = list(zip([0] + sorted(inner) + [m - 1], [0] + sorted(ys) + [m - 1]))
        t = uniform_grid(m)
        warp = PLWarp(t[[i for i, _ in nodes]], t[[j for _, j in nodes]])
        energy = dp_warp_energy(q1, q2, warp, DpConfig(grid_size=m))
        assert energy == pytest.approx(interp_path_energy(q1, q2, nodes), rel=1e-10, abs=1e-12)

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

    @pytest.mark.parametrize("grid_size", [20, 30])
    @pytest.mark.parametrize("entry", ["dp_align", "dp_warp_energy", "dp_align_closed"])
    def test_non_uniform_grid_rejected(self, entry, grid_size):
        # every DP entry point applies the one lattice rule, on the input
        # grid's own size and off it
        t = np.linspace(0.0, 1.0, 20) ** 1.5
        topology = "closed" if entry == "dp_align_closed" else "open"
        values = np.column_stack((np.cos(2 * np.pi * t), np.sin(2 * np.pi * t)))
        q1 = Srvf(t, values, topology)
        q2 = Srvf(t, values[:, ::-1], topology)
        cfg = DpConfig(grid_size=grid_size)
        call = {"dp_align": lambda: dp_align(q1, q2, cfg),
                "dp_warp_energy": lambda: dp_warp_energy(q1, q2, identity(), cfg),
                "dp_align_closed": lambda: dp_align_closed(q1, q2, cfg)}[entry]
        with pytest.raises(ValueError, match="uniform grid"):
            call()

    def test_off_lattice_warp_rejected(self):
        # 0.3 is not a multiple of the lattice step 1/9
        q = Srvf(uniform_grid(10), np.ones((10, 1)))
        warp = PLWarp([0.0, 0.3, 1.0], [0.0, 0.5, 1.0])
        with pytest.raises(ValueError, match="do not sit on the DP lattice"):
            dp_warp_energy(q, q, warp, DpConfig(grid_size=10))

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


def neighborhoods():
    """Nonempty subsets of the default steps, with or without the diagonal,
    the default steps themselves, and sets with slopes on one side of 1."""
    return st.one_of(
        st.lists(st.sampled_from(_DEFAULT_STEPS), min_size=1, max_size=len(_DEFAULT_STEPS),
                 unique=True).map(tuple),
        st.sampled_from([_DEFAULT_STEPS, ((1, 1), (1, 2)), ((1, 1), (2, 1)),
                         ((1, 1), (1, 3), (2, 3)), ((1, 1), (3, 2), (3, 1))]))


class TestBand:
    """``_band`` holds every node that lies on some lattice path."""

    @pytest.mark.parametrize("steps", [
        _DEFAULT_STEPS, ((1, 1),), ((1, 1), (1, 2)), ((1, 1), (2, 1)), ((1, 2), (2, 1)),
        ((2, 1), (1, 3)), ((1, 1), (1, 3), (2, 3)), ((3, 2), (2, 3)), ((2, 2),), ((1, 2),),
        ((3, 1), (1, 1), (2, 5))])
    def test_paths_lie_in_the_band(self, steps):
        for m in range(2, 26):
            bands = _band(steps, m)
            assert len(bands) == m
            on_path = on_some_path(steps, m)
            for i, (lo, hi) in enumerate(bands):
                assert 0 <= lo <= hi <= m
                cols = np.flatnonzero(on_path[i])
                assert np.all((lo <= cols) & (cols < hi)), (m, i, lo, hi, cols)
            assert all(b1[0] <= b2[0] and b1[1] <= b2[1] for b1, b2 in zip(bands, bands[1:]))

    def test_default_band_is_the_slope_window(self):
        # slopes 1/3 .. 3 on a 100-node lattice: row 3 keeps columns 1 .. 9,
        # row 50 columns 17 .. 82 and row 96 columns 90 .. 98
        bands = _band(_DEFAULT_STEPS, 100)
        assert bands[0] == (0, 1) and bands[99] == (99, 100)
        assert bands[3] == (1, 10) and bands[50] == (17, 83) and bands[96] == (90, 99)


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

    @settings(max_examples=60, deadline=None)
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
        steps = data.draw(neighborhoods(), label="neighborhood")
        cfg = DpConfig(grid_size=grid_size, neighborhood=steps, seed_stride=stride)
        if not on_some_path(cfg.neighborhood, grid_size)[-1, -1]:
            with pytest.raises(ValueError, match="end node unreachable"):
                dp_align_closed(q1, q2, cfg)
            return
        self.assert_matches_oracle(q1, q2, cfg, per_block)

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
        with pytest.raises(ValueError, match="seed_stride must be at least 1"):
            DpConfig(seed_stride=0)

    @pytest.mark.parametrize("field,value,message", [
        ("grid_size", 50.0, "grid_size must be at least 3 and an integer, not 50.0"),
        ("seed_stride", 1.5, "seed_stride must be at least 1 and an integer, not 1.5"),
        ("neighborhood", ((1.9, 2.7),),
         "each part of a neighborhood step must be at least 1 and an integer, not 1.9"),
        ("neighborhood", ((1, 1), (2, 0)),
         "each part of a neighborhood step must be at least 1 and an integer, not 0"),
    ])
    def test_count_rejected_not_truncated(self, field, value, message):
        with pytest.raises(ValueError, match=f"^{message}$"):
            DpConfig(**{field: value})

    def test_numpy_integer_steps_become_ints(self):
        cfg = DpConfig(grid_size=np.int64(50), neighborhood=((np.int64(2), np.int32(1)),))
        assert cfg.neighborhood == ((2, 1),)
        assert all(type(v) is int for v in cfg.neighborhood[0])
