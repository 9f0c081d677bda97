import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays
from scipy.integrate import cumulative_trapezoid

from conftest import fourier_values, knot_rows, pl_warps, smooth_curves
from warpalign import (
    Curve,
    PLWarp,
    Srvf,
    arc_length,
    from_srvf,
    geodesic,
    identity,
    l2_dist,
    resample,
    shape_dist,
    to_srvf,
    unit_normalize,
    uniform_grid,
    warp_action,
    warp_curve,
    warp_energy,
)
from warpalign.srvf import _trapezoid, _warp_sse_batch, _warp_values


def line_curve(m=100, dim=1):
    t = uniform_grid(m)
    pts = np.tile(t[:, None], (1, dim))
    return Curve(t, pts)


class TestCurve:
    def test_closed_requires_matching_endpoints(self):
        t = uniform_grid(4)
        pts = np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.5, 0.5]])
        with pytest.raises(ValueError):
            Curve(t, pts, "closed")

    def test_dimension_cap(self):
        t = uniform_grid(3)
        with pytest.raises(ValueError):
            Curve(t, np.zeros((3, 4)))

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            Curve(uniform_grid(3), np.zeros((4, 1)))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_points_rejected(self, bad):
        pts = np.zeros((5, 2))
        pts[2, 1] = bad
        with pytest.raises(ValueError, match="finite"):
            Curve(uniform_grid(5), pts)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_srvf_values_rejected(self, bad):
        vals = np.ones((5, 1))
        vals[3, 0] = bad
        with pytest.raises(ValueError, match="finite"):
            Srvf(uniform_grid(5), vals)

    @pytest.mark.parametrize("make,match", [
        (lambda: Curve(uniform_grid(3), np.zeros((3, 1)), "torus"),
         "topology must be 'open' or 'closed'"),
        (lambda: Srvf(uniform_grid(5), 2.0 * np.ones((5, 1)), is_shape=True),
         "is_shape requires unit L2 norm"),
        (lambda: unit_normalize(Srvf(uniform_grid(5), np.zeros((5, 1)))),
         "cannot normalize a zero SRVF"),
    ], ids=["topology", "shape-norm", "zero-srvf"])
    def test_invalid_input_rejected(self, make, match):
        with pytest.raises(ValueError, match=match):
            make()


class TestResample:
    def test_same_grid_identity(self):
        c = line_curve(50)
        r = resample(c, 50)
        assert np.max(np.abs(r.points - c.points)) < 1e-12

    def test_straight_segment(self):
        t = uniform_grid(2)
        c = Curve(t, np.array([[0.0, 0.0], [1.0, 1.0]]))
        r = resample(c, 5)
        expected = np.linspace([0.0, 0.0], [1.0, 1.0], 5)
        assert np.allclose(r.points, expected, atol=1e-15)

    def test_arc_length_preserved_on_smooth_curves(self):
        t = uniform_grid(400)
        pts = np.column_stack((np.cos(2 * np.pi * t), np.sin(2 * np.pi * t)))
        pts[-1] = pts[0]
        c = Curve(t, pts, "closed")
        r = resample(c, 100)
        assert abs(arc_length(r) - arc_length(c)) < 0.01 * arc_length(c)

    def test_rejects_tiny_m(self):
        with pytest.raises(ValueError):
            resample(line_curve(), 1)


class TestToSrvf:
    def test_unit_slope(self):
        q = to_srvf(line_curve(100))
        assert np.allclose(q.values, 1.0, atol=1e-12)

    def test_quadratic(self):
        t = uniform_grid(100)
        c = Curve(t, t ** 2)
        q = to_srvf(c)
        inner = slice(1, -1)
        assert np.max(np.abs(q.values[inner, 0] - np.sqrt(2 * t[inner]))) < 1e-2

    def test_constant_curve_maps_to_zero(self):
        c = Curve(uniform_grid(10), np.full((10, 2), 3.7))
        q = to_srvf(c)
        assert np.all(q.values == 0.0)

    def test_unit_length_curve_has_unit_norm(self):
        t = uniform_grid(200)
        pts = np.column_stack((t, np.zeros_like(t)))
        q = to_srvf(Curve(t, pts))
        norm = np.sqrt(np.trapezoid(np.sum(q.values ** 2, axis=1), t))
        assert abs(norm - 1.0) < 1e-3

    def test_needs_three_points(self):
        with pytest.raises(ValueError):
            to_srvf(line_curve(2))


class TestFromSrvf:
    def test_unit_srvf_integrates_to_line(self):
        q = Srvf(uniform_grid(100), np.ones((100, 1)))
        c = from_srvf(q, [0.0])
        assert np.max(np.abs(c.points[:, 0] - c.grid)) < 1e-10

    def test_zero_srvf_is_constant(self):
        q = Srvf(uniform_grid(10), np.zeros((10, 1)))
        c = from_srvf(q, [2.5])
        assert np.all(c.points == 2.5)

    def test_sine_roundtrip(self):
        t = uniform_grid(200)
        c = Curve(t, np.sin(2 * np.pi * t) + 2 * t)
        back = from_srvf(to_srvf(c), c.points[0])
        assert np.max(np.abs(back.points - c.points)) < 1e-3

    @settings(max_examples=25, deadline=None)
    @given(smooth_curves(m=200))
    def test_roundtrip_property(self, c):
        back = from_srvf(to_srvf(c), c.points[0])
        assert np.max(np.abs(back.points - c.points)) < 1e-2

    @settings(max_examples=200, deadline=None)
    @given(st.data())
    def test_matches_scipy_cumulative_trapezoid(self, data):
        """The numpy integration is scipy's, bit for bit, on uniform and
        non-uniform grids and values over many decades."""
        grid = data.draw(grids(min_size=2))
        d = data.draw(st.integers(1, 3))
        scale = 10.0 ** data.draw(st.integers(-8, 8))
        vals = scale * data.draw(arrays(np.float64, (grid.size, d),
                                        elements=st.floats(-10.0, 10.0)))
        start = data.draw(arrays(np.float64, d, elements=st.floats(-1e3, 1e3)))
        q = Srvf(grid, vals)
        integrand = q.values * np.linalg.norm(q.values, axis=1)[:, None]
        expected = cumulative_trapezoid(integrand, q.grid, axis=0, initial=0.0) + start
        assert np.array_equal(from_srvf(q, start).points, expected)


class TestWarpAction:
    def test_identity_warp_is_noop(self):
        q = to_srvf(line_curve(100))
        out = warp_action(q, identity())
        assert np.array_equal(out.values, q.values)

    def test_norm_preserved(self):
        t = uniform_grid(200)
        c = Curve(t, fourier_values(t, [(0.5, 0.2), (0.1, -0.3)]) + t)
        q = unit_normalize(to_srvf(c))
        w = PLWarp([0.0, 0.35, 1.0], [0.0, 0.55, 1.0])
        after_q = warp_action(q, w)
        after = np.sqrt(np.trapezoid(np.sum(after_q.values ** 2, axis=1), t))
        assert abs(1.0 - after) < 1e-3

    def test_slope_two_segment(self):
        # unit-slope function, warp slope 2 on [0, 0.25): values are sqrt(2)
        q = to_srvf(line_curve(101))
        w = PLWarp([0.0, 0.25, 1.0], [0.0, 0.5, 1.0])
        out = warp_action(q, w)
        first = out.values[q.grid < 0.25, 0]
        assert np.allclose(first, np.sqrt(2.0), atol=1e-12)

    @settings(max_examples=40, deadline=None)
    @given(smooth_curves(m=200, amplitude=0.5, max_harmonics=2),
           smooth_curves(m=200, amplitude=0.5, max_harmonics=2),
           pl_warps(max_segments=4, min_increment=0.4))
    def test_isometry(self, c1, c2, w):
        # discretization-limited: holds for moderate warps and curvature
        q1, q2 = to_srvf(c1), to_srvf(c2)
        before = l2_dist(q1, q2)
        after = l2_dist(warp_action(q1, w), warp_action(q2, w))
        assert abs(before - after) < 5e-2

    def test_warp_energy_matches_distance(self):
        q1 = to_srvf(line_curve(100))
        t = uniform_grid(100)
        q2 = to_srvf(Curve(t, t ** 2))
        w = PLWarp([0.0, 0.4, 1.0], [0.0, 0.3, 1.0])
        assert warp_energy(q1, q2, w) == pytest.approx(
            l2_dist(q1, warp_action(q2, w)) ** 2, abs=1e-12)


@st.composite
def warps_with_grid_knots(draw, grid):
    """Valid PL warps whose interior knots include some grid points exactly."""
    on_grid = draw(st.lists(st.integers(1, grid.size - 2), max_size=4))
    # off-grid knots stay clear of the ends, where a subnormal knot
    # spacing would overflow the slope
    off_grid = draw(st.lists(st.floats(1e-6, 1.0 - 1e-6), max_size=4))
    x = np.unique(np.concatenate(([0.0, 1.0], grid[on_grid], off_grid)))
    dy = draw(st.lists(st.floats(0.05, 1.0), min_size=x.size - 1, max_size=x.size - 1))
    y = np.concatenate(([0.0], np.cumsum(dy)))
    y /= y[-1]
    y[-1] = 1.0
    return PLWarp(x, y)


class TestWarpActionOracle:
    """``warp_action`` against interpolation times the root of
    ``PLWarp.derivative``, whose own segment lookup is the oracle for
    knots on grid points and for t=1."""

    @settings(max_examples=150, deadline=None)
    @given(st.data())
    def test_matches_interp_times_root_slope(self, data):
        m = data.draw(st.integers(3, 40))
        d = data.draw(st.integers(1, 3))
        grid = uniform_grid(m)
        vals = data.draw(arrays(np.float64, (m, d), elements=st.floats(-10.0, 10.0)))
        w = data.draw(warps_with_grid_knots(grid))
        expected = np.column_stack([np.interp(w(grid), grid, vals[:, j]) for j in range(d)])
        expected *= np.sqrt(w.derivative(grid))[:, None]
        assert np.array_equal(warp_action(Srvf(grid, vals), w).values, expected)

    @settings(max_examples=100, deadline=None)
    @given(st.lists(st.floats(0.01, 1.0), min_size=1, max_size=60), st.data())
    def test_trapezoid_matches_numpy(self, steps, data):
        grid = np.concatenate(([0.0], np.cumsum(steps)))
        y = data.draw(arrays(np.float64, grid.size, elements=st.floats(-1e3, 1e3)))
        assert _trapezoid(y, grid[1:] - grid[:-1]) == np.trapezoid(y, grid)


@st.composite
def grids(draw, min_size=3, max_size=40):
    """Uniform grids, or non-uniform ones from random positive steps."""
    m = draw(st.integers(min_size, max_size))
    if draw(st.booleans()):
        return uniform_grid(m)
    steps = draw(st.lists(st.floats(0.01, 1.0), min_size=m - 1, max_size=m - 1))
    grid = np.concatenate(([0.0], np.cumsum(steps)))
    grid /= grid[-1]
    grid[-1] = 1.0
    return grid


class TestWarpSseBatch:
    """Each row's SSE from the batched residual kernel is that of the
    scalar ``_warp_values`` on that row's warp, bit for bit."""

    @settings(max_examples=150, deadline=None)
    @given(st.data())
    def test_rows_match_scalar_kernel(self, data):
        grid = data.draw(grids())
        d = data.draw(st.integers(1, 3))
        vals, target = (data.draw(arrays(np.float64, (grid.size, d),
                                         elements=st.floats(-10.0, 10.0)))
                        for _ in range(2))
        x, y = data.draw(knot_rows(grid))
        sse = np.empty(x.shape[0])
        _warp_sse_batch(grid, vals, target, x, y, sse, np.empty((2, x.shape[0], grid.size)))
        for r in range(x.shape[0]):
            warped = _warp_values(grid, vals, x[r], y[r])
            expected = 0.0
            for j in range(d):
                expected += np.sum((target[:, j] - warped[:, j]) ** 2)
            assert sse[r] == expected

    @settings(max_examples=100, deadline=None)
    @given(st.data())
    def test_reused_workspace_matches_fresh_buffers(self, data):
        """One workspace carried through the row blocks of several knot
        sets, each ending in a short block whenever the block size does
        not divide its row count, gives every row a fresh call's SSE."""
        grid = data.draw(grids())
        d = data.draw(st.integers(1, 3))
        vals, target = (data.draw(arrays(np.float64, (grid.size, d),
                                         elements=st.floats(-10.0, 10.0)))
                        for _ in range(2))
        block = data.draw(st.integers(1, 4))
        work = np.full((2, block, grid.size), np.nan)
        for _ in range(data.draw(st.integers(1, 3))):
            x, y = data.draw(knot_rows(grid, max_rows=9))
            reused, fresh = np.empty(x.shape[0]), np.empty(x.shape[0])
            for lo in range(0, x.shape[0], block):
                rows = slice(lo, lo + block)
                _warp_sse_batch(grid, vals, target, x[rows], y[rows], reused[rows], work)
            _warp_sse_batch(grid, vals, target, x, y, fresh,
                            np.empty((2, x.shape[0], grid.size)))
            assert np.array_equal(reused, fresh)

    def test_memory_does_not_grow_with_dimension(self):
        """A call holds one dimension's residuals at a time, so its traced
        peak at d = 3 is its peak at d = 1, not two (R, m) arrays more."""
        rows, m = 400, 100
        grid = uniform_grid(m)
        x = np.tile(np.linspace(0.0, 1.0, 21), (rows, 1))
        y = x ** 1.5
        sse, work = np.empty(rows), np.empty((2, rows, m))
        peaks = []
        for d in (1, 3):
            vals, target = np.random.default_rng(d).standard_normal((2, m, d))
            tracemalloc.start()
            try:
                _warp_sse_batch(grid, vals, target, x, y, sse, work)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert peaks[1] - peaks[0] < 8 * rows * m // 10


class TestDistances:
    def test_zero_distance(self):
        q = to_srvf(line_curve(50))
        assert l2_dist(q, q) == 0.0

    def test_unit_constant(self):
        g = uniform_grid(100)
        q1 = Srvf(g, np.ones((100, 1)))
        q2 = Srvf(g, np.zeros((100, 1)))
        assert l2_dist(q1, q2) == pytest.approx(1.0, abs=1e-12)

    def test_symmetry(self):
        g = uniform_grid(60)
        q1 = Srvf(g, np.sin(2 * np.pi * g)[:, None])
        q2 = Srvf(g, np.cos(2 * np.pi * g)[:, None])
        assert l2_dist(q1, q2) == l2_dist(q2, q1)

    def test_grid_mismatch(self):
        q1 = Srvf(uniform_grid(50), np.ones((50, 1)))
        q2 = Srvf(uniform_grid(60), np.ones((60, 1)))
        with pytest.raises(ValueError):
            l2_dist(q1, q2)

    def test_dimension_mismatch(self):
        g = uniform_grid(30)
        q1, q2 = Srvf(g, np.ones((30, 1))), Srvf(g, np.ones((30, 2)))
        with pytest.raises(ValueError, match="different dimensions"):
            l2_dist(q1, q2)
        with pytest.raises(ValueError, match="different dimensions"):
            warp_energy(q1, q2, identity())

    def test_shape_dist_zero(self):
        # arccos amplifies float rounding near 1, hence the tiny tolerance
        q = unit_normalize(to_srvf(line_curve(100, dim=2)))
        assert shape_dist(q, q) == pytest.approx(0.0, abs=1e-6)

    def test_orthogonal_shapes(self):
        g = uniform_grid(101)
        v1 = np.zeros((101, 1))
        v2 = np.zeros((101, 1))
        v1[g < 0.5, 0] = 1.0
        v2[g > 0.5, 0] = 1.0
        q1 = unit_normalize(Srvf(g, v1))
        q2 = unit_normalize(Srvf(g, v2))
        assert shape_dist(q1, q2) == pytest.approx(np.pi / 2, abs=1e-12)

    def test_requires_shapes(self):
        q = to_srvf(line_curve(100, dim=2))
        with pytest.raises(ValueError):
            shape_dist(q, q)

    def test_triangle_inequality(self):
        rng = np.random.default_rng(0)
        g = uniform_grid(80)
        for _ in range(25):
            qs = [unit_normalize(Srvf(g, rng.normal(size=(80, 2))))
                  for _ in range(3)]
            d01 = shape_dist(qs[0], qs[1])
            d12 = shape_dist(qs[1], qs[2])
            d02 = shape_dist(qs[0], qs[2])
            assert d02 <= d01 + d12 + 1e-9


class TestGeodesic:
    def test_two_steps_are_endpoints(self):
        g = uniform_grid(60)
        q1 = Srvf(g, np.ones((60, 1)))
        q2 = Srvf(g, np.zeros((60, 1)))
        path = geodesic(q1, q2, 2)
        assert path[0] is q1 and path[-1] is q2

    def test_sphere_midpoint_unit_norm(self):
        rng = np.random.default_rng(1)
        g = uniform_grid(90)
        q1 = unit_normalize(Srvf(g, rng.normal(size=(90, 2))))
        q2 = unit_normalize(Srvf(g, rng.normal(size=(90, 2))))
        mid = geodesic(q1, q2, 3)[1]
        norm = np.sqrt(np.trapezoid(np.sum(mid.values ** 2, axis=1), g))
        assert abs(norm - 1.0) < 1e-9

    def test_function_midpoint_linear(self):
        g = uniform_grid(40)
        q1 = Srvf(g, np.zeros((40, 1)))
        q2 = Srvf(g, np.ones((40, 1)))
        mid = geodesic(q1, q2, 3)[1]
        assert np.allclose(mid.values, 0.5, atol=1e-15)

    def test_step_count_validation(self):
        g = uniform_grid(40)
        q = Srvf(g, np.ones((40, 1)))
        with pytest.raises(ValueError):
            geodesic(q, q, 1)

    @pytest.mark.parametrize("steps", [2.5, 3.0, 1])
    def test_step_count_must_be_an_integer_of_at_least_two(self, steps):
        q = Srvf(uniform_grid(40), np.ones((40, 1)))
        with pytest.raises(ValueError,
                           match=f"^steps must be at least 2 and an integer, not {steps}$"):
            geodesic(q, q, steps)

    def test_antipodal_rejected(self):
        g = uniform_grid(50)
        v = np.ones((50, 1))
        q1 = unit_normalize(Srvf(g, v))
        q2 = unit_normalize(Srvf(g, -v))
        with pytest.raises(ValueError):
            geodesic(q1, q2, 5)


class TestClosedCurves:
    def test_cyclic_derivative_matches_endpoints(self):
        t = uniform_grid(101)
        pts = np.column_stack((np.cos(2 * np.pi * t), np.sin(2 * np.pi * t)))
        pts[-1] = pts[0]
        q = to_srvf(Curve(t, pts, "closed"))
        assert np.allclose(q.values[0], q.values[-1], atol=1e-12)

    def test_warp_curve_preserves_closure(self):
        t = uniform_grid(101)
        pts = np.column_stack((np.cos(2 * np.pi * t), np.sin(2 * np.pi * t)))
        pts[-1] = pts[0]
        c = Curve(t, pts, "closed")
        w = PLWarp([0.0, 0.3, 1.0], [0.0, 0.45, 1.0])
        out = warp_curve(c, w)
        assert out.topology == "closed"
        assert np.array_equal(out.points[0], out.points[-1])
