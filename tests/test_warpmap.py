import json
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import convex_blend, knot_rows, pl_warps
from warpalign import (
    CircularWarp,
    PLWarp,
    SaConfig,
    WarpPrior,
    compose,
    identity,
    make_circular,
    normalize_length,
    restrict,
    sample,
    sample_batch,
    sup_dist,
    to_srvf,
    unit_normalize,
)
from warpalign import warpmap
from warpalign.align_sa import align
from warpalign.fixtures import closed_shape_pair, spiral_pair, two_bump_pair
from warpalign.warpmap import _interp, batch_eval, check_grid, uniform_grid

DENSE = np.linspace(0.0, 1.0, 1001)


def hump() -> PLWarp:
    return PLWarp([0.0, 0.5, 1.0], [0.0, 0.25, 1.0])


class TestEval:
    def test_identity(self):
        assert identity()(0.3) == 0.3

    def test_knot_lookup(self):
        assert hump()(0.5) == 0.25

    def test_segment_midpoint(self):
        assert hump()(0.75) == 0.625

    def test_domain_error(self):
        with pytest.raises(ValueError):
            hump()(1.2)
        with pytest.raises(ValueError):
            hump()(-0.1)

    @pytest.mark.parametrize("t", [np.nan, [0.5, np.nan]])
    def test_nan_rejected(self, t):
        with pytest.raises(ValueError, match="defined on"):
            hump()(t)
        with pytest.raises(ValueError, match="defined on"):
            hump().derivative(t)
        with pytest.raises(ValueError, match="defined on"):
            make_circular(hump(), 0.5)(t)

    def test_vectorized(self):
        out = hump()(np.array([0.0, 0.5, 1.0]))
        assert np.array_equal(out, [0.0, 0.25, 1.0])


class TestInverse:
    def test_identity_self_inverse(self):
        w = identity().inverse()
        assert np.array_equal(w.x, [0.0, 1.0]) and np.array_equal(w.y, [0.0, 1.0])

    def test_coordinate_swap(self):
        inv = hump().inverse()
        assert np.array_equal(inv.x, [0.0, 0.25, 1.0])
        assert np.array_equal(inv.y, [0.0, 0.5, 1.0])

    @settings(max_examples=80)
    @given(pl_warps())
    def test_roundtrip_dense_grid(self, w):
        inv = w.inverse()
        assert np.max(np.abs(inv(w(DENSE)) - DENSE)) < 1e-10


class TestCompose:
    @settings(max_examples=50)
    @given(pl_warps())
    def test_identity_element(self, w):
        left = compose(identity(), w)
        right = compose(w, identity())
        assert sup_dist(left, w) == 0.0
        assert sup_dist(right, w) == 0.0

    @settings(max_examples=50)
    @given(pl_warps())
    def test_group_inverse(self, w):
        assert sup_dist(compose(w, w.inverse()), identity()) < 1e-12

    def test_hand_composition(self):
        outer = PLWarp([0.0, 0.5, 1.0], [0.0, 0.25, 1.0])
        inner = PLWarp([0.0, 0.25, 1.0], [0.0, 0.5, 1.0])
        comp = compose(outer, inner)
        assert comp(0.25) == pytest.approx(0.25, abs=1e-15)

    @settings(max_examples=50)
    @given(pl_warps(), pl_warps())
    def test_closure_and_pointwise_agreement(self, u, v):
        comp = compose(u, v)
        # constructor enforced the warp invariants; check the function too
        assert np.max(np.abs(comp(DENSE) - u(v(DENSE)))) < 1e-12

    def test_colliding_knots_are_deduplicated(self):
        # two interior knots one ulp apart make a steep segment; two of the
        # composition's knots then collide in value after rounding
        w = PLWarp([0.0, 0.01, np.nextafter(0.01, 1.0), 1.0], [0.0, 0.03, 0.5, 1.0])
        with mock.patch.object(warpmap, "_dedupe_knots",
                               wraps=warpmap._dedupe_knots) as dedupe:
            comp = compose(w, w)
        assert dedupe.call_count == 1
        assert isinstance(comp, PLWarp)
        assert np.all(np.diff(comp.x) > 0) and np.all(np.diff(comp.y) > 0)
        assert np.max(np.abs(comp.y - w(w(comp.x)))) <= 1e-12


class TestRestrict:
    def test_identity_affine_invariance(self):
        r = restrict(identity(), 0.2, 0.7)
        assert sup_dist(r, identity()) == 0.0

    def test_full_interval(self):
        w = hump()
        r = restrict(w, 0.0, 1.0)
        assert np.array_equal(r.x, w.x) and np.array_equal(r.y, w.y)

    def test_single_segment_is_identity(self):
        r = restrict(hump(), 0.0, 0.5)
        assert sup_dist(r, identity()) < 1e-15

    def test_argument_error(self):
        with pytest.raises(ValueError):
            restrict(hump(), 0.5, 0.5)

    @settings(max_examples=50)
    @given(pl_warps())
    def test_nesting(self, w):
        r = restrict(w, 0.2, 0.8)
        again = restrict(r, 0.0, 1.0)
        assert sup_dist(r, again) == 0.0


class TestDerivative:
    def test_identity(self):
        assert identity().derivative(0.37) == 1.0

    def test_left_segment_slope(self):
        assert hump().derivative(0.2) == 0.5

    def test_right_continuous_at_knot(self):
        assert hump().derivative(0.5) == 1.5

    def test_left_slope_at_one(self):
        assert hump().derivative(1.0) == 1.5


class TestCircular:
    def test_quadratic_wrap_point(self):
        t = np.linspace(0.0, 1.0, 2001)
        g = PLWarp(t, np.concatenate(([0.0], (t[1:-1]) ** 2, [1.0])))
        cw = make_circular(g, 0.94)
        assert cw.wrap_point == pytest.approx(np.sqrt(0.06), abs=1e-5)
        assert abs(cw.wrap_point - 0.2449) < 0.005

    def test_identity_seed_quarter(self):
        cw = make_circular(identity(), 0.25)
        assert cw.wrap_point == pytest.approx(0.75, abs=1e-15)

    def test_degenerate_full_seed(self):
        cw = make_circular(identity(), 1.0)
        assert cw.wrap_point == 0.0
        assert cw(0.0) == 0.0 and cw(1.0) == 1.0

    def test_zero_seed_rejected(self):
        with pytest.raises(ValueError):
            make_circular(identity(), 0.0)

    def test_eval_at_zero_is_seed(self):
        cw = make_circular(hump(), 0.31)
        assert cw(0.0) == 0.31

    def test_one_sided_limits_differ_by_one(self):
        cw = make_circular(hump(), 0.31)
        tc = cw.wrap_point
        eps = 1e-9
        assert cw(tc - eps) > 1.0 - 1e-6
        assert cw(tc + eps) < 1e-6

    def test_json_roundtrip(self):
        cw = make_circular(hump(), 0.31)
        again = CircularWarp.from_dict(json.loads(cw.to_json()))
        assert np.array_equal(again.base.x, cw.base.x)
        assert again.seed == cw.seed and again.wrap_point == cw.wrap_point

    def test_wrap_point_is_computed_not_given(self):
        g = hump()
        with pytest.raises(TypeError):
            CircularWarp(g, 0.5, 0.5)
        assert CircularWarp(g, 0.5) == make_circular(g, 0.5)
        assert CircularWarp(g, 0.5).wrap_point == 0.6666666666666666

    def test_contradicting_wrap_point_rejected(self):
        data = {"knots": [[0.0, 0.0], [0.5, 0.25], [1.0, 1.0]], "seed": 0.5,
                "wrap_point": 0.5}
        with pytest.raises(ValueError, match="wrap_point 0.5 contradicts"):
            CircularWarp.from_dict(data)
        data["wrap_point"] = 0.6666666666666666
        assert CircularWarp.from_dict(data).wrap_point == 0.6666666666666666


class TestConstruction:
    def test_invalid_knots_rejected(self):
        with pytest.raises(ValueError):
            PLWarp([0.0, 0.5, 1.0], [0.0, 0.5, 0.4])
        with pytest.raises(ValueError):
            PLWarp([0.1, 1.0], [0.0, 1.0])

    @pytest.mark.parametrize("make,match", [
        (lambda: check_grid([0.0]), "at least two points"),
        (lambda: check_grid([[0.0, 1.0]]), "at least two points"),
        (lambda: uniform_grid(1), "at least two points"),
        (lambda: PLWarp([0.0, 1.0], [0.0, 0.5, 1.0]), "two equal-length 1-d sequences"),
        (lambda: PLWarp([[0.0, 1.0]], [[0.0, 1.0]]), "two equal-length 1-d sequences"),
    ], ids=["one-point-grid", "2d-grid", "one-point-uniform-grid", "length-mismatch",
            "2d-knots"])
    def test_malformed_input_rejected(self, make, match):
        with pytest.raises(ValueError, match=match):
            make()

    def test_overflowing_slope_rejected(self):
        # a subnormal knot spacing overflows the slope to inf
        with pytest.raises(ValueError, match="slope is not finite"):
            PLWarp([0.0, 5e-324, 1.0], [0.0, 0.5, 1.0])

    def test_tiny_spacing_with_finite_slope_builds(self):
        w = PLWarp([0.0, 1e-12, 1.0], [0.0, 0.5, 1.0])
        assert w.derivative(0.0) == 0.5 / 1e-12
        # subnormal spacings whose slopes stay finite, one near the largest float
        assert PLWarp([0.0, 1e-309, 1.0], [0.0, 1e-310, 1.0]).derivative(0.0) < 1
        assert PLWarp([0.0, 3e-309, 1.0], [0.0, 0.5, 1.0]).derivative(0.0) > 1e308
        with pytest.raises(ValueError, match="slope is not finite"):
            PLWarp([0.0, 2.5e-309, 1.0], [0.0, 0.5, 1.0])

    def test_from_increments_clamps_zeros(self):
        w = PLWarp.from_increments([0.0, 0.5, 1.0], [0.0, 1.0])
        assert np.all(np.diff(w.y) > 0)
        assert w.y[-1] == 1.0

    def test_from_increments_leaves_argument_unchanged(self):
        # the clamp works in place, on a copy of a float64 argument
        inc = np.array([0.0, 0.2, 0.6])
        PLWarp.from_increments([0.0, 0.3, 0.5, 1.0], inc)
        assert np.array_equal(inc, [0.0, 0.2, 0.6])

    def test_json_roundtrip_exact(self):
        w = PLWarp([0.0, 1 / 3, 1.0], [0.0, 0.123456789012345, 1.0])
        again = PLWarp.from_dict(json.loads(w.to_json()))
        assert np.array_equal(again.x, w.x) and np.array_equal(again.y, w.y)

    @settings(max_examples=40)
    @given(pl_warps(), pl_warps())
    def test_convex_blend_is_warp(self, u, v):
        b = convex_blend(u, v, 0.9)
        assert np.max(np.abs(b(DENSE) - (0.9 * u(DENSE) + 0.1 * v(DENSE)))) < 1e-12


class TestBatchEval:
    """Each row of ``batch_eval`` is ``PLWarp.__call__`` and
    ``PLWarp.derivative`` of that row's warp, bit for bit."""

    def test_matches_scalar_eval(self):
        rng = np.random.default_rng(3)
        warps = []
        xs, ys = [], []
        for _ in range(5):
            dx = rng.random(4) + 0.1
            dy = rng.random(4) + 0.1
            x = np.concatenate(([0.0], np.cumsum(dx) / np.sum(dx)))
            y = np.concatenate(([0.0], np.cumsum(dy) / np.sum(dy)))
            x[-1] = y[-1] = 1.0
            warps.append(PLWarp(x, y))
            xs.append(x)
            ys.append(y)
        t = np.linspace(0.0, 1.0, 17)
        vals, slopes = batch_eval(np.array(xs), np.array(ys), t, with_slope=True)
        for k, w in enumerate(warps):
            assert np.array_equal(vals[k], w(t))
            assert np.array_equal(slopes[k], w.derivative(t))

    @settings(max_examples=150, deadline=None)
    @given(st.data())
    def test_rows_match_plwarp(self, data):
        # t ends below 1 (then knots past its last point count at no
        # point) or in a run of one or more exact 1s; knots sit on the
        # points, so a subnormal point would overflow the first slope
        t = np.sort(data.draw(st.lists(
            st.one_of(st.sampled_from([0.0, 0.25, 0.5]),
                      st.floats(0.0, 1.0, exclude_max=True, allow_subnormal=False)),
            min_size=1, max_size=30)))
        t = np.concatenate((t, np.ones(data.draw(st.integers(0, 3)))))
        # knots may sit on the evaluation points, including repeated ones
        x, y = data.draw(knot_rows(np.unique(np.concatenate(([0.0, 1.0], t)))))
        vals, slopes = batch_eval(x, y, t, with_slope=True)
        assert np.array_equal(batch_eval(x, y, t), vals)
        for r in range(x.shape[0]):
            w = PLWarp(x[r], y[r])
            assert np.array_equal(vals[r], w(t))
            assert np.array_equal(slopes[r], w.derivative(t))

    def test_knots_past_the_last_point(self):
        # every interior knot of the first row lies past t, and each row's
        # index must still start from that row's own first segment
        x = np.array([[0.0, 0.5, 0.7, 1.0], [0.0, 0.05, 0.6, 1.0], [0.0, 0.8, 0.9, 1.0]])
        y = np.array([[0.0, 0.2, 0.4, 1.0], [0.0, 0.3, 0.5, 1.0], [0.0, 0.1, 0.6, 1.0]])
        t = np.array([0.0, 0.05, 0.1, 0.3])
        vals, slopes = batch_eval(x, y, t, with_slope=True)
        for r in range(3):
            w = PLWarp(x[r], y[r])
            assert np.array_equal(vals[r], w(t))
            assert np.array_equal(slopes[r], w.derivative(t))

    def test_value_at_one_is_exact(self):
        # on this last segment slope*(1 - x0) + y0 rounds to 1 - 2**-53
        x, y = np.array([[0.0, 0.02, 1.0]]), np.array([[0.0, 0.01, 1.0]])
        assert batch_eval(x, y, [0.5, 1.0])[0, -1] == 1.0 == PLWarp(x[0], y[0])(1.0)

    @pytest.mark.parametrize("t", [[0.5, 0.2], [-0.1, 0.5], [0.5, 1.5], [0.0, np.nan]])
    def test_rejects_unsorted_or_outside_points(self, t):
        with pytest.raises(ValueError, match="sorted"):
            batch_eval(np.array([[0.0, 0.5, 1.0]]), np.array([[0.0, 0.4, 1.0]]), t)


def test_check_grid_rejects_bad_grids():
    with pytest.raises(ValueError):
        check_grid([0.0, 0.5, 0.5, 1.0])
    with pytest.raises(ValueError):
        check_grid([0.1, 1.0])


class TestCompiledInterp:
    """The package interpolates through ``warpmap._interp``, numpy's compiled
    kernel behind ``np.interp``, bound once."""

    @settings(max_examples=60, deadline=None)
    @given(w=pl_warps(max_segments=8, min_increment=0.001),
           free=st.lists(st.floats(0.0, 1.0), max_size=12), data=st.data())
    def test_matches_np_interp_bit_for_bit(self, w, free, data):
        on_knots = data.draw(st.lists(st.sampled_from(w.x.tolist()), max_size=6))
        t = np.array(free + on_knots + [0.0, 1.0])
        # a strided column, as the warp kernels read values[:, j]
        fp = np.column_stack((w.x, w.y))[:, 1]
        for query in (t, np.stack((t, t[::-1])), np.asarray(t[0])):
            for xp, yp in ((w.x, w.y), (w.y, w.x), (w.x, fp)):
                got, expected = _interp(query, xp, yp), np.interp(query, xp, yp)
                assert type(got) is type(expected) and got.shape == expected.shape
                assert got.tobytes() == expected.tobytes()

    def test_hot_paths_do_not_call_np_interp(self, monkeypatch):
        """SA in every mode, ``sample`` and ``sample_batch`` bypass the
        ``np.interp`` wrapper: with it raising they still run."""
        def shape(c):
            return unit_normalize(to_srvf(normalize_length(c)))

        pairs = {"function": tuple(to_srvf(c) for c in two_bump_pair(40)),
                 "open_shape": tuple(shape(c) for c in spiral_pair(40)),
                 "closed_shape": tuple(shape(c) for c in closed_shape_pair(41))}
        prior = WarpPrior(PLWarp([0.0, 0.4, 1.0], [0.0, 0.55, 1.0]), 20, 10.0)

        def refuse(*args, **kwargs):
            raise AssertionError("np.interp called on a hot path")

        monkeypatch.setattr(np, "interp", refuse)
        rng = np.random.default_rng(0)
        for mode, (q1, q2) in pairs.items():
            align(q1, q2, SaConfig(mode=mode, max_iters=50), rng)
        w = sample(prior, rng)
        w(np.linspace(0.0, 1.0, 11))
        sample_batch(prior, 5, rng)
        sample_batch(prior, 5, rng, partition=[0.0, 0.3, 1.0])
