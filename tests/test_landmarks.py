from itertools import combinations

import numpy as np
import pytest

from warpalign import (
    BayesConfig,
    Curve,
    LandmarkSet,
    PLWarp,
    SaConfig,
    WarpPrior,
    beta_cdf_warp,
    constrained_align,
    identity,
    landmark_prewarp,
    posterior_summary,
    restrict,
    sa_align,
    sir_posterior,
    sup_dist,
    to_srvf,
    uniform_grid,
)
from warpalign.fixtures import pqrst_landmarks, pqrst_pair, two_bump_pair


class TestLandmarkSet:
    def test_validation(self):
        with pytest.raises(ValueError):
            LandmarkSet([(0.0, 0.5)])  # boundary position
        with pytest.raises(ValueError):
            LandmarkSet([(0.4, 0.5), (0.4, 0.7)])  # coincident a
        with pytest.raises(ValueError):
            LandmarkSet([(0.3, 0.6), (0.5, 0.6)])  # coincident b

    @pytest.mark.parametrize("bad", [(np.nan, 0.5), (0.5, np.nan), (np.inf, 0.5),
                                     (0.5, -np.inf)])
    def test_non_finite_position_rejected(self, bad):
        # every comparison with NaN is False, so the range rule must fail it
        for pairs in ([bad], [(0.2, 0.2), bad]):
            with pytest.raises(ValueError, match="strictly inside"):
                LandmarkSet(pairs)

    def test_pairs_need_two_columns(self):
        with pytest.raises(ValueError, match=r"\(n, 2\)"):
            LandmarkSet([[0.1, 0.2, 0.3], [0.4, 0.5, 0.6]])

    def test_empty_allowed(self):
        lm = LandmarkSet(np.empty((0, 2)))
        assert len(lm) == 0


class TestPrewarp:
    def test_fixed_point_pair_is_identity(self):
        w = landmark_prewarp(LandmarkSet([(0.5, 0.5)]))
        assert sup_dist(w, identity()) == 0.0

    def test_single_pair_knots(self):
        w = landmark_prewarp(LandmarkSet([(0.4, 0.6)]))
        assert np.array_equal(w.x, [0.0, 0.4, 1.0])
        assert np.array_equal(w.y, [0.0, 0.6, 1.0])

    def test_two_pairs_interpolate_exactly(self):
        w = landmark_prewarp(LandmarkSet([(0.3, 0.2), (0.7, 0.8)]))
        assert w.x.size == 4
        assert w(0.3) == 0.2 and w(0.7) == 0.8


class TestConstrainedAlign:
    def test_empty_set_matches_unconstrained(self):
        c1, c2 = two_bump_pair(80)
        none = LandmarkSet(np.empty((0, 2)))
        cfg = SaConfig(max_iters=150)
        res = constrained_align(c1, c2, none, "sa", cfg, np.random.default_rng(5))
        direct = sa_align(to_srvf(c1), to_srvf(c2), cfg, np.random.default_rng(5))
        assert np.array_equal(res.warp.x, direct.warp.x)
        assert np.array_equal(res.warp.y, direct.warp.y)
        cfg = BayesConfig(prior_draws=200, resample_size=50)
        res = constrained_align(c1, c2, none, "bayes", cfg, np.random.default_rng(5))
        post = sir_posterior(to_srvf(c1), to_srvf(c2), cfg, np.random.default_rng(5))
        mean = posterior_summary(post, c1.grid)[0]
        assert np.array_equal(res.warp.x, mean.x) and np.array_equal(res.warp.y, mean.y)
        assert len(res.posterior_warps) == len(post.warps) == 50
        for glued, draw in zip(res.posterior_warps, post.warps):
            assert np.array_equal(glued.x, draw.x) and np.array_equal(glued.y, draw.y)

    def test_identical_curves_near_identity(self):
        c1, _ = two_bump_pair(100)
        lm = LandmarkSet([(0.5, 0.5)])
        cfg = SaConfig(max_iters=800)
        res = constrained_align(c1, c1, lm, "sa", cfg, np.random.default_rng(6))
        assert sup_dist(res.warp, identity()) <= 0.05

    def test_landmarks_hit_exactly(self):
        c1, c2 = pqrst_pair(100)
        lm = pqrst_landmarks()
        cfg = SaConfig(max_iters=400)
        res = constrained_align(c1, c2, lm, "sa", cfg, np.random.default_rng(7))
        for a, b in zip(lm.a, lm.b):
            assert abs(res.warp(a) - b) < 1e-12

    def test_bayes_rejects_non_identity_prior_mean(self):
        c1, c2 = pqrst_pair(100)
        lm = LandmarkSet([(0.5, 0.5)])
        cfg = BayesConfig(prior=WarpPrior(beta_cdf_warp(2, 3), 20, 10.0),
                          prior_draws=200, resample_size=50)
        with pytest.raises(ValueError, match=r"prior\.mean_warp"):
            constrained_align(c1, c2, lm, "bayes", cfg, np.random.default_rng(8))

    def test_bayes_accepts_identity_mean_with_extra_knots(self):
        c1, c2 = pqrst_pair(100)
        lm = LandmarkSet([(0.5, 0.5)])
        flat = WarpPrior(PLWarp([0.0, 0.3, 1.0], [0.0, 0.3, 1.0]), 20, 10.0)
        runs = [constrained_align(c1, c2, lm, "bayes",
                                  BayesConfig(prior=prior, prior_draws=200, resample_size=50),
                                  np.random.default_rng(8))
                for prior in (flat, WarpPrior(identity(), 20, 10.0))]
        assert np.array_equal(runs[0].warp.x, runs[1].warp.x)
        assert np.array_equal(runs[0].warp.y, runs[1].warp.y)

    def test_theta_rescaled_per_segment(self):
        c1, c2 = pqrst_pair(100)
        lm = pqrst_landmarks()
        cfg = BayesConfig(prior_draws=200, resample_size=50)
        res = constrained_align(c1, c2, lm, "bayes", cfg, np.random.default_rng(8))
        cuts = np.concatenate(([0.0], lm.a, [1.0]))
        for seg, lo, hi in zip(res.segments, cuts[:-1], cuts[1:]):
            span = hi - lo
            assert seg.config.prior.concentration == pytest.approx(10.0 * span)
            expected_n = max(2, round(20 * span))
            assert seg.config.prior.partition_size == expected_n

    def test_sa_theta_rescaled_per_segment(self):
        c1, c2 = pqrst_pair(100)
        lm = pqrst_landmarks()
        cfg = SaConfig(max_iters=50)
        res = constrained_align(c1, c2, lm, "sa", cfg, np.random.default_rng(9))
        spans = np.diff(np.concatenate(([0.0], lm.a, [1.0])))
        for seg, span in zip(res.segments, spans):
            assert seg.config.theta == pytest.approx(100.0 * span)

    def test_segment_independence(self):
        # two pairs that differ only inside segment 2, run from one seed:
        # segment 1's result is shared, and each pair's segment 2 is exactly
        # SA on its own segment-2 data with the second spawned stream
        c1, c2 = pqrst_pair(100)
        lm = LandmarkSet([(0.5, 0.55)])
        cfg = SaConfig(max_iters=200)
        changed = Curve(c2.grid, np.where(c2.grid[:, None] > 0.6, 2.0 * c2.points, c2.points))
        res_a, res_b = (constrained_align(c1, g2, lm, "sa", cfg, np.random.default_rng(1))
                        for g2 in (c2, changed))
        left = res_a.segments[0].result.warp
        assert np.array_equal(left.x, res_b.segments[0].result.warp.x)
        assert np.array_equal(left.y, res_b.segments[0].result.warp.y)
        t = np.linspace(0.01, 0.49, 40)
        assert np.array_equal(res_a.warp(t), res_b.warp(t))

        def segment_srvf(curve, lo, hi):
            # the curve on [lo, hi] read at lo + (hi - lo) u, u uniform on as
            # many points as c1's grid has inside (0.5, 1), plus the two ends
            u = uniform_grid(np.count_nonzero((c1.grid > 0.5) & (c1.grid < 1.0)) + 2)
            at = lo + (hi - lo) * u
            at[-1] = hi
            cols = [np.interp(at, curve.grid, col) for col in curve.points.T]
            return to_srvf(Curve(u, np.column_stack(cols), "open"))

        q1 = segment_srvf(c1, 0.5, 1.0)
        q2s = [segment_srvf(g2, 0.55, 1.0) for g2 in (c2, changed)]
        assert not np.array_equal(q2s[0].values, q2s[1].values)
        for res, q2 in zip((res_a, res_b), q2s):
            seg = res.segments[1]
            direct = sa_align(q1, q2, seg.config, np.random.default_rng(1).spawn(2)[1])
            assert np.array_equal(seg.result.warp.x, direct.warp.x)
            assert np.array_equal(seg.result.warp.y, direct.warp.y)
            assert np.array_equal(seg.result.energy_trace, direct.energy_trace)
            assert seg.result.final_energy == direct.final_energy

    def test_bayes_band_zero_at_landmarks_positive_between(self):
        c1, c2 = pqrst_pair(100)
        lm = pqrst_landmarks()
        # full default draw count plus a flatter precision prior: fewer draws
        # or a tiny b0 leave one dominant weight per segment and the empirical
        # band collapses
        cfg = BayesConfig(b0=5.0)
        res = constrained_align(c1, c2, lm, "bayes", cfg, np.random.default_rng(0))
        grid = np.union1d(uniform_grid(100), lm.a)
        vals = np.stack([w(grid) for w in res.posterior_warps])
        width = np.percentile(vals, 97.5, axis=0) - np.percentile(vals, 2.5, axis=0)
        for a in lm.a:
            assert width[np.searchsorted(grid, a)] < 1e-6
        for t in (0.19, 0.53, 0.84):
            assert width[np.searchsorted(grid, t)] > 0.0

    def test_tight_segment_needs_finer_sampling(self):
        c1, c2 = pqrst_pair(100)
        lm = LandmarkSet([(0.5, 0.5), (0.505, 0.51)])
        with pytest.raises(ValueError, match="finer"):
            constrained_align(c1, c2, lm, "sa", SaConfig(max_iters=10),
                              np.random.default_rng(0))

    @pytest.mark.parametrize("mode", ["open_shape", "closed_shape"])
    @pytest.mark.parametrize("pairs", [np.empty((0, 2)), [(0.5, 0.55)]])
    def test_sa_shape_mode_rejected(self, mode, pairs):
        # the segment aligner is function-mode SA: a shape mode would come
        # back without its rotation or seed
        c1, c2 = pqrst_pair(100)
        with pytest.raises(ValueError, match="function mode"):
            constrained_align(c1, c2, LandmarkSet(pairs), "sa",
                              SaConfig(max_iters=10, mode=mode), np.random.default_rng(0))

    def test_grid_mismatch_rejected(self):
        c1, _ = two_bump_pair(50)
        _, c2 = two_bump_pair(60)
        with pytest.raises(ValueError, match="common grid"):
            constrained_align(c1, c2, LandmarkSet(np.empty((0, 2))), "sa",
                              SaConfig(max_iters=10), np.random.default_rng(0))

    def test_unknown_method_rejected(self):
        c1, c2 = two_bump_pair(50)
        with pytest.raises(ValueError):
            constrained_align(c1, c2, LandmarkSet(np.empty((0, 2))), "dp",
                              SaConfig(), np.random.default_rng(0))

    @pytest.mark.parametrize("method,cfg,message", [
        ("bayes", SaConfig(max_iters=10), "method 'bayes' takes a BayesConfig, not SaConfig"),
        ("sa", BayesConfig(prior_draws=20, resample_size=5),
         "method 'sa' takes a SaConfig, not BayesConfig"),
    ])
    @pytest.mark.parametrize("pairs", [np.empty((0, 2)), [(0.5, 0.55)]])
    def test_config_of_the_other_method_rejected(self, method, cfg, message, pairs):
        c1, c2 = two_bump_pair(50)
        with pytest.raises(ValueError, match=f"^{message}$"):
            constrained_align(c1, c2, LandmarkSet(pairs), method, cfg,
                              np.random.default_rng(0))


class TestDecomposition:
    """On [a_k, a_{k+1}] the constrained warp is segment k's warp, rescaled
    onto [b_k, b_{k+1}]."""

    def test_sa_warp_is_glued_segment_warps(self):
        c1, c2 = pqrst_pair(100)
        lm = pqrst_landmarks()
        res = constrained_align(c1, c2, lm, "sa", SaConfig(max_iters=300),
                                np.random.default_rng(11))
        cuts = np.concatenate(([0.0], lm.a, [1.0]))
        for k, seg in enumerate(res.segments):
            assert seg.interval == (cuts[k], cuts[k + 1])
            piece = restrict(res.warp, cuts[k], cuts[k + 1])
            assert sup_dist(piece, seg.result.warp) <= 1e-12
        for a, b in zip(lm.a, lm.b):
            assert res.warp(a) == b

    def test_bayes_mean_and_draws_are_glued_segment_warps(self):
        c1, c2 = pqrst_pair(100)
        lm = pqrst_landmarks()
        cfg = BayesConfig(prior_draws=300, resample_size=40)
        res = constrained_align(c1, c2, lm, "bayes", cfg, np.random.default_rng(12))
        cuts = np.concatenate(([0.0], lm.a, [1.0]))
        assert len(res.posterior_warps) == 40
        for k, seg in enumerate(res.segments):
            lo, hi = cuts[k], cuts[k + 1]
            # the segment grid: curve 1's grid points inside it, plus its ends
            grid = uniform_grid(np.count_nonzero((c1.grid > lo) & (c1.grid < hi)) + 2)
            mean, _, _ = posterior_summary(seg.result, grid)
            assert sup_dist(restrict(res.warp, lo, hi), mean) <= 1e-12
            for i in range(0, 40, 7):
                piece = restrict(res.posterior_warps[i], lo, hi)
                assert sup_dist(piece, seg.result.warps[i]) <= 1e-12
        for w in (res.warp, *res.posterior_warps):
            for a, b in zip(lm.a, lm.b):
                assert w(a) == b

    def test_bayes_draws_shared_where_segment_draws_are(self):
        c1, c2 = pqrst_pair(100)
        lm = pqrst_landmarks()
        cfg = BayesConfig(prior_draws=300, resample_size=40)
        res = constrained_align(c1, c2, lm, "bayes", cfg, np.random.default_rng(12))
        draws = [seg.result.warps for seg in res.segments]
        shared = 0
        for i, j in combinations(range(40), 2):
            same = all(d[i] is d[j] for d in draws)
            assert (res.posterior_warps[i] is res.posterior_warps[j]) == same
            shared += same
        assert shared > 0
