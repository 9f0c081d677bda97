import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import special, stats
from scipy.integrate import dblquad
from scipy.special import gammaln

from warpalign import (
    PLWarp,
    SeedDistribution,
    WarpPrior,
    beta_cdf_warp,
    degeneracy_report,
    dirichlet_sample,
    identity,
    log_density,
    prior_moments,
    sample,
    sample_batch,
    sample_circular,
    sample_fixed,
    sup_dist,
)
from warpalign.warpdist import (_DRAW_ROWS, _betainc, _draw, _random_partitions,
                                gamma_variates)
from warpalign.warpmap import batch_eval
from conftest import pl_warps, reference_draw


def id_prior(n=20, theta=10.0) -> WarpPrior:
    return WarpPrior(identity(), n, theta)


class TestDirichlet:
    def test_sums_to_one(self):
        rng = np.random.default_rng(0)
        p = dirichlet_sample([0.3, 2.0, 5.0], rng)
        assert abs(p.sum() - 1.0) < 1e-12
        assert np.all(p > 0)

    def test_rejects_nonpositive(self):
        rng = np.random.default_rng(0)
        with pytest.raises(ValueError):
            dirichlet_sample([1.0, 0.0], rng)
        with pytest.raises(ValueError):
            dirichlet_sample([1.0, -2.0], rng)

    @pytest.mark.parametrize("params", [[], [[1.0, 2.0]]], ids=["empty", "2d"])
    def test_rejects_non_vector(self, params):
        with pytest.raises(ValueError, match="nonempty 1-d sequence"):
            dirichlet_sample(params, np.random.default_rng(0))

    def test_flat_two_dim_marginal_uniform(self):
        rng = np.random.default_rng(7)
        draws = np.array([dirichlet_sample([1.0, 1.0], rng)[0] for _ in range(4000)])
        assert stats.kstest(draws, stats.uniform.cdf).pvalue > 0.01

    def test_symmetric_mean(self):
        # E p_1 = alpha_1 / sum(alpha) = 0.5 for (theta/2, theta/2)
        rng = np.random.default_rng(11)
        theta = 100.0
        draws = np.array([dirichlet_sample([theta / 2, theta / 2], rng)[0]
                          for _ in range(100_000)])
        assert abs(draws.mean() - 0.5) < 0.005

    def test_variance_formula(self):
        # Var p_1 = a(a0 - a)/(a0^2 (a0+1)) = (5*20)/(625*26) for five 5s
        rng = np.random.default_rng(13)
        draws = np.array([dirichlet_sample([5.0] * 5, rng)[0] for _ in range(40_000)])
        expected = 0.2 * 0.8 / 26.0
        assert abs(draws.var() - expected) < 0.1 * expected

    def test_leaves_params_unchanged(self):
        params = np.array([1e-4, 0.5, 2.0])
        dirichlet_sample(params, np.random.default_rng(0))
        assert np.array_equal(params, [1e-4, 0.5, 2.0])

    def test_tiny_shapes_stay_positive(self):
        rng = np.random.default_rng(5)
        for _ in range(50):
            p = dirichlet_sample([1e-4, 1e-4, 2.0], rng)
            assert np.all(p > 0) and abs(p.sum() - 1.0) < 1e-12


class TestGammaVariates:
    @pytest.mark.parametrize("shapes", [0.3, 2.5, [0.05, 3.0, 0.7, 1.0],
                                        [[0.2, 4.0, 0.9], [1.5, 0.01, 6.0]]],
                             ids=["0d-below-one", "0d-above-one", "1d", "2d"])
    def test_stream_is_one_gamma_call_then_the_uniforms(self, shapes):
        # Gamma(a + 1) for every shape in array order, then one uniform per
        # shape in array order, whatever the shape's size
        a = np.asarray(shapes, dtype=float)
        g = gamma_variates(shapes, np.random.default_rng(3))
        rng = np.random.default_rng(3)
        expected = rng.standard_gamma(a + 1.0) * rng.random(a.shape) ** (1.0 / a)
        assert isinstance(g, np.ndarray) and g.shape == a.shape
        assert np.array_equal(g, expected)

    @pytest.mark.parametrize("shape", [0.01, 0.5, 1.0, 5.0, 50.0])
    def test_matches_scipy_gamma(self, shape):
        # boosting holds for every shape, large ones included: 200,000
        # draws pass a KS test against scipy's Gamma(shape) at level 0.01
        g = gamma_variates(np.full(200_000, shape), np.random.default_rng(29))
        assert stats.kstest(g, stats.gamma(shape).cdf).pvalue > 0.01

    def test_means(self):
        # E Gamma(a, 1) = a; the bound is five standard errors sqrt(a / N)
        shapes = np.array([0.05, 0.5, 1.0, 3.0])
        n = 200_000
        g = gamma_variates(np.tile(shapes, (n, 1)), np.random.default_rng(17))
        assert np.all(np.abs(g.mean(axis=0) - shapes) < 5.0 * np.sqrt(shapes / n))


class TestSampleFixed:
    def test_midpoint_marginal_uniform(self):
        rng = np.random.default_rng(21)
        draws = np.array([sample_fixed(2, 1.0, rng)(0.5) for _ in range(4000)])
        assert stats.kstest(draws, stats.uniform.cdf).pvalue > 0.01

    def test_degenerates_with_partition_size(self):
        rng = np.random.default_rng(22)
        coarse = np.median([sup_dist(sample_fixed(20, 1.2, rng), identity())
                            for _ in range(100)])
        fine = np.median([sup_dist(sample_fixed(500, 1.2, rng), identity())
                          for _ in range(100)])
        assert coarse / fine >= 3.0

    @pytest.mark.parametrize("n,alpha,match", [
        (1, 1.0, "n must be at least 2 and an integer, not 1"),
        (5, 0.0, "alpha must be positive"),
        (5.0, 1.0, "n must be at least 2 and an integer, not 5.0"),
        (5, np.inf, "alpha must be positive and finite"),
        (5, np.nan, "alpha must be positive and finite"),
    ])
    def test_rejects_bad_arguments(self, n, alpha, match):
        with pytest.raises(ValueError, match=match):
            sample_fixed(n, alpha, np.random.default_rng(0))


class TestSample:
    def test_deterministic_given_seed(self):
        a = sample(id_prior(), np.random.default_rng(42))
        b = sample(id_prior(), np.random.default_rng(42))
        assert np.array_equal(a.x, b.x) and np.array_equal(a.y, b.y)

    def test_sample_batch_rejects_empty_batch(self):
        with pytest.raises(ValueError, match="^size must be at least 1 and an integer, not 0$"):
            sample_batch(id_prior(), 0, np.random.default_rng(0))

    def test_sample_batch_rejects_fractional_size(self):
        with pytest.raises(ValueError, match="^size must be at least 1 and an integer, not 2.5$"):
            sample_batch(id_prior(), 2.5, np.random.default_rng(0))

    @pytest.mark.parametrize("theta", [1e4, 100.0, 10.0, 0.5])
    @pytest.mark.parametrize("partition", [None, [0.0, 0.1, 0.35, 0.4, 0.8, 1.0]])
    def test_matches_first_row_of_sample_batch(self, theta, partition):
        # theta = 1e4 puts every shape of the fixed partition at one or
        # more, theta = 0.5 every Dirichlet shape below one
        mean = PLWarp([0.0, 0.4, 1.0], [0.0, 0.55, 1.0])
        prior = WarpPrior(mean, 20, theta)
        for seed in range(3):
            rng_a, rng_b = np.random.default_rng(seed), np.random.default_rng(seed)
            for _ in range(20):
                w = sample(prior, rng_a, partition)
                knots, values = sample_batch(prior, 1, rng_b, partition)
                assert np.array_equal(w.x, knots[0])
                assert np.array_equal(w.y, values[0])
            assert rng_a.random() == rng_b.random()

    @pytest.mark.parametrize("theta", [100.0, 0.5])
    def test_predrawn_draw_matches_own_draw(self, theta):
        # given the partition and the boosting uniforms its own draw would
        # take, _draw makes one generator call, the gammas, and gives the
        # same warp
        mean, n = PLWarp([0.0, 0.4, 1.0], [0.0, 0.55, 1.0]), 20
        for seed in range(5):
            knots, values = _draw(mean.x, mean.y, n, theta, np.random.default_rng(seed))
            rng = np.random.default_rng(seed)
            part = _random_partitions(None, n, rng)
            state = rng.bit_generator.state
            a = np.maximum(theta * np.diff(np.interp(part, mean.x, mean.y)), 1e-12)
            rng.standard_gamma(a + 1.0)
            u = rng.random(n)
            rng.bit_generator.state = state
            pre_knots, pre_values = _draw(mean.x, mean.y, n, theta, rng, part, u)
            assert np.array_equal(pre_knots, knots)
            assert np.array_equal(pre_values, values)
            # the gammas alone were drawn: the uniforms come next
            assert np.array_equal(rng.random(n), u)

    @pytest.mark.parametrize("size", [1, _DRAW_ROWS - 1, _DRAW_ROWS, _DRAW_ROWS + 1,
                                      2 * _DRAW_ROWS, 3 * _DRAW_ROWS + 7])
    @pytest.mark.parametrize("theta", [0.5, 10.0, 1000.0])
    @pytest.mark.parametrize("fixed", [False, True])
    @settings(max_examples=8, deadline=None)
    @given(n=st.sampled_from([2, 20]), mean=st.one_of(st.just(identity()), pl_warps()),
           partition=st.one_of(st.just(identity()),
                               pl_warps(max_segments=12, min_increment=0.01)),
           seed=st.integers(0, 2 ** 32 - 1))
    def test_sample_batch_matches_one_pass_reference(self, size, theta, fixed, n, mean,
                                                     partition, seed):
        """A batch consumes the stream as the reference does: every
        partition, then one pass of the gamma recipe per 1024-row block (the
        last block full at 2048, short at 1025 and 3079).  At theta 0.5
        every shape is below one, at 1000 none is."""
        prior = WarpPrior(mean, n, theta)
        part = partition.x if fixed else None
        rng_a, rng_b = np.random.default_rng(seed), np.random.default_rng(seed)
        knots, values = sample_batch(prior, size, rng_a, part)
        ref_knots, ref_values = reference_draw(prior, size, rng_b, part)
        assert np.array_equal(knots, ref_knots)
        assert np.array_equal(values, ref_values)
        assert rng_a.random() == rng_b.random()

    def test_valid_warps(self):
        rng = np.random.default_rng(1)
        for theta in (0.1, 10.0, 1000.0):
            for _ in range(20):
                w = sample(id_prior(theta=theta), rng)
                assert w.x[0] == 0.0 and w.x[-1] == 1.0
                assert np.all(np.diff(w.x) > 0) and np.all(np.diff(w.y) > 0)

    def test_knot_moments_on_fixed_partition(self):
        # gamma(s) ~ Beta(theta*s, theta*(1-s)) on a supplied partition
        rng = np.random.default_rng(2)
        part = [0.0, 0.25, 0.5, 0.75, 1.0]
        theta = 10.0
        _, vals = sample_batch(id_prior(theta=theta), 10_000, rng, partition=part)
        for idx, s in [(1, 0.25), (2, 0.5), (3, 0.75)]:
            x = vals[:, idx]
            se = x.std() / np.sqrt(x.size)
            assert abs(x.mean() - s) < 3 * se
            expected_var = s * (1 - s) / (1 + theta)
            assert abs(x.var() - expected_var) < 0.1 * expected_var

    def test_knot_marginal_beta_ks(self):
        rng = np.random.default_rng(3)
        theta = 10.0
        part = [0.0, 0.3, 0.7, 1.0]
        _, vals = sample_batch(id_prior(theta=theta), 10_000, rng, partition=part)
        p = stats.kstest(vals[:, 1], stats.beta(theta * 0.3, theta * 0.7).cdf).pvalue
        assert p > 0.01

    def test_large_theta_concentrates_on_mean(self):
        rng = np.random.default_rng(4)
        prior = WarpPrior(identity(), 80, 1e4)
        hits = 0
        for _ in range(200):
            if sup_dist(sample(prior, rng), identity()) < 0.05:
                hits += 1
        assert hits >= 198

    def test_nonuniform_mean_warp(self):
        # Monte Carlo mean warp tracks H = Beta(5,1) cdf within 0.02 sup-norm
        rng = np.random.default_rng(6)
        h = beta_cdf_warp(5.0, 1.0)
        prior = WarpPrior(h, 20, 10.0)
        grid = np.linspace(0.0, 1.0, 21)
        knots, vals = sample_batch(prior, 20_000, rng)
        mean = batch_eval(knots, vals, grid).mean(axis=0)
        assert np.max(np.abs(mean - h(grid))) < 0.02

    def test_subset_invariance_moments(self):
        # restriction to [a,b] has mean H_ab and variance with theta*(H(b)-H(a))
        rng = np.random.default_rng(8)
        theta = 10.0
        a, mid, b = 0.2, 0.5, 0.8
        part = [0.0, a, mid, b, 1.0]
        _, vals = sample_batch(id_prior(theta=theta), 10_000, rng, partition=part)
        restricted = (vals[:, 2] - vals[:, 1]) / (vals[:, 3] - vals[:, 1])
        u = (mid - a) / (b - a)
        se = restricted.std() / np.sqrt(restricted.size)
        assert abs(restricted.mean() - u) < 3 * se
        expected_var = u * (1 - u) / (1 + theta * (b - a))
        assert abs(restricted.var() - expected_var) < 0.1 * expected_var

    def test_markov_type_independence(self):
        # restrictions to [a,b] and [b,1] are uncorrelated beyond the endpoints
        rng = np.random.default_rng(9)
        part = [0.0, 0.2, 0.4, 0.6, 0.8, 1.0]
        _, vals = sample_batch(id_prior(theta=5.0), 10_000, rng, partition=part)
        left = (vals[:, 2] - vals[:, 1]) / (vals[:, 3] - vals[:, 1])
        right = (vals[:, 4] - vals[:, 3]) / (1.0 - vals[:, 3])
        joint_corr = np.corrcoef(left, right)[0, 1]
        # independent re-draws as the reference correlation
        _, vals2 = sample_batch(id_prior(theta=5.0), 10_000, rng, partition=part)
        right2 = (vals2[:, 4] - vals2[:, 3]) / (1.0 - vals2[:, 3])
        ref_corr = np.corrcoef(left, right2)[0, 1]
        assert abs(joint_corr - ref_corr) < 3 * np.sqrt(2.0 / vals.shape[0])


class FirstDrawStub:
    """A generator whose first ``random`` call returns ``first`` and whose
    later calls draw from ``rng``."""

    def __init__(self, first, rng):
        self.first, self.rng = np.array(first, dtype=float), rng

    def random(self, size=None, out=None):
        if self.first is None:
            return self.rng.random(size, out=out)
        first, self.first = self.first, None
        if out is None:
            return first
        out[...] = first
        return out


class TestRandomPartitions:
    """A row of sorted uniforms that is not strictly increasing, from a
    repeated uniform or a 0.0, is redrawn, and no other row is."""

    N = 6

    @pytest.mark.parametrize("first", [[0.2, 0.7, 0.2, 0.9, 0.4], [0.3, 0.0, 0.8, 0.5, 0.6]],
                             ids=["repeat", "zero"])
    def test_one_row_is_redrawn(self, first):
        rng, ref = np.random.default_rng(3), np.random.default_rng(3)
        knots = _random_partitions(None, self.N, FirstDrawStub(first, rng))
        assert knots.shape == (self.N + 1,)
        assert knots[0] == 0.0 and knots[-1] == 1.0 and np.all(np.diff(knots) > 0.0)
        assert np.array_equal(knots[1:-1], np.sort(ref.random(self.N - 1)))
        # the redraw took n - 1 uniforms and no more
        assert rng.random() == ref.random()

    def test_batch_redraws_its_bad_rows_only(self):
        first = np.random.default_rng(9).random((4, self.N - 1))
        first[1, 3] = first[1, 0]  # a repeated uniform
        first[3, 2] = 0.0
        rng, ref = np.random.default_rng(5), np.random.default_rng(5)
        knots = _random_partitions(4, self.N, FirstDrawStub(first, rng))
        expected = np.sort(first, axis=1)
        expected[[1, 3]] = np.sort(ref.random((2, self.N - 1)), axis=1)
        assert np.array_equal(knots[:, 1:-1], expected)
        assert np.all(knots[:, 0] == 0.0) and np.all(knots[:, -1] == 1.0)
        assert np.all(np.diff(knots, axis=1) > 0.0)
        assert rng.random() == ref.random()

    def test_holds_no_full_uniform_array(self):
        """The uniforms go into the knot rows one ``_DRAW_ROWS`` block at a
        time: beyond the knots, the traced peak stays below a quarter of
        the (size, n - 1) array that one draw of them all would hold (the
        row check's (size, n) booleans are about an eighth of it)."""
        size, n = 200_000, 20
        tracemalloc.start()
        try:
            knots = _random_partitions(size, n, np.random.default_rng(0))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        full = size * (n - 1) * 8
        assert peak - knots.nbytes < full // 4, f"{(peak - knots.nbytes) / 2 ** 20:.1f} MiB"


class TestCircularSampling:
    def test_eval_zero_is_seed(self):
        rng = np.random.default_rng(10)
        for _ in range(50):
            cw = sample_circular(id_prior(), SeedDistribution.uniform(), rng)
            if cw.seed < 1.0:
                assert cw(0.0) == cw.seed

    def test_unique_wrap_point(self):
        rng = np.random.default_rng(12)
        t = np.linspace(0.0, 1.0, 400)
        for _ in range(50):
            cw = sample_circular(id_prior(), SeedDistribution.uniform(), rng)
            drops = np.sum(np.diff(cw(t)) < 0)
            assert drops == (1 if cw.seed < 1.0 else 0)
            assert 0.0 < cw.wrap_point < 1.0 or cw.seed == 1.0

    def test_uniform_seed_mean(self):
        rng = np.random.default_rng(14)
        dist = SeedDistribution.uniform()
        seeds = np.array([dist.sample(rng) for _ in range(100_000)])
        assert abs(seeds.mean() - 0.5) < 0.005

    def test_von_mises_seed_concentrates(self):
        rng = np.random.default_rng(15)
        dist = SeedDistribution.von_mises(0.3, 200.0)
        seeds = np.array([dist.sample(rng) for _ in range(2000)])
        assert np.all(np.abs(seeds - 0.3) < 0.2)
        assert abs(seeds.mean() - 0.3) < 0.01


class TestLogDensity:
    def test_uniform_case_is_zero(self):
        assert log_density(id_prior(2, 2.0), [0.0, 0.5, 1.0], [0.5]) == pytest.approx(0.0)

    def test_beta22_at_half(self):
        val = log_density(id_prior(2, 4.0), [0.0, 0.5, 1.0], [0.5])
        assert val == pytest.approx(np.log(1.5), abs=1e-12)

    def test_rejects_nonmonotone_values(self):
        with pytest.raises(ValueError):
            log_density(id_prior(3, 3.0), [0.0, 0.3, 0.7, 1.0], [0.6, 0.4])

    @pytest.mark.parametrize("prior,partition,values,match", [
        (id_prior(3, 3.0), [0.0, 0.3, 0.7, 1.0], [0.5], "match the interior"),
        # theta * diff(H) underflows to zero on a subnormal spacing
        (id_prior(2, 0.1), [0.0, 5e-324, 1.0], [0.5], "partition too fine"),
    ], ids=["values-length", "underflowing-shape"])
    def test_rejects_bad_arguments(self, prior, partition, values, match):
        with pytest.raises(ValueError, match=match):
            log_density(prior, partition, values)

    def test_density_integrates_to_one(self):
        # quadrature oracle over the ordered pairs 0 < x1 < x2 < 1
        prior = id_prior(3, 6.0)
        part = [0.0, 0.3, 0.7, 1.0]

        def dens(x2, x1):
            return np.exp(log_density(prior, part, [x1, x2]))

        total, err = dblquad(dens, 0.0, 1.0, lambda x1: x1, lambda x1: 1.0)
        assert abs(total - 1.0) < 1e-3

    @pytest.mark.parametrize("seed", range(5))
    def test_matches_gammaln_formula(self, seed):
        """The ``math.lgamma`` normaliser is scipy's ``gammaln`` one."""
        rng = np.random.default_rng(seed)
        n = int(rng.integers(2, 40))
        prior = WarpPrior(beta_cdf_warp(*rng.uniform(0.5, 5.0, 2)), n,
                          float(rng.uniform(0.5, 50.0)))
        part = np.concatenate(([0.0], np.sort(rng.random(n - 1)), [1.0]))
        values = np.sort(rng.random(n - 1))
        a = prior.concentration * np.diff(prior.mean_warp(part))
        p = np.diff(np.concatenate(([0.0], values, [1.0])))
        expected = (gammaln(prior.concentration) - gammaln(a).sum()
                    + np.sum((a - 1.0) * np.log(p)))
        assert log_density(prior, part, values) == pytest.approx(expected, rel=1e-12)


class TestPriorMoments:
    def test_formula(self):
        mean, var = prior_moments(id_prior(theta=10.0), 0.5)
        assert mean == 0.5
        assert var == pytest.approx(0.25 / 11.0, abs=1e-15)

    def test_boundary(self):
        mean, var = prior_moments(id_prior(), 0.0)
        assert mean == 0.0 and var == 0.0

    def test_small_theta_limit(self):
        _, var = prior_moments(id_prior(theta=1e-9), 0.5)
        assert var == pytest.approx(0.25, rel=1e-6)

    def test_matches_monte_carlo(self):
        rng = np.random.default_rng(16)
        prior = id_prior(40, 10.0)
        knots, vals = sample_batch(prior, 20_000, rng)
        at = np.array([0.5])
        draws = batch_eval(knots, vals, at)[:, 0]
        mean, var = prior_moments(prior, 0.5)
        assert abs(draws.mean() - mean) < 3 * draws.std() / np.sqrt(draws.size)
        assert abs(draws.var() - var) < 0.1 * var


class TestDegeneracy:
    def test_equispaced_limit_identity(self):
        rng = np.random.default_rng(17)
        rows = degeneracy_report([20, 100, 500], 1.2, identity(), 100, rng)
        meds = [d for _, d in rows]
        assert meds[0] > meds[1] > meds[2]
        assert meds[0] / meds[2] >= 3.0

    def test_beta_partition_limit_is_quantile(self):
        rng = np.random.default_rng(18)
        cdf = beta_cdf_warp(2.0, 1.0)
        rows = degeneracy_report([20, 300], 1.2, cdf, 100, rng)
        assert rows[0][1] > rows[1][1]
        # at n=300 samples hug the Beta(2,1) quantile map: median dist is small
        assert rows[1][1] < 0.06

    def test_empty_ns_rejected(self):
        with pytest.raises(ValueError):
            degeneracy_report([], 1.0, identity(), 10, np.random.default_rng(0))

    @pytest.mark.parametrize("ns,samples,message", [
        ([20], 0, "samples must be at least 1 and an integer, not 0"),
        ([20], 2.0, "samples must be at least 1 and an integer, not 2.0"),
        ([20, 20.5], 3, "n must be at least 1 and an integer, not 20.5"),
        ([0], 3, "n must be at least 1 and an integer, not 0"),
    ])
    def test_bad_count_rejected_before_sampling(self, ns, samples, message):
        # samples=0 used to return a nan median with a RuntimeWarning, and a
        # fractional n was truncated
        rng = np.random.default_rng(0)
        with pytest.raises(ValueError, match=f"^{message}$"):
            degeneracy_report(ns, 1.2, identity(), samples, rng)
        assert rng.random() == np.random.default_rng(0).random()

    @pytest.mark.parametrize("alpha", [0.0, np.nan, np.inf])
    def test_bad_alpha_rejected_before_sampling(self, alpha):
        rng = np.random.default_rng(0)
        with pytest.raises(ValueError, match="^alpha must be positive and finite$"):
            degeneracy_report([20], alpha, identity(), 3, rng)
        assert rng.random() == np.random.default_rng(0).random()

    def test_numpy_integer_counts_accepted(self):
        rows = degeneracy_report([np.int64(5)], 1.2, identity(), np.int32(3),
                                 np.random.default_rng(0))
        assert rows == degeneracy_report([5], 1.2, identity(), 3, np.random.default_rng(0))
        assert type(rows[0][0]) is int


class TestSeedDistributionValidation:
    def test_bad_kappa(self):
        with pytest.raises(ValueError):
            SeedDistribution.von_mises(0.2, -1.0)

    @pytest.mark.parametrize("kappa", [np.nan, np.inf])
    def test_non_finite_kappa(self, kappa):
        with pytest.raises(ValueError, match="finite"):
            SeedDistribution.von_mises(0.5, kappa)

    def test_bad_center(self):
        with pytest.raises(ValueError):
            SeedDistribution.von_mises(1.0, 2.0)

    def test_bad_kind(self):
        with pytest.raises(ValueError, match="kind must be"):
            SeedDistribution("wrapped_normal")

    def test_prior_validation(self):
        with pytest.raises(ValueError):
            WarpPrior(identity(), 1, 1.0)
        with pytest.raises(ValueError):
            WarpPrior(identity(), 5, 0.0)

    @pytest.mark.parametrize("n,theta,message", [
        (2.5, 10.0, "partition_size must be at least 2 and an integer, not 2.5"),
        (1, 10.0, "partition_size must be at least 2 and an integer, not 1"),
        (20, np.inf, "concentration must be positive and finite"),
        (20, -1.0, "concentration must be positive and finite"),
    ])
    def test_prior_rejection_names_the_field(self, n, theta, message):
        with pytest.raises(ValueError, match=f"^{message}$"):
            WarpPrior(identity(), n, theta)


class TestBetaCdfWarp:
    @pytest.mark.parametrize("a,b,knots,message", [
        (2.0, 3.0, 1, "knots must be at least 2 and an integer, not 1"),
        (2.0, 3.0, 101.0, "knots must be at least 2 and an integer, not 101.0"),
        (0.0, 3.0, 1001, "Beta parameters a and b must be positive and finite"),
        (2.0, np.inf, 1001, "Beta parameters a and b must be positive and finite"),
        (1e155, 20.0, 1001, r"Beta parameters a and b overflow the incomplete beta "
                            r"function's continued fraction \(a shape of about 1\.3e154 "
                            r"or more\)"),
    ])
    def test_rejects_bad_arguments(self, a, b, knots, message):
        with pytest.raises(ValueError, match=f"^{message}$"):
            beta_cdf_warp(a, b, knots=knots)

    # shapes from near-zero to large on both sides of the fast-converging split
    SHAPES = [1e-3, 0.02, 0.1, 0.3, 0.5, 1.0, 2.0, 3.0, 5.0, 10.0, 50.0, 200.0, 1e3, 1e4]

    @pytest.mark.parametrize("a", SHAPES)
    def test_matches_scipy_beta_cdf(self, a):
        """The numpy incomplete beta builds scipy's warp to 1e-11 in every
        knot value, and raises no warning."""
        t = np.linspace(0.0, 1.0, 1001)
        for b in self.SHAPES:
            y = stats.beta.cdf(t, a, b)
            y[0], y[-1] = 0.0, 1.0
            expected = PLWarp.from_increments(t, np.diff(y))
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                got = beta_cdf_warp(a, b)
            assert np.array_equal(got.x, t)
            assert np.max(np.abs(got.y - expected.y)) <= 1e-11, (a, b)

    @pytest.mark.parametrize("a,b", [(1e4, 10.0), (1e5, 3.0), (9.2e4, 6.4e4), (1e6, 1e6),
                                     (8.4e5, 19.6)])
    def test_large_shapes_match_scipy_where_the_mass_is(self, a, b):
        """At large shapes the mass sits in a band far narrower than the
        knot spacing, so the incomplete beta is checked at 1999 quantiles
        of the law, both ways round, to 1e-11.  There the lgamma sum for
        log B and the exponent a log x + b log1p(-x) cancel terms of size
        a log a, which left errors of 7.2e-12, 1.6e-10, 2.5e-11 and 5.8e-10
        at these shapes.  Log B from R's Stirling-series ``lbeta``, with
        the mode's terms cancelled by hand as in TOMS 708's ``brcomp``,
        reaches 3.3e-13, 3.1e-12, 1.4e-13 and 2.8e-13; the 3.1e-12 is the
        continued fraction's, at points next to its split, where a flipped
        x is rounded in 1 - x.  With log B alone
        the exponent still cancels: 1.1e-11 at (9.2e4, 6.4e4) and 1.4e-10
        at (1e6, 1e6).  (8.4e5, 19.6) is the worst pair known, where the
        continued fraction itself errs by 1.6e-11 (2.4e-11 at other
        points): it holds its own bound of 3e-11."""
        bound = 3e-11 if (a, b) == (8.4e5, 19.6) else 1e-11
        for p, q in ((a, b), (b, a)):
            x = stats.beta.ppf(np.linspace(0.0005, 0.9995, 1999), p, q)
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                got = _betainc(p, q, x)
            assert np.max(np.abs(got - special.betainc(p, q, x))) <= bound, (p, q)

    @pytest.mark.parametrize("knots", [2, 3, 1001])
    def test_uniform_is_identity(self, knots):
        w = beta_cdf_warp(1.0, 1.0, knots=knots)
        assert np.max(np.abs(w.y - np.linspace(0.0, 1.0, knots))) <= 1e-15
