import numpy as np
import pytest
from scipy import stats
from scipy.integrate import dblquad

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
from warpalign.warpmap import batch_eval


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

    def test_tiny_shapes_stay_positive(self):
        rng = np.random.default_rng(5)
        for _ in range(50):
            p = dirichlet_sample([1e-4, 1e-4, 2.0], rng)
            assert np.all(p > 0) and abs(p.sum() - 1.0) < 1e-12


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


class TestSample:
    def test_deterministic_given_seed(self):
        a = sample(id_prior(), np.random.default_rng(42))
        b = sample(id_prior(), np.random.default_rng(42))
        assert np.array_equal(a.x, b.x) and np.array_equal(a.y, b.y)

    @pytest.mark.parametrize("theta", [100.0, 10.0, 0.5])
    @pytest.mark.parametrize("partition", [None, [0.0, 0.1, 0.35, 0.4, 0.8, 1.0]])
    def test_matches_first_row_of_sample_batch(self, theta, partition):
        # theta = 0.5 puts every Dirichlet shape below one: the boosted path
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

    def test_density_integrates_to_one(self):
        # quadrature oracle over the ordered pairs 0 < x1 < x2 < 1
        prior = id_prior(3, 6.0)
        part = [0.0, 0.3, 0.7, 1.0]

        def dens(x2, x1):
            return np.exp(log_density(prior, part, [x1, x2]))

        total, err = dblquad(dens, 0.0, 1.0, lambda x1: x1, lambda x1: 1.0)
        assert abs(total - 1.0) < 1e-3


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


class TestSeedDistributionValidation:
    def test_bad_kappa(self):
        with pytest.raises(ValueError):
            SeedDistribution.von_mises(0.2, -1.0)

    def test_bad_center(self):
        with pytest.raises(ValueError):
            SeedDistribution.von_mises(1.0, 2.0)

    def test_prior_validation(self):
        with pytest.raises(ValueError):
            WarpPrior(identity(), 1, 1.0)
        with pytest.raises(ValueError):
            WarpPrior(identity(), 5, 0.0)
