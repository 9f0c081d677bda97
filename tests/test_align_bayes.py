import concurrent.futures
import math
import os
import sys
import threading
import tracemalloc
import warnings
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from warpalign import (
    BayesConfig,
    Curve,
    LikelihoodCollapseError,
    PLWarp,
    PosteriorSample,
    Srvf,
    WarpPrior,
    identity,
    l2_dist,
    marginal_loglik,
    posterior_summary,
    sample_batch,
    sir_posterior,
    sup_dist,
    to_srvf,
    uniform_grid,
    warp_action,
)
from conftest import pl_warps, quadrature_posterior, reference_sir_posterior
from warpalign import align_bayes, warpdist
from warpalign.fixtures import closed_shape_pair, pqrst_pair, spiral_pair, two_bump_pair


@pytest.fixture(autouse=True)
def no_thread_left():
    """Fail a test that leaves a thread alive that was not alive before it."""
    before = set(threading.enumerate())
    yield
    left = set(threading.enumerate()) - before
    assert not left, f"threads left alive: {sorted(t.name for t in left)}"


def bump_srvfs(m=100):
    c1, c2 = two_bump_pair(m)
    return to_srvf(c1), to_srvf(c2)


class TestMarginalLoglik:
    def test_zero_sse_maximizes(self):
        g = uniform_grid(2)
        q1 = Srvf(g, np.array([[1.0], [1.0]]))
        same = marginal_loglik(q1, q1, identity(), a0=1.0, b0=1.0)
        assert same == -(1.0 + 1.0) * math.log(1.0)
        q2 = Srvf(g, np.array([[0.0], [0.0]]))
        worse = marginal_loglik(q1, q2, identity(), a0=1.0, b0=1.0)
        assert worse < same

    def test_sse_gap_of_two(self):
        # SSE 0 vs SSE 2 with a0=b0=1 and two samples: difference is 2 log 2
        g = uniform_grid(2)
        q1 = Srvf(g, np.array([[1.0], [1.0]]))
        q2 = Srvf(g, np.array([[0.0], [0.0]]))
        best = marginal_loglik(q1, q1, identity(), 1.0, 1.0)
        off = marginal_loglik(q1, q2, identity(), 1.0, 1.0)
        assert best - off == pytest.approx(2.0 * math.log(2.0), abs=1e-12)

    def test_decreasing_in_sse(self):
        q1, q2 = bump_srvfs()
        vals = [marginal_loglik(q1, Srvf(q1.grid, q1.values + eps), identity())
                for eps in (0.0, 0.1, 0.3, 1.0)]
        assert all(a > b for a, b in zip(vals, vals[1:]))

    def test_grid_mismatch(self):
        q1 = Srvf(uniform_grid(10), np.ones((10, 1)))
        q2 = Srvf(uniform_grid(12), np.ones((12, 1)))
        with pytest.raises(ValueError):
            marginal_loglik(q1, q2, identity())

    @pytest.mark.parametrize("a0, b0", [
        (math.nan, 0.01), (0.01, math.inf), (-1.0, 0.01), (0.0, 0.01), (0.01, 0.0),
        (0.01, -1.0),
    ])
    def test_rejects_what_bayes_config_rejects(self, a0, b0):
        q1, _ = bump_srvfs()
        with pytest.raises(ValueError) as config_error:
            BayesConfig(a0=a0, b0=b0)
        with pytest.raises(ValueError) as loglik_error:
            marginal_loglik(q1, q1, identity(), a0, b0)
        assert str(loglik_error.value) == str(config_error.value)

    def test_dimension_mismatch(self):
        g = uniform_grid(10)
        q1, q2 = Srvf(g, np.ones((10, 1))), Srvf(g, np.ones((10, 2)))
        with pytest.raises(ValueError, match="different dimensions"):
            marginal_loglik(q1, q2, identity())
        cfg = BayesConfig(prior_draws=50, resample_size=10)
        with pytest.raises(ValueError, match="different dimensions"):
            sir_posterior(q1, q2, cfg, np.random.default_rng(0))


class TestSirPosterior:
    def test_weights_normalized(self):
        q1, q2 = bump_srvfs(60)
        cfg = BayesConfig(prior_draws=500, resample_size=100)
        post = sir_posterior(q1, q2, cfg, np.random.default_rng(0))
        assert abs(post.weights.sum() - 1.0) < 1e-10
        assert np.all(post.weights >= 0.0)
        assert len(post.warps) == 100

    def test_weight_formula_on_toy(self):
        # three candidate warps, hand-computed SSEs and weights
        g = uniform_grid(3)
        q1 = Srvf(g, np.array([[1.0], [2.0], [1.0]]))
        q2 = Srvf(g, np.array([[1.0], [1.0], [1.0]]))
        warps = [identity(),
                 PLWarp([0.0, 0.5, 1.0], [0.0, 0.25, 1.0]),
                 PLWarp([0.0, 0.5, 1.0], [0.0, 0.75, 1.0])]
        a0 = b0 = 0.01
        logs = np.array([marginal_loglik(q1, q2, w, a0, b0) for w in warps])
        manual = []
        for w in warps:
            vals = np.interp(w(g), g, q2.values[:, 0])
            slope = w.derivative(g)
            sse = float(np.sum((q1.values[:, 0] - vals * np.sqrt(slope)) ** 2))
            manual.append(-(a0 + 1.5) * math.log(b0 + sse / 2.0))
        manual = np.array(manual)
        assert np.allclose(logs, manual, atol=1e-12)
        w_lib = np.exp(logs - logs.max())
        w_lib /= w_lib.sum()
        w_man = np.exp(manual - manual.max())
        w_man /= w_man.sum()
        assert np.allclose(w_lib, w_man, atol=1e-12)

    def test_constant_shift_leaves_weights_unchanged(self):
        rng = np.random.default_rng(1)
        logs = rng.normal(size=50)
        for shift in (0.0, 123.4):
            w = np.exp((logs + shift) - (logs + shift).max())
            w /= w.sum()
            if shift == 0.0:
                ref = w
        assert np.allclose(w, ref, atol=1e-14)

    def test_self_alignment_mean_near_identity(self):
        q1, _ = bump_srvfs()
        post = sir_posterior(q1, q1, BayesConfig(), np.random.default_rng(0))
        mean_warp, _, _ = posterior_summary(post, q1.grid)
        assert sup_dist(mean_warp, identity()) < 0.1

    def test_two_bump_residual_reduction(self):
        q1, q2 = bump_srvfs()
        post = sir_posterior(q1, q2, BayesConfig(), np.random.default_rng(1))
        mean_warp, _, _ = posterior_summary(post, q1.grid)
        before = l2_dist(q1, q2)
        after = l2_dist(q1, warp_action(q2, mean_warp))
        assert after <= 0.5 * before

    def test_ess_uniform_weights_is_exact(self):
        # equal weights at a power-of-two size make the float sums exact
        n = 1024
        w = np.full(n, 1.0 / n)
        assert 1.0 / np.sum(w ** 2) == float(n)

    def test_ess_in_range(self):
        q1, q2 = bump_srvfs(60)
        cfg = BayesConfig(prior_draws=2000, resample_size=200)
        post = sir_posterior(q1, q2, cfg, np.random.default_rng(2))
        assert 1.0 <= post.ess <= 2000.0

    def test_likelihood_collapse_raises(self):
        g = uniform_grid(10)
        q1 = Srvf(g, np.ones((10, 1)))
        q2 = Srvf(g, np.full((10, 1), 1e200))  # infinite SSE for every draw
        cfg = BayesConfig(prior_draws=50, resample_size=10)
        with pytest.raises(LikelihoodCollapseError):
            sir_posterior(q1, q2, cfg, np.random.default_rng(3))

    def test_deterministic(self):
        q1, q2 = bump_srvfs(60)
        cfg = BayesConfig(prior_draws=300, resample_size=50)
        a = sir_posterior(q1, q2, cfg, np.random.default_rng(4))
        b = sir_posterior(q1, q2, cfg, np.random.default_rng(4))
        assert np.array_equal(a.weights, b.weights)
        assert all(np.array_equal(u.y, v.y) for u, v in zip(a.warps, b.warps))

    def test_weights_are_normalized_marginal_likelihoods(self):
        """Bit for bit, on functions, closed planar curves and space curves:
        the SIR weights and ``marginal_loglik`` share one SSE kernel and
        one formula."""
        cfg = BayesConfig(prior=WarpPrior(identity(), partition_size=4, concentration=5.0),
                          b0=5.0, prior_draws=200, resample_size=50)
        for pair in (two_bump_pair, closed_shape_pair, spiral_pair):
            c1, c2 = pair(40)
            q1, q2 = to_srvf(c1), to_srvf(c2)
            post = sir_posterior(q1, q2, cfg, np.random.default_rng(8))
            knots, values = sample_batch(cfg.prior, cfg.prior_draws, np.random.default_rng(8))
            logs = np.array([marginal_loglik(q1, q2, PLWarp(x, y), cfg.a0, cfg.b0)
                             for x, y in zip(knots, values)])
            expected = np.exp(logs - logs.max())
            expected /= expected.sum()
            assert np.array_equal(post.weights, expected), pair.__name__

    @pytest.mark.parametrize("pair, cfg, seed", [
        ("bump", BayesConfig(), 0),
        ("pqrst", BayesConfig(b0=5.0, prior_draws=5000, resample_size=500), 1),
        ("pqrst", BayesConfig(prior=WarpPrior(identity(), partition_size=2, concentration=1.0),
                              prior_draws=3000, resample_size=300), 2),
        ("planar", BayesConfig(b0=5.0, prior_draws=3000, resample_size=300), 3),
    ])
    def test_matches_reference_sir(self, pair, cfg, seed):
        """Blocked weighting and shared resampled warps change no bit of
        the draws, the weights or the ESS."""
        if pair == "planar":
            t = uniform_grid(60)
            q1 = to_srvf(Curve(t, np.column_stack([np.sin(3 * t), t ** 2])))
            q2 = to_srvf(Curve(t, np.column_stack([np.sin(3 * t ** 1.2), t ** 2.2])))
        else:
            c1, c2 = two_bump_pair(100) if pair == "bump" else pqrst_pair(100)
            q1, q2 = to_srvf(c1), to_srvf(c2)
        post = sir_posterior(q1, q2, cfg, np.random.default_rng(seed))
        ref = reference_sir_posterior(q1, q2, cfg, np.random.default_rng(seed))
        assert np.array_equal(post.weights, ref.weights)
        assert post.ess == ref.ess
        assert all(np.array_equal(u.x, v.x) and np.array_equal(u.y, v.y)
                   for u, v in zip(post.warps, ref.warps))

    def test_repeated_draws_share_one_warp(self):
        q1, q2 = bump_srvfs(60)
        cfg = BayesConfig(prior_draws=300, resample_size=200)
        post = sir_posterior(q1, q2, cfg, np.random.default_rng(4))
        by_knots: dict[bytes, set[int]] = {}
        for w in post.warps:
            by_knots.setdefault(w.x.tobytes() + w.y.tobytes(), set()).add(id(w))
        assert all(len(ids) == 1 for ids in by_knots.values())
        assert len(by_knots) < len(post.warps)

    def test_consistency_in_prior_draws(self):
        # sup-distance of the posterior mean to identity does not grow with N
        q1, _ = bump_srvfs(50)
        medians = []
        for n_draws in (1000, 10_000, 100_000):
            sups = []
            for rep in range(20):
                cfg = BayesConfig(prior_draws=n_draws,
                                  resample_size=min(500, n_draws // 2))
                post = sir_posterior(q1, q1, cfg,
                                     np.random.default_rng(977 + rep))
                mean_warp, _, _ = posterior_summary(post, q1.grid)
                sups.append(sup_dist(mean_warp, identity()))
            medians.append(float(np.median(sups)))
        assert medians[1] <= medians[0] + 0.01
        assert medians[2] <= medians[1] + 0.01


class TestQuadratureOracle:
    """At partition size 2 the posterior is a 2-d integral, which a
    product rule computes without sampling; SIR must match its mean, its
    spread and the marginal of the knot position s."""

    def test_sir_mean_matches_quadrature(self):
        # model-generated: q1 is q2 warped by a one-knot warp plus noise at
        # sigma = 1, where SIR's ESS is a few dozen at 2e4 draws
        _, c2 = two_bump_pair(50)
        q2 = to_srvf(c2)
        truth = PLWarp([0.0, 0.4, 1.0], [0.0, 0.55, 1.0])
        noise = np.random.default_rng(0).standard_normal((q2.grid.size, 1))
        q1 = Srvf(q2.grid, warp_action(q2, truth).values + noise)
        cfg = BayesConfig(prior=WarpPrior(identity(), 2, 10.0))
        t = np.array([0.25, 0.5, 0.75])
        coarse, coarse_sd, coarse_cdf = quadrature_posterior(q1, q2, cfg, t, nodes=2)
        mean, sd, cdf = quadrature_posterior(q1, q2, cfg, t, nodes=4)
        # The spread, from ten times the draws (ESS about 430, against 37 for
        # the mean below): doubling the log likelihood shrinks the sd by about
        # a quarter and halving it widens the sd by about half, which the mean
        # does not see.  The sd of n near-Gaussian draws errs by sd / sqrt(2 n);
        # allow four such errors.  Halving the node spacing moves the sd by
        # 2.6e-5.
        wide = sir_posterior(q1, q2, BayesConfig(prior=cfg.prior, prior_draws=200_000),
                             np.random.default_rng(1))
        sir_sd = np.std([w(t) for w in wide.warps], axis=0, ddof=1)
        sd_tol = 4.0 * sd * np.sqrt((1.0 / wide.ess + 1.0 / cfg.resample_size) / 2.0)
        assert np.max(np.abs(sd - coarse_sd)) <= 5e-5 <= np.min(sd_tol) / 4
        assert np.all(np.abs(sir_sd - sd) <= sd_tol), (sir_sd, sd, sd_tol)
        # The s-marginal of the same draws, at the grid nodes, inside a
        # Kolmogorov band at the 1% level (critical value 1.628) over an
        # effective count that adds the resampling's noise to the weights'.
        # Halving the node spacing moves the CDF by 0.014, and once more by
        # 1.8e-3.
        s = np.sort([w.x[1] for w in wide.warps])
        sir_cdf = s.searchsorted(q1.grid, side="right") / s.size
        band = 1.628 * np.sqrt(1.0 / wide.ess + 1.0 / cfg.resample_size)
        assert np.max(np.abs(cdf - coarse_cdf)) <= 0.02 <= band / 4
        assert np.max(np.abs(sir_cdf - cdf)) <= band, (sir_cdf, cdf, band)
        post = sir_posterior(q1, q2, cfg, np.random.default_rng(1))
        sir_mean = np.mean([w(t) for w in post.warps], axis=0)
        # four Monte Carlo errors of a resampled mean: the weighted mean's
        # variance sd^2 / ESS plus the resampling's sd^2 / resample_size
        tol = 4.0 * sd * np.sqrt(1.0 / post.ess + 1.0 / cfg.resample_size)
        # halving every node spacing moves the mean by 2.5e-4 here, so at
        # second order the finer rule is off by at most a third of that
        # (by 8e-6 against 16 points per interval and 400 panels)
        assert np.max(np.abs(mean - coarse)) <= 5e-4 <= np.min(tol) / 4
        assert np.all(np.abs(sir_mean - mean) <= tol), (sir_mean, mean, tol)


class TestSirMemory:
    """The prior draw and the weighting pass work in row blocks, so SIR's
    working memory beyond the kept knots and values stays bounded."""

    @pytest.mark.parametrize("draws,bound", [
        (20_000, 10 << 20),
        # the kept (draws, K) knot and value arrays plus 10 MiB
        (200_000, 2 * 8 * 200_000 * 21 + (10 << 20)),
    ], ids=["20k", "200k"])
    def test_traced_peak(self, draws, bound):
        q1, q2 = bump_srvfs()
        cfg = BayesConfig(prior_draws=draws)
        tracemalloc.start()
        try:
            sir_posterior(q1, q2, cfg, np.random.default_rng(0))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= bound, f"traced peak {peak / 2 ** 20:.1f} MiB"


class TestSirThreads:
    """W threads weigh the draw blocks, the pool threads while the next
    block is drawn; no output depends on W."""

    @staticmethod
    def force_workers(monkeypatch, workers, on_shutdown=lambda: None):
        """Make ``sir_posterior`` see ``workers`` CPUs; returns the list of
        thread-pool sizes it then starts.  The pool's ``shutdown`` drops its
        queued blocks if asked to, then calls ``on_shutdown()``, then waits
        if asked to."""
        started = []

        class Recording(ThreadPoolExecutor):
            def __init__(self, max_workers):
                started.append(max_workers)
                super().__init__(max_workers)

            def shutdown(self, wait=True, *, cancel_futures=False):
                super().shutdown(wait=False, cancel_futures=cancel_futures)
                on_shutdown()
                super().shutdown(wait=wait)

        monkeypatch.setattr(align_bayes, "_cpu_count", lambda: workers)
        monkeypatch.setattr(concurrent.futures, "ThreadPoolExecutor", Recording)
        return started

    @staticmethod
    def run_bounded(call):
        """Run ``call`` on its own thread, joined with a timeout so that a
        hang fails the test; returns the exception it raised, or None."""
        raised = []

        def target():
            try:
                call()
            except Exception as exc:  # handed to the test to inspect
                raised.append(exc)

        run = threading.Thread(target=target)
        run.start()
        run.join(timeout=120)
        assert not run.is_alive(), "sir_posterior did not return in 120 s"
        return raised[0] if raised else None

    # one draw block, a one-row last block and a ragged last block
    @pytest.mark.parametrize("draws", [1000, 1025, 5000])
    @pytest.mark.parametrize("workers", [1, 2, 4])
    def test_matches_reference_sir(self, monkeypatch, workers, draws):
        started = self.force_workers(monkeypatch, workers)
        c1, c2 = pqrst_pair(100)
        q1, q2 = to_srvf(c1), to_srvf(c2)
        cfg = BayesConfig(b0=5.0, prior_draws=draws, resample_size=500)
        post = sir_posterior(q1, q2, cfg, np.random.default_rng(5))
        # fewer draw blocks than CPUs cap the threads
        threads = min(workers, -(-draws // warpdist._DRAW_ROWS))
        assert started == ([] if threads == 1 else [threads - 1])
        ref = reference_sir_posterior(q1, q2, cfg, np.random.default_rng(5))
        assert np.array_equal(post.weights, ref.weights)
        assert post.ess == ref.ess
        assert all(np.array_equal(u.x, v.x) and np.array_equal(u.y, v.y)
                   for u, v in zip(post.warps, ref.warps))

    def test_more_workers_than_cores(self, monkeypatch):
        q1, q2 = bump_srvfs()
        cores = os.cpu_count() or 1
        workers = 2 * cores + 1
        # one draw block per worker
        cfg = BayesConfig(prior_draws=warpdist._DRAW_ROWS * workers, resample_size=100)
        self.force_workers(monkeypatch, 1)
        alone = sir_posterior(q1, q2, cfg, np.random.default_rng(6))
        started = self.force_workers(monkeypatch, workers)
        result = {}
        floor, interval = align_bayes._MIN_BLOCK_BYTES, sys.getswitchinterval()
        align_bayes._MIN_BLOCK_BYTES = 1 << 10
        sys.setswitchinterval(1e-6)
        try:
            assert self.run_bounded(lambda: result.setdefault(
                "post", sir_posterior(q1, q2, cfg, np.random.default_rng(6)))) is None
        finally:
            align_bayes._MIN_BLOCK_BYTES = floor
            sys.setswitchinterval(interval)
        assert started == [workers - 1]
        assert np.array_equal(result["post"].weights, alone.weights)
        assert result["post"].ess == alone.ess

    def test_draw_error_leaves_no_thread(self, monkeypatch):
        """A draw that fails mid-way: the error comes out and the pool's
        shutdown ends its thread."""
        started = self.force_workers(monkeypatch, 2)
        real, calls = warpdist._boosted_gammas, []

        def failing(shapes, rng, u=None):
            calls.append(shapes.shape)
            if len(calls) == 3:
                raise RuntimeError("third draw block")
            return real(shapes, rng, u)

        monkeypatch.setattr(warpdist, "_boosted_gammas", failing)
        q1, q2 = bump_srvfs()
        cfg = BayesConfig(prior_draws=5000, resample_size=100)
        before = set(threading.enumerate())
        error = self.run_bounded(lambda: sir_posterior(q1, q2, cfg, np.random.default_rng(7)))
        assert isinstance(error, RuntimeError) and str(error) == "third draw block"
        assert started == [1] and len(calls) == 3
        assert set(threading.enumerate()) <= before

    def test_pool_thread_error_comes_out(self, monkeypatch):
        self.force_workers(monkeypatch, 2)
        real_sse, real_gamma = align_bayes._warp_sse_batch, warpdist._boosted_gammas
        caller, draws, raised = [], [], threading.Event()

        def failing(*args):
            if threading.get_ident() != caller[0]:
                raised.set()
                raise RuntimeError("pool thread")
            real_sse(*args)

        def slow(shapes, rng, u=None):
            # the second draw block waits until a pool thread has failed on the first
            draws.append(raised.wait(timeout=60) if len(draws) == 1 else None)
            return real_gamma(shapes, rng, u)

        monkeypatch.setattr(align_bayes, "_warp_sse_batch", failing)
        monkeypatch.setattr(warpdist, "_boosted_gammas", slow)
        q1, q2 = bump_srvfs()
        cfg = BayesConfig(prior_draws=3000, resample_size=100)

        def call():
            caller.append(threading.get_ident())
            sir_posterior(q1, q2, cfg, np.random.default_rng(7))

        error = self.run_bounded(call)
        assert isinstance(error, RuntimeError) and str(error) == "pool thread"
        assert draws[1] is True

    @staticmethod
    def hold_first_pool_block(monkeypatch, draws, on_caller):
        """Patch the draw and the weighing kernel of a two-thread call: the
        pool thread waits on its first block until the calling thread (the
        one that draws) has weighed the other ``draws - _DRAW_ROWS`` rows,
        and the second draw block waits until that first block has started.
        ``on_caller(release)`` runs before each of the calling thread's
        kernel calls.  Returns the rows weighed by each of the two threads."""
        real_sse, real_gamma = align_bayes._warp_sse_batch, warpdist._boosted_gammas
        started, release = threading.Event(), threading.Event()
        drawer, weighed = set(), {"caller": 0, "pool": 0}

        def held(*args):
            who = "caller" if threading.get_ident() in drawer else "pool"
            if who == "caller":
                on_caller(release)
            elif weighed["pool"] == 0:
                started.set()
                release.wait(timeout=60)
            real_sse(*args)
            weighed[who] += len(args[5])
            if weighed["caller"] == draws - warpdist._DRAW_ROWS:
                release.set()

        def after_first(shapes, rng, u=None):
            if drawer:
                started.wait(timeout=60)
            drawer.add(threading.get_ident())
            return real_gamma(shapes, rng, u)

        monkeypatch.setattr(align_bayes, "_warp_sse_batch", held)
        monkeypatch.setattr(warpdist, "_boosted_gammas", after_first)
        return weighed

    def test_caller_weighs_unstarted_blocks(self, monkeypatch):
        """With the pool thread held on its first block, the calling thread
        takes over every other block, and no output depends on who weighs."""
        started = self.force_workers(monkeypatch, 2)
        q1, q2 = bump_srvfs()
        cfg = BayesConfig(prior_draws=5000, resample_size=500)
        weighed = self.hold_first_pool_block(monkeypatch, cfg.prior_draws, lambda release: None)
        result = {}
        assert self.run_bounded(lambda: result.setdefault(
            "post", sir_posterior(q1, q2, cfg, np.random.default_rng(8)))) is None
        assert started == [1]
        assert weighed == {"caller": cfg.prior_draws - warpdist._DRAW_ROWS,
                           "pool": warpdist._DRAW_ROWS}
        ref = reference_sir_posterior(q1, q2, cfg, np.random.default_rng(8))
        assert np.array_equal(result["post"].weights, ref.weights)
        assert result["post"].ess == ref.ess

    def test_caller_weigh_error_comes_out(self, monkeypatch):
        """A block that the calling thread weighs after the draw fails: that
        error comes out, the pool's shutdown drops the blocks that no thread
        has started, and it ends its thread (checked by ``no_thread_left``).
        The pool thread's first block is held until the shutdown has been
        asked for, so exactly that block is weighed, whatever the timing."""
        held = []
        started = self.force_workers(monkeypatch, 2, on_shutdown=lambda: held[0].set())
        q1, q2 = bump_srvfs()
        cfg = BayesConfig(prior_draws=5000, resample_size=100)

        def failing(release):
            held.append(release)
            raise RuntimeError("calling thread")

        weighed = self.hold_first_pool_block(monkeypatch, cfg.prior_draws, failing)
        error = self.run_bounded(lambda: sir_posterior(q1, q2, cfg, np.random.default_rng(7)))
        assert isinstance(error, RuntimeError) and str(error) == "calling thread"
        assert started == [1]
        assert weighed == {"caller": 0, "pool": warpdist._DRAW_ROWS}

    def test_overflow_warns_in_no_worker(self, monkeypatch):
        started = self.force_workers(monkeypatch, 2)
        g = uniform_grid(100)
        q1 = Srvf(g, np.ones((100, 1)))
        q2 = Srvf(g, np.full((100, 1), 1e200))  # every squared residual overflows
        cfg = BayesConfig(prior_draws=2000, resample_size=10)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(LikelihoodCollapseError):
                sir_posterior(q1, q2, cfg, np.random.default_rng(3))
        assert started == [1]


class TestPosteriorSummary:
    def test_identical_warps_zero_band(self):
        w = PLWarp([0.0, 0.4, 1.0], [0.0, 0.3, 1.0])
        post = PosteriorSample(warps=[w] * 20, weights=np.full(20, 0.05), ess=20.0)
        grid = uniform_grid(11)
        mean_warp, lower, upper = posterior_summary(post, grid)
        assert np.allclose(upper - lower, 0.0, atol=1e-15)
        assert sup_dist(mean_warp, w) < 1e-9

    def test_band_contains_mean(self):
        # a spread-out (non-degenerate) sample: the band brackets the mean
        from warpalign import WarpPrior, sample

        rng = np.random.default_rng(5)
        prior = WarpPrior(identity(), 20, 10.0)
        warps = [sample(prior, rng) for _ in range(300)]
        post = PosteriorSample(warps=warps, weights=np.full(300, 1 / 300),
                               ess=300.0)
        grid = uniform_grid(60)
        mean_warp, lower, upper = posterior_summary(post, grid)
        mid = mean_warp(grid)
        assert np.all(mid >= lower - 1e-9) and np.all(mid <= upper + 1e-9)

    @settings(max_examples=200, deadline=None)
    @given(warps=st.lists(pl_warps(max_segments=8), min_size=1, max_size=40),
           m=st.integers(2, 60))
    def test_band_is_two_separate_percentiles(self, warps, m):
        grid = uniform_grid(m)
        n = len(warps)
        _, lower, upper = posterior_summary(
            PosteriorSample(warps, np.full(n, 1.0 / n), float(n)), grid)
        vals = np.stack([w(grid) for w in warps])
        assert np.array_equal(lower, np.percentile(vals, 2.5, axis=0))
        assert np.array_equal(upper, np.percentile(vals, 97.5, axis=0))

    def test_each_distinct_warp_evaluated_once(self):
        class CountingWarp(PLWarp):
            __slots__ = ()
            calls = 0

            def __call__(self, t):
                CountingWarp.calls += 1
                return super().__call__(t)

        a = CountingWarp([0.0, 0.4, 1.0], [0.0, 0.3, 1.0])
        b = CountingWarp([0.0, 0.6, 1.0], [0.0, 0.7, 1.0])
        shared = [a, b, a, a, b]
        copies = [PLWarp(w.x, w.y) for w in shared]
        grid = uniform_grid(11)
        out = posterior_summary(PosteriorSample(shared, np.full(5, 0.2), 5.0), grid)
        assert CountingWarp.calls == 2
        ref = posterior_summary(PosteriorSample(copies, np.full(5, 0.2), 5.0), grid)
        assert np.array_equal(out[0].y, ref[0].y)
        assert np.array_equal(out[1], ref[1]) and np.array_equal(out[2], ref[2])

    def test_empty_sample_rejected(self):
        post = PosteriorSample(warps=[], weights=np.array([]), ess=0.0)
        with pytest.raises(ValueError):
            posterior_summary(post, uniform_grid(5))


class TestBayesConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            BayesConfig(a0=0.0)
        with pytest.raises(ValueError):
            BayesConfig(prior_draws=10, resample_size=20)

    @pytest.mark.parametrize("fields,message", [
        ({"prior_draws": 300.5}, "prior_draws must be at least 2000 and an integer, not 300.5"),
        ({"prior_draws": 10, "resample_size": 20},
         "prior_draws must be at least 20 and an integer, not 10"),
        ({"resample_size": 2.5}, "resample_size must be at least 1 and an integer, not 2.5"),
        ({"resample_size": 0}, "resample_size must be at least 1 and an integer, not 0"),
    ])
    def test_sample_size_rejected(self, fields, message):
        with pytest.raises(ValueError, match=f"^{message}$"):
            BayesConfig(**fields)

    def test_default_prior(self):
        cfg = BayesConfig()
        assert cfg.prior.partition_size == 20
        assert cfg.prior.concentration == 10.0
