"""The four workloads: inputs, jobs, output checks and per-layer probes.

Inputs are made here with numpy alone, by perturbing the shapes of the
fixture families bundled with ``warpalign`` (two-bump and PQRST
functions, planar closed blobs).  The family parameters are restated
below so that a change to ``warpalign.fixtures`` cannot change the job
set.  ``warpalign`` receives only the finished curves.

Per-layer metrics come from spans around the jobs' public calls, from
counts in the returned results, and from probes that replay a job's
own inputs through an inner layer (for example ``sample`` centred at
the job's returned warp).
"""

from __future__ import annotations

import hashlib
import statistics
from dataclasses import dataclass

import numpy as np
import warpalign as wa

# Checks.  Energies are recomputed through a different code path, so they
# agree to rounding; 1e-9 is far above rounding and far below any real
# disagreement.  Landmark pins are exact by construction.  A posterior mean
# warp is rebuilt with increments clamped to MIN_INCREMENT, which moves
# each value by at most (grid points) * MIN_INCREMENT.
ENERGY_TOL = 1e-9
PIN_TOL = 1e-12
WEIGHT_TOL = 1e-9

LAYER_UNITS = {
    "warpdist.sample_us": "us", "warpmap.plwarp_us": "us", "srvf.warp_energy_us": "us",
    "align_sa.iters_per_s": "1/s", "align_sa.iters": "count", "align_sa.accepts": "count",
    "align_sa.uphill_accepts": "count", "align_dp.closed_s": "s",
    "align_dp.seeds_per_s": "1/s", "align_dp.seeds": "count", "align_dp.dp_align_ms": "ms",
    "shapeops.optimal_rotation_us": "us", "shapeops.apply_seed_us": "us",
    "warpdist.sample_batch_s": "s", "warpmap.batch_eval_s": "s", "align_bayes.sir_s": "s",
    "align_bayes.summary_s": "s", "align_bayes.ess": "count",
    "align_bayes.distinct_draws": "count", "warpmap.compose_us": "us",
    "landmarks.constrained_s": "s", "landmarks.band_s": "s",
    "landmarks.segment_ess_min": "count", "align_bayes.mean_outside_band": "count",
    "srvf.to_srvf_us": "us",
}

PROBE_JOBS = 4  # jobs whose inputs the probes replay
PROBE_REPS = 50  # calls per probe of a cheap (microsecond) function

# (mu, sigma, amplitude) per wave; first and second curve of a pair.
_TWO_BUMP = (((0.32, 0.07, 0.9), (0.68, 0.07, 1.1)),
             ((0.42, 0.07, 0.9), (0.76, 0.07, 1.1)))
_PQRST = (((0.16, 0.025, 0.25), (0.30, 0.012, -0.35), (0.38, 0.016, 1.5),
           (0.46, 0.012, -0.45), (0.68, 0.04, 0.4)),
          ((0.20, 0.025, 0.29), (0.34, 0.012, -0.31), (0.44, 0.016, 1.38),
           (0.52, 0.012, -0.50), (0.75, 0.04, 0.45)))
_R_WAVE, _T_WAVE = 2, 4  # PQRST waves whose peaks are the landmarks
# (harmonic, amplitude, phase) of the radius of a closed blob.
_BLOBS = (((1, 0.15, 0.4), (2, 0.22, 0.0), (3, 0.08, 1.2)),
          ((1, 0.25, 2.2), (2, 0.10, 0.6), (4, 0.12, 0.0)))


@dataclass
class Job:
    c1: wa.Curve
    c2: wa.Curve
    q1: wa.Srvf
    q2: wa.Srvf
    raw: bytes  # the generated arrays, for the input digest
    unaligned: float  # energy at the identity warp (and seed 0)
    lm: wa.LandmarkSet | None = None


def _waves(rng, waves, t):
    """Sum of Gaussian waves with jittered centres, widths and heights.

    Centres move by at most 0.02 and neighbouring centres are at least
    0.08 apart, so the wave order (and so the landmark order) holds.
    """
    w = np.asarray(waves, dtype=float)
    mu = w[:, 0] + rng.uniform(-0.02, 0.02, len(w))
    sigma = w[:, 1] * rng.uniform(0.85, 1.15, len(w))
    amp = w[:, 2] * rng.uniform(0.85, 1.15, len(w))
    f = (amp * np.exp(-0.5 * ((t[:, None] - mu) / sigma) ** 2)).sum(axis=1)
    return f, mu


def _function_job(family, m, rng, with_landmarks=False) -> Job:
    t = np.linspace(0.0, 1.0, m)
    f1, mu1 = _waves(rng, family[0], t)
    f2, mu2 = _waves(rng, family[1], t)
    c1, c2 = wa.Curve(t, f1), wa.Curve(t, f2)
    q1, q2 = wa.to_srvf(c1), wa.to_srvf(c2)
    lm = None
    raw = f1.tobytes() + f2.tobytes()
    if with_landmarks:
        pairs = np.array([[mu1[_R_WAVE], mu2[_R_WAVE]], [mu1[_T_WAVE], mu2[_T_WAVE]]])
        lm = wa.LandmarkSet(pairs)
        raw += pairs.tobytes()
    return Job(c1, c2, q1, q2, raw, wa.warp_energy(q1, q2, wa.identity()), lm)


def _blob(rng, harmonics, m, start):
    h = np.asarray(harmonics, dtype=float)
    amp = h[:, 1] * rng.uniform(0.8, 1.2, len(h))
    phase = h[:, 2] + rng.uniform(-0.3, 0.3, len(h))
    phi = 2.0 * np.pi * (np.linspace(0.0, 1.0, m) + start)
    r = 1.0 + (amp * np.cos(h[:, 0] * phi[:, None] + phase)).sum(axis=1)
    pts = np.column_stack((r * np.cos(phi), r * np.sin(phi)))
    pts[-1] = pts[0]
    return pts


def _closed_job(m, stratum, strata, rng) -> Job:
    """Two blobs; the second starts at a random point of its outline.

    The start point is stratified: job k starts within the k-th of
    ``strata`` equal arcs (k mod strata), so every job set covers the
    whole outline evenly.  The identity-warp energy depends mostly on the
    start point, so this keeps the unaligned energy of a job set, the
    denominator of ``energy_ratio``, nearly the same for every seed.
    """
    p1 = _blob(rng, _BLOBS[0], m, 0.0)
    p2 = _blob(rng, _BLOBS[1], m, (stratum + rng.random()) / strata)
    t = np.linspace(0.0, 1.0, m)
    c1, c2 = wa.Curve(t, p1, "closed"), wa.Curve(t, p2, "closed")
    q1 = wa.unit_normalize(wa.to_srvf(wa.normalize_length(c1)))
    q2 = wa.unit_normalize(wa.to_srvf(wa.normalize_length(c2)))
    return Job(c1, c2, q1, q2, p1.tobytes() + p2.tobytes(),
               wa.warp_energy(q1, q2, wa.identity()))


def digest(jobs) -> str:
    h = hashlib.sha256()
    for job in jobs:
        h.update(job.raw)
    return h.hexdigest()[:16]


# ---- output checks: each returns a list of fault descriptions ----------

def warp_faults(w, label) -> list[str]:
    x, y = np.asarray(w.x), np.asarray(w.y)
    if not (x[0] == 0.0 and x[-1] == 1.0 and y[0] == 0.0 and y[-1] == 1.0):
        return [f"{label}: does not fix 0 and 1"]
    if not (np.all(np.diff(x) > 0.0) and np.all(np.diff(y) > 0.0)):
        return [f"{label}: not strictly increasing"]
    return []


def energy_faults(claimed, recomputed, label) -> list[str]:
    if abs(claimed - recomputed) <= ENERGY_TOL:
        return []
    return [f"{label}: energy {claimed!r} but recomputed {recomputed!r}"]


def sir_faults(post, cfg, label) -> list[str]:
    faults = []
    total = float(np.sum(post.weights))
    if not abs(total - 1.0) <= WEIGHT_TOL:
        faults.append(f"{label}: weights sum to {total!r}")
    if not 1.0 - WEIGHT_TOL <= post.ess <= cfg.prior_draws:
        faults.append(f"{label}: ESS {post.ess!r} outside [1, {cfg.prior_draws}]")
    if len(post.warps) != cfg.resample_size:
        faults.append(f"{label}: {len(post.warps)} resampled warps")
    for i, w in enumerate(post.warps):
        faults += warp_faults(w, f"{label} draw {i}")
    return faults


def draw_values(warps, grid) -> np.ndarray:
    return np.stack([w(grid) for w in warps])


def band_faults(vals, lower, mean, upper, label) -> list[str]:
    """The band and the mean warp against the draws they summarise.

    An equal-tailed band need not contain the mean: when more than 97.5%
    of the draws coincide the band collapses onto them while the rest
    still pull the mean.  So the band must be ordered and lie within the
    draws, and the mean within the draws' pointwise range;
    ``mean_outside_band`` counts how often the mean leaves the band.
    """
    tol = vals.shape[1] * wa.warpmap.MIN_INCREMENT
    lo, hi = vals.min(axis=0), vals.max(axis=0)
    faults = []
    if not (np.all(lo <= lower) and np.all(lower <= upper) and np.all(upper <= hi)):
        faults.append(f"{label}: band is not ordered within the draws")
    if not (np.all(lo - tol <= mean) and np.all(mean <= hi + tol)):
        faults.append(f"{label}: mean warp leaves the range of the draws")
    return faults


def mean_outside_band(lower, mean, upper) -> bool:
    return bool(np.any(mean < lower) or np.any(mean > upper))


# ---- per-layer helpers --------------------------------------------------

def probe(tr, name, job, fn, reps=PROBE_REPS):
    for _ in range(reps):
        with tr.span(name, job):
            fn()


def median_span(tr, name, scale=1.0) -> float:
    return statistics.median(tr.durations(name)) * scale


def sa_counts(results) -> dict[str, int]:
    """Iterations, accepted moves and uphill accepts, from energy traces.

    ``energy_trace`` holds the start energy, the current energy after
    each iteration, and the best energy; a changed current energy is an
    accepted move.
    """
    iters = accepts = uphill = 0
    for res in results:
        step = np.diff(res.energy_trace[:-1])
        iters += step.size
        accepts += int(np.count_nonzero(step))
        uphill += int(np.count_nonzero(step > 0.0))
    return {"align_sa.iters": iters, "align_sa.accepts": accepts,
            "align_sa.uphill_accepts": uphill}


def distinct_draws(warps) -> int:
    return len({w.x.tobytes() + w.y.tobytes() for w in warps})


def to_srvf_metric(tr, recs) -> dict[str, float]:
    for k, job, _ in recs[:PROBE_JOBS]:
        probe(tr, "srvf.to_srvf", k, lambda: wa.to_srvf(job.c1))
    return {"srvf.to_srvf_us": median_span(tr, "srvf.to_srvf", 1e6)}


# ---- workloads ----------------------------------------------------------

class Anneal:
    """SA in function mode: scalar sampler, PLWarp construction, SA energy."""

    name = "anneal"
    n_jobs = 96
    kernel = ("small", 250)
    owns = ("warpdist.sample_us", "warpmap.plwarp_us", "srvf.warp_energy_us",
            "align_sa.iters_per_s", "align_sa.iters", "align_sa.accepts",
            "align_sa.uphill_accepts", "srvf.to_srvf_us")
    cfg = wa.SaConfig(n=20, theta=100.0, t0=10.0, cooling=1.0001, max_iters=1000)

    def make(self, k, rng):
        return _function_job(_TWO_BUMP if k % 2 == 0 else _PQRST, 100, rng)

    def run(self, job, rng, tr, k):
        with tr.span("align_sa.sa_align", k):
            return wa.sa_align(job.q1, job.q2, self.cfg, rng)

    def check(self, job, res):
        return warp_faults(res.warp, "SA warp") + energy_faults(
            res.final_energy, wa.warp_energy(job.q1, job.q2, res.warp), "SA")

    def final_energy(self, job, res):
        return res.final_energy

    def layer_metrics(self, tr, recs, rng):
        out = sa_counts([res for _, _, res in recs])
        out["align_sa.iters_per_s"] = (out["align_sa.iters"]
                                       / sum(tr.durations("align_sa.sa_align")))
        for k, job, res in recs[:PROBE_JOBS]:
            prior = wa.WarpPrior(res.warp, self.cfg.n, self.cfg.theta)
            w = res.warp
            probe(tr, "warpdist.sample", k, lambda: wa.sample(prior, rng))
            probe(tr, "warpmap.PLWarp", k, lambda: wa.PLWarp(w.x, w.y))
            probe(tr, "srvf.warp_energy", k, lambda: wa.warp_energy(job.q1, job.q2, w))
        out["warpdist.sample_us"] = median_span(tr, "warpdist.sample", 1e6)
        out["warpmap.plwarp_us"] = median_span(tr, "warpmap.PLWarp", 1e6)
        out["srvf.warp_energy_us"] = median_span(tr, "srvf.warp_energy", 1e6)
        return out | to_srvf_metric(tr, recs)


class Closed:
    """Exhaustive-seed closed DP, then closed-shape SA on the same pair."""

    name = "closed"
    n_jobs = 28
    kernel = ("small", 1000)
    owns = ("align_sa.iters", "align_sa.accepts", "align_sa.uphill_accepts",
            "align_dp.closed_s", "align_dp.seeds_per_s", "align_dp.seeds",
            "align_dp.dp_align_ms", "shapeops.optimal_rotation_us",
            "shapeops.apply_seed_us", "srvf.to_srvf_us")
    m = 101
    dp_cfg = wa.DpConfig(grid_size=m)
    sa_cfg = wa.SaConfig(mode="closed_shape", max_iters=200)

    def make(self, k, rng):
        return _closed_job(self.m, k % self.n_jobs, self.n_jobs, rng)

    def run(self, job, rng, tr, k):
        with tr.span("align_dp.dp_align_closed", k):
            dp = wa.dp_align_closed(job.q1, job.q2, self.dp_cfg)
        with tr.span("align_sa.sa_align_closed", k):
            sa = wa.sa_align_closed(job.q1, job.q2, self.sa_cfg, rng)
        return dp, sa

    def check(self, job, out):
        (seed, dp_warp, dp_energy), sa = out
        shifted = wa.apply_seed(job.q2, seed)
        faults = warp_faults(dp_warp, "DP warp") + warp_faults(sa.warp, "SA warp")
        faults += energy_faults(
            dp_energy, wa.dp_warp_energy(job.q1, shifted, dp_warp, self.dp_cfg), "DP")
        sa_q2 = wa.rotate(wa.apply_seed(job.q2, sa.seed), sa.rotation)
        faults += energy_faults(
            sa.final_energy, wa.warp_energy(job.q1, sa_q2, sa.warp), "SA")
        return faults

    def final_energy(self, job, out):
        return out[1].final_energy

    def seeds_per_job(self) -> int:
        return len(range(0, self.m - 1, self.dp_cfg.seed_stride))

    def layer_metrics(self, tr, recs, rng):
        out = sa_counts([sa for _, _, (_, sa) in recs])
        dp_spans = tr.durations("align_dp.dp_align_closed")
        seeds = self.seeds_per_job() * len(dp_spans)
        out["align_dp.closed_s"] = statistics.median(dp_spans)
        out["align_dp.seeds"] = seeds
        out["align_dp.seeds_per_s"] = seeds / sum(dp_spans)
        for k, job, ((seed, _, _), _) in recs[:PROBE_JOBS]:
            shifted = wa.apply_seed(job.q2, seed)
            probe(tr, "align_dp.dp_align", k,
                  lambda: wa.dp_align(job.q1, shifted, self.dp_cfg), reps=3)
            probe(tr, "shapeops.optimal_rotation", k,
                  lambda: wa.optimal_rotation(job.q1, shifted))
            probe(tr, "shapeops.apply_seed", k, lambda: wa.apply_seed(job.q2, seed))
        out["align_dp.dp_align_ms"] = median_span(tr, "align_dp.dp_align", 1e3)
        out["shapeops.optimal_rotation_us"] = median_span(
            tr, "shapeops.optimal_rotation", 1e6)
        out["shapeops.apply_seed_us"] = median_span(tr, "shapeops.apply_seed", 1e6)
        return out | to_srvf_metric(tr, recs)


class Posterior:
    """SIR at the package defaults, then the posterior summary."""

    name = "posterior"
    n_jobs = 56
    kernel = ("large", 3)
    owns = ("warpdist.sample_batch_s", "warpmap.batch_eval_s", "align_bayes.sir_s",
            "align_bayes.summary_s", "align_bayes.ess", "align_bayes.distinct_draws",
            "align_bayes.mean_outside_band", "srvf.to_srvf_us")
    cfg = wa.BayesConfig()

    def make(self, k, rng):
        return _function_job(_TWO_BUMP if k % 2 == 0 else _PQRST, 100, rng)

    def run(self, job, rng, tr, k):
        with tr.span("align_bayes.sir_posterior", k):
            post = wa.sir_posterior(job.q1, job.q2, self.cfg, rng)
        with tr.span("align_bayes.posterior_summary", k):
            summary = wa.posterior_summary(post, job.q1.grid)
        return post, summary

    def check(self, job, out):
        post, (mean_warp, lower, upper) = out
        grid = job.q1.grid
        return (sir_faults(post, self.cfg, "SIR") + warp_faults(mean_warp, "mean warp")
                + band_faults(draw_values(post.warps, grid), lower, mean_warp(grid),
                              upper, "SIR"))

    def final_energy(self, job, out):
        return wa.warp_energy(job.q1, job.q2, out[1][0])

    def layer_metrics(self, tr, recs, rng):
        posts = [post for _, _, (post, _) in recs]
        out = {
            "align_bayes.sir_s": median_span(tr, "align_bayes.sir_posterior"),
            "align_bayes.summary_s": median_span(tr, "align_bayes.posterior_summary"),
            "align_bayes.ess": statistics.median(p.ess for p in posts),
            "align_bayes.distinct_draws": statistics.median(
                distinct_draws(p.warps) for p in posts),
            "align_bayes.mean_outside_band": sum(
                mean_outside_band(lower, mean_warp(job.q1.grid), upper)
                for _, job, (_, (mean_warp, lower, upper)) in recs),
        }
        prior, draws = self.cfg.prior, self.cfg.prior_draws
        for k, job, _ in recs[:PROBE_JOBS]:
            with tr.span("warpdist.sample_batch", k):
                knots, values = wa.sample_batch(prior, draws, rng)
            with tr.span("warpmap.batch_eval", k):
                wa.warpmap.batch_eval(knots, values, job.q1.grid, with_slope=True)
        out["warpdist.sample_batch_s"] = median_span(tr, "warpdist.sample_batch")
        out["warpmap.batch_eval_s"] = median_span(tr, "warpmap.batch_eval")
        return out | to_srvf_metric(tr, recs)


class Landmarks:
    """Landmark-constrained Bayes alignment, then the band over its draws."""

    name = "landmarks"
    n_jobs = 18
    kernel = ("small", 1000)
    owns = ("align_bayes.ess", "align_bayes.distinct_draws",
            "align_bayes.mean_outside_band", "warpmap.compose_us",
            "landmarks.constrained_s", "landmarks.band_s", "landmarks.segment_ess_min",
            "srvf.to_srvf_us")
    cfg = wa.BayesConfig()

    def make(self, k, rng):
        return _function_job(_PQRST, 200, rng, with_landmarks=True)

    def run(self, job, rng, tr, k):
        with tr.span("landmarks.constrained_align", k):
            res = wa.constrained_align(job.c1, job.c2, job.lm, "bayes", self.cfg, rng)
        grid = np.union1d(job.c1.grid, job.lm.a)
        n = len(res.posterior_warps)
        draws = wa.PosteriorSample(res.posterior_warps, np.full(n, 1.0 / n), float(n))
        with tr.span("align_bayes.posterior_summary", k):
            summary = wa.posterior_summary(draws, grid)
        return res, grid, summary

    def check(self, job, out):
        res, grid, (mean_warp, lower, upper) = out
        faults = warp_faults(res.warp, "landmark warp")
        miss = np.max(np.abs(res.warp(job.lm.a) - job.lm.b))
        if not miss <= PIN_TOL:
            faults.append(f"landmark warp misses a pin by {miss!r}")
        for i, seg in enumerate(res.segments):
            faults += sir_faults(seg.result, seg.config, f"segment {i}")
        for i, w in enumerate(res.posterior_warps):
            faults += warp_faults(w, f"composed draw {i}")
        return faults + band_faults(draw_values(res.posterior_warps, grid), lower,
                                    mean_warp(grid), upper, "landmark")

    def final_energy(self, job, out):
        return wa.warp_energy(job.q1, job.q2, out[0].warp)

    def layer_metrics(self, tr, recs, rng):
        seg_posts = [seg.result for _, _, (res, _, _) in recs for seg in res.segments]
        out = {
            "landmarks.constrained_s": median_span(tr, "landmarks.constrained_align"),
            "landmarks.band_s": median_span(tr, "align_bayes.posterior_summary"),
            "landmarks.segment_ess_min": min(p.ess for p in seg_posts),
            "align_bayes.ess": statistics.median(p.ess for p in seg_posts),
            "align_bayes.distinct_draws": statistics.median(
                distinct_draws(p.warps) for p in seg_posts),
            "align_bayes.mean_outside_band": sum(
                mean_outside_band(lower, mean_warp(grid), upper)
                for _, _, (_, grid, (mean_warp, lower, upper)) in recs),
        }
        for k, _, (res, _, _) in recs[:PROBE_JOBS]:
            pre = res.prewarp
            for w in res.posterior_warps[:PROBE_REPS]:
                with tr.span("warpmap.compose", k):
                    wa.compose(pre, w)
        out["warpmap.compose_us"] = median_span(tr, "warpmap.compose", 1e6)
        return out | to_srvf_metric(tr, recs)


WORKLOADS = {w.name: w for w in (Anneal(), Closed(), Posterior(), Landmarks())}
