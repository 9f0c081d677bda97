"""Command-line interface.

Subcommands: sample-warps, degeneracy, distance, geodesic, align-dp,
align-sa, align-bayes.  Identical invocations produce byte-identical
outputs; each run writes a ``manifest.json`` with every parsed argument
and flag except ``--outdir``, library versions and SHA-256 digests of
the produced files.

Exit codes: 0 success, 2 usage error, 3 data error.
"""

from __future__ import annotations

import functools
from pathlib import Path

import click
import numpy as np

from .align_bayes import BayesConfig, PosteriorSample, posterior_summary, sir_posterior
from .align_dp import DpConfig, dp_align, dp_align_closed
from .align_sa import SaConfig, align as sa_dispatch
from .io import (
    DataError,
    _fmt,
    load_curve,
    load_landmarks,
    load_warp,
    write_band,
    write_curve,
    write_json,
    write_manifest,
    write_table,
    write_trace,
    write_warp,
)
from .landmarks import constrained_align
from .shapeops import apply_seed, normalize_length, rotate
from .srvf import (
    _nonzero_length,
    from_srvf,
    geodesic as geodesic_path,
    l2_dist,
    resample as resample_curve,
    shape_dist,
    to_srvf,
    unit_normalize,
    warp_action,
    warp_curve,
)
from .warpdist import (
    SeedDistribution,
    WarpPrior,
    beta_cdf_warp,
    check_sizes,
    degeneracy_report,
    sample,
    sample_circular,
)
from .warpmap import CircularWarp, PLWarp, check_positive, identity


def _guard(fn):
    """Map library ValueErrors raised on bad data to DataError (exit 3)."""

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        try:
            return fn(*args, **kwargs)
        except ValueError as exc:
            raise DataError(str(exc)) from None

    return wrapper


def _config(factory, *args, flag=None, **kwargs):
    """Build a config, or run a library rule, on flag values; a value the
    library rejects is a usage error, prefixed with ``flag`` when given."""
    try:
        return factory(*args, **kwargs)
    except ValueError as exc:
        raise click.UsageError(f"{flag}: {exc}" if flag else str(exc)) from None


def _outdir(path) -> Path:
    out = Path(path)
    out.mkdir(parents=True, exist_ok=True)
    return out


def _load_pair(path1, path2, points):
    curves = []
    for path in (path1, path2):
        curve = resample_curve(load_curve(path), points)
        try:
            _nonzero_length(curve)
        except ValueError as exc:
            raise DataError(f"{path}: {exc} after resampling to --points {points}") from None
        curves.append(curve)
    return tuple(curves)


def _srvfs(c1, c2, shape):
    """SRVFs of a curve pair; with ``shape``, of its unit-length, unit-norm shapes."""
    if shape:
        return tuple(unit_normalize(to_srvf(normalize_length(c))) for c in (c1, c2))
    return to_srvf(c1), to_srvf(c2)


def _record(out, outputs):
    """Write the manifest of the running command: every parameter but --outdir."""
    ctx = click.get_current_context()
    config = {k: v for k, v in ctx.params.items() if k != "outdir"}
    write_manifest(out, ctx.info_name, config, outputs)


def _curve_pair(fn):
    """Declare the two curve arguments and ``--points`` of a curve command."""
    fn = click.option("--points", default=100, show_default=True,
                      type=click.IntRange(min=3))(fn)
    fn = click.argument("curve2", type=click.Path(exists=True))(fn)
    return click.argument("curve1", type=click.Path(exists=True))(fn)


_seed = click.option("--seed", default=0, show_default=True, type=click.IntRange(min=0),
                     help="RNG seed.")


def _parse_ints(text: str) -> list[int]:
    try:
        return [int(p) for p in text.split(",") if p.strip()]
    except ValueError:
        raise click.UsageError(f"expected a comma-separated integer list, got {text!r}")


def _parse_mean(text: str) -> PLWarp:
    """The ``--mean`` warp; a malformed value is a usage error."""
    if text == "uniform":
        return identity()
    if text.startswith("beta:"):
        try:
            a, b = (float(v) for v in text[len("beta:"):].split(","))
            return beta_cdf_warp(a, b)
        except ValueError:
            raise click.BadParameter(f"expected beta:A,B with positive finite A and B, "
                                     f"got {text!r}", param_hint="'--mean'") from None
    raise click.BadParameter(f"unknown mean warp {text!r}; use 'uniform' or 'beta:A,B'",
                             param_hint="'--mean'")


@click.group()
def cli():
    """Stochastic alignment of open and closed curves."""


@cli.command("sample-warps")
@click.option("--n", default=20, show_default=True, help="Partition size.")
@click.option("--theta", default=10.0, show_default=True, help="Concentration.")
@click.option("--count", default=100, show_default=True, type=click.IntRange(min=1),
              help="Number of warps.")
@click.option("--mean", default="uniform", show_default=True,
              help="Mean warp: 'uniform' or 'beta:A,B'.")
@click.option("--circular", is_flag=True, help="Sample circle warps (uniform seed).")
@_seed
@click.option("--outdir", default="out", show_default=True)
@_guard
def sample_warps(n, theta, count, mean, circular, seed, outdir):
    """Draw warps and write them as JSON lines."""
    prior = _config(WarpPrior, mean_warp=_parse_mean(mean), partition_size=n,
                    concentration=theta)
    out = _outdir(outdir)
    rng = np.random.default_rng(seed)
    lines = []
    for _ in range(count):
        if circular:
            w = sample_circular(prior, SeedDistribution.uniform(), rng)
        else:
            w = sample(prior, rng)
        lines.append(w.to_json())
    target = out / "warps.jsonl"
    target.write_text("\n".join(lines) + "\n", encoding="utf-8")
    _record(out, [target])
    click.echo(f"wrote {count} warps to {target.name}")


@cli.command("degeneracy")
@click.option("--alpha", default=1.2, show_default=True)
@click.option("--ns", default="20,100,300,500", show_default=True,
              help="Comma-separated partition sizes.")
@click.option("--samples", default=200, show_default=True, type=click.IntRange(min=1))
@_seed
@click.option("--outdir", default="out", show_default=True)
@_guard
def degeneracy(alpha, ns, samples, seed, outdir):
    """Median sup-distance of equispaced fixed-partition samples to the identity."""
    _config(check_positive, "alpha", alpha, flag="--alpha")
    n_list = _config(check_sizes, _parse_ints(ns), flag="--ns")
    out = _outdir(outdir)
    rng = np.random.default_rng(seed)
    rows = degeneracy_report(n_list, alpha, identity(), samples, rng)
    target = write_table(out / "degeneracy.csv", "n,median_sup_distance", rows)
    _record(out, [target])
    for n, d in rows:
        click.echo(f"n={n} median sup-distance {_fmt(d)}")


@cli.command("distance")
@_curve_pair
@click.option("--shape", is_flag=True, help="Unit-norm shape distance instead of L2.")
@click.option("--warp", default=None, type=click.Path(exists=True),
              help="Warp JSON of [0,1] applied to curve2 first, such as an align-* warp.json.")
@click.option("--outdir", default=None, help="Optionally record the run here.")
@_guard
def distance(curve1, curve2, points, shape, warp, outdir):
    """Print the SRVF distance between two curves, curve2 optionally warped."""
    if warp is not None and shape:
        raise click.UsageError("--warp cannot be combined with --shape: a warp file "
                               "holds no rotation or seed")
    c1, c2 = _load_pair(curve1, curve2, points)
    q1, q2 = _srvfs(c1, c2, shape)
    if warp is not None:
        w = load_warp(warp)
        if isinstance(w, CircularWarp):
            raise DataError(f"{warp}: --warp takes a warp of [0,1], not of the circle")
        q2 = warp_action(q2, w)
    d = shape_dist(q1, q2) if shape else l2_dist(q1, q2)
    click.echo(_fmt(d))
    if outdir is not None:
        out = _outdir(outdir)
        target = out / "distance.txt"
        target.write_text(_fmt(d) + "\n", encoding="utf-8")
        _record(out, [target])


@cli.command("geodesic")
@_curve_pair
@click.option("--steps", default=5, show_default=True, type=click.IntRange(min=2))
@click.option("--shape", is_flag=True, help="Great-circle path between unit shapes.")
@click.option("--outdir", default="out", show_default=True)
@_guard
def geodesic(curve1, curve2, steps, points, shape, outdir):
    """Write the geodesic between two curves, one curve CSV per step."""
    out = _outdir(outdir)
    c1, c2 = _load_pair(curve1, curve2, points)
    path = geodesic_path(*_srvfs(c1, c2, shape), steps)
    outputs = [write_curve(from_srvf(q), out / f"geodesic_{k:03d}.csv")
               for k, q in enumerate(path)]
    _record(out, outputs)
    click.echo(f"wrote {steps} geodesic steps")


@cli.command("align-dp")
@_curve_pair
@click.option("--grid-size", default=100, show_default=True)
@click.option("--seed-stride", default=1, show_default=True,
              help="Closed curves: try every k-th grid point as the seed.")
@click.option("--shape", is_flag=True, help="Normalize to unit-length shapes first.")
@click.option("--outdir", default="out", show_default=True)
@_guard
def align_dp_cmd(curve1, curve2, points, grid_size, seed_stride, shape, outdir):
    """Dynamic-programming alignment (exhaustive seed search when closed)."""
    out = _outdir(outdir)
    c1, c2 = _load_pair(curve1, curve2, points)
    q1, q2 = _srvfs(c1, c2, shape)
    cfg = _config(DpConfig, grid_size=grid_size, seed_stride=seed_stride)
    if q1.topology == "closed" and q2.topology == "closed":
        seed_val, warp, energy = dp_align_closed(q1, q2, cfg)
        q2_aligned = warp_action(apply_seed(q2, seed_val), warp)
    else:
        warp, energy = dp_align(q1, q2, cfg)
        seed_val = None
        q2_aligned = warp_action(q2, warp)
    rows = [
        ("distance_before", l2_dist(q1, q2)),
        ("distance_after", l2_dist(q1, q2_aligned)),
        ("energy", energy),
    ]
    if seed_val is not None:
        rows.append(("seed", seed_val))
    warp_path = write_warp(warp, out / "warp.json")
    energy_path = write_table(out / "energy.csv", "metric,value", rows)
    _record(out, [warp_path, energy_path])
    click.echo(f"energy {_fmt(energy)}")


@cli.command("align-sa")
@_curve_pair
@click.option("--n", default=20, show_default=True)
@click.option("--theta", default=100.0, show_default=True)
@click.option("--t0", default=10.0, show_default=True)
@click.option("--cooling", default=1.0001, show_default=True)
@click.option("--iters", default=20000, show_default=True)
@click.option("--blend", default=0.9, show_default=True)
@click.option("--mode", default="function", show_default=True,
              type=click.Choice(["function", "open_shape", "closed_shape"]))
@click.option("--kappa", default=50.0, show_default=True,
              help="Von Mises concentration for closed-curve seed proposals.")
@click.option("--landmarks", default=None, type=click.Path(exists=True),
              help="CSV of matched positions a,b (function mode only).")
@_seed
@click.option("--outdir", default="out", show_default=True)
@_guard
def align_sa_cmd(curve1, curve2, n, theta, t0, cooling, iters, blend, mode, kappa,
                 points, landmarks, seed, outdir):
    """Simulated-annealing alignment."""
    out = _outdir(outdir)
    cfg = _config(SaConfig, n=n, theta=theta, t0=t0, cooling=cooling,
                  max_iters=iters, blend=blend, mode=mode, von_mises_kappa=kappa)
    rng = np.random.default_rng(seed)
    c1, c2 = _load_pair(curve1, curve2, points)

    if landmarks is not None:
        if mode != "function":
            raise click.UsageError("landmark constraints apply to function mode only")
        lm = load_landmarks(landmarks)
        res = constrained_align(c1, c2, lm, "sa", cfg, rng)
        payload = {
            "mode": mode,
            "warp": res.warp.to_dict(),
            "landmarks": lm.pairs.tolist(),
            "segments": [
                {"interval": list(seg.interval),
                 "theta": seg.config.theta,
                 "n": seg.config.n,
                 "initial_energy": float(seg.result.initial_energy),
                 "final_energy": float(seg.result.final_energy)}
                for seg in res.segments
            ],
        }
        traces = [list(map(float, seg.result.energy_trace)) for seg in res.segments]
        trace_path = write_trace(out / "trace.csv", traces,
                                 segment=list(range(len(traces))))
        aligned = warp_curve(c2, res.warp)
    else:
        q1, q2 = _srvfs(c1, c2, mode != "function")
        res = sa_dispatch(q1, q2, cfg, rng)
        payload = {
            "mode": mode,
            "warp": res.warp.to_dict(),
            "initial_energy": float(res.initial_energy),
            "final_energy": float(res.final_energy),
            "iterations": int(res.energy_trace.size - 2),
        }
        if res.rotation is not None:
            payload["rotation"] = res.rotation.to_rows()
        if res.seed is not None:
            payload["seed_point"] = float(res.seed)
        trace_path = write_trace(out / "trace.csv", res.energy_trace)
        if mode == "function":
            aligned = warp_curve(c2, res.warp)
        else:
            q2w = apply_seed(q2, res.seed) if res.seed is not None else q2
            aligned = from_srvf(rotate(warp_action(q2w, res.warp), res.rotation))

    result_path = write_json(out / "result.json", payload)
    warp_path = write_warp(res.warp, out / "warp.json")
    aligned_path = write_curve(aligned, out / "aligned.csv")
    _record(out, [result_path, warp_path, trace_path, aligned_path])
    if "final_energy" in payload:
        click.echo(f"final energy {_fmt(payload['final_energy'])}")
    else:
        finals = [seg["final_energy"] for seg in payload["segments"]]
        click.echo(f"segment final energies {','.join(_fmt(e) for e in finals)}")


@cli.command("align-bayes")
@_curve_pair
@click.option("--n", default=20, show_default=True)
@click.option("--theta", default=10.0, show_default=True)
@click.option("--a0", default=0.01, show_default=True)
@click.option("--b0", default=0.01, show_default=True)
@click.option("--draws", default=20000, show_default=True)
@click.option("--resample", default=2000, show_default=True)
@click.option("--landmarks", default=None, type=click.Path(exists=True))
@_seed
@click.option("--outdir", default="out", show_default=True)
@_guard
def align_bayes_cmd(curve1, curve2, n, theta, a0, b0, draws, resample, points,
                    landmarks, seed, outdir):
    """Bayesian alignment: posterior mean warp and 95% credible band."""
    out = _outdir(outdir)
    prior = _config(WarpPrior, mean_warp=identity(), partition_size=n,
                    concentration=theta)
    cfg = _config(BayesConfig, prior=prior, a0=a0, b0=b0, prior_draws=draws,
                  resample_size=resample)
    rng = np.random.default_rng(seed)
    c1, c2 = _load_pair(curve1, curve2, points)
    summary_grid = c1.grid

    if landmarks is not None:
        lm = load_landmarks(landmarks)
        res = constrained_align(c1, c2, lm, "bayes", cfg, rng)
        summary_grid = np.union1d(summary_grid, lm.a)
        count = len(res.posterior_warps)
        post = PosteriorSample(res.posterior_warps, np.full(count, 1.0 / count),
                               float(count))
        ess = min(seg.result.ess for seg in res.segments)
    else:
        post = sir_posterior(to_srvf(c1), to_srvf(c2), cfg, rng)
        ess = post.ess
    if ess < 0.01 * draws:
        click.echo(f"warning: effective sample size {ess:.4g} is below 1% of the "
                   f"{draws} prior draws; the posterior band is unreliable", err=True)
    mean_warp, lower, upper = posterior_summary(post, summary_grid)
    mean = mean_warp(summary_grid)

    warp_path = write_warp(mean_warp, out / "mean_warp.json")
    band_path = write_band(out / "band.csv", summary_grid, lower, mean, upper)
    aligned_path = write_curve(warp_curve(c2, mean_warp), out / "aligned.csv")
    _record(out, [warp_path, band_path, aligned_path])
    click.echo(f"wrote posterior band to {band_path.name}")


def main(argv=None) -> int:
    try:
        cli.main(args=argv, standalone_mode=False)
        return 0
    except click.exceptions.Exit as exc:
        return int(exc.exit_code)
    except click.UsageError as exc:
        exc.show()
        return 2
    except click.ClickException as exc:
        exc.show()
        return 1
    except DataError as exc:
        click.echo(f"data error: {exc}", err=True)
        return 3


if __name__ == "__main__":
    raise SystemExit(main())
