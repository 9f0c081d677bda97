#!/usr/bin/env python3
"""Per-iteration time of the simulated-annealing loop in each mode, the
time of one closed-curve DP seed search, of one DP alignment and of one
SIR posterior.

Aligns the bundled fixtures with default ``SaConfig`` settings apart from
the iteration count: two-bump functions at m=100 (function mode), 3-d
spirals at m=100 (open_shape) and planar closed blobs at m=101
(closed_shape).  Each mode runs ``--runs`` times, seeded 0, 1, ..., and
the median wall time per iteration is printed in microseconds.  The
``closed_dp`` line is the median wall time of ``--runs`` calls of
``dp_align_closed`` on the same closed blobs at ``grid_size=101``, in
milliseconds, and the ``closed_dp_off`` line the same off the lattice,
at ``grid_size=80``.  The ``dp_align`` line is the median wall time of
``--runs`` calls of ``dp_align`` on the two-bump functions at
``grid_size=100``, in milliseconds.  The ``sir_posterior`` line is the
median wall time of ``--runs`` calls of ``sir_posterior`` at default
``BayesConfig`` on the two-bump functions, seeded 0, 1, ..., in
milliseconds.

The figures move between invocations more than a small change does:
on a shared 2-vCPU host one build read 42.7 to 82.4 us per
function-mode iteration across separate invocations, so this script
cannot resolve a 10% change.  To compare two builds, use the
benchmark's ``job_p50_ref`` (``wabench/run.py``), or interleave both
builds' runs within one process.
"""

import argparse
import statistics
import time

import numpy as np

from warpalign import (BayesConfig, DpConfig, SaConfig, dp_align, dp_align_closed,
                       normalize_length, sir_posterior, to_srvf, unit_normalize)
from warpalign.align_sa import align
from warpalign.fixtures import closed_shape_pair, spiral_pair, two_bump_pair


def _shapes(pair):
    return tuple(unit_normalize(to_srvf(normalize_length(c))) for c in pair)


def _median_time(call, runs: int, per=None) -> float:
    """Median over run = 0, 1, ..., runs-1 of the wall seconds of
    ``call(run)``, each divided by ``per(result)`` when ``per`` is given."""
    times = []
    for run in range(runs):
        start = time.perf_counter()
        result = call(run)
        elapsed = time.perf_counter() - start
        times.append(elapsed / per(result) if per else elapsed)
    return statistics.median(times)


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--iters", type=int, default=1000)
    ap.add_argument("--runs", type=int, default=5)
    args = ap.parse_args()
    if args.iters < 1 or args.runs < 1:
        ap.error("--iters and --runs must be positive")

    pairs = {
        "function": tuple(to_srvf(c) for c in two_bump_pair(100)),
        "open_shape": _shapes(spiral_pair(100)),
        "closed_shape": _shapes(closed_shape_pair(101)),
    }
    for mode, (q1, q2) in pairs.items():
        cfg = SaConfig(mode=mode, max_iters=args.iters)
        seconds = _median_time(lambda run: align(q1, q2, cfg, np.random.default_rng(run)),
                               args.runs, per=lambda res: res.energy_trace.size - 2)
        print(f"{mode:13s} {1e6 * seconds:8.1f} us/iter "
              f"(median of {args.runs} runs x {args.iters} iterations)")
    q1, q2 = pairs["closed_shape"]
    for name, grid_size in (("closed_dp", q1.grid.size), ("closed_dp_off", 80)):
        cfg = DpConfig(grid_size=grid_size)
        seconds = _median_time(lambda _: dp_align_closed(q1, q2, cfg), args.runs)
        print(f"{name:13s} {1e3 * seconds:8.1f} ms/search (median of {args.runs} runs, "
              f"{q1.grid.size - 1} seeds at grid_size={grid_size})")
    q1, q2 = pairs["function"]
    cfg = DpConfig(grid_size=q1.grid.size)
    seconds = _median_time(lambda _: dp_align(q1, q2, cfg), args.runs)
    print(f"{'dp_align':13s} {1e3 * seconds:8.1f} ms/call "
          f"(median of {args.runs} runs at grid_size={cfg.grid_size})")
    bayes = BayesConfig()
    seconds = _median_time(
        lambda run: sir_posterior(q1, q2, bayes, np.random.default_rng(run)), args.runs)
    print(f"{'sir_posterior':13s} {1e3 * seconds:8.1f} ms/call "
          f"(median of {args.runs} runs, {bayes.prior_draws} draws at m={q1.grid.size})")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
