"""Benchmark of warpalign: four closed-loop workloads, one client each.

Run from the repository root:

    python3 wabench/run.py --workload anneal --seed 1 --seconds 30 --trace 0

``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the per-layer
metrics.  The last line of standard output is one JSON object with the
keys ``correct``, ``attempted``, ``failed`` and ``metrics``.  The exit
code is 0 only if every output check passed.  See README.md beside this
file for what each workload loads and why.
"""

import time

T_START = time.perf_counter()  # set-up time counts from here

import argparse  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
SPANS_DIR = HERE / "out"  # traced runs write their spans here
SETUP_CHILDREN = 2  # extra set-ups in fresh processes; setup_s is a median
CHILD_TIMEOUT_S = 120
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "WARPALIGN_THREADS")


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true",
                    help="set up, print the set-up time and exit (used for setup_s)")
    return ap.parse_args(argv)


def import_program():
    """Import warpalign from this checkout's src/, never from elsewhere."""
    if not (SRC / "warpalign" / "__init__.py").is_file():
        sys.exit(f"error: no warpalign package under {SRC}")
    # closed-curve DP runs serially, as a default user's would
    os.environ.pop("WARPALIGN_THREADS", None)
    sys.path.insert(0, str(SRC))
    import warpalign

    if Path(warpalign.__file__).resolve().parent != SRC / "warpalign":
        sys.exit(f"error: imported warpalign from {warpalign.__file__}")


def machine() -> dict:
    import numpy as np
    import scipy

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "thread_env": {v: os.environ.get(v) for v in THREAD_VARS},
    }


class Run:
    """One workload's fixed job set, RNG streams and reference kernel."""

    def __init__(self, args):
        import numpy as np
        from refkernels import KERNELS
        from tracer import NullTracer
        from workloads import WORKLOADS, digest

        if args.workload not in WORKLOADS:
            sys.exit(f"error: unknown workload {args.workload!r}; "
                     f"choose from {', '.join(WORKLOADS)}")
        self.np = np
        self.seed = args.seed
        self.wl = WORKLOADS[args.workload]
        self.null = NullTracer()
        kind, reps = self.wl.kernel
        self.kernel = KERNELS[kind](reps)
        self.jobs = [self.make(k) for k in range(self.wl.n_jobs)]
        self.digest = digest(self.jobs)
        # untimed warm-up: first calls, lazy imports and allocator growth
        self.wl.run(self.jobs[0], self.program_rng(0), self.null, 0)
        self.kernel()
        self.setup_s = time.perf_counter() - T_START

    def make(self, k):
        return self.wl.make(k, self.np.random.default_rng([self.seed, k]))

    def program_rng(self, k):
        """The RNG stream the program draws from in job k."""
        return self.np.random.default_rng([self.seed, k, 1])

    def job(self, k, tr):
        job = self.jobs[k] if k < len(self.jobs) else self.make(k)
        return attempt(self.wl, job, self.program_rng(k), tr, k)


def attempt(wl, job, rng, tr, k):
    """Run and check one job: (seconds, output or None, faults)."""
    start = time.perf_counter()
    try:
        with tr.span("bench.job", k):
            out = wl.run(job, rng, tr, k)
    except Exception as exc:  # a raising job is a failed job, not a crash
        return time.perf_counter() - start, None, [f"raised {exc!r}"]
    elapsed = time.perf_counter() - start
    try:
        faults = wl.check(job, out)
    except Exception as exc:
        faults = [f"check raised {exc!r}"]
    return elapsed, out, faults


def tail_percentile(n_jobs: int) -> int:
    """Highest whole percentile with at least ten of n_jobs beyond it."""
    return max(0, math.floor(100 * (n_jobs - 10) / n_jobs))


def timed_phase(run, seconds):
    """Jobs 0, 1, ... until the fixed set is done and the time is up."""
    times, refs, energies, faults = [], [], [], []
    unaligned = failed = 0
    deadline = time.perf_counter() + seconds
    k = 0
    while k < run.wl.n_jobs or time.perf_counter() < deadline:
        elapsed, out, job_faults = run.job(k, run.null)
        times.append(elapsed)
        refs.append(run.kernel())
        if job_faults:
            failed += 1
            faults.append((k, job_faults[:3]))
        elif k < run.wl.n_jobs:
            energies.append(run.wl.final_energy(run.jobs[k], out))
            unaligned += run.jobs[k].unaligned
        k += 1
    ratio = sum(energies) / unaligned if unaligned else 0.0  # 0 only if every job failed
    return times, refs, ratio, failed, faults


def child_setups(args) -> list[float]:
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", "0", "--setup-only"]
    out = []
    for _ in range(SETUP_CHILDREN):
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S,
                              check=True)
        out.append(json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"])
    return out


def end_to_end(run, args):
    np = run.np
    times, refs, energy_ratio, failed, faults = timed_phase(run, args.seconds)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    setups = [run.setup_s] + child_setups(args)
    fixed = run.wl.n_jobs
    pct = tail_percentile(fixed)
    tail = float(np.percentile(times, pct))
    attempted = len(times)
    metrics = {
        "setup_s": (statistics.median(setups), "s"),
        "job_p50_ref": (statistics.median(t / r for t, r in zip(times, refs)), "ratio"),
        "energy_ratio": (energy_ratio, "ratio"),
        "ok_frac": (1.0 - failed / attempted, "ratio"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
    }
    # Raw job times carry the host's drift (see README.md), so they are
    # reported here, not as gated metrics.
    detail = {
        "jobs_per_s": attempted / sum(times),
        "job_p50_s": statistics.median(times),
        "job_tail_s": tail,
        "tail_percentile": pct,
        "jobs_beyond_tail": int(sum(t > tail for t in times)),
        "fail_frac": failed / attempted,
        "faults": faults[:5],
        "fixed_jobs": fixed,
        "setup_samples_s": setups,
        "ref_kernel": list(run.wl.kernel),
        "ref_p50_s": statistics.median(refs),
        "ref_min_s": min(refs),
        "ref_max_s": max(refs),
        "timed_wall_s": sum(times) + sum(refs),
    }
    return attempted, failed, metrics, detail


def per_layer(run, args):
    """Each fixed job twice, untraced and traced, then the layer probes.

    The two copies of a job alternate in order and must return the same
    final energy; their time difference is the tracing overhead.
    """
    from tracer import Tracer
    from workloads import LAYER_UNITS, WORKLOADS

    tr = Tracer()
    plain, traced, recs, roots = [], [], [], []
    attempted = failed = 0
    for k in range(run.wl.n_jobs):
        order = (False, True) if k % 2 == 0 else (True, False)
        results = {}
        for use_trace in order:
            if use_trace:
                roots.append(len(tr.spans))
            results[use_trace] = run.job(k, tr if use_trace else run.null)
        (t0, out0, f0), (t1, out1, f1) = results[False], results[True]
        plain.append(t0)
        traced.append(t1)
        attempted += 1
        faults = f0 + f1
        if not faults and (run.wl.final_energy(run.jobs[k], out0)
                           != run.wl.final_energy(run.jobs[k], out1)):
            faults = ["same inputs and RNG seed gave different results"]
        if faults:
            failed += 1
        else:
            recs.append((k, run.jobs[k], out1))
    probe_rng = run.np.random.default_rng([run.seed, 2**32 - 1])
    metrics = run.wl.layer_metrics(tr, recs, probe_rng) if recs else {}
    borrowed = {}
    for other in WORKLOADS.values():
        missing = [m for m in other.owns if m not in metrics]
        if not missing or other is run.wl:
            continue
        # a layer this workload bypasses: probe it on one job of a workload
        # that loads it, so every per-layer metric is a measurement
        job = other.make(0, run.np.random.default_rng([run.seed, 0]))
        ctr = Tracer()
        _, out, faults = attempt(other, job, run.program_rng(0), ctr, 0)
        attempted += 1
        if faults:
            failed += 1
            continue
        got = other.layer_metrics(ctr, [(0, job, out)], probe_rng)
        for m in missing:
            metrics[m] = got[m]
            borrowed[m] = other.name
    spans_file = SPANS_DIR / f"spans-{run.wl.name}-{run.seed}.jsonl"
    tr.write(spans_file)
    detail = {
        "untraced_jobs_per_s": len(plain) / sum(plain),
        "traced_jobs_per_s": len(traced) / sum(traced),
        "tracing_overhead_jobs_per_s": len(traced) / sum(traced) - len(plain) / sum(plain),
        "self_s": tr.self_time(set(roots)),
        "borrowed_from": borrowed,
        "spans": len(tr.spans),
        "spans_file": str(spans_file.relative_to(HERE.parent)),
    }
    # a metric whose jobs all failed reads 0; the run is then marked incorrect
    return (attempted, failed, {m: (metrics.get(m, 0.0), u) for m, u in LAYER_UNITS.items()},
            detail)


def main(argv=None) -> int:
    args = parse_args(argv)
    import_program()
    sys.path.insert(0, str(HERE))
    run = Run(args)
    if args.setup_only:
        print(json.dumps({"setup_s": run.setup_s}))
        return 0
    print(json.dumps({"machine": machine()}))
    print(json.dumps({"workload": run.wl.name, "seed": args.seed,
                      "input_digest": run.digest}))
    collect = per_layer if args.trace else end_to_end
    attempted, failed, metrics, detail = collect(run, args)
    print(json.dumps({"detail": detail}, default=float))
    for name, (value, unit) in metrics.items():
        print(f"{name:34s} {value!r} {unit}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m: {"value": v, "unit": u} for m, (v, u) in metrics.items()},
    }))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
