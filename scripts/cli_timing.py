#!/usr/bin/env python3
"""Cold wall time and peak RSS of each CLI command on the bundled fixtures.

Writes the fixtures (``scripts/make_fixtures.py``) to a temporary
directory, then runs every command at its default settings ``--runs``
times, each in a fresh interpreter, and prints the median wall time in
seconds and the median peak resident set size in MB (the child's own
``ru_maxrss``, read with ``os.wait4``).  A cold run pays interpreter
start-up and package import as a user's run does.  The ``import`` line
is ``import warpalign, warpalign.cli`` alone; ``align-dp`` runs once on
the two-bump functions and once (``align-dp-closed``) on the closed
blobs with ``--shape``; ``align-sa`` runs
once in each mode, on the two-bump functions, on the 3-d spirals
(``align-sa-open``) and on the closed blobs at 101 points
(``align-sa-closed``); ``align-sa-lm`` and
``align-bayes-lm`` run ``align-sa`` and ``align-bayes`` on the PQRST
pair with ``--landmarks pqrst_landmarks.csv``.
"""

import argparse
import os
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

SCRIPTS = Path(__file__).resolve().parent

COMMANDS = {
    "import": ["-c", "import warpalign, warpalign.cli"],
    "distance": ["distance", "two_bump_1.csv", "two_bump_2.csv"],
    "geodesic": ["geodesic", "two_bump_1.csv", "two_bump_2.csv"],
    "align-dp": ["align-dp", "two_bump_1.csv", "two_bump_2.csv"],
    "align-dp-closed": ["align-dp", "closed_blob_1.csv", "closed_blob_2.csv", "--shape"],
    "align-sa": ["align-sa", "two_bump_1.csv", "two_bump_2.csv"],
    "align-sa-open": ["align-sa", "spiral_1.csv", "spiral_2.csv", "--mode", "open_shape"],
    "align-sa-closed": ["align-sa", "closed_blob_1.csv", "closed_blob_2.csv",
                        "--mode", "closed_shape", "--points", "101"],
    "align-bayes": ["align-bayes", "two_bump_1.csv", "two_bump_2.csv"],
    "align-sa-lm": ["align-sa", "pqrst_1.csv", "pqrst_2.csv",
                    "--landmarks", "pqrst_landmarks.csv"],
    "align-bayes-lm": ["align-bayes", "pqrst_1.csv", "pqrst_2.csv",
                       "--landmarks", "pqrst_landmarks.csv"],
    "sample-warps": ["sample-warps"],
}


def _argv(name: str, workdir: Path) -> list[str]:
    args = COMMANDS[name]
    if name == "import":
        return [sys.executable, *args]
    args = [str(workdir / a) if a.endswith(".csv") else a for a in args]
    return [sys.executable, "-m", "warpalign.cli", *args, "--outdir", str(workdir / name)]


def _run(argv: list[str]) -> tuple[float, float, int, str]:
    """Wall seconds, peak RSS in MB, exit code and stderr of one child."""
    with tempfile.TemporaryFile() as err:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=subprocess.DEVNULL, stderr=err)
        _, status, usage = os.wait4(proc.pid, 0)
        seconds = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        err.seek(0)
        return seconds, usage.ru_maxrss / 1024.0, proc.returncode, err.read().decode()


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--runs", type=int, default=5)
    ap.add_argument("--commands", default=",".join(COMMANDS),
                    help="comma-separated subset of: " + ", ".join(COMMANDS))
    args = ap.parse_args()
    names = [c.strip() for c in args.commands.split(",") if c.strip()]
    unknown = set(names) - set(COMMANDS)
    if args.runs < 1 or not names or unknown:
        ap.error(f"--runs must be positive and --commands a subset of {', '.join(COMMANDS)}")

    with tempfile.TemporaryDirectory() as tmp:
        workdir = Path(tmp)
        subprocess.run([sys.executable, str(SCRIPTS / "make_fixtures.py"), str(workdir)],
                       check=True, capture_output=True)
        for name in names:
            times, peaks = [], []
            for _ in range(args.runs):
                seconds, peak_mb, code, stderr = _run(_argv(name, workdir))
                if code != 0:
                    print(f"{name}: exit {code}\n{stderr}", file=sys.stderr)
                    return 1
                times.append(seconds)
                peaks.append(peak_mb)
            print(f"{name:20s} {statistics.median(times):7.3f} s "
                  f"{statistics.median(peaks):7.1f} MB (median of {args.runs} cold runs)")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
