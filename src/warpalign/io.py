"""File formats: curve CSV, warp JSON, landmark CSV, bands and manifests.

The types own the input rules: :class:`Curve`, :class:`PLWarp`,
:class:`CircularWarp` and :class:`LandmarkSet` check their invariants.
This module only reads and writes; it raises a rule's ``ValueError`` as
:class:`DataError` with the path added.  The line is added only for the
CSV grammar and a curve row's t rule, which are checked here row by row.
Both CSV inputs share one grammar: blank lines and ``#`` comments are
skipped (``# closed`` marks a closed curve), a first row in which no
cell is a number is a header, and every other row holds the same number
of comma-separated floats: two in a landmark file, as many as the header
or the first data row in a curve file.  The first bad line in file
order is reported, and nothing is coerced.
Writers format floats with ``repr``, so outputs round-trip exactly and
identical inputs give byte-identical files.
"""

from __future__ import annotations

import hashlib
import json
import platform
from pathlib import Path

import numpy as np

from . import __version__
from .landmarks import LandmarkSet
from .srvf import Curve, _nonzero_length
from .warpmap import CircularWarp, PLWarp

__all__ = [
    "DataError",
    "load_curve",
    "write_curve",
    "load_warp",
    "write_warp",
    "load_landmarks",
    "write_band",
    "write_trace",
    "write_table",
    "write_json",
    "write_manifest",
]


class DataError(Exception):
    """Malformed or inconsistent input data."""


def _fmt(x: float) -> str:
    return repr(float(x))


def _floats(cells: list[str]) -> list[float] | None:
    try:
        return [float(c) for c in cells]
    except ValueError:
        return None


def _read_csv(path: Path, check=None, width=None) -> tuple[list[list[float]], bool]:
    """The data rows of a CSV in the module's grammar, and whether a
    ``# closed`` comment marks it.

    ``check(row, previous)`` may return a message for a row that breaks a
    per-row rule (``previous`` is None for the first row); it is raised
    like a grammar error, with the path and line.  ``width`` fixes the
    row width; without it the header or the first data row sets it.
    """
    closed = False
    first = True
    rows: list[list[float]] = []
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, 1):
            line = raw.strip()
            if not line or line[0] == "#":
                closed |= line[1:].strip().lower() == "closed"
                continue
            cells = [c.strip() for c in line.split(",")]
            header, first = first and all(_floats([c]) is None for c in cells), False
            if header:
                width = width or len(cells)
                continue
            row = _floats(cells)
            if row is None:
                raise DataError(f"{path}: line {lineno}: non-numeric value")
            width = width or len(row)
            if len(row) != width:
                raise DataError(f"{path}: line {lineno}: expected {width} columns, "
                                f"got {len(row)}")
            msg = check(row, rows[-1] if rows else None) if check else None
            if msg:
                raise DataError(f"{path}: line {lineno}: {msg}")
            rows.append(row)
    return rows, closed


def _curve_t_rule(row, previous):
    """A curve row's own rule: t is finite and above the previous row's t."""
    if not np.isfinite(row[0]):
        return f"t must be finite (t={row[0]!r})"
    if previous is not None and row[0] <= previous[0]:
        return f"t column must increase strictly (t={row[0]!r})"
    return None


def load_curve(path) -> Curve:
    """Read a curve CSV with columns t,x1[,x2,x3].

    The t column must increase strictly from 0 to 1 (a tolerance of 1e-9
    at the endpoints is snapped, not coerced elsewhere), and the curve
    must have nonzero length.
    """
    path = Path(path)
    rows, closed = _read_csv(path, _curve_t_rule)
    if len(rows) < 2:
        raise DataError(f"{path}: need at least two data rows")
    data = np.asarray(rows)
    t, pts = data[:, 0].copy(), data[:, 1:].copy()
    if abs(t[0]) > 1e-9 or abs(t[-1] - 1.0) > 1e-9:
        raise DataError(f"{path}: t column must run from 0 to 1")
    t[0], t[-1] = 0.0, 1.0
    try:
        curve = Curve(t, pts, "closed" if closed else "open")
        _nonzero_length(curve)
    except ValueError as exc:
        raise DataError(f"{path}: {exc}") from None
    return curve


def write_curve(curve: Curve, path) -> Path:
    header = "t," + ",".join(f"x{j + 1}" for j in range(curve.dim))
    if curve.topology == "closed":
        header = "# closed\n" + header
    return write_table(path, header, np.column_stack((curve.grid, curve.points)))


def load_warp(path) -> PLWarp | CircularWarp:
    """Read a warp JSON: a circle warp if it carries a seed."""
    path = Path(path)
    try:
        data = json.loads(path.read_text(encoding="utf-8"))
        return CircularWarp.from_dict(data) if "seed" in data else PLWarp.from_dict(data)
    except (KeyError, IndexError, TypeError, ValueError) as exc:
        raise DataError(f"{path}: {exc}") from None


def write_warp(warp: PLWarp | CircularWarp, path) -> Path:
    path = Path(path)
    path.write_text(json.dumps(warp.to_dict(), sort_keys=True) + "\n",
                    encoding="utf-8")
    return path


def load_landmarks(path) -> LandmarkSet:
    """Read a landmark CSV with columns a,b."""
    path = Path(path)
    rows, _ = _read_csv(path, width=2)
    try:
        return LandmarkSet(rows)
    except ValueError as exc:
        raise DataError(f"{path}: {exc}") from None


def write_band(path, grid, lower, mean, upper) -> Path:
    return write_table(path, "t,lower,mean,upper,width",
                       ((t, lo, mid, hi, hi - lo)
                        for t, lo, mid, hi in zip(grid, lower, mean, upper)))


def write_trace(path, trace, segment=None) -> Path:
    if segment is None:
        return write_table(path, "iteration,energy", enumerate(trace))
    return write_table(path, "segment,iteration,energy",
                       ((seg, k, e) for seg, tr in zip(segment, trace)
                        for k, e in enumerate(tr)))


def write_table(path, header: str, rows) -> Path:
    path = Path(path)
    lines = [header]
    for row in rows:
        lines.append(",".join(str(v) if isinstance(v, (int, str)) else _fmt(v)
                              for v in row))
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return path


def write_json(path, payload: dict) -> Path:
    path = Path(path)
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n",
                    encoding="utf-8")
    return path


def write_manifest(outdir, command: str, config: dict, outputs) -> Path:
    """Record the run configuration, library versions and output digests."""
    outdir = Path(outdir)
    manifest = {
        "command": command,
        "config": config,
        "versions": {
            "warpalign": __version__,
            "python": platform.python_version(),
            "numpy": np.__version__,
        },
        "outputs": {Path(p).name: hashlib.sha256(Path(p).read_bytes()).hexdigest()
                    for p in outputs},
    }
    return write_json(outdir / "manifest.json", manifest)
