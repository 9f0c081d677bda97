"""File formats: curve CSV, warp JSON, landmark CSV, bands and manifests.

Parsing is strict: malformed rows raise :class:`DataError` with the
offending line number, and nothing is silently coerced.  All writers
format floats with ``repr`` so outputs round-trip exactly and identical
inputs produce byte-identical files.
"""

from __future__ import annotations

import hashlib
import json
import platform
from pathlib import Path

import numpy as np
import scipy

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


def _parse_row(parts: list[str], lineno: int, path) -> list[float]:
    try:
        return [float(p) for p in parts]
    except ValueError:
        raise DataError(f"{path}: line {lineno}: non-numeric value") from None


def load_curve(path) -> Curve:
    """Read a curve CSV with columns t,x1[,x2,x3].

    An optional header row is allowed and a leading ``# closed`` comment
    marks closed topology.  The t column must increase strictly from 0
    to 1 (a tolerance of 1e-9 at the endpoints is snapped, not coerced
    elsewhere), and the curve must have nonzero length.
    """
    path = Path(path)
    closed = False
    width = None
    ts: list[float] = []
    rows: list[list[float]] = []
    header_allowed = True
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, 1):
            line = raw.strip()
            if not line:
                continue
            if line.startswith("#"):
                if line[1:].strip().lower() == "closed":
                    closed = True
                continue
            parts = [p.strip() for p in line.split(",")]
            if header_allowed:
                header_allowed = False
                try:
                    [float(p) for p in parts]
                except ValueError:
                    width = len(parts)
                    continue
            vals = _parse_row(parts, lineno, path)
            if width is None:
                width = len(vals)
            if len(vals) != width:
                raise DataError(f"{path}: line {lineno}: expected {width} columns, "
                                f"got {len(vals)}")
            if not np.isfinite(vals[0]):
                raise DataError(f"{path}: line {lineno}: t must be finite (t={vals[0]!r})")
            if ts and vals[0] <= ts[-1]:
                raise DataError(f"{path}: line {lineno}: t column must increase "
                                f"strictly (t={vals[0]!r})")
            ts.append(vals[0])
            rows.append(vals[1:])
    if len(rows) < 2:
        raise DataError(f"{path}: need at least two data rows")
    if width is not None and not 2 <= width <= 4:
        raise DataError(f"{path}: curves must have 1 to 3 coordinate columns")
    t = np.asarray(ts)
    if abs(t[0]) > 1e-9 or abs(t[-1] - 1.0) > 1e-9:
        raise DataError(f"{path}: t column must run from 0 to 1")
    t[0], t[-1] = 0.0, 1.0
    pts = np.asarray(rows)
    if closed and not np.all(np.abs(pts[0] - pts[-1]) <= 1e-9):
        raise DataError(f"{path}: declared closed but endpoints differ")
    try:
        curve = Curve(t, pts, "closed" if closed else "open")
        _nonzero_length(curve)
    except ValueError as exc:
        raise DataError(f"{path}: {exc}") from None
    return curve


def write_curve(curve: Curve, path) -> Path:
    path = Path(path)
    lines = []
    if curve.topology == "closed":
        lines.append("# closed")
    lines.append("t," + ",".join(f"x{j + 1}" for j in range(curve.dim)))
    for t, row in zip(curve.grid, curve.points):
        lines.append(",".join([_fmt(t)] + [_fmt(v) for v in row]))
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return path


def load_warp(path) -> PLWarp | CircularWarp:
    """Read a warp JSON.  Besides the knot checks of ``PLWarp``, every
    segment slope must be finite: a knot spacing so small that the slope
    overflows would turn the warp action into NaN."""
    path = Path(path)
    try:
        data = json.loads(path.read_text(encoding="utf-8"))
        warp = CircularWarp.from_dict(data) if "seed" in data else PLWarp.from_dict(data)
    except (json.JSONDecodeError, KeyError, IndexError, ValueError) as exc:
        raise DataError(f"{path}: {exc}") from None
    base = warp.base if isinstance(warp, CircularWarp) else warp
    with np.errstate(over="ignore"):
        slopes = np.diff(base.y) / np.diff(base.x)
    if not np.isfinite(slopes).all():
        raise DataError(f"{path}: knot spacing too small: a segment slope is not finite")
    return warp


def write_warp(warp: PLWarp | CircularWarp, path) -> Path:
    path = Path(path)
    path.write_text(json.dumps(warp.to_dict(), sort_keys=True) + "\n",
                    encoding="utf-8")
    return path


def load_landmarks(path) -> LandmarkSet:
    """Read a landmark CSV with columns a,b (header optional)."""
    path = Path(path)
    pairs: list[list[float]] = []
    header_allowed = True
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, 1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            parts = [p.strip() for p in line.split(",")]
            if header_allowed:
                header_allowed = False
                try:
                    [float(p) for p in parts]
                except ValueError:
                    continue
            vals = _parse_row(parts, lineno, path)
            if len(vals) != 2:
                raise DataError(f"{path}: line {lineno}: expected two columns a,b")
            pairs.append(vals)
    try:
        return LandmarkSet(np.asarray(pairs).reshape(-1, 2))
    except ValueError as exc:
        raise DataError(f"{path}: {exc}") from None


def write_band(path, grid, lower, mean, upper) -> Path:
    path = Path(path)
    lines = ["t,lower,mean,upper,width"]
    for t, lo, mid, hi in zip(grid, lower, mean, upper):
        lines.append(",".join(_fmt(v) for v in (t, lo, mid, hi, hi - lo)))
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return path


def write_trace(path, trace, segment=None) -> Path:
    path = Path(path)
    if segment is None:
        lines = ["iteration,energy"]
        lines += [f"{k},{_fmt(e)}" for k, e in enumerate(trace)]
    else:
        lines = ["segment,iteration,energy"]
        for seg, tr in zip(segment, trace):
            lines += [f"{seg},{k},{_fmt(e)}" for k, e in enumerate(tr)]
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return path


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


def _sha256(path: Path) -> str:
    h = hashlib.sha256()
    h.update(path.read_bytes())
    return h.hexdigest()


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
            "scipy": scipy.__version__,
        },
        "outputs": {Path(p).name: _sha256(Path(p)) for p in outputs},
    }
    return write_json(outdir / "manifest.json", manifest)
