"""Nuisance-group operations for shape alignment.

Scale is removed by normalizing curves to unit length, rotation by a
Procrustes step over SO(d), and the starting point of a closed curve by
cyclic seed shifts of its SRVF values.  Translation needs no handling:
the SRVF depends on the curve only through its derivative.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .srvf import Curve, Srvf, arc_length, _trapezoid_weights, _require_uniform

__all__ = [
    "Rotation",
    "normalize_length",
    "optimal_rotation",
    "rotate",
    "apply_seed",
]


@dataclass(frozen=True)
class Rotation:
    """Element of SO(d): orthogonal with determinant +1."""

    matrix: np.ndarray

    def __post_init__(self):
        m = np.asarray(self.matrix, dtype=float)
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise ValueError("rotation matrix must be square")
        if not np.allclose(m.T @ m, np.eye(m.shape[0]), atol=1e-10):
            raise ValueError("rotation matrix must be orthogonal")
        if np.linalg.det(m) < 0.0:
            raise ValueError("rotation matrix must have determinant +1")
        m.setflags(write=False)
        object.__setattr__(self, "matrix", m)

    @classmethod
    def identity(cls, dim: int) -> "Rotation":
        return cls(np.eye(dim))

    def apply(self, values: np.ndarray) -> np.ndarray:
        return values @ self.matrix.T

    def to_rows(self) -> list[list[float]]:
        return [[float(v) for v in row] for row in self.matrix]


def normalize_length(curve: Curve) -> Curve:
    """Scale a curve to unit polyline length."""
    length = arc_length(curve)
    if length <= 1e-12:
        raise ValueError("cannot normalize a degenerate (zero-length) curve")
    return Curve(curve.grid, curve.points / length, curve.topology)


def optimal_rotation(q1: Srvf, q2: Srvf) -> Rotation:
    """Rotation O in SO(d) minimizing ||q1 - O q2|| over the grid.

    Standard Procrustes solution: O = U V^T from the SVD of the weighted
    cross-covariance sum_k q1(t_k) q2(t_k)^T dt_k, with the last column
    of U flipped if the determinant comes out negative.  In dimension
    one the identity is returned.
    """
    if q1.grid.size != q2.grid.size or not np.array_equal(q1.grid, q2.grid):
        raise ValueError("SRVFs live on different grids; resample first")
    if q1.dim != q2.dim:
        raise ValueError("SRVFs have different dimensions")
    return Rotation(_procrustes(q1.values, q2.values, _trapezoid_weights(q1.grid)))


def _procrustes(v1: np.ndarray, v2: np.ndarray, weights: np.ndarray) -> np.ndarray:
    """``optimal_rotation`` on raw (m, d) value arrays and trapezoid weights."""
    if v1.shape[1] == 1:
        return np.eye(1)
    a = (v1 * weights[:, None]).T @ v2
    u, _, vt = np.linalg.svd(a)
    if np.linalg.det(u @ vt) < 0.0:
        u[:, -1] *= -1.0
    return u @ vt


def rotate(q: Srvf, rot: Rotation) -> Srvf:
    """Apply a rotation to SRVF values (norms are preserved)."""
    return Srvf(q.grid, rot.apply(q.values), q.topology, q.is_shape)


def apply_seed(q: Srvf, s: float) -> Srvf:
    """Cyclically shift a closed-curve SRVF by the grid offset nearest s.

    The shifted SRVF is ``t -> q((t + s) mod 1)``.  Values are rolled over
    the m-1 distinct grid points (the duplicated endpoint is rebuilt), so
    the L2 norm is preserved exactly and ``apply_seed(., (1 - s) % 1)``
    undoes the shift.
    """
    if q.topology != "closed":
        raise ValueError("seed shifts apply to closed-curve SRVFs only")
    _require_uniform(q.grid)
    if not 0.0 <= s < 1.0:
        raise ValueError("seed must lie in [0, 1)")
    n_distinct = q.grid.size - 1
    k = int(np.round(s * n_distinct)) % n_distinct
    return Srvf(q.grid, _roll_seed(q.values, k), "closed", q.is_shape)


def _roll_seed(values: np.ndarray, k: int) -> np.ndarray:
    """``apply_seed`` on raw closed-curve values, by a whole grid offset k."""
    shifted = np.roll(values[:-1], -k, axis=0)
    return np.vstack((shifted, shifted[:1]))
