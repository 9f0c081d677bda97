"""Nuisance-group operations for shape alignment.

Scale is removed by normalizing curves to unit length, rotation by a
Procrustes step over SO(d), and the starting point of a closed curve by
cyclic seed shifts of its SRVF values.  Translation needs no handling:
the SRVF depends on the curve only through its derivative.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .srvf import (Curve, Srvf, _check_same_grid, _energy_target, _has_unit_norm,
                   _nonzero_length, _require_uniform)

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
    def _unchecked(cls, rows: list[list[float]]) -> "Rotation":
        """Wrap the rows ``_procrustes`` returned, which are in SO(d) by
        construction, without ``__post_init__``'s re-check."""
        rot = object.__new__(cls)
        matrix = np.array(rows)
        matrix.setflags(write=False)
        object.__setattr__(rot, "matrix", matrix)
        return rot

    def apply(self, values: np.ndarray) -> np.ndarray:
        return values @ self.matrix.T

    def to_rows(self) -> list[list[float]]:
        return [[float(v) for v in row] for row in self.matrix]


def normalize_length(curve: Curve) -> Curve:
    """Scale a curve to unit polyline length."""
    return Curve(curve.grid, curve.points / _nonzero_length(curve), curve.topology)


def optimal_rotation(q1: Srvf, q2: Srvf) -> Rotation:
    """Rotation O in SO(d) minimizing ||q1 - O q2|| over the grid.

    Standard Procrustes solution for the weighted cross-covariance
    A = sum_k q1(t_k) q2(t_k)^T dt_k: in the plane O is A's rotation part
    in closed form; in 3-d it is U V^T from the SVD of A, with the last
    column of U flipped if the determinant comes out negative.  In
    dimension one the identity is returned.
    """
    _check_same_grid(q1, q2)
    target = _energy_target(q1.values, q1.grid)[1]
    return Rotation._unchecked(_procrustes((target @ q2.values).tolist()))


def _procrustes(a: list[list[float]]) -> list[list[float]]:
    """``optimal_rotation`` from the (d, d) weighted cross-covariance
    A = target @ v2 of the (m, d) values v2 to rotate and the
    ``srvf._energy_target`` of the values to rotate onto, as Python rows,
    and returned as rows: the annealer has A at hand as the M of its
    energy kernel, ``srvf._energy``, which reads R and M as rows.

    For d = 2, tr(O A^T) = c (a00 + a11) + s (a10 - a01) over rotations
    O = [[c, -s], [s, c]], so the maximiser is that vector normalised;
    the SVD with its reflection flip finds the same O.  A zero vector
    (every rotation optimal) gives the identity.  For d = 3, U V^T is
    orthogonal with determinant +-1, so the sign of a cofactor expansion
    makes the same flip decision as ``np.linalg.det``.
    """
    d = len(a)
    if d == 1:
        return [[1.0]]
    if d == 2:
        (a00, a01), (a10, a11) = a
        c, s = a00 + a11, a10 - a01
        norm = math.hypot(c, s)
        if norm == 0.0:
            return [[1.0, 0.0], [0.0, 1.0]]
        c, s = c / norm, s / norm
        return [[c, -s], [s, c]]
    u, _, vt = np.linalg.svd(a)
    r = (u @ vt).tolist()
    (r00, r01, r02), (r10, r11, r12), (r20, r21, r22) = r
    det = (r00 * (r11 * r22 - r12 * r21) - r01 * (r10 * r22 - r12 * r20)
           + r02 * (r10 * r21 - r11 * r20))
    if det < 0.0:
        u[:, -1] *= -1.0
        r = (u @ vt).tolist()
    return r


def rotate(q: Srvf, rot: Rotation) -> Srvf:
    """Apply a rotation to SRVF values (norms are preserved)."""
    return Srvf(q.grid, rot.apply(q.values), q.topology, q.is_shape)


def apply_seed(q: Srvf, s: float) -> Srvf:
    """Cyclically shift a closed-curve SRVF by the grid offset nearest s.

    The shifted SRVF is ``t -> q((t + s) mod 1)``, read on the circle by
    ``_two_periods``: its last sample is rebuilt from its first, whatever
    the input's last sample holds.  On an SRVF whose last sample repeats
    its first, the shift permutes the sampled values, so the L2 norm is
    kept up to summation order and ``apply_seed(., (1 - s) % 1)`` undoes
    the shift.  The result is marked as a shape only when q is one and
    the rebuilt seam kept the unit norm.
    """
    if q.topology != "closed":
        raise ValueError("seed shifts apply to closed-curve SRVFs only")
    _require_uniform(q.grid)
    if not 0.0 <= s < 1.0:
        raise ValueError("seed must lie in [0, 1)")
    values = _roll_seed(_two_periods(q.values), _seed_offset(s, q.grid.size - 1))
    return Srvf(q.grid, values, "closed", q.is_shape and _has_unit_norm(q.grid, values))


def _two_periods(values: np.ndarray) -> np.ndarray:
    """The one reading of closed-curve values on the circle.

    Of the m values, sample m-1 is sample 0: the n = m-1 distinct samples
    are taken twice, in one (2n, d) array, so that ``_roll_seed`` reads
    every seed's m values as one window of it without a copy.
    """
    distinct = values[:-1]
    return np.concatenate((distinct, distinct))


def _roll_seed(twice: np.ndarray, k: int) -> np.ndarray:
    """The m values of the seed at grid offset k, 0 <= k < n, as a view of
    the ``_two_periods`` array ``twice``: ``values[(i + k) % n]`` for
    i = 0..m-1, so the last repeats the first."""
    return twice[k:k + twice.shape[0] // 2 + 1]


def _seed_offset(s: float, n: int) -> int:
    """The grid offset of the seed fraction s on n distinct samples: the
    nearest one, ties to even, taken mod n so that s near 1 is offset 0."""
    return int(round(s * n)) % n
