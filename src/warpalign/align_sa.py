"""Simulated-annealing alignment of functions, open curves and closed curves.

One Metropolis chain serves all three modes.  Each iteration proposes a
warp from the warp-map distribution centred at the current warp, blends
it toward the identity, and accepts by the Metropolis rule under a
geometrically cooled temperature.  Shape modes refresh the Procrustes
rotation after every accepted move; closed curves additionally propose
the unwrapping seed from a von Mises step.  The chain works on raw knot
and value arrays: inputs are validated at entry, and ``PLWarp`` and
``Rotation`` objects are built for the returned result only.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .shapeops import Rotation, _procrustes, _roll_seed, optimal_rotation
from .srvf import Srvf, _check_same_grid, _require_uniform, _trapezoid_weights, _warp_values
from .warpdist import _draw
from .warpmap import PLWarp

__all__ = [
    "SaConfig",
    "AlignmentResult",
    "metropolis_accept",
    "sa_align",
    "sa_align_open_shape",
    "sa_align_closed",
    "align",
]

_TWO_PI = 2.0 * math.pi


@dataclass(frozen=True)
class SaConfig:
    """Annealing parameters.

    ``n``/``theta`` shape the proposal distribution (partition size and
    concentration around the current warp), ``blend`` weights the sampled
    warp against the identity, ``t0``/``cooling`` set the temperature
    schedule T_k = t0 / cooling**k, and ``von_mises_kappa`` concentrates
    seed proposals in closed mode.  The chain runs ``max_iters``
    iterations, or halts earlier once it is cold (T < 1e-3) and 500
    proposals in a row were rejected.
    """

    n: int = 20
    theta: float = 100.0
    t0: float = 10.0
    cooling: float = 1.0001
    blend: float = 0.9
    max_iters: int = 20000
    mode: str = "function"
    von_mises_kappa: float = 50.0

    def __post_init__(self):
        if self.n < 2:
            raise ValueError("n must be at least 2")
        if not all(map(math.isfinite, (self.theta, self.t0, self.cooling,
                                       self.von_mises_kappa))):
            raise ValueError("theta, t0, cooling and kappa must be finite")
        if self.theta <= 0 or self.t0 <= 0 or self.von_mises_kappa < 0:
            raise ValueError("theta, t0 must be positive and kappa nonnegative")
        if self.cooling <= 1.0:
            raise ValueError("cooling factor must exceed 1")
        if not 0.0 <= self.blend <= 1.0:
            raise ValueError("blend must lie in [0,1]")
        if self.max_iters < 1:
            raise ValueError("max_iters must be positive")
        if self.mode not in ("function", "open_shape", "closed_shape"):
            raise ValueError("mode must be function, open_shape or closed_shape")


@dataclass(frozen=True)
class AlignmentResult:
    """Best-so-far state of an annealing run.

    ``energy_trace`` records the current-state energy per iteration and
    ends with the energy of the returned (best) state, so its last entry
    equals ``final_energy``.
    """

    warp: PLWarp
    rotation: Rotation | None
    seed: float | None
    energy_trace: np.ndarray
    initial_energy: float
    final_energy: float


def metropolis_accept(e_current: float, e_proposed: float, temperature: float,
                      u: float) -> bool:
    """Accept with probability min{1, exp((e_current - e_proposed)/T)}."""
    if e_proposed <= e_current:
        return True
    return u < math.exp((e_current - e_proposed) / temperature)


def _energy(q1v: np.ndarray, grid: np.ndarray, q2v: np.ndarray, x: np.ndarray,
            y: np.ndarray) -> float:
    """Alignment energy on raw arrays and warp knots; matches srvf.warp_energy."""
    resid = q1v - _warp_values(grid, q2v, x, y)
    return float(np.trapezoid(np.sum(resid ** 2, axis=1), grid))


def _propose_warp(x: np.ndarray, y: np.ndarray, cfg: SaConfig,
                  rng: np.random.Generator) -> tuple[np.ndarray, np.ndarray]:
    """Knots of a draw centred at the warp ``(x, y)``, blended toward the identity."""
    knots, values = _draw(x, y, cfg.n, cfg.theta, 1, rng)
    px = knots[0]
    # blending against the identity needs no knot union: id(x) = x
    py = cfg.blend * values[0] + (1.0 - cfg.blend) * px
    py[0], py[-1] = 0.0, 1.0
    return px, py


def _propose_seed(k: int, kappa: float, n_distinct: int, rng: np.random.Generator) -> int:
    """Von Mises step around the seed at grid offset k, snapped to the grid."""
    raw = (k / n_distinct + rng.vonmises(0.0, kappa) / _TWO_PI) % 1.0
    return int(np.round(raw * n_distinct)) % n_distinct


def _temperature(cfg: SaConfig, iteration: int) -> float:
    return cfg.t0 / cfg.cooling ** iteration


def _anneal(q1: Srvf, q2: Srvf, cfg: SaConfig, rng: np.random.Generator | None,
            shape: bool, closed: bool = False) -> AlignmentResult:
    """The annealing loop shared by every mode, on validated inputs.

    ``shape`` refreshes the Procrustes rotation after every accepted move
    and recomputes the energy with it applied, so reported energies
    always pair the warp with its optimal rotation.  ``closed`` also
    proposes a seed, a cyclic shift of q2 by k of its m-1 distinct grid
    points, jointly with each warp.
    """
    if rng is None:
        rng = np.random.default_rng()
    grid, q1v, q2v = q1.grid, q1.values, q2.values
    weights = _trapezoid_weights(grid)
    n_seeds = grid.size - 1

    x, y, k = np.array([0.0, 1.0]), np.array([0.0, 1.0]), 0
    rot = optimal_rotation(q1, q2).matrix if shape else None
    q2k = q2v  # q2 shifted to the current seed
    q2r = q2v @ rot.T if shape else q2v  # ... and rotated
    e = _energy(q1v, grid, q2r, x, y)
    best = (x, y, k, rot, e)
    trace = [e]
    stale = 0
    for it in range(cfg.max_iters):
        temp = _temperature(cfg, it)
        k_prop, q2k_prop, q2r_prop = k, q2k, q2r
        if closed:
            k_prop = _propose_seed(k, cfg.von_mises_kappa, n_seeds, rng)
            if k_prop != k:
                q2k_prop = _roll_seed(q2v, k_prop)
                q2r_prop = q2k_prop @ rot.T
        px, py = _propose_warp(x, y, cfg, rng)
        e_prop = _energy(q1v, grid, q2r_prop, px, py)
        if metropolis_accept(e, e_prop, temp, rng.random()):
            x, y, k, q2k, e = px, py, k_prop, q2k_prop, e_prop
            if shape:
                rot = _procrustes(q1v, _warp_values(grid, q2k, x, y), weights)
                q2r = q2k @ rot.T
                e = _energy(q1v, grid, q2r, x, y)
            stale = 0
            if e < best[4]:
                best = (x, y, k, rot, e)
        else:
            stale += 1
        trace.append(e)
        if temp < 1e-3 and stale >= 500:
            break
    x, y, k, rot, e = best
    trace.append(e)
    return AlignmentResult(PLWarp(x, y), Rotation(rot) if shape else None,
                           k / n_seeds if closed else None, np.asarray(trace), trace[0], e)


def sa_align(q1: Srvf, q2: Srvf, cfg: SaConfig = SaConfig(),
             rng: np.random.Generator | None = None) -> AlignmentResult:
    """Annealed warp alignment of two functions on a common uniform grid."""
    _check_same_grid(q1, q2)
    _require_uniform(q1.grid)
    return _anneal(q1, q2, cfg, rng, shape=False)


def sa_align_open_shape(q1: Srvf, q2: Srvf, cfg: SaConfig = SaConfig(mode="open_shape"),
                        rng: np.random.Generator | None = None) -> AlignmentResult:
    """Annealed alignment of open-curve shapes with a Procrustes step.

    The rotation is refreshed from the warped configuration after every
    accepted move and the energy recomputed with it applied, so reported
    energies always pair the warp with its optimal rotation.
    """
    if not (q1.is_shape and q2.is_shape):
        raise ValueError("shape alignment needs unit-norm SRVFs")
    if q1.dim < 2:
        raise ValueError("open_shape mode needs curves in dimension 2 or 3")
    _check_same_grid(q1, q2)
    _require_uniform(q1.grid)
    return _anneal(q1, q2, cfg, rng, shape=True)


def sa_align_closed(q1: Srvf, q2: Srvf, cfg: SaConfig = SaConfig(mode="closed_shape"),
                    rng: np.random.Generator | None = None) -> AlignmentResult:
    """Annealed alignment of closed planar shapes.

    Each iteration jointly proposes a seed shift (von Mises around the
    current seed, snapped to the grid) and a warp; the Metropolis rule
    decides on the combined move, and accepted moves refresh the
    Procrustes rotation.
    """
    if not (q1.is_shape and q2.is_shape):
        raise ValueError("shape alignment needs unit-norm SRVFs")
    if q1.topology != "closed" or q2.topology != "closed":
        raise ValueError("closed_shape mode needs closed-curve SRVFs")
    _check_same_grid(q1, q2)
    _require_uniform(q1.grid)
    return _anneal(q1, q2, cfg, rng, shape=True, closed=True)


def align(q1: Srvf, q2: Srvf, cfg: SaConfig,
          rng: np.random.Generator | None = None) -> AlignmentResult:
    """Dispatch on ``cfg.mode``."""
    if cfg.mode == "function":
        return sa_align(q1, q2, cfg, rng)
    if cfg.mode == "open_shape":
        return sa_align_open_shape(q1, q2, cfg, rng)
    return sa_align_closed(q1, q2, cfg, rng)
