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
from collections.abc import Iterator
from dataclasses import dataclass
from itertools import repeat

import numpy as np

from .shapeops import Rotation, _procrustes, _procrustes_target
from .srvf import Srvf, _check_same_grid, _require_uniform, _sq_l2, _warp_values
from .warpdist import _DRAW_ROWS, _draw, _random_partitions
from .warpmap import PLWarp, check_count, check_nonnegative, check_positive

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
        check_count("n", self.n, 2)
        check_count("max_iters", self.max_iters, 1)
        check_positive("theta, t0", self.theta, self.t0)
        if not (math.isfinite(self.cooling) and self.cooling > 1.0):
            raise ValueError("cooling factor must be finite and exceed 1")
        check_nonnegative("kappa", self.von_mises_kappa)
        if not 0.0 <= self.blend <= 1.0:
            raise ValueError("blend must lie in [0,1]")
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
    """Accept with probability min{1, exp((e_current - e_proposed)/T)}, read as
    0 for an uphill move at T = 0."""
    if e_proposed <= e_current:
        return True
    return temperature > 0.0 and u < math.exp((e_current - e_proposed) / temperature)


def _propose_warp(x: np.ndarray, y: np.ndarray, cfg: SaConfig, rng: np.random.Generator,
                  knots=None, u=None) -> tuple[np.ndarray, np.ndarray]:
    """Knots of a draw centred at the warp ``(x, y)``, blended toward the
    identity; ``knots`` and ``u`` are the draw's pre-drawn partition and
    boosting uniforms (see ``_draw``)."""
    px, py = _draw(x, y, cfg.n, cfg.theta, rng, knots, u)
    # blending against the identity needs no knot union: id(x) = x
    py *= cfg.blend
    py += (1.0 - cfg.blend) * px
    py[0], py[-1] = 0.0, 1.0
    return px, py


def _propose_seed(k: int, step: float, n_distinct: int) -> int:
    """The seed at grid offset k moved by the von Mises angle ``step``,
    snapped to the grid."""
    raw = (k / n_distinct + step / _TWO_PI) % 1.0
    return round(raw * n_distinct) % n_distinct


def _chain_draws(cfg: SaConfig, closed: bool,
                 rng: np.random.Generator) -> Iterator[tuple]:
    """The chain's randomness that does not depend on its state, one
    ``(partition, boosting uniforms, seed step, accept uniform)`` per
    iteration; the seed step is None outside closed mode.

    It is drawn for a block of B = min(``_DRAW_ROWS``, iterations left)
    iterations at a time, in this order: B partitions (bad rows redrawn),
    B rows of n boosting uniforms, in closed mode B von Mises steps, then
    B accept uniforms.  Each iteration's gammas, which depend on the
    current warp, are drawn after its block.
    """
    for lo in range(0, cfg.max_iters, _DRAW_ROWS):
        size = min(_DRAW_ROWS, cfg.max_iters - lo)
        knots = _random_partitions(size, cfg.n, rng)
        u = rng.random((size, cfg.n))
        steps = rng.vonmises(0.0, cfg.von_mises_kappa, size).tolist() if closed else repeat(None)
        yield from zip(knots, u, steps, rng.random(size).tolist())


def _temperature(cfg: SaConfig, iteration: int) -> float:
    try:
        return cfg.t0 / cfg.cooling ** iteration
    except OverflowError:
        return 0.0


def _anneal(q1: Srvf, q2: Srvf, cfg: SaConfig,
            rng: np.random.Generator | None) -> AlignmentResult:
    """The annealing loop shared by every mode, on inputs ``align`` checked.

    Each proposal warps the seed-shifted q2 once.  The shape modes rotate
    those warped values for the proposal's energy, and on accept refresh
    the Procrustes rotation from them and recompute the energy with it
    applied, so reported energies always pair the warp with its optimal
    rotation.  Closed mode also proposes a seed, a cyclic shift of q2 by
    k of its m-1 distinct grid points, jointly with each warp.

    The randomness that does not depend on the chain's state comes from
    ``_chain_draws`` in blocks, so each iteration makes one generator
    call: the ``standard_gamma`` of its proposal's Dirichlet step.
    """
    shape = cfg.mode != "function"
    closed = cfg.mode == "closed_shape"
    if rng is None:
        rng = np.random.default_rng()
    grid, q1v, q2v = q1.grid, q1.values, q2.values
    dt = grid[1:] - grid[:-1]
    target = _procrustes_target(q1v, grid)
    n_seeds = grid.size - 1
    # q2's distinct closed-curve values twice over: the window at k is q2
    # shifted by seed k, its duplicated endpoint included, without a copy
    twice = np.concatenate((q2v[:-1], q2v[:-1])) if closed else None

    x, y, k = np.array([0.0, 1.0]), np.array([0.0, 1.0]), 0
    rot = _procrustes(target, q2v) if shape else None
    q2k = q2v  # q2 shifted to the current seed
    warped = _warp_values(grid, q2k, x, y)
    e = _sq_l2(q1v - (warped @ rot.T if shape else warped), dt)
    best = (x, y, k, rot, e)
    trace = [e]
    stale = 0
    for it, (knots, u, step, u_accept) in enumerate(_chain_draws(cfg, closed, rng)):
        temp = _temperature(cfg, it)
        k_prop, q2k_prop = k, q2k
        if closed:
            k_prop = _propose_seed(k, step, n_seeds)
            if k_prop != k:
                q2k_prop = twice[k_prop:k_prop + grid.size]
        px, py = _propose_warp(x, y, cfg, rng, knots, u)
        warped = _warp_values(grid, q2k_prop, px, py)
        e_prop = _sq_l2(q1v - (warped @ rot.T if shape else warped), dt)
        if metropolis_accept(e, e_prop, temp, u_accept):
            x, y, k, q2k, e = px, py, k_prop, q2k_prop, e_prop
            if shape:
                rot = _procrustes(target, warped)
                e = _sq_l2(q1v - warped @ rot.T, dt)
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
    return AlignmentResult(PLWarp(x, y), Rotation._unchecked(rot) if shape else None,
                           k / n_seeds if closed else None, np.asarray(trace), trace[0], e)


def align(q1: Srvf, q2: Srvf, cfg: SaConfig,
          rng: np.random.Generator | None = None) -> AlignmentResult:
    """Annealed alignment of q2 onto q1 in the mode ``cfg.mode`` names.

    The modes align functions or curves in R^d (``"function"``), open
    curves in R^2 or R^3 (``"open_shape"``) and closed curves in R^2 or
    R^3 (``"closed_shape"``).  Both SRVFs share one uniform grid; the
    shape modes need unit-norm SRVFs, and closed mode closed ones.
    """
    if cfg.mode != "function" and not (q1.is_shape and q2.is_shape):
        raise ValueError("shape alignment needs unit-norm SRVFs")
    if cfg.mode == "open_shape" and q1.dim < 2:
        raise ValueError("open_shape mode needs curves in dimension 2 or 3")
    if cfg.mode == "closed_shape" and (q1.topology != "closed" or q2.topology != "closed"):
        raise ValueError("closed_shape mode needs closed-curve SRVFs")
    _check_same_grid(q1, q2)
    _require_uniform(q1.grid)
    return _anneal(q1, q2, cfg, rng)


def _align_in(mode: str, q1: Srvf, q2: Srvf, cfg: SaConfig,
              rng: np.random.Generator | None) -> AlignmentResult:
    if cfg.mode != mode:
        raise ValueError(f"this aligner runs SA in {mode} mode only, "
                         f"not {cfg.mode!r}; align dispatches on cfg.mode")
    return align(q1, q2, cfg, rng)


def sa_align(q1: Srvf, q2: Srvf, cfg: SaConfig = SaConfig(),
             rng: np.random.Generator | None = None) -> AlignmentResult:
    """:func:`align` for a function-mode ``cfg``; other modes raise."""
    return _align_in("function", q1, q2, cfg, rng)


def sa_align_open_shape(q1: Srvf, q2: Srvf, cfg: SaConfig = SaConfig(mode="open_shape"),
                        rng: np.random.Generator | None = None) -> AlignmentResult:
    """:func:`align` for an open_shape ``cfg``; other modes raise."""
    return _align_in("open_shape", q1, q2, cfg, rng)


def sa_align_closed(q1: Srvf, q2: Srvf, cfg: SaConfig = SaConfig(mode="closed_shape"),
                    rng: np.random.Generator | None = None) -> AlignmentResult:
    """:func:`align` for a closed_shape ``cfg``; other modes raise."""
    return _align_in("closed_shape", q1, q2, cfg, rng)
