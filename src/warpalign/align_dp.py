"""Dynamic-programming baseline for elastic alignment.

Minimizes the discretized energy ||q1 - (q2 o w) sqrt(w')||^2 over PL
warps whose knots sit on grid nodes and whose segment slopes come from a
fixed neighborhood of integer steps.  Closed curves add an exhaustive
search over seed shifts.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cmp_to_key, lru_cache

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .srvf import Srvf, _check_same_grid, _interp_columns, _require_uniform
from .shapeops import _roll_seed, _two_periods
from .warpmap import PLWarp, check_count, uniform_grid

__all__ = ["DpConfig", "dp_align", "dp_align_closed", "dp_warp_energy"]

_DEFAULT_STEPS = ((1, 1), (1, 2), (2, 1), (1, 3), (3, 1), (2, 3), (3, 2))
# memory budget for the per-seed arrays of one block of the seed search
_BLOCK_BYTES = 4 << 20


@dataclass(frozen=True)
class DpConfig:
    """Lattice size, slope-step neighborhood and closed-curve seed stride."""

    grid_size: int = 100
    neighborhood: tuple[tuple[int, int], ...] = _DEFAULT_STEPS
    seed_stride: int = 1

    def __post_init__(self):
        check_count("grid_size", self.grid_size, 3)
        check_count("seed_stride", self.seed_stride, 1)
        part = "each part of a neighborhood step"
        steps = tuple((check_count(part, a, 1), check_count(part, b, 1))
                      for a, b in self.neighborhood)
        if not steps:
            raise ValueError("neighborhood must be nonempty")
        # diagonal step first so that ties break toward identity-like warps
        if (1, 1) in steps:
            steps = ((1, 1),) + tuple(s for s in steps if s != (1, 1))
        object.__setattr__(self, "neighborhood", steps)


def _refinement(steps) -> int:
    return math.lcm(*(a for a, _ in steps))


def _lattice(q1: Srvf, q2: Srvf, m: int,
             circle: bool = False) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The DP's one lattice rule: q1 and q2 share one uniform grid, and the
    lattice is that grid when it has m nodes, else the uniform grid of m
    nodes that both SRVFs are interpolated onto.  With ``circle`` both
    are first read on the circle at seed 0 (``shapeops._two_periods``).
    Returns the lattice grid and q1's and q2's values on it."""
    _check_same_grid(q1, q2)
    _require_uniform(q1.grid)
    values = [q.values for q in (q1, q2)]
    if circle:
        values = [_roll_seed(_two_periods(v), 0) for v in values]
    if q1.grid.size == m:
        return q1.grid, *values
    grid = uniform_grid(m)
    return grid, *(_interp_columns(q1.grid, v, grid) for v in values)


def _fine_values(grid: np.ndarray, values: np.ndarray, refine: int) -> np.ndarray:
    fine = np.linspace(0.0, 1.0, refine * (grid.size - 1) + 1)
    return _interp_columns(grid, values, fine)


def _step_costs(q1v: np.ndarray, q2f: np.ndarray, refine: int,
                step: tuple[int, int], dt: float, ncols: int) -> np.ndarray:
    """Cost of one (a,b) move from every start node (i,j), j < ncols.

    The segment integrand |q1(t) - q2(j + (b/a)(t - i)) sqrt(b/a)|^2 is
    integrated by the trapezoid rule on the a+1 grid nodes the move
    spans, with q2 read off a refine-times finer precomputed grid.
    ``q2f`` may carry leading batch axes; the result has shape
    ``q2f.shape[:-2] + (len(q1v) - a, ncols)``.

    With l_k = q1(i+k), r_k = sqrt(b/a) q2f(j*refine + k*stride) and
    trapezoid weights w_k, the cost sum_k w_k |l_k - r_k|^2 is
    sum_k w_k |l_k|^2 + sum_k w_k |r_k|^2 - 2 sum_k w_k l_k.r_k: a row
    vector, a column vector and one matmul of the a+1 slices of q1 set
    side by side, each scaled by -2 w_k, against the a+1 slices of q2.
    """
    a, b = step
    weights = np.full(a + 1, dt)
    weights[0] = weights[-1] = dt / 2.0
    weights = np.repeat(weights, q1v.shape[1])  # one per (node, coordinate)
    stride = refine * b // a
    imax = q1v.shape[0] - a
    nodes = np.arange(a + 1)
    lhs = q1v[np.arange(imax)[:, None] + nodes].reshape(imax, -1)
    rhs = q2f[..., (np.arange(ncols) * refine)[:, None] + nodes * stride, :]
    rhs = rhs.reshape(rhs.shape[:-3] + (ncols, -1))
    rhs *= math.sqrt(b / a)
    row = np.square(lhs) @ weights
    col = np.square(rhs) @ weights
    lhs *= -2.0 * weights
    acc = lhs @ np.swapaxes(rhs, -1, -2)
    acc += row[:, None]
    acc += col[..., None, :]
    return acc


@lru_cache(maxsize=16)
def _band(steps, m: int) -> tuple[tuple[int, int], ...]:
    """For each row i, a column range [lo_i, hi_i) that holds every node
    of row i on a path of ``steps`` from (0,0) to (m-1,m-1).

    Every step's slope b/a lies in [s_min, s_max], so a node (i, j) on a
    path has s_min*i <= j <= s_max*i from the start and
    s_min*(M-i) <= M-j <= s_max*(M-i) to the end, M = m-1: the adjustment
    window of slope-constrained DTW, in exact integer arithmetic.  Both
    bounds never decrease with i; an empty row has lo_i == hi_i.
    """
    by_slope = cmp_to_key(lambda s, t: s[1] * t[0] - t[1] * s[0])
    a_lo, b_lo = min(steps, key=by_slope)
    a_hi, b_hi = max(steps, key=by_slope)
    last = m - 1
    i = np.arange(m)
    rest = last - i
    lo = np.maximum(-(-b_lo * i // a_lo), last - b_hi * rest // a_hi)
    hi = np.minimum(b_hi * i // a_hi, last + (-b_lo * rest // a_lo)) + 1
    lo = np.minimum(lo, m)
    return tuple(zip(lo.tolist(), np.maximum(hi, lo).tolist()))


def _solve(costs, steps, m: int,
           track: bool = False) -> tuple[np.ndarray, np.ndarray | None]:
    """Cheapest monotone paths from (0,0) to (m-1,m-1), one per seed.

    ``costs[si][i]`` is an (S, m-b) array, usually a strided view, holding
    the cost of step ``steps[si] = (a, b)`` from node (i, j) for every seed
    and every j < m-b; it is read through a transposed view.  The seed
    axis is innermost, so a run of columns of one row is one contiguous
    block.  Row i computes only its ``_band`` columns: it writes every
    step's candidates there into one stacked (n_steps, m, S) buffer, inf
    where a step cannot land, and takes their minimum.  A node outside the
    band cannot reach the end, or is unreachable and reads as inf, so the
    band nodes hold the same values as the full table.  Only the last
    max(a)+1 rows of the distance table are kept.  Returns the end-node
    energies (S,) and, with ``track``, the step choices (m, m, S): the
    first step whose candidate equals the row minimum, so ties go to the
    earlier step.  Only nodes of finite energy have a meaningful choice,
    and those are all a backtrack from a finite end node visits.  Without
    ``track`` the choices are None.
    """
    n_seeds = costs[0].shape[1]
    span = max(a for a, _ in steps) + 1
    ring = np.full((span, m, n_seeds), np.inf)
    ring[0, 0] = 0.0
    # a step's slot stays inf in the columns it cannot reach and in the
    # rows before its first use, which come first since rows only increase
    cand = np.full((len(steps), m, n_seeds), np.inf)
    costs = [np.swapaxes(c, 1, 2) for c in costs]  # costs[si][i] is (m-b, S)
    choice = None
    if track:
        choice = np.zeros((m, m, n_seeds), dtype=np.min_scalar_type(len(steps) - 1))
    ring_rows, cand_rows = list(ring), list(cand)
    for i, (lo, hi) in enumerate(_band(steps, m)[1:], start=1):
        dist = ring_rows[i % span]
        # the band only moves right, so a reused row is stale below lo only
        dist[:lo] = np.inf
        for si, (a, b) in enumerate(steps):
            start = max(lo, b)
            if i >= a and start < hi:
                np.add(ring_rows[(i - a) % span][start - b:hi - b],
                       costs[si][i - a, start - b:hi - b], out=cand_rows[si][start:hi])
        np.minimum.reduce(cand[:, lo:hi], axis=0, out=dist[lo:hi])
        if track:
            choice[i, lo:hi] = cand[:, lo:hi].argmin(axis=0)
    return ring[(m - 1) % span, m - 1].copy(), choice


def _backtrack(choice: np.ndarray, energy: float, steps, grid: np.ndarray) -> PLWarp:
    """Warp through the lattice nodes visited by one seed's best path."""
    if not np.isfinite(energy):
        raise ValueError("end node unreachable with the configured neighborhood")
    m = grid.size
    nodes = [(m - 1, m - 1)]
    i, j = m - 1, m - 1
    while (i, j) != (0, 0):
        a, b = steps[choice[i, j]]
        i, j = i - a, j - b
        nodes.append((i, j))
    nodes.reverse()
    xs = np.array([grid[i] for i, _ in nodes])
    ys = np.array([grid[j] for _, j in nodes])
    return PLWarp(xs, ys)


def dp_align(q1: Srvf, q2: Srvf, cfg: DpConfig = DpConfig()) -> tuple[PLWarp, float]:
    """Optimal lattice warp and its energy.

    The SRVFs must share one uniform grid and are interpolated onto a
    uniform lattice of ``cfg.grid_size`` nodes if needed; the DP then
    finds the cheapest monotone path from (0,0) to the far corner using
    the configured steps.
    """
    m = cfg.grid_size
    grid, q1v, q2v = _lattice(q1, q2, m)
    steps = cfg.neighborhood
    refine = _refinement(steps)
    dt = 1.0 / (m - 1)
    q2f = _fine_values(grid, q2v, refine)
    costs = [_step_costs(q1v, q2f, refine, s, dt, m - s[1])[:, None] for s in steps]
    energies, choice = _solve(costs, steps, m, track=True)
    return _backtrack(choice[:, :, 0], energies[0], steps, grid), float(energies[0])


def dp_warp_energy(q1: Srvf, q2: Srvf, warp: PLWarp, cfg: DpConfig = DpConfig()) -> float:
    """Recompute the DP energy of a lattice warp from its segment costs,
    on the lattice ``dp_align`` would use.

    A segment that moves a nodes along q1 and b along q2 reads q2 at
    j + k*b/a, k = 0..a, so its costs use a fine grid lcm(refine, a) times
    finer than the lattice; for the neighborhood's own steps that is the
    DP's fine grid.  Each knot indexes its step's (m-a, m-b) cost table
    directly, since a lattice warp's knots never leave the lattice.
    """
    m = cfg.grid_size
    grid, q1v, q2v = _lattice(q1, q2, m)
    refine = _refinement(cfg.neighborhood)
    dt = 1.0 / (m - 1)
    idx_x = np.rint(warp.x * (m - 1)).astype(int)
    idx_y = np.rint(warp.y * (m - 1)).astype(int)
    if not (np.allclose(warp.x, idx_x * dt, atol=1e-9)
            and np.allclose(warp.y, idx_y * dt, atol=1e-9)):
        raise ValueError("warp knots do not sit on the DP lattice")
    total = 0.0
    fine: dict[int, np.ndarray] = {}
    cache: dict[tuple[int, int], np.ndarray] = {}
    for k in range(idx_x.size - 1):
        a = int(idx_x[k + 1] - idx_x[k])
        b = int(idx_y[k + 1] - idx_y[k])
        if (a, b) not in cache:
            r = math.lcm(refine, a)
            if r not in fine:
                fine[r] = _fine_values(grid, q2v, r)
            cache[(a, b)] = _step_costs(q1v, fine[r], r, (a, b), dt, m - b)
        total = total + cache[(a, b)][idx_x[k], idx_y[k]]
    return float(total)


def _seed_bytes(m: int, steps, regridded: bool) -> int:
    """Bytes of one seed's arrays in the seed pass: its distance ring and
    stacked candidates, plus its regridded step costs off the lattice."""
    span = max(a for a, _ in steps) + 1
    floats = (span + len(steps)) * m
    if regridded:
        floats += len(steps) * m * m
    return 8 * floats


def _closed_costs(grid: np.ndarray, q1v: np.ndarray, q2: Srvf, cfg: DpConfig,
                  seeds: range):
    """Yield (first seed position, per-step cost views) in seed blocks.

    ``grid`` and ``q1v`` are the lattice and q1's values on it, as
    ``_lattice`` reads them on the circle for the checked pair.  q2 is
    read on the circle through ``shapeops._two_periods``.  On the DP
    lattice a seed shift by k nodes is a column offset, so each step's
    costs are computed once against two periods of q2's fine values and
    every seed reads a zero-copy window of them.  Off the lattice each
    seed's window of q2 on the input grid is regridded onto the lattice.
    Blocks are sized so that the per-seed arrays of the seed pass stay
    within ``_BLOCK_BYTES``.
    """
    m = cfg.grid_size
    steps = cfg.neighborhood
    refine = _refinement(steps)
    dt = 1.0 / (m - 1)
    n = q2.grid.size - 1
    twice = _two_periods(q2.values)
    if n + 1 == m:
        fine = _two_periods(_fine_values(grid, _roll_seed(twice, 0), refine))
        windows = [sliding_window_view(
            _step_costs(q1v, fine, refine, (a, b), dt, n + m - b - 1),
            m - b, axis=1)[:, :n:cfg.seed_stride] for a, b in steps]
        block = max(1, _BLOCK_BYTES // _seed_bytes(m, steps, False))
        for first in range(0, len(seeds), block):
            yield first, [w[:, first:first + block] for w in windows]
        return
    block = max(1, _BLOCK_BYTES // _seed_bytes(m, steps, True))
    for first in range(0, len(seeds), block):
        fine = np.stack([
            _fine_values(grid, _interp_columns(q2.grid, _roll_seed(twice, k), grid), refine)
            for k in seeds[first:first + block]])
        yield first, [np.moveaxis(_step_costs(q1v, fine, refine, s, dt, m - s[1]), 0, 1)
                      for s in steps]


def dp_align_closed(q1: Srvf, q2: Srvf,
                    cfg: DpConfig = DpConfig()) -> tuple[float, PLWarp, float]:
    """Best (seed, warp, energy) over cyclic seed shifts of q2.

    Both curves are read on the circle (``shapeops._two_periods``), q1 at
    seed 0.  Seeds run over every ``seed_stride``-th grid point; the
    reported seed is the shift applied to q2 before the interval
    alignment, so the energy is ``dp_warp_energy(apply_seed(q1, 0.0),
    apply_seed(q2, seed), warp, cfg)``.  All seeds
    share one energy-only row recurrence; ties go to the first seed.  The
    winner's path comes from one more solve over its own cost slices.
    """
    if q1.topology != "closed" or q2.topology != "closed":
        raise ValueError("closed-curve alignment needs closed SRVFs")
    grid, q1v, _ = _lattice(q1, q2, cfg.grid_size, circle=True)
    n = q1.grid.size - 1
    on_lattice = n + 1 == cfg.grid_size
    seeds = range(0, n, cfg.seed_stride)
    best = None
    for first, costs in _closed_costs(grid, q1v, q2, cfg, seeds):
        energies, _ = _solve(costs, cfg.neighborhood, cfg.grid_size)
        k = int(np.argmin(energies))
        if best is None or energies[k] < best[1]:
            # off the lattice the slices are copied so the block can be freed
            winner = [c[:, k:k + 1] if on_lattice else c[:, k:k + 1].copy() for c in costs]
            best = (first + k, energies[k], winner)
    pos, energy, winner = best
    _, choice = _solve(winner, cfg.neighborhood, cfg.grid_size, track=True)
    warp = _backtrack(choice[:, :, 0], energy, cfg.neighborhood, grid)
    return seeds[pos] / n, warp, float(energy)
