"""Dynamic-programming baseline for elastic alignment.

Minimizes the discretized energy ||q1 - (q2 o w) sqrt(w')||^2 over PL
warps whose knots sit on the curves' own grid nodes (the lattice is the
data grid, ``_check_lattice``) and whose segments are steps of
``_STEPS``: seven (a, b) moves, a nodes along q1 and b along q2, diagonal
first.  A warp of the circle is a seed plus a warp of [0,1], so both
entry points share one search over seeds (``_search``): ``dp_align`` is
its one seed 0, and ``dp_align_closed`` searches every
``seed_stride``-th seed.  Several seeds are screened in float32, and only
the seeds whose float64 energy can be the least are solved again in
float64, so the result is that of a float64 search over every seed.
Every solve reads one cached per-row plan (``_plan``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .srvf import Srvf, _check_same_grid, _interp_columns, _require_uniform
from .shapeops import _roll_seed, _two_periods
from .warpmap import PLWarp, check_count

__all__ = ["DpConfig", "dp_align", "dp_align_closed", "dp_warp_energy"]

# The one step set (a, b): a nodes along q1, b along q2.  The diagonal comes
# first, so ties break toward identity-like warps, and it reaches the far
# corner of every lattice.  Derived once: q2's fine grid, which holds every
# step's q2 positions j + k*b/a; the distance ring's rows; the choice
# dtype; and the least and greatest slopes b/a, which bound the row band.
_STEPS = ((1, 1), (1, 2), (2, 1), (1, 3), (3, 1), (2, 3), (3, 2))
_REFINE = math.lcm(*(a for a, _ in _STEPS))
_SPAN = max(a for a, _ in _STEPS) + 1
_CHOICE_DTYPE = np.min_scalar_type(len(_STEPS) - 1)
_SLOPE_LO = min(_STEPS, key=lambda s: s[1] / s[0])
_SLOPE_HI = max(_STEPS, key=lambda s: s[1] / s[0])
# memory budget for the per-seed arrays of one block of the seed search
_BLOCK_BYTES = 4 << 20


@dataclass(frozen=True)
class DpConfig:
    """Lattice size and closed-curve seed stride; the steps are ``_STEPS``.
    The lattice is the curves' own grid: ``grid_size`` None reads its size
    from them, and a given size must equal it (``_check_lattice``)."""

    grid_size: int | None = None
    seed_stride: int = 1

    def __post_init__(self):
        if self.grid_size is not None:
            check_count("grid_size", self.grid_size, 3)
        check_count("seed_stride", self.seed_stride, 1)


def _check_lattice(grid_size: int | None, points: int) -> None:
    """The one lattice rule: the DP's lattice is the data grid, of at least
    3 nodes, so a given ``grid_size`` must equal the curves' point count."""
    check_count("the DP lattice's point count", points, 3)
    if grid_size is not None and grid_size != points:
        raise ValueError(f"grid_size {grid_size} differs from the curves' {points} points: the "
                         f"DP lattice is the data grid; use resample(curve, {grid_size}) or "
                         f"--points {grid_size}, or leave grid_size unset")


def _lattice(q1: Srvf, q2: Srvf, grid_size: int | None,
             circle: bool = False) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The lattice of every DP entry point: q1 and q2 share one uniform
    grid (``_check_lattice``), and the lattice is that grid.  With
    ``circle`` both are read on the circle at seed 0
    (``shapeops._two_periods``).  Returns the lattice grid and q1's and
    q2's values on it."""
    _check_same_grid(q1, q2)
    _require_uniform(q1.grid)
    _check_lattice(grid_size, q1.grid.size)
    values = [q.values for q in (q1, q2)]
    if circle:
        values = [_roll_seed(_two_periods(v), 0) for v in values]
    return q1.grid, *values


def _fine_values(grid: np.ndarray, values: np.ndarray, refine: int) -> np.ndarray:
    fine = np.linspace(0.0, 1.0, refine * (grid.size - 1) + 1)
    return _interp_columns(grid, values, fine)


def _step_costs(q1v: np.ndarray, q2f: np.ndarray, refine: int,
                step: tuple[int, int]) -> np.ndarray:
    """Cost of one (a,b) move from every start node (i,j).

    The segment integrand |q1(t) - q2(j + (b/a)(t - i)) sqrt(b/a)|^2 is
    integrated by the trapezoid rule on the a+1 grid nodes the move
    spans, with q2 read off ``q2f``, a refine-times finer grid.  The
    lattice step is dt = 1/(len(q1v) - 1); the (len(q1v) - a, ncols)
    table has a column for each start j whose move ends on ``q2f``,
    ncols = (len(q2f) - 1)//refine - b + 1.

    With l_k = q1(i+k), r_k = sqrt(b/a) q2f(j*refine + k*stride) and
    trapezoid weights w_k, the cost sum_k w_k |l_k - r_k|^2 is
    sum_k w_k |l_k|^2 + sum_k w_k |r_k|^2 - 2 sum_k w_k l_k.r_k: a row
    vector, a column vector and one matmul of the a+1 slices of q1 set
    side by side, each scaled by -2 w_k, against the a+1 slices of q2.
    """
    a, b = step
    dt = 1.0 / (len(q1v) - 1)
    ncols = (len(q2f) - 1) // refine - b + 1
    weights = np.full(a + 1, dt)
    weights[0] = weights[-1] = dt / 2.0
    weights = np.repeat(weights, q1v.shape[1])  # one per (node, coordinate)
    stride = refine * b // a
    imax = q1v.shape[0] - a
    nodes = np.arange(a + 1)
    width = (a + 1) * q1v.shape[1]  # explicit, as a table may be empty
    lhs = q1v[np.arange(imax)[:, None] + nodes].reshape(imax, width)
    rhs = q2f[(np.arange(ncols) * refine)[:, None] + nodes * stride].reshape(ncols, width)
    rhs *= math.sqrt(b / a)
    row = np.square(lhs) @ weights
    col = np.square(rhs) @ weights
    lhs *= -2.0 * weights
    acc = lhs @ rhs.T
    acc += row[:, None]
    acc += col
    return acc


@lru_cache(maxsize=16)
def _band(m: int) -> tuple[tuple[int, int], ...]:
    """For each row i, a column range [lo_i, hi_i) that holds every node
    of row i on a lattice path from (0,0) to (m-1,m-1).

    Every step's slope b/a lies in [s_min, s_max], so a node (i, j) on a
    path has s_min*i <= j <= s_max*i from the start and
    s_min*(M-i) <= M-j <= s_max*(M-i) to the end, M = m-1: the adjustment
    window of slope-constrained DTW, in exact integer arithmetic.  Both
    bounds never decrease with i; an empty row has lo_i == hi_i.
    """
    (a_lo, b_lo), (a_hi, b_hi) = _SLOPE_LO, _SLOPE_HI
    last = m - 1
    i = np.arange(m)
    rest = last - i
    lo = np.maximum(-(-b_lo * i // a_lo), last - b_hi * rest // a_hi)
    hi = np.minimum(b_hi * i // a_hi, last + (-b_lo * rest // a_lo)) + 1
    lo = np.minimum(lo, m)
    return tuple(zip(lo.tolist(), np.maximum(hi, lo).tolist()))


@lru_cache(maxsize=16)
def _plan(m: int) -> tuple:
    """Every row's recurrence on an m-node lattice, derived once from
    ``_band`` and ``_STEPS``: one (i, ring row, band, steps) per row i >= 1,
    where the band is the slice [lo_i, hi_i) of columns that row i writes.
    Step (a, b) is taken at row i exactly when i >= a and max(lo_i, b) <
    hi_i; it is (step index, the ring row of row i-a, the cost row i-a,
    the source columns [max(lo_i, b) - b, hi_i - b), the destination
    columns [max(lo_i, b), hi_i)).
    """
    rows = []
    for i, (lo, hi) in enumerate(_band(m)[1:], start=1):
        steps = tuple(
            (si, (i - a) % _SPAN, i - a, slice(max(lo, b) - b, hi - b), slice(max(lo, b), hi))
            for si, (a, b) in enumerate(_STEPS) if i >= a and max(lo, b) < hi)
        rows.append((i, i % _SPAN, slice(lo, hi), steps))
    return tuple(rows)


def _solve(costs, m: int,
           track: bool = False) -> tuple[np.ndarray, np.ndarray | None]:
    """Cheapest monotone paths from (0,0) to (m-1,m-1), one per seed.

    ``costs[si][i]`` is an (S, m-b) array, usually a strided view, holding
    the cost of step ``_STEPS[si] = (a, b)`` from node (i, j) for every seed
    and every j < m-b; it is read through a transposed view.  The
    distances have the costs' dtype.  The seed axis is innermost, so a run
    of columns of one row is one contiguous block.  Row i computes only
    its ``_band`` columns, as ``_plan`` lays them out: it writes every
    step's candidates there into one stacked (n_steps, m, S) buffer, inf
    where a step cannot land, and takes their minimum.  A node outside the
    band cannot reach the end, or is unreachable and reads as inf, so the
    band nodes hold the same values as the full table.  Only the last
    max(a)+1 rows of the distance table are kept.  Each seed's recurrence
    is elementwise in its own column, so a seed's energy does not depend
    on the other seeds solved with it.  Returns the end-node energies (S,)
    and, with ``track``, the step choices (m, m, S): the first step whose
    candidate equals the row minimum, so ties go to the earlier step.  The
    diagonal path reaches every node (i, i), so the end energies are
    finite for finite costs, and a backtrack from the end visits only
    nodes of finite energy, whose choices are meaningful.  Without
    ``track`` the choices are None.
    """
    n_seeds = costs[0].shape[1]
    ring = np.full((_SPAN, m, n_seeds), np.inf, costs[0].dtype)
    ring[0, 0] = 0.0
    # a step's slot stays inf in the columns it cannot reach and in the
    # rows before its first use, which come first since rows only increase
    cand = np.full((len(_STEPS), m, n_seeds), np.inf, costs[0].dtype)
    costs = [np.swapaxes(c, 1, 2) for c in costs]  # costs[si][i] is (m-b, S)
    choice = None
    if track:
        choice = np.zeros((m, m, n_seeds), dtype=_CHOICE_DTYPE)
    ring_rows, cand_rows = list(ring), list(cand)
    for i, row, band, steps in _plan(m):
        dist = ring_rows[row]
        # the band only moves right, so a reused row is stale below lo only
        dist[:band.start] = np.inf
        for si, prev, cost_row, src, dst in steps:
            np.add(ring_rows[prev][src], costs[si][cost_row, src], out=cand_rows[si][dst])
        np.minimum.reduce(cand[:, band], axis=0, out=dist[band])
        if track:
            choice[i, band] = cand[:, band].argmin(axis=0)
    return ring[(m - 1) % _SPAN, m - 1].copy(), choice


def _backtrack(choice: np.ndarray, grid: np.ndarray) -> PLWarp:
    """Warp through the lattice nodes visited by one seed's best path."""
    m = grid.size
    nodes = [(m - 1, m - 1)]
    i, j = m - 1, m - 1
    while (i, j) != (0, 0):
        a, b = _STEPS[choice[i, j]]
        i, j = i - a, j - b
        nodes.append((i, j))
    nodes.reverse()
    xs = np.array([grid[i] for i, _ in nodes])
    ys = np.array([grid[j] for _, j in nodes])
    return PLWarp(xs, ys)


def dp_align(q1: Srvf, q2: Srvf, cfg: DpConfig = DpConfig()) -> tuple[PLWarp, float]:
    """Optimal lattice warp and its energy.

    The SRVFs must share one uniform grid, which is the lattice
    (``_lattice``); the DP finds the cheapest monotone path of ``_STEPS``
    from (0,0) to the far corner: ``_search`` at the one seed 0.
    """
    grid, q1v, q2v = _lattice(q1, q2, cfg.grid_size)
    _, warp, energy = _search(grid, q1v, q2v, _fine_values(grid, q2v, _REFINE), range(1))
    return warp, energy


def dp_warp_energy(q1: Srvf, q2: Srvf, warp: PLWarp, cfg: DpConfig = DpConfig()) -> float:
    """Recompute the DP energy of a lattice warp from its segment costs,
    on the lattice ``dp_align`` uses.

    A segment that moves a nodes along q1 and b along q2 reads q2 at
    j + k*b/a, k = 0..a, so its costs use a fine grid lcm(_REFINE, a)
    times finer than the lattice; for a step of ``_STEPS`` that is the
    DP's fine grid.  Any step is scored, the identity's single step
    (m-1, m-1) included.  Each knot indexes its step's (m-a, m-b) cost
    table directly, since a lattice warp's knots sit on distinct lattice
    nodes, each step advancing both indices.
    """
    grid, q1v, q2v = _lattice(q1, q2, cfg.grid_size)
    m = grid.size
    knots = np.stack((warp.x, warp.y))
    idx = np.rint(knots * (m - 1)).astype(int)
    if not (np.allclose(knots, idx / (m - 1), atol=1e-9) and np.all(np.diff(idx) > 0)):
        raise ValueError("warp knots do not sit on the DP lattice, both indices rising")
    total = 0.0
    fine: dict[int, np.ndarray] = {}
    cache: dict[tuple[int, int], np.ndarray] = {}
    for (i, j), (a, b) in zip(idx.T.tolist(), np.diff(idx).T.tolist()):
        if (a, b) not in cache:
            r = math.lcm(_REFINE, a)
            if r not in fine:
                fine[r] = _fine_values(grid, q2v, r)
            cache[(a, b)] = _step_costs(q1v, fine[r], r, (a, b))
        total = total + cache[(a, b)][i, j]
    return float(total)


def _screen_scale(q1v: np.ndarray, q2v: np.ndarray) -> float:
    """The power of two that scales the screen's tables below 3/2.

    A cost of step (a, b) is sum_k w_k |l_k - r_k|^2, computed as row +
    col - 2 cross, where row + col = sum_k w_k (|l_k|^2 + |r_k|^2) <= a dt L
    + b dt R <= 3 dt (L + R), L and R being the largest squared norms of
    q1's and q2's lattice values and dt = 1/(len(q1v) - 1) the lattice
    step: every fine value of q2 is a convex combination of its lattice
    values, and r_k is one times sqrt(b/a).  The scale is the power of two
    that puts B = 4 dt (L + R) in [1/2, 1), so row + col <= 3/4, which
    leaves room for rounding, and a cost, at most 2 (row + col), stays
    below 3/2.
    """
    dt = 1.0 / (len(q1v) - 1)
    bound = 4.0 * dt * sum(float(np.max(np.sum(np.square(v), axis=1)))
                           for v in (q1v, q2v))
    return math.ldexp(1.0, -math.frexp(bound)[1])


def _survivors(screen: np.ndarray, m: int, d: int) -> np.ndarray:
    """Positions of the seeds whose float64 energy can be the least, from
    their float32 screen energies ``screen`` (scaled by ``_screen_scale``).

    Seed s is kept when E32[s] - delta_s <= min_t (E32[t] + delta_t), with
    |E32[s] - E64[s]| <= delta_s in scaled units.  Then the seed of least
    E64 is kept, with every seed tied with it: E32[s] - delta_s <= E64[s]
    <= E64[t] <= E32[t] + delta_t.  The slack follows Higham, *Accuracy and
    Stability of Numerical Algorithms* (2002), §3.1 and §4.2.

    A seed's energy is the least, over lattice paths P, of P's costs summed
    from 0 in path order: rounding is monotone, so the row recurrence's
    minima commute with its adds.  A path has at most K = m-1 steps.  In
    scaled units, let x_i be P's float64 costs, X their exact sum and A =
    sum |x_i|.  The float64 sum S64 is within gamma64_{K-1} A of X
    (recursive summation; gamma_n = n u / (1 - n u), u the unit roundoff).
    The screen rounds each cost once to float32, within u32 |x_i| + eta of
    x_i, where eta = 2^-150 covers a cost that rounds into float32's
    subnormals; its sum S32 is then within gamma32_K A + 2 K eta of X.  A
    cost is a nonnegative quadratic form computed as row + col - 2 cross
    from dot products of at most 4d terms, so it is never below -nu, nu =
    2 gamma64_{4d+3} (``_screen_scale`` bounds row + col by 1); hence
    A <= X + 2 K nu.  With c = gamma32_K + gamma64_K, taking for P the best
    path of either dtype and bounding its A through E32 gives

        |E32 - E64| <= c (E32 + 2 K nu + 2 K eta) / (1 - c)^2 + 2 K eta.

    For K u32 <= 1/16 (m - 1 <= 2^20, beyond any lattice whose m^2 cost
    tables fit in memory), c / (1 - c)^2 < 1.15 gamma32_K, which leaves
    room for the float64 rounding of this test in

        delta_s = 2 gamma32_K (E32[s] + 2 K nu) + 4 K eta.
    """
    k = m - 1
    u32 = np.finfo(np.float32).eps / 2
    u64 = np.finfo(np.float64).eps / 2
    gamma32 = k * u32 / (1 - k * u32)
    nu = 2 * (4 * d + 3) * u64 / (1 - (4 * d + 3) * u64)
    eta = np.finfo(np.float32).smallest_subnormal / 2
    delta = 2 * gamma32 * (screen + 2 * k * nu) + 4 * k * eta
    return np.flatnonzero(screen - delta <= np.min(screen + delta))


def _search(grid: np.ndarray, q1v: np.ndarray, q2v: np.ndarray, fine: np.ndarray,
            seeds: range) -> tuple[int, PLWarp, float]:
    """The one DP search: the best (seed, warp, energy) over ``seeds``, a
    range of grid offsets, ties to the first.

    ``grid``, ``q1v`` and ``q2v`` are the lattice and the curves' values on
    it (``_lattice``); ``fine`` holds q2's fine values, one period for
    ``dp_align``'s seed 0 or two (``shapeops._two_periods``) for the
    circle's seeds.  Each step's float64 costs are computed once against
    ``fine``, and seed k reads columns [k, k + m - b) of step (a, b)'s
    table.  Several seeds are screened in float32 on the tables times
    ``_screen_scale``, and ``_survivors`` keeps every seed whose float64
    energy can be the least; they lie on the progression from the first
    to the last with step the gcd of their spacings.  If it holds more
    than one seed, a float64 energy-only pass picks the first of least
    energy.  That seed's float64 solve records its steps.  Each seed's
    recurrence is elementwise, so the result is that of a float64 search
    over every seed.
    """
    m = grid.size
    tables = [_step_costs(q1v, fine, _REFINE, s) for s in _STEPS]

    def windows(src, seeds):
        if len(seeds) == 1:  # a plain slice costs less than a window view
            k = seeds[0]
            return [t[:, None, k:k + m - b] for t, (_, b) in zip(src, _STEPS)]
        return [sliding_window_view(t, m - b, axis=1)[:, seeds.start:seeds.stop:seeds.step]
                for t, (_, b) in zip(src, _STEPS)]

    if len(seeds) > 1:
        scale = _screen_scale(q1v, q2v)
        screen = [np.multiply(t, scale, out=np.empty(t.shape, np.float32)) for t in tables]
        # widened, so that the slack is float64 arithmetic
        energies = _solve(windows(screen, seeds), m)[0].astype(np.float64)
        del screen  # held through the float64 passes, they would raise the peak
        keep = _survivors(energies, m, q1v.shape[1])
        step = int(np.gcd.reduce(np.diff(keep))) or 1
        seeds = seeds[keep[0]:keep[-1] + 1:step]
    if len(seeds) > 1:
        k = int(np.argmin(_solve(windows(tables, seeds), m)[0]))
        seeds = seeds[k:k + 1]
    energies, choice = _solve(windows(tables, seeds), m, track=True)
    return seeds[0], _backtrack(choice[:, :, 0], grid), float(energies[0])


def dp_align_closed(q1: Srvf, q2: Srvf,
                    cfg: DpConfig = DpConfig()) -> tuple[float, PLWarp, float]:
    """Best (seed, warp, energy) over cyclic seed shifts of q2.

    Both curves are read on the circle (``shapeops._two_periods``), q1 at
    seed 0, on the lattice of their own grid (``_lattice``).  Seeds run
    over every ``seed_stride``-th grid point, through ``_search``; the
    reported seed is the shift applied to q2 before the interval
    alignment, so the energy is ``dp_warp_energy(apply_seed(q1, 0.0),
    apply_seed(q2, seed), warp, cfg)``.
    """
    if q1.topology != "closed" or q2.topology != "closed":
        raise ValueError("closed-curve alignment needs closed SRVFs")
    grid, q1v, q2v = _lattice(q1, q2, cfg.grid_size, circle=True)
    n = grid.size - 1
    fine = _two_periods(_fine_values(grid, q2v, _REFINE))
    seed, warp, energy = _search(grid, q1v, q2v, fine, range(0, n, cfg.seed_stride))
    return seed / n, warp, energy
