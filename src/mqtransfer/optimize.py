"""Creatable-region optimization over time, temperature and zero-order scale.

Four cases are covered: only the double-quantum weight free (case 1), only
the single-quantum one (case 2), both free (case 3), and both free under the
uniform-scaling constraint lambda1 = lambda2 (case 4), which confines (b, t)
to a curve. Cases 1-3 search a coarse vectorized grid scan that keeps each
case's best cell, followed by coordinatewise bracket searches
(mqtransfer.search) that refine the cases' cells together: one search per
axis over one bracket per case, each step one batched region evaluation over
(cases, K) points. A bracket stops at REFINE_TOL on its own, so each case
ends where it would if refined alone, and optimize of one case is a batch of
one (see _refine). The landscape has kinks at positivity and
eigenvalue-realness boundaries, so no derivatives are used. The scan builds
one t-stage and one lambda0 stage of the region kernel (mqtransfer.states)
and the temperature step of every b column, and runs the rest of the kernel,
the zero-order temperature step and the rays, only at the (t, b) pairs that
can still win. On a positive base state c2_max <= 1/2 and c1_max <= 1 / (2
max(|x12| + |x34|, |x13| + |x24|)) <= 1/sqrt(2) for the pair's unit x1, so
C2 lambda2+, C1 lambda1+ and their product bound the three objectives at
every lambda0 of a pair (C1, C2 these bounds with a slack, lambda1+ and
lambda2+ the factors' positive parts, states.positive_factors; one table
reads every case's objective or bound off s1 and s2, _case_table); the exact
objectives at the few pairs of largest bound give each case a floor, and a
pair runs only if its bound exceeds the floor and the running best of some
case. The pairs left out cannot hold a first maximum. Within a pair, the
closed form of c1_max (mqtransfer.states.c1_rays) runs only at the cells
whose own bound, from the 2x2 principal minors c1_max |x_ij| <= sqrt(rho_ii
rho_jj), can still win case 2 or 3; the other cells read s1 = 0 and could
not have won. In free mode a pair runs lambda0 in two passes: every sixth
lambda0 and the last, then per case the cells between the coarse neighbours
of its first coarse maximum, which is exact where a case's values along
lambda0 are quasi-concave (tested); a guard sends the rows whose coarse
values show otherwise to their whole lambda0 row. So the scan's best cells
are those of the full grid (see _scan). Case 4 samples the curve in closed
form, b(t) from tanh(b/2)^(N-2) = w_small(t) with w_small the smaller
eigenvalue of the transfer matrix W, along the t grid, and refines its best
points with one bracket search in t.
Cases 2-4 need a real single-quantum factor, which
mqtransfer.two_qubit.transfer_spectrum decides exactly and independently of
b > 0; for odd N there is none, so those cases are infeasible there.

Every search runs on the one domain of the paper's table, fixed by the
module constants: the b window B_WINDOW and its grid B_GRID of step B_STEP,
the lambda0 window LAMBDA0_WINDOW and step LAMBDA0_STEP, the t step T_STEP,
the refinement tolerance REFINE_TOL and CURVE_MIN_LAMBDA, at or below which a
common value of lambda1 and lambda2 is degenerate. Only the t window can be
set, per problem; by default it is the first transfer window (first_window).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .chain import ChainSpec, amplitude_grids, check_inverse_temperature, mode_basis
from .errors import ConfigurationError
from .search import bracket_max, bracket_root, grid_max
from .solvers import solve_zero_order
from .states import (base_cells, c1_rays, positive_factors, region_cells, region_columns,
                     region_metrics, region_points, semi_axes, time_stage)
from .two_qubit import transfer_spectrum

__all__ = [
    "OptProblem",
    "OptResult",
    "CurvePoint",
    "optimize",
    "uniform_curve",
    "summary_table",
    "lambda2_landmark",
    "first_window",
    "objective_landscape",
]

# the search domain of the paper's table; B_GRID is the b axis of every search
B_WINDOW = (0.0, 10.0)
LAMBDA0_WINDOW = (0.5, 2.0)
T_STEP = 0.05
B_STEP = 0.25
LAMBDA0_STEP = 0.02
REFINE_TOL = 1e-4
CURVE_MIN_LAMBDA = 1e-3
B_GRID = np.arange(B_WINDOW[0], B_WINDOW[1] + 1e-9, B_STEP)
B_GRID.setflags(write=False)
# the slack of the grid scan's bounds on c1_max and c2_max (see _scan and _c1_bound),
# c2_max <= 1/2 with it, and the pairs of largest bound that seed each case's floor;
# a batch of the scan and a t-block of its lambda0 stage hold about _CHUNK_CELLS cells:
# on a process's first scan, a CLI call's only one, 8192 ran the N = 6 and N = 42 free
# scans faster than 2048, 4096 or 16384; the coarse lambda0 pass takes every
# _COARSE_STEP-th lambda0 and the last (see _scan)
_SLACK = 1e-3
_C2_BOUND = 0.5 + _SLACK
_SEED_PAIRS = 8
_CHUNK_CELLS = 8192
_COARSE_STEP = 6


@dataclass(frozen=True)
class OptProblem:
    """What to optimize: the case, the zero-order mode and the t window.

    lambda0_mode is 'free' (lambda0 searched over LAMBDA0_WINDOW) or
    'fixed_one'. A t_window of None resolves to the first transfer window of
    the chain (see first_window). The rest of the search domain is the
    module's constants.
    """

    case: int
    lambda0_mode: str = "free"
    t_window: tuple[float, float] | None = None

    def __post_init__(self) -> None:
        if self.case not in (1, 2, 3, 4):
            raise ConfigurationError(f"case must be 1..4, got {self.case}")
        if self.lambda0_mode not in ("free", "fixed_one"):
            raise ConfigurationError(f"lambda0_mode must be 'free' or 'fixed_one', got {self.lambda0_mode}")
        win = self.t_window
        if win is not None and not (np.all(np.isfinite(win)) and win[0] <= win[1]):
            raise ConfigurationError(f"t_window must be finite and non-empty, got {win}")


@dataclass(frozen=True, eq=False)
class OptResult:
    """Optimum location, scale factors and region metrics."""

    case: int
    lambda0_mode: str
    feasible: bool
    t_opt: float
    b_opt: float
    lambda0_opt: float
    lambda1: float | None
    lambda2: float | None
    s1: float
    s2: float
    s12: float
    objective: float
    x0: np.ndarray | None
    x1: np.ndarray | None


@lru_cache(maxsize=64)
def lambda2_landmark(spec: ChainSpec) -> tuple[float, float]:
    """Location and signed value of the largest |double-quantum factor| in [0.5 N, 1.5 N].

    The window brackets the first transfer window, where the factor peaks
    near t ~ N. A scan at T_STEP finds the best grid time, and one bracket
    search over its two grid cells refines it to 1e-8. Results are cached
    per spec.
    """
    n = spec.n_sites
    t_best, _ = grid_max(lambda x: np.abs(_curve(n, x)[2]),
                         np.arange(0.5 * n, 1.5 * n + 1e-9, T_STEP), 1e-8)
    return t_best, float(_curve(n, np.array([t_best]))[2][0])


def first_window(spec: ChainSpec) -> tuple[float, float]:
    """Default t search window [0.5 N, min(1.5 N, first double-quantum peak + 1)].

    The optimizer stays in this first transfer window, where the reference
    optima live; pass an explicit t_window to search elsewhere. Later windows
    are not better across the board. With free lambda0 on [1.5 N, 2.5 N] and
    [2.5 N, 3.5 N], N = 42 reaches more in case 3 (0.00168 and 0.00109 against
    0.00070 here) and case 4 (0.00056 and 0.00029 against 0.00019), but less
    in case 1 (0.049 and 0.058 against 0.115) and case 2 (0.039 against
    0.047); at N = 6 every case reaches less there. Several of those optima sit
    on a window edge (t = 63 at N = 42, t = 9 and 15 at N = 6), so [k +- 0.5] N
    does not delimit the later transfer windows.
    """
    n = spec.n_sites
    t_peak, _ = lambda2_landmark(spec)
    return 0.5 * n, min(1.5 * n, t_peak + 1.0)


# ---------------------------------------------------------------------------
# vectorized grid machinery


def _curve(n: int, ts) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The curve value v(t), the mask of a real lambda1 at b > 0 and lambda2 = det W over ts.

    Where lambda1 is real (mqtransfer.two_qubit.transfer_spectrum), N is even, W's
    eigenvalues w_big and w_small are real, lambda1 = c w_big with
    c = tanh(b/2)^(N-2) (see mqtransfer.solvers), and lambda1 - lambda2 =
    w_big (c - w_small). So the curve is tanh(b/2)^(N-2) = v = Re w_small, which
    past the realness edge, where w_small = p +- i sqrt(-q r), continues as p. For
    odd N, v is NaN and the mask all False: no real pair, no curve.
    """
    p, q, r = amplitude_grids(mode_basis(n), ts)
    w = transfer_spectrum(p, q, r, n)
    v = w.small.real if n % 2 == 0 else np.full(np.shape(p), np.nan)
    return v, w.real, (p * p - q * r).real


def _t_grid(spec: ChainSpec, t_window: tuple[float, float] | None) -> np.ndarray:
    t_lo, t_hi = t_window if t_window is not None else first_window(spec)
    return np.arange(t_lo, t_hi + 1e-9, T_STEP)


def _lambda0_grid(lambda0_mode: str) -> np.ndarray:
    if lambda0_mode == "fixed_one":
        return np.ones(1)
    return np.arange(LAMBDA0_WINDOW[0], LAMBDA0_WINDOW[1] + 1e-9, LAMBDA0_STEP)


def _case_table(s1, s2) -> list:
    """The objectives of cases 1..4 read off the semi-axes: s2, s1, s1 s2 and s1 s2."""
    return [s2, s1] + [s1 * s2] * 2


def _objectives(factors: tuple, cells: tuple) -> list:
    """The objectives of cases 1..4 at every cell of region_cells, from states.semi_axes: zero
    where a case is infeasible, so each equals its own case mask's (states.case_metrics)."""
    return _case_table(*semi_axes(factors, cells))


def _c1_bound(x1: np.ndarray) -> np.ndarray:
    """A bound, with the scan's slack, on c1_max of a positive base state along unit vectors x1
    (..., 4) = (x12, x13, x24, x34): the 2x2 principal minors of sites {1, 2} and {3, 4} give
    c1_max (|x12| + |x34|) <= (rho11 + rho22 + rho33 + rho44) / 2 = 1/2, and those of {1, 3}
    and {2, 4} c1_max (|x13| + |x24|) <= 1/2; for a unit x1 the larger sum is at least
    1/sqrt(2)."""
    a = np.abs(x1)
    return 0.5 / np.maximum(a[..., 0] + a[..., 3], a[..., 1] + a[..., 2]) + _SLACK


def _c1_cell_bound(base: tuple, x1: np.ndarray) -> np.ndarray:
    """A bound, with the scan's slack, on c1_max of positive base states (entries as in
    mqtransfer.states.base_cells) along unit vectors x1 (..., 4) that broadcast against them:
    the 2x2 principal minor of sites i and j gives c1_max^2 |x_ij|^2 <= rho_ii rho_jj for (ij)
    in {12, 13, 24, 34}. A term with |x_ij|^2 at or below the smallest normal float is +inf
    (that minor bounds nothing), and rho_ii is floored at its square root, so no term is 0 * inf.
    """
    tiny = np.finfo(float).tiny
    r11, r22, r33, r44 = (np.maximum(r, np.sqrt(tiny)) for r in base[:4])
    a2 = np.abs(x1) ** 2
    inv = np.divide(1.0, a2, out=np.full(a2.shape, np.inf), where=a2 > tiny)
    c1_sq = np.minimum(np.minimum(r11 * r22 * inv[..., 0], r11 * r33 * inv[..., 1]),
                       np.minimum(r22 * r44 * inv[..., 2], r33 * r44 * inv[..., 3]))
    return np.sqrt(c1_sq) + _SLACK


def _lambda0_windows(profile: np.ndarray, coarse: np.ndarray, width: int) -> tuple:
    """The fine lambda0 window of each row of profile (rows, len(coarse)), a case's values at
    the lambda0 indices coarse of a pair, which hold 0 and the grid's last index.

    Returns the start of the window, width contiguous cells that hold every cell strictly
    between the coarse neighbours of the first coarse maximum J (clipped to the grid), and the
    mask of the rows the guard sends to the whole grid instead, with start 0: those whose
    maximum is 0 or attained at two coarse cells, or that are not quasi-concave, that is not
    non-decreasing up to J and non-increasing after it.
    """
    profile = np.ascontiguousarray(profile.T)  # reductions along axis 0 are faster
    top, peak = profile.max(axis=0), np.argmax(profile, axis=0)
    step = profile[1:] - profile[:-1]
    quasi = np.where(np.arange(len(coarse) - 1)[:, None] < peak, step >= 0.0, step <= 0.0)
    whole = (top <= 0.0) | ((profile == top).sum(axis=0) > 1) | ~quasi.all(axis=0)
    start = np.minimum(np.where(peak > 0, coarse[peak - 1] + 1, 0), coarse[-1] + 1 - width)
    return np.where(whole, 0, start), whole


def _scan(spec: ChainSpec, problem: OptProblem) -> dict[int, tuple[float, float, float, float]]:
    """Best cell (value, t, b, lambda0) of cases 1..3 on the coarse grid.

    The objectives are those of _objectives. Metrics are zero at infeasible cells, so a best
    value of zero means none is feasible; the first cell of the grid holds it then. Of equal
    values the first in (b, t, lambda0) order is kept: ties go to the smaller b.

    Bounds. On a positive base state c2_max = sqrt(rho11 rho44) <= (rho11 + rho44) / 2 <= 1/2,
    and c1_max along the pair's unit x1 is at most 1 / (2 max(|x12| + |x34|, |x13| + |x24|))
    (_c1_bound; mqtransfer.states.c1_rays). So at a (t, b) pair, at every lambda0, the three
    objectives are at most U1 = C2 lambda2+, U2 = C1 lambda1+ and U1 U2 (_case_table), with
    lambda1+ and lambda2+ the factors' positive parts (states.positive_factors) and C1 and C2
    the two bounds plus a slack (_c1_bound, _C2_BOUND). The bounds need only region_points, of
    which the scan keeps x1, lambda1+, n and k per pair and lambda2+ per t. At a cell, once
    base_cells has given its base state and s2 = c2_max lambda2+, the minors of sites (ij) in
    {12, 13, 24, 34} give c1_max |x_ij| <= sqrt(rho_ii rho_jj), so s1 is at most V = C1cell
    lambda1+ and s1 s2 at most V s2, with C1cell the least of those ratios plus the slack
    (_c1_cell_bound; a pair with x_ij = 0 bounds nothing). The slack covers PSD_TOL and the
    rounding of the base state, whose unit trace holds to about COND_LIMIT times the unit
    roundoff, and it makes every bound strictly greater than its objective wherever the bound is
    positive (the objective is 0 elsewhere).

    Seed and stream. The lambda0 stage (solve_zero_order) is solved once per t, in t-blocks
    of about _CHUNK_CELLS cells. The objectives over the whole lambda0 rows of the _SEED_PAIRS
    pairs of largest bound of each case give each case a floor, a value the grid attains. The
    pairs whose bound exceeds the floor in some case then run in (b, t) order, about
    _CHUNK_CELLS coarse cells at a time, through the lambda0-dependent part of the kernel: the
    zero-order temperature step, the positivity rays (base_cells) and the semi-axes
    (states.semi_axes). With top the floor and running best of each case, a chunk drops the
    pairs whose bound does not exceed top in any case, and a case runs at a pair only where
    its bound exceeds top.

    Two passes along lambda0. Where the coarse cells below are the whole lambda0 grid (lambda0
    = 1), a chunk forms c1_max (c1_rays) at the ok cells where V or V s2 exceeds top in case 2
    or 3, and the first maximum of its objectives is final. In free mode a chunk runs two
    passes:
    - Coarse: each pair at the lambda0 indices 0, m, 2m, ... and the last (m = _COARSE_STEP).
      Each case that runs needs its exact first coarse maximum J, which a 0 read at a cell
      whose c1_max is not formed could hide. So c1_max is formed first at the ok cells of
      largest V and of largest V s2, which give cases 2 and 3 each a value e that the pair
      attains, and then at the other ok cells whose V exceeds e in case 2 or V s2 in case 3.
      A cell left out has a value below e or 0, so it neither is nor ties J.
    - Fine: each (pair, case) that runs reads the cells strictly between J's coarse
      neighbours, at most 2m - 1, in a window of 2m - 1 contiguous cells clipped to the grid
      (_lambda0_windows), and forms c1_max at the ok cells whose V or V s2 exceeds top in its
      case (2 or 3); the other cells keep c1_max = 0.
    Why this is exact. Suppose a case's values f along a pair's lambda0 grid are quasi-concave:
    f(j) >= min(f(i), f(k)) for i < j < k. Let F be the first maximum and c < J < c' the coarse
    neighbours (the grid's ends where J has none). F <= c gives f(c) >= min(f(F), f(J)) = f(J),
    a coarse maximum before J; F >= c' gives f(c') >= f(J), a second coarse maximum. So c < F <
    c', the same argument keeps the window's cells outside (c, c') below f(F), and the window's
    first maximum is F. The premise is sampled, not proved: tier-1 tests check it at every (t,
    b) pair of the default grids at N = 4-12 and 42-44. Guard: a (pair, case) whose coarse
    values (as formed, 0 at the cells left out) are not quasi-concave, whose coarse maximum is 0
    or whose maximum is attained at two coarse cells runs its whole lambda0 row instead, as one
    pass would. A violation that the coarse values do not show, such as a peak between two
    coarse cells, passes the guard.

    Exactness. A pair left out has, in every case, a bound at most the floor, which the grid's
    maximum is not below, or at most the running best, which only a strictly greater value
    replaces. Its value is below its bound or zero, so it holds no first maximum but a zero one,
    which the first cell holds. The same holds for a case left out at a pair, and for a cell
    whose c1_max is not formed: in cases 2 and 3 its value is below V or V s2, which is at most
    top, and the 0 it reads instead is no greater, so it neither holds nor hides a first
    maximum. Where c1_max is formed it is c1_rays' value at that cell, as over the full grid.
    The pairs that run keep their order, so argmax breaks ties as it would over the full grid.
    """
    ts, l0s = _t_grid(spec, problem.t_window), _lambda0_grid(problem.lambda0_mode)
    nl = len(l0s)
    coarse = np.append(np.arange(0, nl - 1, _COARSE_STEP), nl - 1)
    width = min(2 * _COARSE_STEP - 1, nl)
    times = time_stage(spec, ts)
    block = max(1, _CHUNK_CELLS // nl)  # the lambda0 stage is elementwise: solved in t-blocks
    blocks = [solve_zero_order(tuple(x[lo:lo + block, None] for x in times.spectrum), l0s)
              for lo in range(0, len(ts), block)]
    zero = tuple(np.concatenate(x) for x in zip(*((*unit, regular) for unit, regular in blocks)))
    del blocks
    # the temperature step of each b column, stacked over (b, t)
    columns = [region_points(times, float(b)) for b in B_GRID]
    x1 = np.stack([p.x1 for p in columns])
    n, k = np.array([p.weights for p in columns]).T[..., None]  # with a lambda0 axis
    parts = [positive_factors(p) for p in columns]
    lam1_pos, lam2_pos = np.stack([f[0] for f in parts]), parts[0][1]
    del columns, parts
    bounds = np.array(_case_table(_c1_bound(x1) * lam1_pos,
                                  np.broadcast_to(_C2_BOUND * lam2_pos, lam1_pos.shape))[:3])

    def base_at(jb, it, cells) -> tuple:
        """base_cells over (pairs, cells) at the (b, t) index pairs jb, it, from cells, the
        lambda0 stage at each pair's cells, with the pairs' factors and x1 and the bounds V
        of s1 and V s2 of s1 s2 at each cell."""
        factors, x1_at = (lam1_pos[jb, it, None], lam2_pos[it, None]), x1[jb, it]
        base, ok, c2_max = base_cells((n[jb], k[jb]), (cells[:-1], cells[-1]))
        v1 = _c1_cell_bound(base, x1_at[:, None, :]) * factors[0]
        return factors, x1_at, (base, ok, c2_max), (v1, v1 * c2_max * factors[1])

    def above(at, top) -> np.ndarray:
        """The ok cells of base_at whose V exceeds top[..., 0] or whose V s2 exceeds
        top[..., 1]."""
        ok, (v1, v12) = at[2][1], at[3]
        return ok & ((v1 > top[..., 0, None]) | (v12 > top[..., 1, None]))

    def form(at, run, c1_max=None) -> np.ndarray:
        """c1_max at the cells of base_at: c1_rays at the cells run, elsewhere what c1_max
        holds, 0 if it is None."""
        base, x1_at = at[2][0], at[1]
        c1_max = np.zeros(run.shape) if c1_max is None else c1_max
        row, il = np.nonzero(run)
        if row.size:
            c1_max[row, il] = c1_rays(tuple(x[row, il] for x in base), x1_at[row])
        return c1_max

    def objectives(at, c1_max) -> np.ndarray:
        """The objectives (3, pairs, cells) of cases 1..3 at the cells of base_at."""
        factors, _, (base, ok, c2_max), _ = at
        return np.array(_objectives(factors, (base, ok, c1_max, c2_max))[:3])

    def coarse_values(at, need) -> np.ndarray:
        """objectives at the coarse cells of base_at, exact where they can be a first maximum
        of a case that need (3, pairs) runs: c1_max is formed at the ok cells of largest V and
        V s2, which give e, and then at the ok cells whose V or V s2 exceeds e."""
        factors, _, (_, ok, c2_max), v = at
        pairs = np.arange(len(ok))
        lead = [np.argmax(np.where(ok, x, 0.0), axis=1) for x in v]
        first = np.zeros(ok.shape, dtype=bool)
        for runs, x, il in zip(need[1:], v, lead):
            use = runs & ok[pairs, il] & (x[pairs, il] > 0.0)
            first[pairs[use], il[use]] = True
        c1_max = form(at, first)
        s1 = c1_max * factors[0]
        e = [np.maximum(x[pairs, lead[0]], x[pairs, lead[1]])
             for x in (s1, s1 * c2_max * factors[1])]
        rest = above(at, np.where(need[1:], e, np.inf).T) & ~first
        return objectives(at, form(at, rest, c1_max))

    seed = np.zeros(bounds[0].size, dtype=bool)
    seed[np.argpartition(bounds.reshape(3, -1), -_SEED_PAIRS, axis=1)[:, -_SEED_PAIRS:]] = True
    jb, it = np.divmod(np.flatnonzero(seed), len(ts))
    at = base_at(jb, it, tuple(x[it] for x in zero))
    floor = objectives(at, form(at, above(at, np.zeros(2)))).max(axis=(1, 2))
    jb, it = np.nonzero((bounds > floor[:, None, None]).any(axis=0))
    best = dict.fromkeys((1, 2, 3), (0.0, float(ts[0]), float(B_GRID[0]), float(l0s[0])))
    zero_coarse = zero
    if len(coarse) < nl:  # the fine pass reads windows of width cells, and the guard whole rows
        zero_coarse = tuple(x[:, coarse] for x in zero)
        views = (tuple(sliding_window_view(x, width, axis=1) for x in zero),
                 tuple(x[:, None] for x in zero))
    size = max(1, _CHUNK_CELLS // len(coarse))
    for lo in range(0, len(jb), size):
        j, i = jb[lo:lo + size], it[lo:lo + size]
        top = np.maximum(floor, [best[case][0] for case in (1, 2, 3)])
        need = bounds[:, j, i] > top[:, None]
        keep = need.any(axis=0)
        if not keep.any():
            continue
        j, i, need = j[keep], i[keep], need[:, keep]
        at = base_at(j, i, tuple(x[i] for x in zero_coarse))
        if len(coarse) == nl:
            values = objectives(at, form(at, above(at, top[1:]))).reshape(3, -1)
            cell = np.argmax(values, axis=1)
            value, (pair, index) = values[(0, 1, 2), cell], np.divmod(cell, nl)
        else:
            # each case's best value and lambda0 index per pair, -1 where the case does not run
            values, indices = np.full(need.shape, -1.0), np.zeros(need.shape, dtype=int)
            case, pair = np.nonzero(need)
            start, whole = _lambda0_windows(coarse_values(at, need)[case, pair], coarse, width)
            for view, rows in zip(views, (~whole, whole)):
                if not rows.any():
                    continue
                c, p, s = case[rows], pair[rows], start[rows]
                at = base_at(j[p], i[p], tuple(x[i[p], s] for x in view))
                tops = np.where(c[:, None] == (1, 2), top[1:], np.inf)  # a row's own case only
                row = np.arange(len(p))
                fine = objectives(at, form(at, above(at, tops)))[c, row]
                il = np.argmax(fine, axis=1)
                values[c, p], indices[c, p] = fine[row, il], s + il
            pair = np.argmax(values, axis=1)
            value, index = values[(0, 1, 2), pair], indices[(0, 1, 2), pair]
        for case, v, p, il in zip((1, 2, 3), value, pair, index):
            if v > best[case][0]:
                best[case] = (float(v), float(ts[i[p]]), float(B_GRID[j[p]]), float(l0s[il]))
    return best


# ---------------------------------------------------------------------------
# refinement


def _refine(spec: ChainSpec, problem: OptProblem,
            starts: dict[int, tuple]) -> dict[int, tuple[float, float, float]]:
    """Coordinatewise bracket searches around the grid winners starts, case -> (t, b, lambda0),
    of cases 1..3, all refined together under the problem's zero-order mode and t window
    (its case is not read).

    A round runs one bracket_max per axis, t, then b, then lambda0 if free, with one bracket
    per case, each one grid step either side within the t grid, B_WINDOW or LAMBDA0_WINDOW.
    So each search step is one region kernel call over (cases, K) points: the t search builds
    a t-stage over them at each case's b and lambda0, the b search one t-stage at the cases'
    times and one lambda0 stage, whose steps are temperature steps only, and the lambda0
    search one temperature step. A row's objective is its case's entry of _objectives.
    bracket_max stops each bracket at REFINE_TOL on its own and the kernel's rows do not mix,
    so each case ends where it would if refined alone. At most three rounds run; a round in
    which no case moves ends the refinement: it is a fixed point of every case, since a round
    depends only on (t, b, lambda0), and so a case that stops moving before the others stays
    put. REFINE_TOL bounds the brackets, not the optimum: free-mode optima on flat ridges are
    located to about 1e-3 in b (at N = 6, 10 and 42, 12 rounds gain at most 6.8e-8 relative in
    the objective but move b by up to 1.2e-3 and t by up to 2e-4).
    """
    cases = list(starts)
    t, b, l0 = (np.array(x, dtype=float) for x in zip(*starts.values()))
    ts = _t_grid(spec, problem.t_window)
    axes = {"t": (T_STEP, ts[0], ts[-1]), "b": (B_STEP, *B_WINDOW),
            "l0": (LAMBDA0_STEP, *LAMBDA0_WINDOW)}

    def objective(points, zero) -> np.ndarray:
        values = _objectives(positive_factors(points), region_cells(points, zero))
        return np.array([values[case - 1][row] for row, case in enumerate(cases)])

    def at_times(x) -> np.ndarray:
        times = time_stage(spec, x)
        return objective(region_points(times, b[:, None]),
                         solve_zero_order(times.spectrum, l0[:, None]))

    def polish(x: np.ndarray, axis: str, f) -> np.ndarray:
        step, lo, hi = axes[axis]
        return bracket_max(f, np.maximum(lo, x - step), np.minimum(hi, x + step), REFINE_TOL)[0]

    for _ in range(3):
        before = np.array([t, b, l0])
        t = polish(t, "t", at_times)
        # times of shape (cases, 1): the amplitudes' product then rounds as at a lone time
        times = time_stage(spec, t[:, None])
        zero = solve_zero_order(times.spectrum, l0[:, None])
        b = polish(b, "b", lambda x: objective(region_points(times, x), zero))
        if problem.lambda0_mode == "free":
            at_tb = region_points(times, b[:, None])
            l0 = polish(l0, "l0", lambda x: objective(at_tb, solve_zero_order(times.spectrum, x)))
        if np.array_equal(before, [t, b, l0]):
            break
    return {case: (float(t[row]), float(b[row]), float(l0[row])) for row, case in enumerate(cases)}


def _finalize(spec: ChainSpec, problem: OptProblem, t: float, b: float,
              l0: float) -> OptResult:
    """Report the optimum through region_metrics, the kernel's batch of one."""
    report = region_metrics(spec, t, b, l0, problem.case)
    return OptResult(
        case=problem.case, lambda0_mode=problem.lambda0_mode,
        feasible=report.feasible, t_opt=t, b_opt=b, lambda0_opt=l0,
        lambda1=report.lambda1, lambda2=report.lambda2 if problem.case != 2 else None,
        s1=report.s1, s2=report.s2, s12=report.s12,
        objective=_case_table(report.s1, report.s2)[problem.case - 1],
        x0=report.x0, x1=report.x1,
    )


def _infeasible_result(problem: OptProblem) -> OptResult:
    return OptResult(case=problem.case, lambda0_mode=problem.lambda0_mode,
                     feasible=False, t_opt=float("nan"), b_opt=float("nan"),
                     lambda0_opt=float("nan"), lambda1=None, lambda2=None,
                     s1=0.0, s2=0.0, s12=0.0, objective=0.0, x0=None, x1=None)


def _scan_and_refine(spec: ChainSpec, problems: dict[int, OptProblem]) -> dict[int, OptResult]:
    """Cases 1..3 of problems, which share a zero-order mode and a t window: one grid scan, then
    one refinement of the feasible cases' best cells together."""
    shared = next(iter(problems.values()))
    best = _scan(spec, shared)
    starts = {case: best[case][1:] for case in problems if best[case][0] > 0.0}
    ends = _refine(spec, shared, starts) if starts else {}
    return {case: _finalize(spec, problem, *ends[case]) if case in ends
            else _infeasible_result(problem) for case, problem in problems.items()}


def optimize(problem: OptProblem, spec: ChainSpec) -> OptResult:
    """Maximize the case objective over (t, b, lambda0).

    Cases 1..3 scan the full grid and refine its best cell; case 4 samples the
    uniform-scaling curve b(t) and refines its best points along it.
    An all-zero feasible set yields a result with feasible=False.
    """
    if problem.case == 4:
        return _optimize_case4(problem, spec)
    return _scan_and_refine(spec, {problem.case: problem})[problem.case]


# ---------------------------------------------------------------------------
# uniform scaling (case 4)


@dataclass(frozen=True)
class CurvePoint:
    """A (b, t) point where the single- and double-quantum factors coincide."""

    b: float
    t: float
    lam: float


def uniform_curve(spec: ChainSpec, bs=B_GRID) -> list[CurvePoint]:
    """Sample the constraint curve lambda1(t, b) = lambda2(t) at each temperature of bs.

    bs is a one-dimensional grid of finite b >= 0 (a bad b raises the
    ValidationError of check_inverse_temperature). For each b, the roots in
    t of v(t) = tanh(b/2)^(N-2) (see _curve) are bracketed on a scan of the
    first transfer window at T_STEP and polished by a bracket search; roots
    are kept only where W's eigenvalues are real, the residual is below 1e-6
    and the common value exceeds CURVE_MIN_LAMBDA (zero crossings of both
    factors are degenerate, not scaling). For odd N, W has no real
    eigenvalue pair, so the curve is empty. A curve point needs both of W's
    eigenvalues positive (w_small = tanh(b/2)^(N-2) and lambda2 = w_big w_small
    > 0), so p > 0; that the first window has no such point for N = 4n, so
    that this curve is empty as well, rests on sampling.
    """
    bs = np.asarray(bs, dtype=float)
    if bs.ndim != 1:
        raise ConfigurationError(f"the b grid must be one-dimensional, got shape {bs.shape}")
    check_inverse_temperature(bs)
    ts = _t_grid(spec, None)
    n = spec.n_sites
    target = np.tanh(bs / 2.0) ** (n - 2)
    v, real, lam = _curve(n, ts)
    # a cell is polished only if one of its ends is real and above CURVE_MIN_LAMBDA:
    # most sign changes at large N lie where the common value is tiny
    ends = real & (lam > CURVE_MIN_LAMBDA)
    g = v - target[:, None]
    a, c = g[:, :-1], g[:, 1:]
    rows, cells = np.nonzero(((a == 0.0) | (a * c < 0.0)) & (ends[:-1] | ends[1:]))
    lo, hi, found = bracket_root(lambda x: _curve(n, x)[0] - target[rows, None],
                                 ts[cells], ts[cells + 1], 1e-12)
    t_root = 0.5 * (lo + hi)
    v, real, lam = _curve(n, t_root)
    keep = found & real & (np.abs(v - target[rows]) < 1e-6) & (lam > CURVE_MIN_LAMBDA)
    return [CurvePoint(b=float(bs[r]), t=float(t), lam=float(value))
            for r, t, value in zip(rows[keep], t_root[keep], lam[keep])]


def _case4_best(spec: ChainSpec, ts: np.ndarray, bs: np.ndarray,
                problem: OptProblem) -> tuple[np.ndarray, np.ndarray]:
    """Largest s1 * s2 over lambda0 at each (t, b) pair, and the lambda0 giving it;
    the t-stage and the temperature step run once, each lambda0 search step
    only the lambda0 stage and region_cells."""
    times = time_stage(spec, ts)
    points = region_points(times, bs)
    factors = positive_factors(points)

    def product(l0s) -> np.ndarray:
        """s1 s2 at lambda0s (pairs, K) or (1, K): cells (K, pairs) take the points as they are."""
        zero = solve_zero_order(times.spectrum, l0s.T)
        return _objectives(factors, region_cells(points, zero))[3].T

    grid = _lambda0_grid(problem.lambda0_mode)
    if problem.lambda0_mode == "fixed_one":
        return product(grid[None])[:, 0], np.ones(len(ts))
    lo, hi = LAMBDA0_WINDOW
    k = np.argmax(product(grid[None]), axis=1)
    l0, obj = bracket_max(product, np.maximum(lo, grid[k] - LAMBDA0_STEP),
                          np.minimum(hi, grid[k] + LAMBDA0_STEP), REFINE_TOL)
    return obj, l0


def _optimize_case4(problem: OptProblem, spec: ChainSpec) -> OptResult:
    """Sample the curve b(t) along the t grid, then refine its three best points
    in one bracket search over t; B_STEP does not apply."""
    n = spec.n_sites
    ts = _t_grid(spec, problem.t_window)

    def along_curve(t: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """b(t), the objective (-inf off the curve) and lambda0 at times t."""
        v, real, lam = _curve(n, t)
        on = real & (v >= 0.0) & (v < 1.0) & (lam > CURVE_MIN_LAMBDA)
        b = 2.0 * np.arctanh(np.where(on, v, 0.0) ** (1.0 / (n - 2)))
        on &= (b >= B_WINDOW[0]) & (b <= B_WINDOW[1])
        obj, l0 = np.full(t.shape, -np.inf), np.ones(t.shape)
        obj[on], l0[on] = _case4_best(spec, t[on], b[on], problem)
        return b, obj, l0

    obj = along_curve(ts)[1]
    top = np.argsort(-obj, kind="stable")[:3]
    top = top[obj[top] > 0.0]
    if not top.size:
        return _infeasible_result(problem)
    # |db/dt| reaches 4 near the table optima, so t is searched to REFINE_TOL / 4
    # for b(t) to be resolved to REFINE_TOL as well
    t, _ = bracket_max(lambda x: along_curve(x)[1], np.maximum(ts[0], ts[top] - T_STEP),
                       np.minimum(ts[-1], ts[top] + T_STEP), REFINE_TOL / 4)
    b, obj, l0 = along_curve(t)
    k = int(np.argmax(obj))
    return _finalize(spec, problem, float(t[k]), float(b[k]), float(l0[k]))


# ---------------------------------------------------------------------------
# shared table runs and landscape dumps


def summary_table(spec: ChainSpec, lambda0_mode: str = "free") -> dict[int, OptResult]:
    """Optimize all four cases, sharing one grid scan and one refinement across cases 1..3."""
    problems = {case: OptProblem(case=case, lambda0_mode=lambda0_mode) for case in (1, 2, 3, 4)}
    results = _scan_and_refine(spec, {case: problems[case] for case in (1, 2, 3)})
    results[4] = _optimize_case4(problems[4], spec)
    return results


def objective_landscape(spec: ChainSpec, problem: OptProblem,
                        b_fixed: float) -> tuple[list[str], list[tuple]]:
    """Long-format landscape rows (t, b, lambda0, value) of the case objective at a fixed b."""
    ts, l0s = _t_grid(spec, problem.t_window), _lambda0_grid(problem.lambda0_mode)
    ((points, cells),) = region_columns(spec, ts, [b_fixed], l0s)
    values = _objectives(positive_factors(points), cells)[problem.case - 1]
    rows = [(float(t), float(b_fixed), float(l0), float(v))
            for (t, l0), v in zip(itertools.product(ts, l0s), values.ravel())]
    return ["t", "b", "lambda0", "value"], rows
