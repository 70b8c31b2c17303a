"""Bracketed one-dimensional searches over many brackets at once.

Each step evaluates a vectorized f on K equally spaced points of every
bracket, then shrinks each bracket to the grid cells around its best point
(bracket_max) or to its first sign-change cell (bracket_root). There are no
derivatives, so kinks at positivity and eigenvalue-realness boundaries are
harmless; f must map an (M, K) array of points to an (M, K) array of values.
grid_max scans f on a grid first and refines its best point by bracket_max.
"""

from __future__ import annotations

import numpy as np

__all__ = ["K", "bracket_max", "bracket_root", "grid_max"]

# grid points per bracket and step; odd, so a shrunk bracket is centred on a
# point already evaluated and the best value never decreases
K = 9
# bounds the step count when tol is below the float spacing of the bracket
_MAX_STEPS = 64


def _grids(lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
    return lo[:, None] + (hi - lo)[:, None] * np.linspace(0.0, 1.0, K)


def _brackets(lo, hi) -> tuple[np.ndarray, np.ndarray]:
    lo, hi = np.broadcast_arrays(np.asarray(lo, dtype=float), np.asarray(hi, dtype=float))
    return lo.ravel().copy(), hi.ravel().copy()


def bracket_max(f, lo, hi, tol: float) -> tuple[np.ndarray, np.ndarray]:
    """Best point of f in each bracket [lo, hi] and its value.

    Shrinks each bracket to the two cells around its best grid point; the
    ends of the first brackets are candidates too. A bracket stops once it
    is narrower than tol: its point and value are kept from that step while
    the other rows go on, so each row's result is that of its bracket
    searched alone (f still sees every row). For a unimodal f the maximum
    lies within tol of the returned point.
    """
    lo, hi = _brackets(lo, hi)
    best, top = np.empty(lo.size), np.empty(lo.size)
    live = np.arange(lo.size)
    for _ in range(_MAX_STEPS):
        x = _grids(lo, hi)
        values = f(x)
        x, values = x[live], values[live]
        j = np.argmax(values, axis=1)
        rows = np.arange(live.size)
        best[live], top[live] = x[rows, j], values[rows, j]
        lo[live] = x[rows, np.maximum(j - 1, 0)]
        hi[live] = x[rows, np.minimum(j + 1, K - 1)]
        live = live[hi[live] - lo[live] > tol]
        if not live.size:
            break
    return best, top


def grid_max(f, grid: np.ndarray, tol: float) -> tuple[float, float]:
    """Best point of f and its value: the best point of the 1-D grid, refined by
    bracket_max over the grid cells on either side of it down to tol.

    f must also take the 1-D grid itself.
    """
    i = int(np.argmax(f(grid)))
    best, value = bracket_max(f, grid[max(i - 1, 0)], grid[min(i + 1, len(grid) - 1)], tol)
    return float(best[0]), float(value[0])


def bracket_root(f, lo, hi, tol: float) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Shrink each bracket [lo, hi] to the first sign change of f in it.

    A sign change is a grid cell whose end values have a product <= 0; NaN
    values never form one. Returns the final (lo, hi) and the mask of
    brackets that held a sign change at every step. Those end narrower than
    tol; the others keep the bracket in which the search lost the change.
    """
    lo, hi = _brackets(lo, hi)
    rows = np.arange(lo.size)
    found = np.ones(lo.size, dtype=bool)
    for _ in range(_MAX_STEPS):
        if np.all((hi - lo <= tol) | ~found):
            break
        x = _grids(lo, hi)
        values = f(x)
        change = values[:, :-1] * values[:, 1:] <= 0.0
        j = np.argmax(change, axis=1)
        found &= change[rows, j]
        lo = np.where(found, x[rows, j], lo)
        hi = np.where(found, x[rows, j + 1], hi)
    return lo, hi, found
