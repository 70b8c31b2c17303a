"""Candidate sender states and creatable-region measurement.

A sender is assembled from the zero-order vector, an optional unit
single-quantum vector scaled by c1 >= 0, and a double-quantum weight
c2 >= 0. Positivity of the assembled matrix bounds (c1, c2); the region is
summarized by the two semi-axes S1 = c1_max * lambda1, S2 = c2_max * lambda2
and their product, all from one batched kernel in three stages. The
inverse temperature b reaches the map only through four factors
(two_qubit.temperature_factors), so:

- time_stage, once per time grid: the amplitudes, W's eigen-data with the
  mask of a real single-quantum factor at b > 0 (two_qubit.transfer_spectrum),
  the b-free blocks of the transfer matrix W (two_qubit.transfer_blocks), the
  single-quantum eigenproblem of H (solvers.solve_first_order), lambda2 =
  det W and the Schur form of the zero-order system;
- solvers.solve_zero_order on its spectrum, once per (t, lambda0): one
  back-substitution at unit sources, whose singularity mask is b-free;
- the temperature step, per b: region_points (the theta tau scale and x1)
  and region_cells (the base state, then the rays): base_cells (the base
  state from the background weights n and k, positivity and c2_max,
  c2_rays) and the single-quantum ray c1_max (c1_rays), which a caller may
  run on fewer cells.

The stages follow numpy broadcasting alone: the cells take the broadcast
shape of the spectrum and lambda0, and the points broadcast against them
(over (nt, 1) against cells (nt, nl), say); region_columns streams a grid
through them one b column at a time. The semi-axes are formed once:
positive_factors (lambda1+, lambda2+), semi_axes (s1 = c1_max lambda1+, s2 =
c2_max lambda2+) and the case mask case_metrics. For odd N the
single-quantum factor is real only at b = 0, where it vanishes, so cases 2-4
are infeasible there.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .chain import ChainSpec, amplitude_grids, check_inverse_temperature, mode_basis
from .errors import ConfigurationError
from .solvers import (check_lambda0, first_order_at, solve_first_order, solve_zero_order,
                      zero_order_at, zero_order_spectrum)
from .two_qubit import temperature_factors, transfer_blocks, transfer_spectrum

__all__ = [
    "RegionReport",
    "TimeStage",
    "RegionPoints",
    "assemble_sender",
    "c2_rays",
    "c1_rays",
    "time_stage",
    "region_points",
    "base_cells",
    "region_cells",
    "base_vector",
    "region_columns",
    "positive_factors",
    "semi_axes",
    "case_metrics",
    "region_metrics",
]

PSD_TOL = 1e-10


def assemble_sender(x0, x1=None, c1: float = 0.0, c2: float = 0.0) -> np.ndarray:
    """Hermitian unit-trace sender matrix (positivity not enforced).

    x0 holds (rho11, rho22, rho33, rho23, rho23*); x1, when given, fills the
    single-quantum elements (12, 13, 24, 34) with weight c1; c2 goes into the
    (1,4) element. The (4,4) element follows from the unit trace.
    """
    x0 = np.asarray(x0, dtype=complex)
    m = np.diag([x0[0].real, x0[1].real, x0[2].real,
                 1.0 - x0[0].real - x0[1].real - x0[2].real]).astype(complex)
    m[1, 2] = x0[3]
    if x1 is not None:
        m[[0, 0, 1, 2], [1, 2, 3, 3]] = c1 * np.asarray(x1, dtype=complex)
    m[0, 3] = c2
    return m + np.triu(m, 1).conj().T


def c2_rays(base: tuple):
    """Positivity of the base state and the creatable interval c2_max, over leading axes.

    base is the base state as its entries (rho11, rho22, rho33, rho44, rho23)
    (region_cells). The base state is block-diagonal on {1}, {2,3}, {4}, so it
    is positive where rho11, rho44 and the smaller eigenvalue of its {2,3}
    block are at least -PSD_TOL, and c2_max = sqrt(max(rho11 rho44, 0)) there, the ray to
    exact positivity (at rho44 = 0 it is 0, where bisection to the floor gives sqrt(PSD_TOL
    rho11)). Returns (positive, c2_max), c2_max zero where the base state is not positive.
    On a positive base state of unit trace c2_max <= (rho11 + rho44) / 2 <= 1/2.
    """
    r11, r22, r33, r44, x23 = base
    blk_min = 0.5 * (r22 + r33) - np.sqrt(0.25 * (r22 - r33) ** 2 + np.abs(x23) ** 2)
    positive = (r11 >= -PSD_TOL) & (r44 >= -PSD_TOL) & (blk_min >= -PSD_TOL)
    return positive, np.where(positive, np.sqrt(np.maximum(r11 * r44, 0.0)), 0.0)


def c1_rays(base: tuple, x1: np.ndarray) -> np.ndarray:
    """Closed-form creatable interval c1_max of a positive base state, over leading axes.

    base is as for c2_rays, and x1 (..., 4) the single-quantum direction. The
    single-quantum direction couples only {1,4} to {2,3}; with B its
    {1,4} x {2,3} block, c1_max = 1/sigma_max, where sigma_max^2 is the
    larger eigenvalue of the 2x2 matrix M23^-1 B^H D14^-1 B. The value is
    meaningful only where c2_rays marks the base state positive. There each
    2x2 principal minor of the sender gives c1_max |x_ij| <= sqrt(rho_ii rho_jj)
    for (ij) in {12, 13, 24, 34}, since the base state has no entry there (the
    grid scan of mqtransfer.optimize runs this formula only on the cells that
    these bounds cannot rule out). The test suite certifies these values
    against bisection on the dense sender matrix.
    """
    r11, r22, r33, r44, x23 = base
    x1 = np.asarray(x1)
    # B rows are sites 1 and 4, columns sites 2 and 3
    b12, b13, b42, b43 = x1[..., 0], x1[..., 1], np.conj(x1[..., 2]), np.conj(x1[..., 3])
    d1 = np.maximum(r11, 1e-30)
    d4 = np.maximum(r44, 1e-30)
    # M23^-1 G, G = B^H D14^-1 B, is similar to the Hermitian H = L^-1 G L^-H
    # with M23 = L L^H (Cholesky). With v = (-rho23/rho22, 1), each entry of H
    # is a product or a sum of squares of B (1, 0) and B v, and the larger
    # eigenvalue of H comes from (h22 - h33)^2 + 4|h23|^2, a sum of squares
    # that does not cancel where the two eigenvalues cross. det M23 = d2 (rho33 -
    # |rho23|^2 / d2) has both pivots floored as d1 and d4 are, so a clamped rho22 keeps rho33
    d2 = np.maximum(r22, 1e-30)
    det_m = np.maximum(d2 * r33 - np.abs(x23) ** 2, d2 * 1e-30)
    ratio = x23 / d2
    w1, w4 = b13 - b12 * ratio, b43 - b42 * ratio
    h22 = (np.abs(b12) ** 2 / d1 + np.abs(b42) ** 2 / d4) / d2
    h33 = d2 * (np.abs(w1) ** 2 / d1 + np.abs(w4) ** 2 / d4) / det_m
    h23 = (np.conj(b12) * w1 / d1 + np.conj(b42) * w4 / d4) / np.sqrt(det_m)
    sigma2 = 0.5 * (h22 + h33) + np.sqrt(0.25 * (h22 - h33) ** 2 + np.abs(h23) ** 2)
    with np.errstate(divide="ignore"):
        return 1.0 / np.sqrt(sigma2)


@dataclass(frozen=True)
class RegionReport:
    """Semi-axes of the creatable region and the point they were measured at.

    s1 and s2 are lengths (zero when the case fixes the coordinate to zero,
    when no real single-quantum factor exists, or when the factor is not
    positive); s12 = s1 * s2 estimates the area.
    """

    case: int
    t: float
    b: float
    lambda0: float
    s1: float
    s2: float
    s12: float
    lambda1: float | None
    lambda2: float
    c1_max: float
    c2_max: float
    feasible: bool
    x0: np.ndarray | None = field(default=None, repr=False)
    x1: np.ndarray | None = field(default=None, repr=False)


@dataclass(frozen=True, eq=False)
class TimeStage:
    """The t-stage over the shape of t: everything of the region kernel that does
    not depend on b. first is solvers.solve_first_order of the single-quantum
    blocks, real the mask of times where lambda1 is real at b > 0, lambda2 the
    double-quantum coefficient det W (complex, real up to rounding), and
    zero_blocks W's eigen-data and the b-free zero-order blocks (R, S), whose
    closed-form Schur data (zero_order_spectrum) is formed on use."""

    n_sites: int
    first: tuple
    real: np.ndarray
    lambda2: np.ndarray
    zero_blocks: tuple

    @cached_property
    def spectrum(self) -> tuple:
        return zero_order_spectrum(*self.zero_blocks)


def time_stage(spec: ChainSpec, t) -> TimeStage:
    """The t-stage at a scalar or an array of times t."""
    p, q, r = amplitude_grids(mode_basis(spec.n_sites), t)
    w = transfer_spectrum(p, q, r, spec.n_sites)
    first, zero, d = transfer_blocks(p, q, r)
    return TimeStage(spec.n_sites, solve_first_order(first, w), w.real, d, (w, *zero))


@dataclass(frozen=True, eq=False)
class RegionPoints:
    """The single-quantum temperature step over the broadcast shape of t and b:
    the four eigenvalues of the single-quantum map, lambda1 and x1
    (solvers.first_order_at), the mask real of points where lambda1 is real,
    the t-stage's lambda2 (over the shape of t) and the background weights n
    and k that region_cells applies."""

    eigenvalues: np.ndarray
    lambda1: np.ndarray
    x1: np.ndarray
    real: np.ndarray
    lambda2: np.ndarray
    weights: tuple


def region_points(times: TimeStage, b) -> RegionPoints:
    """The temperature step of the t-stage times at b, a scalar or an array that
    broadcasts against the times (b unchecked)."""
    theta, tau, n, k = temperature_factors(b, times.n_sites)
    ev, lambda1, x1 = first_order_at(times.first, theta, tau)
    # F = 0 at tau = 0, where every eigenvalue is real (two_qubit.transfer_spectrum)
    real = times.real | (tau == 0.0)
    return RegionPoints(ev, lambda1, x1, real, times.lambda2, (n, k))


def base_cells(weights: tuple, zero: tuple) -> tuple:
    """The zero-order temperature step and the positivity rays at every point and lambda0.

    zero is solvers.solve_zero_order on the spectrum of the t-stage, and weights the
    background weights (n, k) of region_points, which broadcast against zero's cells.
    Returns the base state's entries (rho11, rho22, rho33, rho44, rho23) over the cells,
    the mask ok of cells with a regular zero-order solve and a positive base state, and
    c2_max (c2_rays).
    """
    unit, regular = zero
    base = zero_order_at(unit, *weights)
    positive, c2_max = c2_rays(base)
    return base, regular & positive, c2_max


def region_cells(points: RegionPoints, zero: tuple) -> tuple:
    """base_cells and the single-quantum ray, the points broadcast against zero's cells: the
    base state's entries, the mask ok, c1_max (c1_rays; meaningful only where ok holds, and
    every reader selects by ok first) and c2_max."""
    base, ok, c2_max = base_cells(points.weights, zero)
    return base, ok, c1_rays(base, points.x1), c2_max


def base_vector(base: tuple) -> np.ndarray:
    """The zero-order sender vector x0 (..., 5) = (rho11, rho22, rho33, rho23, rho32)
    of region_cells' base state entries."""
    r11, r22, r33, _, r23 = base
    x0 = np.array([r11, r22, r33, r23, np.conj(r23)], dtype=complex)
    return x0.transpose(*range(1, x0.ndim), 0)


def region_columns(spec: ChainSpec, ts, bs, lambda0s):
    """The region kernel over the grid ts x bs x lambda0s, one b column at a time.

    One t-stage over ts (nt,) and one lambda0 stage over (nt, nl) serve every column; yields
    (points, cells) of region_points and region_cells for each b of bs in turn, over (nt, 1)
    and (nt, nl). The points take their axis after the temperature step, so the t-stage
    rounds as the grid scan's. Both stages are freed once the last column is out.
    """
    times = time_stage(spec, ts)
    zero = solve_zero_order(tuple(x[:, None] for x in times.spectrum), lambda0s)
    for b in bs:
        p = region_points(times, float(b))
        points = RegionPoints(*(x[:, None] for x in (p.eigenvalues, p.lambda1, p.x1, p.real,
                                                      p.lambda2)), p.weights)
        yield points, region_cells(points, zero)


def positive_factors(points: RegionPoints) -> tuple:
    """lambda1+ (lambda1 where real and > 0, else 0; over the points) and lambda2+ =
    max(lambda2, 0) (over the shape of t): the positive parts of the factors."""
    lam1 = points.lambda1
    return np.where(points.real & (lam1 > 0.0), lam1, 0.0), np.maximum(points.lambda2.real, 0.0)


def semi_axes(factors: tuple, cells: tuple) -> tuple:
    """s1 = c1_max lambda1+ and s2 = c2_max lambda2+ at the cells of region_cells from the
    positive_factors of their points, broadcast; zero where not ok, masked before scaling."""
    _, ok, c1_max, c2_max = cells
    lam1, lam2 = factors
    return np.where(ok & (lam1 > 0.0), c1_max, 0.0) * lam1, np.where(ok, c2_max, 0.0) * lam2


def case_metrics(points: RegionPoints, cells: tuple, case: int) -> tuple:
    """The case mask: feasibility and semi-axes s1, s2 of a case at every cell, the points
    broadcast. Case 1 keeps only s2, case 2 only s1, cases 3 and 4 both; all but case 1
    need a real single-quantum factor, and every case an ok cell."""
    feasible = cells[1] & (points.real | (case == 1))
    s1, s2 = semi_axes(positive_factors(points), cells)
    return feasible, np.where(case != 1, s1, 0.0), np.where(feasible & (case != 2), s2, 0.0)


def region_metrics(spec: ChainSpec, t: float, b: float, lambda0: float,
                   case: int) -> RegionReport:
    """Measure the creatable region at one (t, b, lambda0) point: a batch of one.

    Infeasible points (see case_metrics) report zero metrics instead of raising.
    """
    if case not in (1, 2, 3, 4):
        raise ConfigurationError(f"case must be 1..4, got {case}")
    check_inverse_temperature(b)
    check_lambda0(lambda0)
    times = time_stage(spec, t)
    points = region_points(times, b)
    feasible, s1, s2 = False, 0.0, 0.0
    # without a real lambda1 only case 1 can be feasible: skip the lambda0 stage
    if points.real or case == 1:
        cells = base, _, c1_max, c2_max = region_cells(
            points, solve_zero_order(times.spectrum, lambda0))
        feasible, s1, s2 = (x.item() for x in case_metrics(points, cells, case))
    keep1 = feasible and case != 1
    return RegionReport(
        case=case, t=t, b=b, lambda0=lambda0, s1=s1, s2=s2, s12=s1 * s2,
        lambda1=points.lambda1.item() if points.real and case != 1 else None,
        lambda2=points.lambda2.real.item(),
        c1_max=c1_max.item() if keep1 else 0.0,
        c2_max=c2_max.item() if feasible and case != 2 else 0.0,
        feasible=feasible,
        x0=base_vector(base) if feasible else None,
        x1=points.x1 if keep1 else None,
    )
