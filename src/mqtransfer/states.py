"""Candidate sender states and creatable-region measurement.

A sender is assembled from the zero-order vector, an optional unit
single-quantum vector scaled by c1 >= 0, and a double-quantum weight
c2 >= 0. Positivity of the assembled matrix bounds (c1, c2); the region is
summarized by the two semi-axes S1 = c1_max * lambda1, S2 = c2_max * lambda2
and their product, all from one batched kernel: region_points at (t, b),
which reads the blocks of the transfer matrix (two_qubit.transfer_blocks)
and the exact rule for a real single-quantum factor (two_qubit.lambda1_real),
region_cells at lambda0 and the case mask case_metrics. For odd N the
factor is real only at b = 0, where it vanishes, so cases 2-4 are
infeasible there.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .chain import ChainSpec, amplitude_grids, check_inverse_temperature, mode_basis
from .solvers import solve_first_order, solve_zero_order, zero_order_spectrum
from .two_qubit import lambda1_real, transfer_blocks

__all__ = [
    "RegionReport",
    "RegionPoints",
    "assemble_sender",
    "block_rays",
    "region_points",
    "region_cells",
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


def block_rays(x0: np.ndarray, x1: np.ndarray):
    """Closed-form creatable intervals c1_max and c2_max, over leading axes.

    The base state of x0 (..., 5) is block-diagonal on {1}, {2,3}, {4}, so
    c2_max = sqrt(rho11 rho44). The single-quantum direction of x1 (..., 4)
    couples only {1,4} to {2,3}; with B its {1,4} x {2,3} block, c1_max =
    1/sigma_max, where sigma_max^2 is the larger eigenvalue of the 2x2 matrix
    M23^-1 B^H D14^-1 B. Returns (positive, c1_max, c2_max): positive marks
    base states whose smallest eigenvalue is at least -PSD_TOL, and both
    lengths are zero elsewhere. The test suite certifies these values against
    bisection on the dense sender matrix.
    """
    x0 = np.asarray(x0)
    r11, r22, r33 = x0[..., 0].real, x0[..., 1].real, x0[..., 2].real
    r44 = 1.0 - r11 - r22 - r33
    x23 = x0[..., 3]
    off2 = np.abs(x23) ** 2
    blk_min = 0.5 * (r22 + r33) - np.sqrt(0.25 * (r22 - r33) ** 2 + off2)
    positive = (r11 >= -PSD_TOL) & (r44 >= -PSD_TOL) & (blk_min >= -PSD_TOL)
    c2 = np.where(positive, np.sqrt(np.clip(r11 * r44, 0.0, None)), 0.0)
    x1 = np.asarray(x1)
    # B rows are sites 1 and 4, columns sites 2 and 3
    b12, b13, b42, b43 = x1[..., 0], x1[..., 1], np.conj(x1[..., 2]), np.conj(x1[..., 3])
    d1 = np.clip(r11, 1e-30, None)
    d4 = np.clip(r44, 1e-30, None)
    # M23^-1 G, G = B^H D14^-1 B, is similar to the Hermitian H = L^-1 G L^-H
    # with M23 = L L^H (Cholesky). With v = (-rho23/rho22, 1), each entry of H
    # is a product or a sum of squares of B (1, 0) and B v, and the larger
    # eigenvalue of H comes from (h22 - h33)^2 + 4|h23|^2, a sum of squares
    # that does not cancel where the two eigenvalues cross
    d2 = np.clip(r22, 1e-30, None)
    det_m = np.clip(r22 * r33 - off2, 1e-30, None)
    ratio = x23 / d2
    w1, w4 = b13 - b12 * ratio, b43 - b42 * ratio
    h22 = (np.abs(b12) ** 2 / d1 + np.abs(b42) ** 2 / d4) / d2
    h33 = d2 * (np.abs(w1) ** 2 / d1 + np.abs(w4) ** 2 / d4) / det_m
    h23 = (np.conj(b12) * w1 / d1 + np.conj(b42) * w4 / d4) / np.sqrt(det_m)
    sigma2 = 0.5 * (h22 + h33) + np.sqrt(0.25 * (h22 - h33) ** 2 + np.abs(h23) ** 2)
    with np.errstate(divide="ignore", invalid="ignore"):
        c1 = np.where(positive, 1.0 / np.sqrt(sigma2), 0.0)
    return positive, c1, c2


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
class RegionPoints:
    """(t, b) stage over the broadcast shape of t and b: solve_first_order of the
    single-quantum blocks, the mask real of points where lambda1 is real,
    the double-quantum coefficient lambda2 (complex, real up to rounding) and
    the zero-order blocks (W, G[4], M B), whose closed-form spectrum
    (zero_order_spectrum) is formed on use."""

    eigenvalues: np.ndarray
    lambda1: np.ndarray
    x1: np.ndarray
    real: np.ndarray
    lambda2: np.ndarray
    zero_blocks: tuple

    @cached_property
    def spectrum(self) -> tuple:
        return zero_order_spectrum(*self.zero_blocks)


def region_points(spec: ChainSpec, t, b) -> RegionPoints:
    """The (t, b) stage at scalars or broadcasting arrays t and b (b unchecked),
    straight from the blocks of mqtransfer.two_qubit.transfer_blocks."""
    first, zero, second = transfer_blocks(*amplitude_grids(mode_basis(spec.n_sites), t), b,
                                          spec.n_sites)
    (p, _, _, s), tau = zero[0], first[1]
    ev, lambda1, x1 = solve_first_order(*first)
    return RegionPoints(ev, lambda1, x1, real=lambda1_real(p + s, second, tau, spec.n_sites),
                        lambda2=second, zero_blocks=zero)


def region_cells(points: RegionPoints, lambda0s) -> tuple:
    """The lambda0 stage at every point; lambda0s as in solve_zero_order.

    Returns x0 (points..., nl, 5), the mask ok of cells with a regular
    zero-order solve and a positive base state, c1_max and c2_max.
    """
    x0, regular = solve_zero_order(points.spectrum, lambda0s)
    positive, c1_max, c2_max = block_rays(x0, points.x1[..., None, :])
    return x0, regular & positive, c1_max, c2_max


def case_metrics(points: RegionPoints, cells: tuple, case: int) -> tuple:
    """The case mask: feasibility and semi-axes s1, s2 of a case at every cell.

    Case 1 keeps only the double-quantum ray, case 2 only the single-quantum
    one, cases 3 and 4 both; all but case 1 need a real single-quantum
    factor, and every case a regular zero-order solve and a positive base
    state. A kept semi-axis is its ray length times a positive scale factor.
    """
    _, ok, c1_max, c2_max = cells
    real, lam1, lam2 = (a[..., None] for a in (points.real, points.lambda1, points.lambda2.real))
    feasible = ok & (real | (case == 1))
    lam1 = np.where(real & (lam1 > 0.0), lam1, 0.0) if case != 1 else 0.0
    lam2 = np.where(lam2 > 0.0, lam2, 0.0) if case != 2 else 0.0
    # without a real lambda1, c1_max is meaningless or infinite: select before scaling
    s1 = np.where(feasible & (lam1 > 0.0), c1_max, 0.0) * lam1
    return feasible, s1, np.where(feasible, c2_max, 0.0) * lam2


def region_metrics(spec: ChainSpec, t: float, b: float, lambda0: float,
                   case: int) -> RegionReport:
    """Measure the creatable region at one (t, b, lambda0) point: a batch of one.

    Infeasible points (see case_metrics) report zero metrics instead of raising.
    """
    if case not in (1, 2, 3, 4):
        raise ValueError(f"case must be 1..4, got {case}")
    check_inverse_temperature(b)
    points = region_points(spec, t, b)
    feasible, s1, s2 = False, 0.0, 0.0
    # without a real lambda1 only case 1 can be feasible: skip the lambda0 stage
    if points.real or case == 1:
        cells = x0, _, c1_max, c2_max = region_cells(points, [lambda0])
        feasible, s1, s2 = (x.item() for x in case_metrics(points, cells, case))
    keep1 = feasible and case != 1
    return RegionReport(
        case=case, t=t, b=b, lambda0=lambda0, s1=s1, s2=s2, s12=s1 * s2,
        lambda1=points.lambda1.item() if points.real and case != 1 else None,
        lambda2=points.lambda2.real.item(),
        c1_max=c1_max.item() if keep1 else 0.0,
        c2_max=c2_max.item() if feasible and case != 2 else 0.0,
        feasible=feasible,
        x0=x0[0] if feasible else None,
        x1=points.x1 if keep1 else None,
    )
