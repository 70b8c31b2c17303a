"""Candidate sender states and creatable-region measurement.

A sender is assembled from the zero-order vector, an optional unit
single-quantum vector scaled by c1 >= 0, and a double-quantum weight
c2 >= 0. Positivity of the assembled matrix bounds (c1, c2); the region is
summarized by the two semi-axes S1 = c1_max * lambda1, S2 = c2_max * lambda2
and their product.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .chain import ChainSpec, amplitude_set, mode_basis
from .errors import DomainError, SingularInputError
from .solvers import solve_first_order, solve_zero_order, zero_order_system
from .two_qubit import alpha_table

__all__ = [
    "SenderTemplate",
    "RegionReport",
    "assemble_sender",
    "is_physical",
    "block_rays",
    "c_max_ray",
    "region_metrics",
    "boundary_sweep",
]

PSD_TOL = 1e-10
BISECT_TOL = 1e-9


@dataclass(frozen=True)
class SenderTemplate:
    """Ingredients of a block-structured sender matrix.

    x0 holds (rho11, rho22, rho33, rho23, rho23*); x1, when present, fills the
    single-quantum elements (12, 13, 24, 34) with weight c1; c2 goes into the
    (1,4) element. The (4,4) element follows from the unit trace.
    """

    x0: np.ndarray
    x1: np.ndarray | None = None
    c1: float = 0.0
    c2: float = 0.0


def _base_matrix(x0: np.ndarray) -> np.ndarray:
    x0 = np.asarray(x0, dtype=complex)
    m = np.zeros((4, 4), dtype=complex)
    m[0, 0], m[1, 1], m[2, 2] = x0[0].real, x0[1].real, x0[2].real
    m[3, 3] = 1.0 - m[0, 0] - m[1, 1] - m[2, 2]
    m[1, 2] = x0[3]
    m[2, 1] = np.conj(x0[3])
    return m


def _first_order_direction(x1: np.ndarray) -> np.ndarray:
    v = np.zeros((4, 4), dtype=complex)
    v[0, 1], v[0, 2], v[1, 3], v[2, 3] = np.asarray(x1, dtype=complex)
    return v + v.conj().T


_SECOND_DIRECTION = np.zeros((4, 4), dtype=complex)
_SECOND_DIRECTION[0, 3] = 1.0
_SECOND_DIRECTION += _SECOND_DIRECTION.conj().T
_SECOND_DIRECTION.setflags(write=False)


def assemble_sender(template: SenderTemplate) -> np.ndarray:
    """Hermitian unit-trace matrix from a template (positivity not enforced)."""
    m = _base_matrix(template.x0)
    if template.x1 is not None and template.c1 != 0.0:
        m = m + template.c1 * _first_order_direction(template.x1)
    if template.c2 != 0.0:
        m = m + template.c2 * _SECOND_DIRECTION
    return m


def is_physical(rho: np.ndarray, tol: float = PSD_TOL) -> bool:
    """True iff Hermitian, unit trace, and min eigenvalue >= -tol."""
    rho = np.asarray(rho, dtype=complex)
    if np.max(np.abs(rho - rho.conj().T)) > 1e-12:
        return False
    if abs(np.trace(rho) - 1.0) > 1e-12:
        return False
    return bool(np.linalg.eigvalsh(rho).min() >= -tol)


def _ray_max(m0: np.ndarray, direction: np.ndarray, tol: float) -> float:
    """Largest c >= 0 with m0 + c*direction positive, by bracketing and bisection."""
    def ok(c: float) -> bool:
        return np.linalg.eigvalsh(m0 + c * direction).min() >= -PSD_TOL

    hi = 1.0
    doublings = 0
    while ok(hi):
        hi *= 2.0
        doublings += 1
        if doublings > 60:
            return float("inf")
    lo = 0.0
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        if ok(mid):
            lo = mid
        else:
            hi = mid
    return lo


def block_rays(x0: np.ndarray, x1: np.ndarray | None = None):
    """Closed-form creatable intervals c1_max and c2_max, over leading axes.

    The base state of x0 (..., 5) is block-diagonal on {1}, {2,3}, {4}, so
    c2_max = sqrt(rho11 rho44). The single-quantum direction of x1 (..., 4)
    couples only {1,4} to {2,3}; with B its {1,4} x {2,3} block, c1_max =
    1/sigma_max, where sigma_max^2 is the larger eigenvalue of the 2x2 matrix
    M23^-1 B^H D14^-1 B. Returns (positive, c1_max, c2_max): positive marks
    base states whose smallest eigenvalue is at least -PSD_TOL, and both
    lengths are zero elsewhere; c1_max is None without x1. The bisection
    rays of c_max_ray certify these values.
    """
    x0 = np.asarray(x0)
    r11, r22, r33 = x0[..., 0].real, x0[..., 1].real, x0[..., 2].real
    r44 = 1.0 - r11 - r22 - r33
    x23 = x0[..., 3]
    off2 = np.abs(x23) ** 2
    blk_min = 0.5 * (r22 + r33) - np.sqrt(0.25 * (r22 - r33) ** 2 + off2)
    positive = (r11 >= -PSD_TOL) & (r44 >= -PSD_TOL) & (blk_min >= -PSD_TOL)
    c2 = np.where(positive, np.sqrt(np.clip(r11 * r44, 0.0, None)), 0.0)
    if x1 is None:
        return positive, None, c2
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


def c_max_ray(x0: np.ndarray, x1: np.ndarray | None, which: str,
              tol: float = BISECT_TOL):
    """Creatable-interval endpoints along coordinate rays.

    which = 'c1': largest c1 at c2 = 0 (requires x1); 'c2': largest c2 at
    c1 = 0; 'corner': both, as the pair (c1_max, c2_max) entering the area
    estimate. The base state (c1 = c2 = 0) must be physical.
    """
    m0 = _base_matrix(x0)
    if np.linalg.eigvalsh(m0).min() < -PSD_TOL:
        raise DomainError("base sender state (c1 = c2 = 0) is not positive")
    if which == "c2":
        return _ray_max(m0, np.asarray(_SECOND_DIRECTION), tol)
    if which == "c1":
        if x1 is None:
            raise DomainError("the c1 ray needs a single-quantum vector x1")
        return _ray_max(m0, _first_order_direction(x1), tol)
    if which == "corner":
        if x1 is None:
            raise DomainError("the corner needs a single-quantum vector x1")
        return (_ray_max(m0, _first_order_direction(x1), tol),
                _ray_max(m0, np.asarray(_SECOND_DIRECTION), tol))
    raise ValueError(f"unknown ray selector {which!r}")


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


def _infeasible(case: int, t: float, b: float, lambda0: float, lam2: float,
                lam1: float | None = None) -> RegionReport:
    return RegionReport(case=case, t=t, b=b, lambda0=lambda0, s1=0.0, s2=0.0,
                        s12=0.0, lambda1=lam1, lambda2=lam2, c1_max=0.0,
                        c2_max=0.0, feasible=False)


def region_metrics(spec: ChainSpec, t: float, b: float, lambda0: float,
                   case: int, realness_tol: float = 1e-8) -> RegionReport:
    """Measure the creatable region at one (t, b, lambda0) point.

    Case 1 keeps only the double-quantum ray, case 2 only the single-quantum
    one, cases 3 and 4 both. Infeasible points (no real single-quantum
    factor where one is needed, non-positive base state, or a singular
    zero-order solve) report zero metrics instead of raising.
    """
    if case not in (1, 2, 3, 4):
        raise ValueError(f"case must be 1..4, got {case}")
    basis = mode_basis(spec.n_sites)
    table = alpha_table(amplitude_set(basis, t), b, spec)
    lam2 = table.second.real

    first = None
    if case != 1:
        first = solve_first_order(table.first, realness_tol)
        if first is None:
            return _infeasible(case, t, b, lambda0, lam2)

    t0, b_vec = zero_order_system(table)
    try:
        zero = solve_zero_order(t0, b_vec, lambda0)
    except SingularInputError:
        return _infeasible(case, t, b, lambda0, lam2,
                           first.lambda1 if first else None)
    positive, c1_max, c2_max = block_rays(zero.x0, first.x1 if first is not None else None)
    if not positive:
        return _infeasible(case, t, b, lambda0, lam2,
                           first.lambda1 if first else None)

    c1 = c2 = 0.0
    s1 = s2 = 0.0
    if case != 1:
        c1 = float(c1_max)
        s1 = c1 * first.lambda1 if first.lambda1 > 0.0 else 0.0
    if case != 2:
        c2 = float(c2_max)
        s2 = c2 * lam2 if lam2 > 0.0 else 0.0
    return RegionReport(
        case=case, t=t, b=b, lambda0=lambda0,
        s1=s1, s2=s2, s12=s1 * s2,
        lambda1=first.lambda1 if first is not None else None,
        lambda2=lam2, c1_max=c1, c2_max=c2, feasible=True,
        x0=zero.x0, x1=first.x1 if first is not None else None,
    )


def boundary_sweep(x0: np.ndarray, x1: np.ndarray, rays: int = 64) -> np.ndarray:
    """Polar sweep of the positivity boundary in the (c1, c2) quadrant.

    Diagnostic only; returns an array of (c1, c2) boundary points along
    equally spaced directions in the first quadrant.
    """
    m0 = _base_matrix(x0)
    if np.linalg.eigvalsh(m0).min() < -PSD_TOL:
        raise DomainError("base sender state is not positive")
    v1 = _first_order_direction(x1)
    v2 = np.asarray(_SECOND_DIRECTION)
    pts = []
    for theta in np.linspace(0.0, np.pi / 2, rays):
        direction = np.cos(theta) * v1 + np.sin(theta) * v2
        rho_max = _ray_max(m0, direction, BISECT_TOL)
        pts.append((rho_max * np.cos(theta), rho_max * np.sin(theta)))
    return np.array(pts)
