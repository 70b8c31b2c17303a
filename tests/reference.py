"""Certifying references for the batched region kernel.

Each function here computes one piece of the region chain the slow, direct
way, one point at a time. It shares with the kernel in mqtransfer.states and
mqtransfer.solvers only the coefficient table, the 5x5 zero-order system
built from it and the tolerances PSD_TOL and COND_LIMIT:

- the sender layout as dense 4x4 matrices (base_matrix, first_order_direction,
  SECOND_DIRECTION);
- creatable intervals by bracketing and bisection on the smallest eigenvalue
  of the dense sender (ray_max, c_max_ray, boundary_sweep);
- the single-quantum factor by a scalar loop over the eigenvalues sorted by
  modulus (select_first_order), and the basis in which the closed form reads
  the single-quantum map as block-triangular (FIRST_BASIS);
- the zero-order vector by a dense linear solve guarded by the 2-norm
  condition number (solve_zero_order_dense);
- the semi-axes of a case, chaining the three (region_reference).
"""

from __future__ import annotations

import numpy as np

from mqtransfer import ChainSpec, DomainError, alpha_table, amplitude_set, mode_basis
from mqtransfer.solvers import COND_LIMIT, zero_order_system
from mqtransfer.states import PSD_TOL

BISECT_TOL = 1e-9


def base_matrix(x0: np.ndarray) -> np.ndarray:
    x0 = np.asarray(x0, dtype=complex)
    m = np.zeros((4, 4), dtype=complex)
    m[0, 0], m[1, 1], m[2, 2] = x0[0].real, x0[1].real, x0[2].real
    m[3, 3] = 1.0 - m[0, 0] - m[1, 1] - m[2, 2]
    m[1, 2] = x0[3]
    m[2, 1] = np.conj(x0[3])
    return m


def first_order_direction(x1: np.ndarray) -> np.ndarray:
    v = np.zeros((4, 4), dtype=complex)
    v[0, 1], v[0, 2], v[1, 3], v[2, 3] = np.asarray(x1, dtype=complex)
    return v + v.conj().T


SECOND_DIRECTION = np.zeros((4, 4), dtype=complex)
SECOND_DIRECTION[0, 3] = 1.0
SECOND_DIRECTION += SECOND_DIRECTION.conj().T
SECOND_DIRECTION.setflags(write=False)

# Rows u0 = (13 + 24), u1 = (13 - 24), u2 = (12 + 34), u3 = (12 - 34) over
# FIRST_LABELS (12, 13, 24, 34), each over sqrt(2). A chain's single-quantum
# map F has G = U F U^T block upper-triangular: G[{u1, u2}, {u0, u3}] = 0.
FIRST_BASIS = np.sqrt(0.5) * np.array([[0, 1, 1, 0], [0, 1, -1, 0], [1, 0, 0, 1], [1, 0, 0, -1]])
FIRST_BASIS.setflags(write=False)
INVARIANT, QUOTIENT = [0, 3], [1, 2]


def ray_max(m0: np.ndarray, direction: np.ndarray, tol: float, floor: float = -PSD_TOL) -> float:
    """Largest c >= 0 with min eig(m0 + c*direction) >= floor, by bracketing and bisection."""
    def ok(c: float) -> bool:
        return np.linalg.eigvalsh(m0 + c * direction).min() >= floor

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


def c_max_ray(x0: np.ndarray, x1: np.ndarray | None, which: str,
              tol: float = BISECT_TOL):
    """Creatable-interval endpoints along coordinate rays.

    which = 'c1': largest c1 at c2 = 0 (requires x1); 'c2': largest c2 at
    c1 = 0; 'corner': both, as the pair (c1_max, c2_max) entering the area
    estimate. The base state (c1 = c2 = 0) must be physical.
    """
    m0 = base_matrix(x0)
    if np.linalg.eigvalsh(m0).min() < -PSD_TOL:
        raise DomainError("base sender state (c1 = c2 = 0) is not positive")
    if which == "c2":
        return ray_max(m0, SECOND_DIRECTION, tol)
    if which == "c1":
        if x1 is None:
            raise DomainError("the c1 ray needs a single-quantum vector x1")
        return ray_max(m0, first_order_direction(x1), tol)
    if which == "corner":
        if x1 is None:
            raise DomainError("the corner needs a single-quantum vector x1")
        return (ray_max(m0, first_order_direction(x1), tol),
                ray_max(m0, SECOND_DIRECTION, tol))
    raise ValueError(f"unknown ray selector {which!r}")


def boundary_sweep(x0: np.ndarray, x1: np.ndarray, rays: int = 64) -> np.ndarray:
    """Polar sweep of the positivity boundary in the (c1, c2) quadrant.

    Returns the (c1, c2) boundary points along equally spaced directions in
    the first quadrant.
    """
    m0 = base_matrix(x0)
    if np.linalg.eigvalsh(m0).min() < -PSD_TOL:
        raise DomainError("base sender state is not positive")
    v1 = first_order_direction(x1)
    pts = []
    for theta in np.linspace(0.0, np.pi / 2, rays):
        direction = np.cos(theta) * v1 + np.sin(theta) * SECOND_DIRECTION
        rho_max = ray_max(m0, direction, BISECT_TOL)
        pts.append((rho_max * np.cos(theta), rho_max * np.sin(theta)))
    return np.array(pts)


def select_first_order(m: np.ndarray, realness_tol: float = 1e-8):
    """(eigenvalues by descending modulus, selected index, lambda1, unit x1), or None.

    The first eigenvalue down the modulus ordering with
    |Im| <= realness_tol * max(1, |eigenvalue|) is kept; x1 is rotated so
    its largest-modulus component is real positive.
    """
    ev, vecs = np.linalg.eig(np.asarray(m, dtype=complex))
    order = np.argsort(-np.abs(ev), kind="stable")
    ev, vecs = ev[order], vecs[:, order]
    for i in range(len(ev)):
        if abs(ev[i].imag) <= realness_tol * max(1.0, abs(ev[i])):
            x1 = vecs[:, i]
            k = int(np.argmax(np.abs(x1)))
            x1 = x1 * np.exp(-1j * np.angle(x1[k]))
            return ev, i, float(ev[i].real), x1 / np.linalg.norm(x1)
    return None


def solve_zero_order_dense(t0: np.ndarray, b_vec: np.ndarray, lambda0: float):
    """x0 from a dense solve of (lambda0 I - T0) x0 = B; None where cond > COND_LIMIT."""
    a = lambda0 * np.eye(5) - np.asarray(t0, dtype=complex)
    if np.linalg.cond(a) > COND_LIMIT:
        return None
    return np.linalg.solve(a, np.asarray(b_vec, dtype=complex))


def region_reference(spec: ChainSpec, t: float, b: float, lambda0: float, case: int,
                     realness_tol: float = 1e-8, tol: float = 1e-12) -> dict:
    """Semi-axes of a case at one point from the scalar table and the references above.

    The rays are bisected to tol against the exact positivity boundary
    (smallest eigenvalue 0), which the closed form of block_rays locates.
    Returns feasible, s1, s2, lambda1, x0 and x1 with the conventions of
    RegionReport: zeros where infeasible, s1 = 0 in case 1, s2 = 0 in case 2.
    """
    table = alpha_table(amplitude_set(mode_basis(spec.n_sites), t), b, spec)
    first = select_first_order(table.first, realness_tol)
    out = {"feasible": False, "s1": 0.0, "s2": 0.0, "lambda1": None, "x0": None, "x1": None}
    if first is None and case != 1:
        return out
    x0 = solve_zero_order_dense(*zero_order_system(table), lambda0)
    if x0 is None:
        return out
    m0 = base_matrix(x0)
    if np.linalg.eigvalsh(m0).min() < -PSD_TOL:
        return out
    out.update(feasible=True, x0=x0)
    if case != 1:
        lam1, x1 = first[2], first[3]
        out.update(lambda1=lam1, x1=x1)
        if lam1 > 0.0:
            out["s1"] = ray_max(m0, first_order_direction(x1), tol, floor=0.0) * lam1
    lam2 = table.second.real
    if case != 2 and lam2 > 0.0:
        out["s2"] = ray_max(m0, SECOND_DIRECTION, tol, floor=0.0) * lam2
    return out
