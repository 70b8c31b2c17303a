"""Scale-factor extraction.

The double-quantum factor is read off directly, the single-quantum one is an
eigenvalue of a 4x4 complex matrix, and the zero-order sender vector solves a
5x5 linear system in which the zero-order factor enters as a free real
parameter.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import SingularInputError
from .two_qubit import AlphaTable

__all__ = [
    "FirstOrderSolution",
    "ZeroOrderSolution",
    "solve_first_order",
    "zero_order_system",
    "zero_order_resolvent",
    "solve_zero_order",
    "gauge_fix",
]

COND_LIMIT = 1e10


def gauge_fix(vec: np.ndarray) -> np.ndarray:
    """Rotate a complex vector so its largest-modulus component is real positive."""
    vec = np.asarray(vec, dtype=complex)
    k = int(np.argmax(np.abs(vec)))
    if np.abs(vec[k]) == 0.0:
        return vec.copy()
    return vec * np.exp(-1j * np.angle(vec[k]))


@dataclass(frozen=True)
class FirstOrderSolution:
    """Eigen-data of the single-quantum map.

    eigenvalues are sorted by descending modulus; selected indexes the
    retained real eigenvalue; x1 is its unit-norm eigenvector, gauge-fixed so
    the largest-modulus component is real positive.
    """

    eigenvalues: np.ndarray
    selected: int
    x1: np.ndarray

    @property
    def lambda1(self) -> float:
        return float(self.eigenvalues[self.selected].real)


def solve_first_order(m: np.ndarray, realness_tol: float = 1e-8) -> FirstOrderSolution | None:
    """Largest-modulus real eigenvalue of the 4x4 map, or None if all complex.

    Realness means |Im| <= realness_tol * max(1, |eigenvalue|); if the
    largest-modulus eigenvalue is complex, the next real one down the modulus
    ordering is taken instead.
    """
    m = np.asarray(m, dtype=complex)
    try:
        ev, vecs = np.linalg.eig(m)
    except np.linalg.LinAlgError as exc:
        raise SingularInputError(f"eigen-solver failed: {exc}") from exc
    order = np.argsort(-np.abs(ev), kind="stable")
    ev = ev[order]
    vecs = vecs[:, order]
    for i in range(len(ev)):
        if abs(ev[i].imag) <= realness_tol * max(1.0, abs(ev[i])):
            x1 = gauge_fix(vecs[:, i])
            x1 = x1 / np.linalg.norm(x1)
            return FirstOrderSolution(eigenvalues=ev, selected=i, x1=x1)
    return None


@dataclass(frozen=True)
class ZeroOrderSolution:
    """Sender zero-order vector (rho11, rho22, rho33, rho23, rho23*) at fixed lambda0."""

    lambda0: float
    x0: np.ndarray
    residual: float


def zero_order_system(table: AlphaTable | np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Build the 5x5 matrix and inhomogeneity of the zero-order linear system.

    Takes a table or its zero-order coefficients (..., 5, 6); leading axes
    carry through. Using the trace to eliminate the sender (4,4) element
    folds the 44-column of the map into the first three columns (subtracted)
    and the constant vector B; the 23/32 columns pass through unchanged.
    """
    z = table.zero if isinstance(table, AlphaTable) else np.asarray(table)
    t0 = np.concatenate([z[..., 0:3] - z[..., 3:4], z[..., 4:6]], axis=-1)
    return t0, z[..., 3].copy()


def zero_order_resolvent(t0: np.ndarray, b_vec: np.ndarray,
                         lambda0s: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """x0 = (lambda0 I - T0)^-1 B for a whole lambda0 axis from one eigendecomposition.

    With T0 = V diag(d) V^-1, x0(lambda0) = V (lambda0 - d)^-1 V^-1 B.
    t0 (..., 5, 5) and b_vec (..., 5) share leading axes; lambda0s is
    (nl,), shared by every matrix, or (..., nl), one axis per matrix.
    Returns x0 (..., nl, 5) and the mask of regular cells. A cell
    is singular under the COND_LIMIT rule of solve_zero_order, with the
    condition number of lambda0 I - T0 taken from its spectrum as
    max|lambda0 - d| / min|lambda0 - d| (a lower bound of the 2-norm one);
    singular cells hold zeros.
    """
    d, v = np.linalg.eig(t0)
    y = np.linalg.solve(v, b_vec[..., None])[..., 0]
    gap = np.asarray(lambda0s, dtype=float)[..., None] - d[..., None, :]
    dist = np.abs(gap)
    regular = dist.max(axis=-1) < COND_LIMIT * dist.min(axis=-1)
    with np.errstate(divide="ignore", invalid="ignore"):
        coef = np.where(regular[..., None], y[..., None, :] / gap, 0.0)
    return coef @ np.swapaxes(v, -1, -2), regular


def solve_zero_order(t0: np.ndarray, b_vec: np.ndarray, lambda0: float) -> ZeroOrderSolution:
    """Solve (lambda0 I - T0) x0 = B for the sender zero-order vector.

    Raises SingularInputError when lambda0 sits on (or numerically near) the
    spectrum of T0, where the system loses unique solvability.
    """
    t0 = np.asarray(t0, dtype=complex)
    b_vec = np.asarray(b_vec, dtype=complex)
    a = lambda0 * np.eye(5) - t0
    if np.linalg.cond(a) > COND_LIMIT:
        raise SingularInputError(
            f"lambda0 = {lambda0} is too close to the spectrum of the zero-order map")
    x0 = np.linalg.solve(a, b_vec)
    residual = float(np.linalg.norm(t0 @ x0 + b_vec - lambda0 * x0))
    return ZeroOrderSolution(lambda0=float(lambda0), x0=x0, residual=residual)

