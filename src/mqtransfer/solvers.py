"""Scale-factor extraction.

The double-quantum factor is read off directly, the single-quantum one is an
eigenvalue of a 4x4 complex matrix, and the zero-order sender vector solves a
5x5 linear system in which the zero-order factor enters as a free real
parameter. Each solver works over the leading axes of stacked matrices;
solve_first_order and solve_zero_order are its batches of one.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import SingularInputError
from .two_qubit import AlphaTable

__all__ = [
    "FirstOrderSolution",
    "ZeroOrderSolution",
    "first_order_eig",
    "solve_first_order",
    "zero_order_system",
    "zero_order_spectrum",
    "zero_order_resolvent",
    "solve_zero_order",
    "gauge_fix",
]

COND_LIMIT = 1e10


def gauge_fix(vec: np.ndarray) -> np.ndarray:
    """Rotate vectors (last axis) so each largest-modulus component is real positive."""
    vec = np.asarray(vec, dtype=complex)
    pick = np.take_along_axis(vec, np.abs(vec).argmax(axis=-1)[..., None], axis=-1)
    return vec * np.exp(-1j * np.arctan2(pick.imag, pick.real))


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


def first_order_eig(m: np.ndarray, realness_tol: float = 1e-8) -> tuple:
    """Largest-modulus real eigenvalue of 4x4 maps (..., 4, 4), and its eigenvector.

    Realness means |Im| <= realness_tol * max(1, |eigenvalue|). Returns the
    eigenvalues by descending modulus, the index of the selected one, its
    value lambda1, its gauge-fixed unit vector x1 and the mask of maps with a
    real eigenvalue; where that is False, lambda1 and x1 are not meaningful.
    """
    lead = m.shape[:-2]
    ev, vecs = np.linalg.eig(m.reshape(-1, 4, 4))
    rows = np.arange(len(ev))
    order = (-np.abs(ev)).argsort(axis=1, kind="stable")
    ev = ev[rows[:, None], order]
    is_real = np.abs(ev.imag) <= realness_tol * np.maximum(1.0, np.abs(ev))
    selected = is_real.argmax(axis=1)
    x1 = gauge_fix(vecs[rows, :, order[rows, selected]])
    return (ev.reshape(lead + (4,)), selected.reshape(lead), ev[rows, selected].real.reshape(lead),
            x1.reshape(lead + (4,)), is_real[rows, selected].reshape(lead))


def solve_first_order(m: np.ndarray, realness_tol: float = 1e-8) -> FirstOrderSolution | None:
    """first_order_eig of one 4x4 map, or None if all its eigenvalues are complex."""
    ev, selected, _, x1, real = first_order_eig(np.asarray(m, dtype=complex), realness_tol)
    return FirstOrderSolution(eigenvalues=ev, selected=int(selected), x1=x1) if real else None


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


def zero_order_spectrum(t0: np.ndarray, b_vec: np.ndarray) -> tuple:
    """T0 = V diag(d) V^-1 and y = V^-1 B, over the leading axes of t0 (..., 5, 5)."""
    d, v = np.linalg.eig(t0)
    return d, v, np.linalg.solve(v, b_vec[..., None])[..., 0]


def zero_order_resolvent(spectrum: tuple, lambda0s) -> tuple[np.ndarray, np.ndarray]:
    """x0 = (lambda0 I - T0)^-1 B = V (lambda0 - d)^-1 y for a whole lambda0 axis.

    spectrum = (d, v, y) from zero_order_spectrum over leading axes (...);
    lambda0s is (nl,) or (..., nl), broadcasting against them. Returns x0
    (..., nl, 5) and the mask of regular cells. The one singularity rule: a
    cell is regular when max|lambda0 - d| < COND_LIMIT * min|lambda0 - d|,
    the condition number of lambda0 I - T0 read from its spectrum (a lower
    bound of the 2-norm one); singular cells hold zeros.
    """
    d, v, y = spectrum
    gap = np.asarray(lambda0s, dtype=float)[..., None] - d[..., None, :]
    dist = np.abs(gap)
    regular = dist.max(axis=-1) < COND_LIMIT * dist.min(axis=-1)
    with np.errstate(divide="ignore", invalid="ignore"):
        coef = np.where(regular[..., None], y[..., None, :] / gap, 0.0)
    return coef @ np.swapaxes(v, -1, -2), regular


def solve_zero_order(t0: np.ndarray, b_vec: np.ndarray, lambda0: float) -> ZeroOrderSolution:
    """Solve (lambda0 I - T0) x0 = B for the sender zero-order vector.

    Raises SingularInputError where zero_order_resolvent finds the cell
    singular (lambda0 on or numerically near the spectrum of T0).
    """
    t0 = np.asarray(t0, dtype=complex)
    b_vec = np.asarray(b_vec, dtype=complex)
    (x0,), (regular,) = zero_order_resolvent(zero_order_spectrum(t0, b_vec), [lambda0])
    if not regular:
        raise SingularInputError(
            f"lambda0 = {lambda0} is too close to the spectrum of the zero-order map")
    residual = float(np.linalg.norm(t0 @ x0 + b_vec - lambda0 * x0))
    return ZeroOrderSolution(lambda0=float(lambda0), x0=x0, residual=residual)
