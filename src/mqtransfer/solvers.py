"""Scale-factor extraction.

The double-quantum factor is read off directly. The single-quantum factor is
an eigenvalue of the 4x4 single-quantum map F (rows and columns
FIRST_LABELS), found in closed form. In the constant orthonormal basis
u0 = (13 + 24), u1 = (13 - 24), u2 = (12 + 34), u3 = (12 - 34), each over
sqrt(2), the chain's map G = U F U^T is block upper-triangular: span{u0, u3}
is invariant, G[{u1, u2}, {u0, u3}] = 0, and the quotient block
G[{u1, u2}, {u1, u2}] = c [[s, -r], [-q, p]] with c = k3 (E - 1) =
(-1)^N tanh(b/2)^(N-2) and W = [[p, q], [r, s]] the sender-to-receiver
amplitudes. So the eigenvalues are those of two 2x2 blocks, spec(F) =
c {w1, w2, w1 |w2|^2, w2 |w1|^2} with w1, w2 the eigenvalues of W. The
zero-order sender vector solves a 5x5 linear system in which the zero-order
factor enters as a free real parameter. Each solver works over the leading
axes of stacked matrices; solve_first_order and solve_zero_order are its
batches of one.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache

import numpy as np

from .errors import SingularInputError, ValidationError
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

# off-block entries of G above this times max|F| mean F is not a chain map
BLOCK_TOL = 1e-10


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


@cache
def _first_rotation() -> np.ndarray:
    """U (x) U, so that vec(U m U^T) = (U (x) U) vec(m); built on first use, since
    every numpy operation at import adds to the peak memory of runs that never
    use it. The rows of U are u0, u3, u1, u2 over FIRST_LABELS, in block order:
    G = U F U^T is [[A, C], [0, Q]] with A on {u0, u3} and Q on {u1, u2}."""
    basis = np.sqrt(0.5) * np.array([[0, 1, 1, 0], [1, 0, 0, -1], [0, 1, -1, 0], [1, 0, 0, 1]])
    rotation = np.kron(basis, basis).astype(complex)
    rotation.setflags(write=False)
    return rotation


def _block_form(m: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """G = U m U^T / scale of maps (..., 4, 4), with the matrix axes first, and scale.

    G[i, j] is over (...). scale is the power of two just above max|m| (1
    where m = 0), so dividing by it is exact and keeps G's entries of order
    one: at N = 42 and b = 1e-4 the map's entries are near 1e-169, and the
    eigenvectors, cubic in them, would underflow.
    """
    lead = m.shape[:-2]
    flat = m.transpose(-2, -1, *range(m.ndim - 2)).reshape(16, -1)
    scale = np.ldexp(1.0, np.frexp(abs(flat).max(axis=0))[1])
    return (_first_rotation() @ (flat / scale)).reshape((4, 4) + lead), scale.reshape(lead)[()]


def _null_vector(m00, m01, m10, m11, lam) -> tuple:
    """The larger column of adj(lam - M), a null vector of lam - M at an eigenvalue lam.

    The choice is a 0/1 integer weight: numpy multiplies a complex scalar by
    an integer one far faster than by a boolean one.
    """
    u, v = lam - m00, lam - m11
    first = (abs(m01) + abs(u) >= abs(v) + abs(m10)) + 0
    other = 1 - first
    return first * m01 + other * v, first * u + other * m10


def first_order_eig(m: np.ndarray, realness_tol: float = 1e-8) -> tuple:
    """Largest-modulus real eigenvalue of single-quantum maps (..., 4, 4), and its eigenvector.

    Precondition: each map has the block form of the chain's maps (see the
    module docstring); solve_first_order checks it, the kernel's maps have
    it by construction. The eigenvalues are those of the 2x2 diagonal blocks
    A and Q, from the quadratic formula. Realness means |Im| <= realness_tol
    * max(1, |eigenvalue|). Returns the eigenvalues by descending modulus
    (ties in input order A+, Q+, A-, Q-), the index of the first real one,
    its value lambda1, its gauge-fixed unit vector x1 and the mask of maps
    with a real eigenvalue; where that is False, selected is 0 and lambda1
    and x1 are not meaningful. x1 is U^T (y, z): for an eigenvalue of A,
    z = 0 and y is A's null vector; for one of Q, z is Q's null vector and
    y = (lambda - A)^-1 C z, scaled by det(lambda - A) to stay finite.
    Where that vector is zero (at b = 0, say, where F = 0), x1 is e12.
    """
    g, scale = _block_form(m)
    a00, a01, a10, a11 = g[0, 0], g[0, 1], g[1, 0], g[1, 1]
    q00, q01, q10, q11 = g[2, 2], g[2, 3], g[3, 2], g[3, 3]
    ha, hq = 0.5 * (a00 + a11), 0.5 * (q00 + q11)
    ra = np.sqrt((0.5 * (a00 - a11)) ** 2 + a01 * a10)
    rq = np.sqrt((0.5 * (q00 - q11)) ** 2 + q01 * q10)
    ev = np.array([ha + ra, hq + rq, ha - ra, hq - rq])
    mod = abs(ev)
    # the realness rule, on the unscaled eigenvalues ev * scale
    key = np.where(abs(ev.imag) <= realness_tol * np.maximum(mod, 1.0 / scale), mod, -1.0)
    # the first real eigenvalue down a stable descending-modulus order
    pick = key.argmax(axis=0)
    real = key.max(axis=0) >= 0.0
    order = (-mod).argsort(axis=0, kind="stable")
    selected = (order == pick).argmax(axis=0) * real
    # lam = ev[pick], gathered with 0/1 integer weights
    in_q, sign = pick % 2, 1 - 2 * (pick // 2)
    in_a = 1 - in_q
    lam = in_a * ha + in_q * hq + sign * (in_a * ra + in_q * rq)
    ya0, ya1 = _null_vector(a00, a01, a10, a11, lam)
    z0, z1 = _null_vector(q00, q01, q10, q11, lam)
    cz0 = g[0, 2] * z0 + g[0, 3] * z1
    cz1 = g[1, 2] * z0 + g[1, 3] * z1
    la0, la1 = lam - a00, lam - a11
    det = in_q * (la0 * la1 - a01 * a10)
    y0 = in_a * ya0 + in_q * (la1 * cz0 + a01 * cz1)
    y1 = in_a * ya1 + in_q * (a10 * cz0 + la0 * cz1)
    z0, z1 = det * z0, det * z1
    x = np.array([y1 + z1, y0 + z0, y0 - z0, z1 - y1])  # U^T (y, z), up to sqrt(2)
    norm = np.hypot.reduce(abs(x), axis=0)
    zero = norm == 0.0
    x = x / (norm + zero)
    x[0] += zero
    ev = np.take_along_axis(ev, order, axis=0) * scale
    back = (*range(1, ev.ndim), 0)
    return ev.transpose(back), selected, lam.real * scale, gauge_fix(x.transpose(back)), real


def solve_first_order(m: np.ndarray, realness_tol: float = 1e-8) -> FirstOrderSolution | None:
    """first_order_eig of one 4x4 map, or None if all its eigenvalues are complex.

    Raises ValidationError unless m is a 4x4 map of the chain's block form:
    its off-block entries G[{u1, u2}, {u0, u3}] at most BLOCK_TOL * max|m|.
    """
    m = np.asarray(m, dtype=complex)
    if m.shape != (4, 4):
        raise ValidationError(f"expected a 4x4 single-quantum map, got shape {m.shape}")
    g, scale = _block_form(m)
    if np.abs(g[2:, :2]).max() > BLOCK_TOL * np.abs(m).max() / scale:
        raise ValidationError("map lacks the block-triangular form of a chain's single-quantum map")
    ev, selected, _, x1, real = first_order_eig(m, realness_tol)
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
