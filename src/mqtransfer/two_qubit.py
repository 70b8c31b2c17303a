"""Analytic receiver map for the two-qubit sender block.

The receiver density matrix is linear in the sender one and never mixes
coherence orders: each receiver element of order n is a combination of the
sender elements of the same order, with coefficients built from the three
sender-to-receiver transition amplitudes and the background inverse
temperature b. Basis order is |00>, |01>, |10>, |11> with sender sites
(1, 2) and receiver sites (N-1, N). The map is written once, in
transfer_blocks, as closed-form blocks of the chain's 2x2 transfer matrix
W = [[p, q], [r, p]] of those amplitudes (mirror-symmetric, so its diagonal
entries are equal; chain.amplitude_grids): the single-quantum map in the
constant basis BLOCK_BASIS and the zero-order map in the moments MOMENTS.
The blocks are free of b, which enters the map only through the four
factors of temperature_factors. The region kernel and the solvers read the
blocks once per time and apply the factors per b; alpha_entries assembles
the coefficient table from both. What W's spectrum is, is decided here
too, once and in closed form (transfer_spectrum): its eigenvalues
p +- sqrt(q) sqrt(r), an eigenvector, and where the single-quantum factor
is real.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .chain import AmplitudeSet, ChainSpec, check_inverse_temperature, thermal_weights
from .errors import ValidationError

__all__ = [
    "EXCITATION",
    "ZERO_ROWS",
    "ZERO_COLS",
    "FIRST_LABELS",
    "ONE_BODY",
    "BLOCK_BASIS",
    "MOMENTS",
    "MOMENTS_INVERSE",
    "AlphaTable",
    "decompose_blocks",
    "TransferSpectrum",
    "transfer_spectrum",
    "transfer_blocks",
    "temperature_factors",
    "alpha_entries",
    "alpha_table",
    "receiver_from_sender",
    "validate_density",
    "random_density",
]

# excitation count of the basis states |00>, |01>, |10>, |11>
EXCITATION = (0, 1, 1, 2)

# receiver rows of the zero-order map (element 44 follows from the trace)
ZERO_ROWS = ("11", "22", "33", "23", "32")
# sender elements entering the zero-order map
ZERO_COLS = ("11", "22", "33", "44", "23", "32")
# first-order element order, shared by the map and the scale-factor matrix
FIRST_LABELS = ("12", "13", "24", "34")

_ONE = np.int64(1)
# the (rows, columns) of ZERO_COLS and FIRST_LABELS, and of the receiver entries above the
# diagonal that receiver_from_sender fills: 23, FIRST_LABELS and 14
_ZERO_AT = ((0, 1, 2, 3, 1, 2), (0, 1, 2, 3, 2, 1))
_FIRST_AT = ((0, 0, 1, 2), (1, 2, 3, 3))
_UPPER_AT = ((1, 0, 0, 1, 2, 0), (2, 1, 2, 3, 3, 3))

# Rows u0, u3, u1, u2 over FIRST_LABELS, with u0 = (13 + 24), u1 = (13 - 24),
# u2 = (12 + 34) and u3 = (12 - 34), each over sqrt(2): U of the block form
# G = U F U^T = [[A, C], [0, Q]] of the single-quantum map (transfer_blocks)
BLOCK_BASIS = np.sqrt(0.5) * np.array([[0, 1, 1, 0], [1, 0, 0, -1], [0, 1, -1, 0], [1, 0, 0, 1]])
# z = MOMENTS x takes the zero-order sender vector x = (rho11, rho22, rho33,
# rho23, rho32) to its moments: the one-body matrix X, with z0 = X00 and
# z1 = X11 the occupations less one (-rho11 - rho22, -rho11 - rho33),
# z2 = X01 = rho23 and z3 = X10 = rho32, and z4 = -rho11 - rho22 - rho33,
# rho44 less one
MOMENTS = np.array([[-1, -1, 0, 0, 0], [-1, 0, -1, 0, 0], [0, 0, 0, 1, 0],
                    [0, 0, 0, 0, 1], [-1, -1, -1, 0, 0]], dtype=float)
MOMENTS_INVERSE = np.array([[-1, -1, 0, 0, 1], [0, 1, 0, 0, -1], [1, 0, 0, 0, -1],
                            [0, 0, 1, 0, 0], [0, 0, 0, 1, 0]], dtype=float)
# complex copies for alpha_entries, whose products with complex arrays would cast them each call
_BLOCK_BASIS_C, _MOMENTS_C, _MOMENTS_INVERSE_C = (x.astype(complex)
                                                  for x in (BLOCK_BASIS, MOMENTS, MOMENTS_INVERSE))
for _matrix in (BLOCK_BASIS, MOMENTS, MOMENTS_INVERSE, _BLOCK_BASIS_C, _MOMENTS_C, _MOMENTS_INVERSE_C):
    _matrix.setflags(write=False)
# the entry X_ij of the one-body matrix held by z0..z3
ONE_BODY = ((0, 0), (1, 1), (0, 1), (1, 0))


def _hermitian(rho: np.ndarray) -> np.ndarray:
    """rho as a complex array, once it is 4x4 and Hermitian within 1e-12."""
    rho = np.asarray(rho, dtype=complex)
    if rho.shape != (4, 4):
        raise ValidationError(f"expected a 4x4 matrix, got shape {rho.shape}")
    if np.max(np.abs(rho - rho.conj().T)) > 1e-12:
        raise ValidationError("matrix is not Hermitian within 1e-12")
    return rho


def validate_density(rho: np.ndarray) -> np.ndarray:
    """Check that a 4x4 matrix is Hermitian and of unit trace within 1e-12 (not positivity)."""
    rho = _hermitian(rho)
    if abs(np.trace(rho).real - 1.0) > 1e-12 or abs(np.trace(rho).imag) > 1e-12:
        raise ValidationError("matrix trace is not 1 within 1e-12")
    return rho


def random_density(rng: np.random.Generator) -> np.ndarray:
    """Random full-rank two-qubit density matrix (Ginibre construction)."""
    g = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    rho = g @ g.conj().T
    return rho / np.trace(rho).real


def decompose_blocks(rho: np.ndarray) -> dict[int, np.ndarray]:
    """Split a Hermitian 4x4 matrix into its coherence-order blocks n = -2..2.

    Block n keeps exactly the elements (i, j) with exc(j) - exc(i) = n and
    zeroes everywhere else; the blocks sum back to the full matrix.
    """
    rho = _hermitian(rho)
    exc = np.array(EXCITATION)
    order = exc[None, :] - exc[:, None]
    return {n: np.where(order == n, rho, 0.0) for n in range(-2, 3)}


@dataclass(frozen=True)
class TransferSpectrum:
    """W's eigen-data over the shape of its entries (transfer_spectrum).

    big and small are the eigenvalues, the larger in modulus first; (v0, v1)
    is an eigenvector for big, and real the mask where the single-quantum
    factor is real at b > 0.
    """

    big: np.ndarray
    small: np.ndarray
    v0: np.ndarray
    v1: np.ndarray
    real: np.ndarray


def transfer_spectrum(p, q, r, n_sites: int) -> TransferSpectrum:
    """The eigen-data of the chain's transfer matrix W = [[p, q], [r, p]], over the shape of p, q, r.

    With equal diagonal entries, W (sqrt q, +-sqrt r) = (p +- sqrt(q) sqrt(r)) (sqrt q, +-sqrt r):
    big and small are p +- sqrt(q) sqrt(r), the larger in modulus first (the + root on a
    tie), and (v0, v1) = (sqrt q, +-sqrt r) an eigenvector for big, zero only where
    q = r = 0 (W = p I). The square roots are taken apart, so their product does not
    underflow where q r would.

    real marks where the single-quantum factor lambda1 is real at b > 0. The single-quantum
    map has spec(F) = c {w1, w2, w1 |w2|^2, w2 |w1|^2} with c = theta tau real
    (transfer_blocks), so it is real exactly where W's eigenvalues are. For even N, p is real
    and q, r are imaginary (chain.amplitude_grids), so q r is real and the eigenvalues are
    real where q r >= 0, read as -Im q Im r >= 0 from the parts the parity leaves; then all
    four eigenvalues of F are real and lambda1 = c big (mqtransfer.solvers). For odd N, p is
    imaginary and q r real, so W has a real eigenvalue only where tr W = 0 or det W = 0
    exactly, a set of measure zero, and the mask is empty. At b = 0, tau = 0 makes F = 0, real
    everywhere (mqtransfer.states.region_points adds that case).
    """
    v0, v1 = np.sqrt(q), np.sqrt(r)
    root = v0 * v1
    # a 0/1 integer weight: numpy multiplies a complex number by an integer far faster
    # than by a boolean
    sign = 1 - 2 * _ONE * (abs(p - root) > abs(p + root))
    return TransferSpectrum(p + sign * root, p - sign * root, v0, sign * v1,
                            (n_sites % 2 == 0) & (q.imag * r.imag <= 0.0))


def transfer_blocks(p, q, r) -> tuple:
    """The map's b-free blocks of the transfer matrix W = [[p, q], [r, p]]: (first, zero, second).

    p, q and r are scalars or arrays of one shape (chain.amplitude_grids), and every entry
    below is over their axes; a 2x2 block is given as its entries (00, 01, 10, 11). The
    inverse temperature b enters the map only through the four factors of
    temperature_factors: theta, tau = tanh(b/2), n = 1 / (1 + e^-b) and k = e^-b n. With
    d = det W = p^2 - q r:

    - first = (A, C, Q): in BLOCK_BASIS the single-quantum map is
      G = U F U^T = theta [[tau A, C], [0, tau Q]], with A = d conj(W),
      C = -[[conj(p) d - p, conj(q) d + r], [conj(r) d + q, conj(p) d - p]] and
      Q = [[p, -r], [-q, p]] = adj(W)^T;
    - zero = (R, S): in the moments z = M x (MOMENTS) the zero-order map
      G = M T0 M^-1 has G[:4, :4] = X -> W^H X W, with entry (X_ij, X_kl) = conj(W_ki) W_lj
      over ONE_BODY, and G[:4, 4] = 0; the z4 row is G[4] = (k R0, k R1, k R2, k R3, R4)
      with R = (|p|^2 + |q|^2 - |d|^2, |r|^2 + |p|^2 - |d|^2, -(p conj(r) + q conj(p)),
      its conjugate, |d|^2), and the inhomogeneity is M B = (n S0, n S1, n S2, n S3,
      n^2 (|d|^2 - 1) + n k S4) with S = (|p|^2 + |r|^2 - 1, |q|^2 + |p|^2 - 1,
      -(p conj(q) + r conj(p)), its conjugate, 2 |p|^2 + |q|^2 + |r|^2 - 2);
    - second = d, the double-quantum coefficient.

    They reproduce the hand-expanded coefficient table of tests/reference.py at the
    chain's amplitudes.
    """
    cp, cq, cr = np.conj(p), np.conj(q), np.conj(r)
    d = p * p - q * r
    dcp = d * cp
    first = ((dcp, d * cq, d * cr, dcp), (p - dcp, -(cq * d + r), -(cr * d + q), p - dcp),
             (p, -r, -q, p))
    ap, aq, ar, ad = (abs(x) ** 2 for x in (p, q, r, d))
    r2 = -(p * cr + q * cp)
    s2 = -(p * cq + r * cp)
    zero = ((-(ad - ap - aq), -(ad - ar - ap), r2, np.conj(r2), ad),
            (ap + ar - 1.0, aq + ap - 1.0, s2, np.conj(s2), ap + aq + ar + ap - 2.0))
    return first, zero, d


def temperature_factors(b, n_sites: int) -> tuple:
    """theta, tau, n and k of transfer_blocks at inverse temperatures b (any shape).

    tau = tanh(b/2), theta = (-1)^N tau^(N-3) and the background weights
    n = 1 / (1 + e^-b) and k = e^-b n (chain.thermal_weights), all finite
    at every b >= 0.
    """
    n, k = thermal_weights(b)
    tau = np.tanh(0.5 * b)
    return (-1) ** n_sites * tau ** (n_sites - 3), tau, n, k


# where alpha_entries puts the entries of (A, C, Q) of transfer_blocks in the 4x4 G =
# [[tau A, C], [0, tau Q]], and the products conj(w_a) w_b of w = (p, q, r), as 3 a + b,
# in the one-body block conj(W_ki) W_lj over ONE_BODY of the zero-order G
_G_AT = ((0, 0, 1, 1, 0, 0, 1, 1, 2, 2, 3, 3), (0, 1, 0, 1, 2, 3, 2, 3, 2, 3, 2, 3))
_ONE_BODY_AT = np.array([(0, 8, 2, 6), (4, 0, 3, 1), (1, 6, 0, 7), (3, 2, 5, 0)])


def alpha_entries(p, q, r, b, n_sites: int) -> tuple:
    """All map coefficients, stacked as (first, zero, second).

    p, q, r are f_{1,N-1} = f_{2,N}, f_{1,N} and f_{2,N-1} (chain.amplitude_grids): scalars
    or arrays of one shape, whose axes lead the results, and b is a scalar. first is
    (..., 4, 4) with rows and columns FIRST_LABELS, zero is (..., 5, 6) with
    rows ZERO_ROWS and columns ZERO_COLS, and second is the double-quantum
    coefficient (...).
    All are assembled from transfer_blocks and temperature_factors:
    first = U^T G U, T0 = M^-1 G M and B = M^-1 (M B), and zero is
    [T0[:, :3] + B | B | T0[:, 3:]].
    """
    (a, c, q_block), (row, source), second = transfer_blocks(p, q, r)
    theta, tau, n, k = temperature_factors(b, n_sites)
    blocks = np.array((*a, *c, *q_block))
    blocks[:4] *= tau
    blocks[8:] *= tau
    g = np.zeros((4, 4) + blocks.shape[1:], dtype=complex)
    g[_G_AT] = blocks
    first = theta * (_BLOCK_BASIS_C.T @ g.transpose(*range(2, g.ndim), 0, 1) @ _BLOCK_BASIS_C)
    # conj(w_a) w_b from the real and imaginary parts, so that each rounds as a product of
    # complex scalars does: numpy fuses the multiply-adds of a complex array product
    w = np.array((p, q, r), dtype=complex)
    x, y = w.real[:, None], w.imag[:, None]
    products = np.stack((x * w.real + y * w.imag, x * w.imag - y * w.real), -1).view(complex)
    g = np.zeros((5, 5) + blocks.shape[1:], dtype=complex)
    g[:4, :4] = products.reshape(9, *blocks.shape[1:])[_ONE_BODY_AT]
    g[4, :4], g[4, 4] = k * np.array(row[:4]), row[4]
    t0 = _MOMENTS_INVERSE_C @ g.transpose(*range(2, g.ndim), 0, 1) @ _MOMENTS_C
    mb = n * np.array((*source[:4], n * (row[4] - 1.0) + k * source[4]))
    b_vec = mb.transpose(*range(1, mb.ndim), 0) @ _MOMENTS_INVERSE_C.T
    zero = np.concatenate([t0[..., :3] + b_vec[..., None], b_vec[..., None], t0[..., 3:]], axis=-1)
    return first, zero, second


@dataclass(frozen=True)
class AlphaTable:
    """Coefficients of the sender-to-receiver map at fixed (t, b).

    zero has rows ZERO_ROWS and columns ZERO_COLS; first has rows and
    columns FIRST_LABELS; second is the single double-quantum coefficient.
    Conjugation pairs (rows 23/32, columns 23/32) are consistent by
    construction.
    """

    n_sites: int
    b: float
    zero: np.ndarray
    first: np.ndarray
    second: complex

    def coeff(self, receiver: str, sender: str) -> complex:
        """Single coefficient by element labels, e.g. coeff('11', '23')."""
        if receiver in ZERO_ROWS and sender in ZERO_COLS:
            return complex(self.zero[ZERO_ROWS.index(receiver), ZERO_COLS.index(sender)])
        if receiver in FIRST_LABELS and sender in FIRST_LABELS:
            return complex(self.first[FIRST_LABELS.index(receiver), FIRST_LABELS.index(sender)])
        if receiver == "14" and sender == "14":
            return complex(self.second)
        raise KeyError(f"no coefficient for receiver {receiver}, sender {sender}")


def alpha_table(amps: AmplitudeSet, b: float, spec: ChainSpec) -> AlphaTable:
    """Evaluate the full coefficient table at one (t, b) point."""
    check_inverse_temperature(b)
    first, zero, second = alpha_entries(amps.f11, amps.f1n, amps.f21, b, spec.n_sites)
    return AlphaTable(n_sites=spec.n_sites, b=b, zero=zero, first=first, second=complex(second))


def receiver_from_sender(table: AlphaTable, rho_s: np.ndarray) -> np.ndarray:
    """Map a sender matrix through the transfer at the table's (t, b).

    Element (4,4) is fixed by the unit trace; the lower triangle follows by
    Hermiticity. The input must be Hermitian with unit trace; it need not be
    positive (the map is linear), but a positive sender failing to produce a
    positive receiver is flagged, since the physical map preserves positivity.
    """
    rho_s = validate_density(rho_s)
    z = table.zero @ rho_s[_ZERO_AT]
    out = np.zeros((4, 4), dtype=complex)
    out[0, 0], out[1, 1], out[2, 2] = z[0].real, z[1].real, z[2].real
    upper = np.concatenate([z[3:4], table.first @ rho_s[_FIRST_AT], [table.second * rho_s[0, 3]]])
    out[_UPPER_AT] = upper
    out[_UPPER_AT[::-1]] = np.conj(upper)
    out[3, 3] = 1.0 - out[0, 0] - out[1, 1] - out[2, 2]
    # the receiver first: a positive one, the common case, needs no eigvalsh of the sender
    if np.linalg.eigvalsh(out).min() < -1e-8 and np.linalg.eigvalsh(rho_s).min() >= -1e-10:
        warnings.warn("receiver of a positive sender failed positivity at 1e-8",
                      RuntimeWarning, stacklevel=2)
    return out

