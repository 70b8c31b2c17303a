"""Scale-factor extraction.

The double-quantum factor is read off directly. The single-quantum factor is
an eigenvalue of the 4x4 single-quantum map F (rows and columns
FIRST_LABELS), found in closed form from its blocks: in the constant basis
BLOCK_BASIS the map is G = U F U^T = theta [[tau A, C], [0, tau Q]] with
tau = tanh(b/2) (mqtransfer.two_qubit.transfer_blocks), so its eigenvalues
are c = theta tau = (-1)^N tanh(b/2)^(N-2) times those of the 2x2 blocks A
and Q, spec(F) = c {w1, w2, w1 |w2|^2, w2 |w1|^2} with w1, w2 the
eigenvalues of the chain's transfer matrix W = [[p, q], [r, p]]. W is a 2x2
block of the unitary propagator e^{-iht}, so ||W||_2 <= 1 and
|w_i| |w_j|^2 <= |w_i|, and the factor is always lambda1 = c w_big, w_big the
larger eigenvalue of W. W's eigen-data, and where its eigenvalues are real
(then all four are), come in closed form from
mqtransfer.two_qubit.transfer_spectrum; no 2x2 eigenproblem is solved here.
The zero-order sender vector solves the 5x5 system
(lambda0 I - T0) x0 = B, in which the zero-order factor lambda0 enters as a
free real parameter, also in closed form. In the moments
z = M x (MOMENTS) the map M T0 M^-1 is block lower-triangular, with the
one-body block X -> W^H X W and the last entry |det W|^2, so spec(T0) =
{|w1|^2, |w2|^2, w1 conj(w2), w2 conj(w1), |det W|^2}; with the Schur form of
W the system is triangular, and solve_zero_order solves it by
back-substitution, for many lambda0 at a time. The inverse
temperature b enters both maps only through four factors (theta, tau, n and
k of mqtransfer.two_qubit.temperature_factors), so each solver is split in
two: solve_first_order and solve_zero_order solve the b-free problems once
per time (and lambda0), and first_order_at and zero_order_at are the cheap
temperature steps that apply the factors of one b. All of them work over
the leading axes of the blocks of transfer_blocks, which the region kernel
(mqtransfer.states) passes them; a point is a batch of shape (), and lambda0
broadcasts against the spectrum by numpy's rules alone (solve_zero_order).
"""

from __future__ import annotations

import numpy as np

from .errors import ValidationError
from .two_qubit import AlphaTable, TransferSpectrum

__all__ = [
    "check_lambda0",
    "solve_first_order",
    "first_order_at",
    "zero_order_system",
    "zero_order_spectrum",
    "solve_zero_order",
    "zero_order_at",
    "gauge_fix",
]

COND_LIMIT = 1e10

_ONE = np.int64(1)
_TINY = np.finfo(float).tiny


def check_lambda0(lambda0) -> None:
    """Reject a zero-order factor lambda0 unless finite."""
    if not np.isfinite(lambda0):
        raise ValidationError(f"lambda0 must be finite, got {lambda0}")


def gauge_fix(vec: np.ndarray) -> np.ndarray:
    """Rotate vectors (last axis) so each largest-modulus component is real positive."""
    vec = np.asarray(vec, dtype=complex)
    at = np.abs(vec).argmax(axis=-1)  # one vector is indexed: take_along_axis costs ~8 us
    pick = vec[at] if vec.ndim == 1 else np.take_along_axis(vec, at[..., None], axis=-1)
    return vec * np.exp(-1j * np.arctan2(pick.imag, pick.real))


def solve_first_order(first: tuple, w: TransferSpectrum) -> tuple:
    """The b-free single-quantum eigenproblem of H = [[A, C], [0, Q]], for first_order_at.

    first is the blocks (A, C, Q) of mqtransfer.two_qubit.transfer_blocks, each as its
    entries (00, 01, 10, 11) over leading axes (...), and w the eigen-data of the same W
    (two_qubit.transfer_spectrum), from which H's eigen-data is read. The single-quantum
    map is G = theta [[tau A, C], [0, tau Q]] = D (theta tau H) D^-1 with
    D = diag(1, 1, tau, tau), so its eigenvalues are c = theta tau times those of H: of
    Q = [[p, -r], [-q, p]], W's eigenvalues w_big and w_small, and of A = d conj(W),
    d conj(w_big) = w_small |w_big|^2 and d conj(w_small) = w_big |w_small|^2, which come
    in that order by descending modulus as |w| <= 1; an eigenvector (y, z) of H gives
    (y, tau z) of G. z = (v1, -v0) is Q's eigenvector for w_big, for W's (v0, v1), and
    y = (w_big - A)^-1 C z, scaled by det(w_big - A) to stay finite. The blocks and the
    eigenvalues are first divided by the blocks' largest entry, size, so that the products
    that form y and the determinant stay clear of underflow where W is small (early times).
    Returns size, the four eigenvalues of H over size (..., 4), y and z (each as its
    entries 0 and 1) and d = det(w_big - A): (y, d z) is an eigenvector of H for w_big.
    """
    a, c, q = first
    # at least the smallest normal number: numpy divides a complex number by a
    # subnormal one through its reciprocal, which overflows
    size = np.maximum(abs(np.array([*a, *c, *q])).max(axis=0), _TINY)
    a00, a01, a10, _ = (x / size for x in a)
    c00, c01, c10, c11 = (x / size for x in c)
    big, small = w.big / size, w.small / size
    ev = np.array([big, small, small * abs(w.big) ** 2, big * abs(w.small) ** 2])
    z0, z1 = w.v1, -w.v0
    cz0 = c00 * z0 + c01 * z1
    cz1 = c10 * z0 + c11 * z1
    la = big - a00  # A's diagonal entries are equal
    y = (la * cz0 + a01 * cz1, a10 * cz0 + la * cz1)
    det = (big - ev[2]) * (big - ev[3])
    return size, ev.transpose(*range(1, ev.ndim), 0), y, det, (z0, z1)


def first_order_at(first: tuple, theta, tau) -> tuple:
    """The temperature step of the single-quantum factor: solve_first_order's H at theta and tau.

    theta and tau broadcast against the leading axes of first. Returns the
    four eigenvalues of G (..., 4), the real part lambda1 of the first and
    its gauge-fixed unit vector x1 (..., 4); where lambda1 is not real
    (mqtransfer.two_qubit.transfer_spectrum) they are not meaningful. Where the
    eigenvalues are 0 in floating point (at b = 0, say, where F = 0) or the
    vector is zero, x1 is e12.
    """
    size, ev, (y0, y1), det, (z0, z1) = first
    scale = theta * tau * size
    weight = det * tau
    z0, z1 = weight * z0, weight * z1
    x = np.array([y1 + z1, y0 + z0, y0 - z0, z1 - y1])  # U^T (y, tau z), up to sqrt(2)
    norm = np.hypot.reduce(abs(x), axis=0)
    zero = _ONE * ((norm == 0.0) | (scale == 0.0))
    x = x * (1 - zero) / np.maximum(norm, _TINY)
    x[0] += zero
    ev = ev * np.asarray(scale)[..., None]
    return ev, ev[..., 0].real, gauge_fix(x.transpose(*range(1, x.ndim), 0))


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


def zero_order_spectrum(w: TransferSpectrum, row, source) -> tuple:
    """The lambda0- and b-free part of (lambda0 I - T0)^-1 B, over leading axes (...).

    The system is given by W's eigen-data (mqtransfer.two_qubit.transfer_spectrum) and its
    b-free blocks in the moments (see the module docstring and
    mqtransfer.two_qubit.transfer_blocks), each as its entries: the z4 row R of
    G = M T0 M^-1 and the inhomogeneity S of M B. X -> W^H X W does not change when
    W -> e^{i phi} W, so W is needed only up to a phase. It is put in the Schur form
    W = Q T Q^H, T = [[t00, t01], [0, t11]], with t00 = w_big, t11 = w_small and Q's first
    column (a, b) the unit eigenvector (v0, v1) = (sqrt q, +-sqrt r) of w_big (Q = I where
    q = r = 0). Then t01 = conj(a)^2 q - conj(b)^2 r = |q| - |r|, which is real. Returns
    over (...), in this order: the exact spectrum of T0 as |t00|^2, |t11|^2, |det W|^2 and
    conj(t00) t11 (the fifth eigenvalue is its conjugate); entries 00, 11 and 01 of
    Q^H C Q for the one-body part C of S; the couplings conj(t00) t01, |t01|^2 and
    2 t01 t11 of the triangular rows; S4 and the z4 row as entries 00, 11 and 2 conj(01)
    of Q^H R Q; and Q as |a|^2, 2 a b, a conj(b), a^2 and conj(b)^2.
    """
    t00, t11, a, b = w.big, w.small, w.v0, w.v1
    g40, g41, _, g43, g44 = row
    m0, m1, m2, _, m4 = source
    aa, bb = abs(a) ** 2, abs(b) ** 2
    t01 = aa - bb
    norm = (aa + bb) ** 0.5
    zero = norm == 0.0
    a, b = a / (norm + zero) + zero, b / (norm + zero)
    ca, cb = np.conj(a), np.conj(b)
    ct00, cacb, caca, cbcb = np.conj(t00), ca * cb, ca * ca, cb * cb
    s = abs(a) ** 2
    # Q^H H Q for the Hermitian C = [[m0, m2], [., m1]] and, for the z4 row
    # g40 X00 + g41 X11 + g42 X01 + g43 X10 = tr(R X), R = [[g40, g43], [., g41]]:
    # entries 00 and 01 (11 is the trace less 00)
    m0, m1, g40, g41 = m0.real, m1.real, g40.real, g41.real
    c00 = m1 + s * (m0 - m1) + 2.0 * (ca * m2 * b).real
    e00 = g41 + s * (g40 - g41) + 2.0 * (ca * g43 * b).real
    c01 = (m1 - m0) * cacb + m2 * caca - np.conj(m2) * cbcb
    e01 = (g41 - g40) * cacb + g43 * caca - np.conj(g43) * cbcb
    return (abs(t00) ** 2, abs(t11) ** 2, g44.real, ct00 * t11,
            c00, m0 + m1 - c00, c01, ct00 * t01, t01 * t01, 2.0 * t01 * t11,
            m4.real, e00, g40 + g41 - e00, 2.0 * np.conj(e01),
            s, 2.0 * a * b, a * cb, a * a, cbcb)


def solve_zero_order(spectrum: tuple, lambda0s) -> tuple:
    """The lambda0 stage: (lambda0 I - T0) z = M B at unit sources, at every cell.

    spectrum comes from zero_order_spectrum, and lambda0s broadcasts against its
    axes by numpy's rules alone: the cells are np.broadcast_shapes of the two (a
    spectrum over (nt, 1) and lambda0s over (nl,) give (nt, nl), a point and a
    scalar lambda0 numpy scalars). In the moments the system is the Stein
    equation lambda0 X - W^H X W = n C on the one-body matrix, and with
    Y = Q^H X Q it is triangular: Y00, then Y01 (Y10 = conj Y01), then Y11, each over
    its own pole; z4 follows from its row, over the pole |det W|^2. Every source
    is n or k times a b-free one (mqtransfer.two_qubit.transfer_blocks), so one
    back-substitution at n = k = 1 serves every b (zero_order_at). Returns, over
    the cells, the one-body solution X at n = 1 as X00, X11 and X01; the three
    terms of rho44 = 1 + z4 = P + k (2 - k) Q + n k Z, from n^2 = 1 - k (2 - k):
    P = (lambda0 - 1) / (lambda0 - |det W|^2),
    Q = (1 - |det W|^2) / (lambda0 - |det W|^2) and Z, the z4 of the one-body solution and of the source S4; and
    the mask of regular cells. The one singularity rule: a cell is regular when
    max|lambda0 - d| < COND_LIMIT * min|lambda0 - d| over the exact spectrum d
    of T0 (formed as max / COND_LIMIT < min, which cannot overflow at any finite
    lambda0); singular cells hold zeros.
    """
    lam = np.asarray(lambda0s, dtype=float)[()]
    (d0, d1, d4, dp, c00, c11, c01, f01, f11, f10, m4, e00, e11, e10,
     s, ab, acb, aa, cbb) = spectrum
    g0, g1, g4, gp = lam - d0, lam - d1, lam - d4, lam - dp
    dist = np.array([abs(g0), abs(g1), abs(g4), abs(gp)])
    # 1/gap in regular cells and 0 in the others, where a gap may vanish
    keep = _ONE * (dist.max(axis=0) / COND_LIMIT < dist.min(axis=0))
    i0, i1, i4, ip = (keep / (g + (g == 0.0)) for g in (g0, g1, g4, gp))
    y00 = c00 * i0
    y01 = (c01 + f01 * y00) * ip
    y11 = (c11 + f11 * y00 + (f10 * y01).real) * i1
    z = (m4 + e00 * y00 + e11 * y11 + (e10 * y01).real) * i4
    trace, dy = y00 + y11, y00 - y11
    x00 = y11 + s * dy - (ab * y01).real
    x01 = dy * acb + aa * y01 - cbb * np.conj(y01)
    return (x00, trace - x00, x01, (lam - 1.0) * i4, (1.0 - d4) * i4, z), keep == 1


def zero_order_at(unit: tuple, n, k) -> tuple:
    """The temperature step of the zero-order vector: solve_zero_order's solution at n and k.

    n and k (chain.thermal_weights) broadcast against unit's cells
    (mqtransfer.states.region_cells). Returns the base state's
    entries rho11, rho22, rho33, rho44 and rho23 over the cells. z4 = n k Z - n^2 Q is
    formed directly, so it keeps its precision where it is small (large
    lambda0), and rho44 = 1 + z4 from its own row in powers of k = 1 - n,
    so it keeps its relative precision where it is of order e^-2b (large b);
    the others are n X less z4.
    """
    x00, x11, x01, p, q, z = unit
    nkz = (n * k) * z
    z4 = nkz - (n * n) * q
    x00, x11 = n * x00, n * x11
    return z4 - x00 - x11, x11 - z4, x00 - z4, p + (k * (2.0 - k)) * q + nkz, n * x01
