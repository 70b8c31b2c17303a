"""Analytic receiver map for the two-qubit sender block.

The receiver density matrix is linear in the sender one and never mixes
coherence orders: each receiver element of order n is a combination of the
sender elements of the same order, with coefficients built from the four
sender-to-receiver transition amplitudes and the background inverse
temperature b. Basis order is |00>, |01>, |10>, |11> with sender sites
(1, 2) and receiver sites (N-1, N).
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .chain import AmplitudeSet, ChainSpec, check_inverse_temperature
from .errors import ValidationError

__all__ = [
    "EXCITATION",
    "ZERO_ROWS",
    "ZERO_COLS",
    "FIRST_LABELS",
    "CoherenceBlocks",
    "AlphaTable",
    "decompose_blocks",
    "alpha_entries",
    "alpha_table",
    "receiver_from_sender",
    "operator_coefficients",
    "matrix_from_coefficients",
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

_IDX = {"1": 0, "2": 1, "3": 2, "4": 3}


def validate_density(rho: np.ndarray, *, herm_tol: float = 1e-12,
                     trace_tol: float = 1e-12, psd_tol: float | None = 1e-10) -> np.ndarray:
    """Check Hermiticity, unit trace and (optionally) positivity of a 4x4 state."""
    rho = np.asarray(rho, dtype=complex)
    if rho.shape != (4, 4):
        raise ValidationError(f"expected a 4x4 matrix, got shape {rho.shape}")
    if np.max(np.abs(rho - rho.conj().T)) > herm_tol:
        raise ValidationError("matrix is not Hermitian within tolerance")
    if abs(np.trace(rho).real - 1.0) > trace_tol or abs(np.trace(rho).imag) > trace_tol:
        raise ValidationError("matrix trace is not 1 within tolerance")
    if psd_tol is not None and np.linalg.eigvalsh(rho).min() < -psd_tol:
        raise ValidationError("matrix has an eigenvalue below -psd_tol")
    return rho


def random_density(rng: np.random.Generator, dim: int = 4) -> np.ndarray:
    """Random full-rank density matrix (Ginibre construction)."""
    g = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    rho = g @ g.conj().T
    return rho / np.trace(rho).real


@dataclass(frozen=True)
class CoherenceBlocks:
    """Decomposition of a 4x4 matrix into coherence orders -2..2.

    Block n keeps exactly the elements (i, j) with exc(j) - exc(i) = n and
    zeroes everywhere else; the blocks sum back to the full matrix.
    """

    blocks: dict

    def block(self, n: int) -> np.ndarray:
        return self.blocks[n]

    def to_matrix(self) -> np.ndarray:
        return sum(self.blocks.values())


def decompose_blocks(rho: np.ndarray) -> CoherenceBlocks:
    """Split a Hermitian 4x4 matrix into its coherence-order blocks."""
    rho = np.asarray(rho, dtype=complex)
    if rho.shape != (4, 4):
        raise ValidationError(f"expected a 4x4 matrix, got shape {rho.shape}")
    if np.max(np.abs(rho - rho.conj().T)) > 1e-12:
        raise ValidationError("matrix is not Hermitian within 1e-12")
    exc = np.array(EXCITATION)
    order = exc[None, :] - exc[:, None]
    blocks = {}
    for n in range(-2, 3):
        blocks[n] = np.where(order == n, rho, 0.0)
    return CoherenceBlocks(blocks=blocks)


def _thermal_factors(b, n_sites: int) -> tuple:
    """exp(b) and the background factors k1..k4 of the coefficient table."""
    E = np.exp(b)
    k1 = 1.0 / (1.0 + E)
    k2 = 1.0 / (2.0 * (1.0 + np.cosh(b)))
    th = np.tanh(b / 2.0) ** (n_sites - 3)
    k3 = (-1) ** n_sites * np.exp(-b / 2.0) * th / (2.0 * np.cosh(b / 2.0))
    k4 = (-1) ** n_sites * np.exp(b / 2.0) * th / (2.0 * np.cosh(b / 2.0))
    return E, k1, k2, k3, k4


def alpha_entries(p, q, r, s, b, n_sites: int) -> tuple:
    """All map coefficients, stacked as (first, zero, second).

    p, q, r, s are f_{1,N-1}, f_{1,N}, f_{2,N-1}, f_{2,N}: scalars or arrays
    of one shape, and b a scalar or an array that broadcasts against them;
    the broadcast axes lead the results. first is (..., 4, 4) with rows
    and columns FIRST_LABELS, zero is (..., 5, 6) with rows ZERO_ROWS and
    columns ZERO_COLS, and second is the double-quantum coefficient (...).
    """
    if np.ndim(b):
        # entries that depend on the amplitudes only must carry the axes of b too
        p, q, r, s, b = np.broadcast_arrays(p, q, r, s, b)
    E, k1, k2, k3, k4 = _thermal_factors(b, n_sites)
    w = q * r - p * s
    cj = np.conj
    ap, aq, ar, as_ = abs(p) ** 2, abs(q) ** 2, abs(r) ** 2, abs(s) ** 2

    r11 = [
        k1**2 * (E**2 + E * (ap + aq + ar + as_) + abs(w) ** 2),
        k2 * (-(E + aq) * (ar - 1) + (-E * s + q * r * cj(p)) * cj(s)
              + p * (s * cj(q) * cj(r) + cj(p) * (1 - as_))),
        k2 * (E + ar + as_ - p * (cj(p) * (E + as_) - s * cj(q) * cj(r))
              - q * (E * cj(q) + r * (cj(q) * cj(r) - cj(p) * cj(s)))),
        k2 * E * ((aq - 1) * (ar - 1) - (s + q * r * cj(p)) * cj(s)
                  + p * (cj(p) * (as_ - 1) - s * cj(q) * cj(r))),
        k1 * E * (p * cj(r) + q * cj(s)),
    ]
    r22 = [
        k1**2 * (-(aq - 1) * (E + ar) + (q * r * cj(p) - E * s) * cj(s)
                 + p * (s * cj(q) * cj(r) + cj(p) * (1 - as_))),
        k1**2 * (E * (aq - 1) * (ar - 1) + E * (E * s - q * r * cj(p)) * cj(s)
                 + p * (cj(p) * (1 + E * as_) - E * s * cj(q) * cj(r))),
        k1**2 * (E + ar + E * (aq * (E + ar) - (s + q * r * cj(p)) * cj(s)
                               + p * (cj(p) * (as_ - 1) - s * cj(q) * cj(r)))),
        k1**2 * E * (-(1 + E * aq) * (ar - 1) + E * (s + q * r * cj(p)) * cj(s)
                     - p * (cj(p) * (1 + E * as_) - E * s * cj(q) * cj(r))),
        k1 * (p * cj(r) - E * q * cj(s)),
    ]
    r33 = [
        k1**2 * (E + aq + as_ - r * ((E + aq) * cj(r) - q * cj(p) * cj(s))
                 - p * (cj(p) * (E + as_) - s * cj(q) * cj(r))),
        k1**2 * (E + aq + E * (-as_ + r * ((E + aq) * cj(r) - q * cj(p) * cj(s))
                               + p * (cj(p) * (as_ - 1) - s * cj(q) * cj(r)))),
        k1**2 * (as_ + E * ((aq - 1) * (ar - 1) - q * r * cj(p) * cj(s))
                 + E * p * (cj(p) * (E + as_) - s * cj(q) * cj(r))),
        -k2 * (aq + as_ - 1 + E * (r * ((aq - 1) * cj(r) - q * cj(p) * cj(s))
                                   + p * (cj(p) * (as_ - 1) - s * cj(q) * cj(r)))),
        k1 * (q * cj(s) - E * p * cj(r)),
    ]
    # the 32 column of the population rows is the conjugate of the 23 column
    for row in (r11, r22, r33):
        row.append(cj(row[4]))
    r23 = [
        k1 * (p * cj(q) + r * cj(s)),
        k1 * (p * cj(q) - E * r * cj(s)),
        k1 * (r * cj(s) - E * p * cj(q)),
        -k1 * E * (p * cj(q) + r * cj(s)),
        p * cj(s),
        r * cj(q),
    ]
    # row 32 is row 23 conjugated, with the 23 and 32 columns swapped
    r32 = [cj(r23[k]) for k in (0, 1, 2, 3, 5, 4)]

    first = [
        [k3 * (E * s + w * cj(p)), -k3 * (E * q - w * cj(r)),
         k4 * (q - w * cj(r)), k4 * (s + w * cj(p))],
        [-k3 * (p * s * cj(q) + r * (E - aq)), k3 * (q * r * cj(s) + p * (E - as_)),
         k4 * (p * (as_ - 1) - q * r * cj(s)), k4 * (r * (aq - 1) - p * s * cj(q))],
        [k3 * (r * (aq - 1) - p * s * cj(q)), k3 * (q * r * cj(s) + p * (1 - as_)),
         -k3 * (p + E * w * cj(s)), -k3 * (r - E * w * cj(q))],
        [-k3 * (s + w * cj(p)), k3 * (q - w * cj(r)),
         k3 * (E * w * cj(r) - q), -k3 * (E * w * cj(p) + s)],
    ]

    def stacked(rows: list) -> np.ndarray:
        a = np.array(rows, dtype=complex)
        return a.transpose(*range(2, a.ndim), 0, 1)

    return stacked(first), stacked([r11, r22, r33, r23, r32]), p * s - q * r


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
    first, zero, second = alpha_entries(amps.f11, amps.f1n, amps.f21, amps.f2n, b, spec.n_sites)
    return AlphaTable(n_sites=spec.n_sites, b=b, zero=zero, first=first, second=complex(second))


def receiver_from_sender(table: AlphaTable, rho_s: np.ndarray) -> np.ndarray:
    """Map a sender matrix through the transfer at the table's (t, b).

    Element (4,4) is fixed by the unit trace; the lower triangle follows by
    Hermiticity. The input must be Hermitian with unit trace; it need not be
    positive (the map is linear), but a positive sender failing to produce a
    positive receiver is flagged, since the physical map preserves positivity.
    """
    rho_s = validate_density(rho_s, psd_tol=None)

    def sel(nm: str) -> complex:
        return rho_s[_IDX[nm[0]], _IDX[nm[1]]]

    out = np.zeros((4, 4), dtype=complex)
    svec0 = np.array([sel(nm) for nm in ZERO_COLS])
    z = table.zero @ svec0
    out[0, 0], out[1, 1], out[2, 2] = z[0].real, z[1].real, z[2].real
    out[1, 2] = z[3]
    out[2, 1] = np.conj(z[3])
    svec1 = np.array([sel(nm) for nm in FIRST_LABELS])
    f = table.first @ svec1
    for lab, val in zip(FIRST_LABELS, f):
        i, j = _IDX[lab[0]], _IDX[lab[1]]
        out[i, j] = val
        out[j, i] = np.conj(val)
    out[0, 3] = table.second * rho_s[0, 3]
    out[3, 0] = np.conj(out[0, 3])
    out[3, 3] = 1.0 - out[0, 0] - out[1, 1] - out[2, 2]

    if np.linalg.eigvalsh(rho_s).min() >= -1e-10 and np.linalg.eigvalsh(out).min() < -1e-8:
        warnings.warn("receiver of a positive sender failed positivity at 1e-8",
                      RuntimeWarning, stacklevel=2)
    return out


def operator_coefficients(rho_s: np.ndarray) -> dict:
    """Expansion coefficients of a two-qubit state over the product operator set.

    Inverse of matrix_from_coefficients; the two are an exact linear bijection.
    Keys '01', '02', '03' are real; the rest are complex.
    """
    rho_s = np.asarray(rho_s, dtype=complex)
    return {
        "01": (rho_s[0, 0] + rho_s[1, 1]).real - 0.5,
        "02": (rho_s[0, 0] + rho_s[2, 2]).real - 0.5,
        "03": 1.0 - 2.0 * (rho_s[1, 1] + rho_s[2, 2]).real,
        "11": np.conj(rho_s[0, 1] + rho_s[2, 3]) / 2.0,
        "12": np.conj(rho_s[0, 1] - rho_s[2, 3]),
        "13": np.conj(rho_s[1, 2]),
        "21": np.conj(rho_s[0, 2] + rho_s[1, 3]) / 2.0,
        "22": np.conj(rho_s[0, 2] - rho_s[1, 3]),
        "31": np.conj(rho_s[0, 3]),
    }


def matrix_from_coefficients(a: dict) -> np.ndarray:
    """Assemble the two-qubit matrix from its operator coefficients."""
    cj = np.conj
    rho = np.zeros((4, 4), dtype=complex)
    rho[0, 0] = (1 + 2 * a["01"] + 2 * a["02"] + a["03"]) / 4.0
    rho[1, 1] = (1 + 2 * a["01"] - 2 * a["02"] - a["03"]) / 4.0
    rho[2, 2] = (1 - 2 * a["01"] + 2 * a["02"] - a["03"]) / 4.0
    rho[3, 3] = 1.0 - rho[0, 0] - rho[1, 1] - rho[2, 2]
    rho[0, 1] = (2 * cj(a["11"]) + cj(a["12"])) / 2.0
    rho[2, 3] = (2 * cj(a["11"]) - cj(a["12"])) / 2.0
    rho[0, 2] = (2 * cj(a["21"]) + cj(a["22"])) / 2.0
    rho[1, 3] = (2 * cj(a["21"]) - cj(a["22"])) / 2.0
    rho[1, 2] = cj(a["13"])
    rho[0, 3] = cj(a["31"])
    for i in range(4):
        for j in range(i):
            rho[i, j] = cj(rho[j, i])
    return rho
