"""One-qubit sender and receiver on an N-site line.

The sender occupies site 1; sites 2..N start in the thermal state with
single-site excited-state weight p1 = 1/(1 + e^b), formed from e^-b
(chain.thermal_weights) so that it stays finite at every b >= 0. The
receiver (site N) matrix is exact and closed-form: populations relax toward
the background as |f|^2 transfers the sender population, and the coherence
is carried with the endpoint amplitude damped by tanh(b/2)^(N-1).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .chain import (ChainSpec, check_inverse_temperature, check_time, endpoint_amplitude, mode_basis,
                    thermal_weights)
from .errors import SingularInputError, ValidationError
from .search import bracket_root, grid_max

__all__ = [
    "Qubit1State",
    "receiver_state_1q",
    "lambda1_1q",
    "lambda0_variant_a",
    "lambda0_variant_b",
    "state_independent_target",
    "state_independent_time",
    "perfect_zero_a1",
]


@dataclass(frozen=True)
class Qubit1State:
    """Pure-sender data: excited population |a1|^2 and coherence product a0 a1*."""

    a1_sq: float
    phase_prod: complex = 0.0

    def __post_init__(self) -> None:
        if not 0.0 <= self.a1_sq <= 1.0:
            raise ValidationError(f"a1_sq must lie in [0, 1], got {self.a1_sq}")
        bound = self.a1_sq * (1.0 - self.a1_sq) + 1e-12
        if abs(self.phase_prod) ** 2 > bound:
            raise ValidationError("phase_prod exceeds the purity bound |a0 a1*|^2 <= a1_sq (1 - a1_sq)")

    @classmethod
    def pure(cls, a1_sq: float, phase: float = 0.0) -> "Qubit1State":
        cls(a1_sq=a1_sq)  # validates a1_sq before the square roots
        a0 = np.sqrt(1.0 - a1_sq)
        a1 = np.sqrt(a1_sq) * np.exp(1j * phase)
        return cls(a1_sq=a1_sq, phase_prod=complex(a0 * np.conj(a1)))


def receiver_state_1q(state: Qubit1State, t: float, b: float, spec: ChainSpec) -> np.ndarray:
    """Exact 2x2 receiver matrix at time t and background inverse temperature b."""
    check_inverse_temperature(b)
    basis = mode_basis(spec.n_sites)
    f = endpoint_amplitude(basis, t)
    p0, p1 = thermal_weights(b)
    r11 = p0 + (p1 - state.a1_sq) * abs(f) ** 2
    r12 = (-np.tanh(b / 2.0)) ** (spec.n_sites - 1) * state.phase_prod * np.conj(f)
    return np.array([[r11, r12], [np.conj(r12), 1.0 - r11]], dtype=complex)


def lambda1_1q(t: float, b: float, spec: ChainSpec) -> complex:
    """Coherence scale factor f(t)* (-tanh(b/2))^(N-1); independent of the sender."""
    check_inverse_temperature(b)
    basis = mode_basis(spec.n_sites)
    f = endpoint_amplitude(basis, t)
    return complex((-np.tanh(b / 2.0)) ** (spec.n_sites - 1) * np.conj(f))


def lambda0_variant_a(state: Qubit1State, t: float, b: float, spec: ChainSpec) -> float:
    """Zero-order factor when the receiver (2,2) element absorbs normalization.

    lambda0 = rho_R(1,1) / rho_S(1,1) = (p0 + (p1 - |a1|^2)|f|^2) / (1 - |a1|^2),
    which generally depends on the sender through |a1|^2.
    """
    check_inverse_temperature(b)
    if state.a1_sq == 1.0:
        raise SingularInputError("variant A is singular at a1_sq = 1 (empty ground population)")
    basis = mode_basis(spec.n_sites)
    f2 = abs(endpoint_amplitude(basis, t)) ** 2
    p0, p1 = thermal_weights(b)
    return float((p0 + (p1 - state.a1_sq) * f2) / (1.0 - state.a1_sq))


def lambda0_variant_b(state: Qubit1State, t: float, b: float, spec: ChainSpec) -> float:
    """Zero-order factor when the receiver (1,1) element absorbs normalization.

    lambda0 = rho_R(2,2) / rho_S(2,2) = |f|^2 + (1 - |f|^2) / (|a1|^2 (1 + e^b));
    tends to |f|^2 in the low-temperature limit.
    """
    check_inverse_temperature(b)
    if state.a1_sq == 0.0:
        raise SingularInputError("variant B is singular at a1_sq = 0 (empty excited population)")
    basis = mode_basis(spec.n_sites)
    f2 = abs(endpoint_amplitude(basis, t)) ** 2
    return float(f2 + (1.0 - f2) * thermal_weights(b)[1] / state.a1_sq)


def state_independent_target(b: float) -> float:
    """Threshold 2 e^b / (1 + 2 e^b) = 2 / (2 + e^-b) for |f|^2; bounded below by 2/3 for b >= 0."""
    check_inverse_temperature(b)
    return float(2.0 / (2.0 + np.exp(-b)))


def state_independent_time(b: float, spec: ChainSpec, t_max: float) -> float | None:
    """Smallest t in (0, t_max] where |f(t)|^2 reaches the threshold for this b.

    Scans a grid of step 0.01 and narrows the first crossing with a bracket
    search to 1e-9; when the threshold is only touched tangentially (it
    equals the global maximum), the touching point is refined and returned.
    None when the window never gets within 1e-9.
    """
    target = state_independent_target(b)  # checks b
    check_time(t_max)
    basis = mode_basis(spec.n_sites)
    ts = np.arange(0.0, t_max + 0.01, 0.01)
    ts = ts[ts <= t_max + 1e-12]

    def excess(t: np.ndarray) -> np.ndarray:
        return np.abs(endpoint_amplitude(basis, t)) ** 2 - target

    above = np.nonzero(excess(ts) >= 0.0)[0]
    if above.size:
        i = int(above[0])
        if i == 0:
            return float(ts[0])
        lo, hi, _ = bracket_root(excess, ts[i - 1], ts[i], 1e-9)
        return float(0.5 * (lo[0] + hi[0]))

    # tangential case: refine the closest approach
    t_best, d_best = grid_max(excess, ts, 1e-9)
    return t_best if abs(d_best) <= 1e-9 else None


def perfect_zero_a1(b: float) -> float:
    """Excited population making the zero-order transfer exact (lambda0 = 1).

    Both restoring variants give |a1|^2 = 1/(1 + e^b): the sender population
    must match the thermal background, after which the diagonal is a fixed
    point of the map. At |f(t)| = 1 the condition is degenerate (perfect
    state transfer; every |a1|^2 satisfies it) and the same canonical value
    is returned. The condition is independent of the transfer amplitude, so of
    the time and the chain.
    """
    check_inverse_temperature(b)
    return float(thermal_weights(b)[1])
