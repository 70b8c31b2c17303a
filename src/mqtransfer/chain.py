"""Spectral data of the open XX spin-1/2 chain.

Everything downstream is driven by the sine-mode basis of the open chain,
its single-particle energies, and the time-dependent transition amplitudes
between sites. Coupling is fixed to 1, so time is dimensionless.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import ConfigurationError, ValidationError
from .search import grid_max

__all__ = [
    "ChainSpec",
    "check_time",
    "check_inverse_temperature",
    "thermal_weights",
    "ModeBasis",
    "AmplitudeSet",
    "mode_basis",
    "transition_amplitude",
    "endpoint_amplitude",
    "endpoint_power_max",
    "amplitude_grids",
    "amplitude_set",
]


@dataclass(frozen=True)
class ChainSpec:
    """Open chain of spin-1/2 sites with unit nearest-neighbor coupling."""

    n_sites: int

    def __post_init__(self) -> None:
        if not isinstance(self.n_sites, int) or self.n_sites < 2:
            raise ConfigurationError(f"n_sites must be an integer >= 2, got {self.n_sites!r}")


def check_time(t) -> None:
    """Reject a time t (scalar or array) unless finite; name the first bad one."""
    ok = np.isfinite(t)
    if not ok.all():
        raise ValidationError(f"time must be finite, got {np.ravel(t)[~np.ravel(ok)][0]}")


def check_inverse_temperature(b) -> None:
    """Reject an inverse temperature b (scalar or array) unless finite and >= 0; name the first bad one."""
    ok = np.isfinite(b) & (b >= 0)
    if not ok.all():
        raise ValidationError(f"inverse temperature must be finite and >= 0, "
                              f"got {np.ravel(b)[~np.ravel(ok)][0]}")


def thermal_weights(b):
    """Ground and excited weights n = 1 / (1 + e^-b) and e^-b n of one background spin.

    Written in e^-b, so both stay finite at every b >= 0 (e^b overflows above
    b = 709); b may be an array.
    """
    decay = np.exp(-b)
    ground = 1.0 / (1.0 + decay)
    return ground, decay * ground


@dataclass(frozen=True)
class ModeBasis:
    """Sine modes g[j, k] = sqrt(2/(N+1)) sin(pi (j+1)(k+1)/(N+1)) and energies.

    Rows are sites, columns are modes (both 0-based internally); energies[k]
    = cos(pi (k+1)/(N+1)) are strictly decreasing in k and lie in (-1, 1). The weight
    columns (N, 3) of p, q and r (amplitude_grids) are g_1 g_{N-1}, g_1 g_N and g_2 g_{N-1}.
    """

    n_sites: int
    g: np.ndarray
    energies: np.ndarray
    weights: np.ndarray


@lru_cache(maxsize=64)
def mode_basis(n_sites: int) -> ModeBasis:
    """The single-excitation sector diagonalized analytically, cached per chain
    length (the basis is immutable)."""
    n = ChainSpec(n_sites).n_sites
    j = np.arange(1, n + 1)
    g = np.sqrt(2.0 / (n + 1)) * np.sin(np.pi * np.outer(j, j) / (n + 1))
    energies = np.cos(np.pi * j / (n + 1))
    weights = np.stack([g[0] * g[n - 2], g[0] * g[n - 1], g[1] * g[n - 2]], axis=1)
    for array in (g, energies, weights):
        array.setflags(write=False)
    return ModeBasis(n_sites=n, g=g, energies=energies, weights=weights)


def _check_site(basis: ModeBasis, i: int) -> None:
    if not 1 <= i <= basis.n_sites:
        raise ConfigurationError(f"site index {i} out of range 1..{basis.n_sites}")


def transition_amplitude(basis: ModeBasis, i: int, j: int, ts):
    """Propagator matrix element f_ij(t) = sum_k g_ik g_jk exp(-i t eps_k) over ts (any shape).

    Sites are 1-based. |f_ij| <= 1 and f_ij(0) = delta_ij.
    """
    _check_site(basis, i)
    _check_site(basis, j)
    check_time(ts)
    phase = np.exp(-1j * np.multiply.outer(np.asarray(ts, dtype=float), basis.energies))
    return phase @ (basis.g[i - 1] * basis.g[j - 1])


def endpoint_amplitude(basis: ModeBasis, ts):
    """End-to-end amplitude f(t) = sum_k exp(+i eps_k t) g_1k g_Nk over ts (any shape).

    Purely real for odd N and purely imaginary for even N. It is conj(f_1N) (g and the
    energies are real), + 0j turning a -0.0 imaginary part, as at t = 0, into 0.0.
    """
    return np.conj(transition_amplitude(basis, 1, basis.n_sites, ts)) + 0j


def endpoint_power_max(basis: ModeBasis, t_lo: float, t_hi: float) -> tuple[float, float]:
    """Location and value of the largest |f(t)|^2 on [t_lo, t_hi].

    Grid scan at step 1e-3, then a bracket search (mqtransfer.search.grid_max)
    around the winning grid point down to 1e-9; adequate for the smooth
    almost-periodic |f|^2.
    """
    return grid_max(lambda x: np.abs(endpoint_amplitude(basis, x)) ** 2,
                    np.arange(t_lo, t_hi + 1e-9, 1e-3), 1e-9)


@dataclass(frozen=True)
class AmplitudeSet:
    """The three sender-to-receiver amplitudes at time t.

    f11 = f_{1,N-1}, which the chain's mirror symmetry makes equal to
    f_{2,N}, f1n = f_{1,N} and f21 = f_{2,N-1} (see amplitude_grids); the
    endpoint amplitude is conj(f1n), since g and the energies are real.
    """

    t: float
    f11: complex
    f1n: complex
    f21: complex


def amplitude_grids(basis: ModeBasis, ts) -> tuple:
    """p = f_{1,N-1} = f_{2,N}, q = f_{1,N} and r = f_{2,N-1} over ts (any shape), sharing one
    phase grid. The mirror symmetry of the sine modes, g[N-1-j, k] = (-1)^k g[j, k], gives
    f_{2,N} = f_{1,N-1}, so the transfer matrix W = [[p, q], [r, p]] of these amplitudes has
    equal diagonal entries exactly, from one weight column of ModeBasis.weights; it also
    fixes their parity: for even N, p is real and q and r imaginary, for odd N the reverse.
    Every two-qubit path starts here, so N < 4 (no disjoint sender and receiver) and a
    non-finite time are refused."""
    if basis.n_sites < 4:
        raise ConfigurationError(f"two-qubit amplitudes need n_sites >= 4, got {basis.n_sites}")
    check_time(ts)
    phase = np.exp(-1j * np.multiply.outer(ts, basis.energies))
    f = phase @ basis.weights
    # unlike np.moveaxis, a transpose costs no Python-level axis handling
    return tuple(f.transpose(-1, *range(f.ndim - 1)))


def amplitude_set(basis: ModeBasis, t: float) -> AmplitudeSet:
    """Amplitudes between sender sites (1, 2) and receiver sites (N-1, N)."""
    f11, f1n, f21 = (complex(f) for f in amplitude_grids(basis, t))
    return AmplitudeSet(t=t, f11=f11, f1n=f1n, f21=f21)
