"""Brute-force simulator used as ground truth for the analytic maps.

The XX chain conserves the excitation number, so its Hamiltonian splits into
one real block per sector of k excitations (k = 0..N). Each sector block is
built from the same bond-hop rule as the full 2^N Hamiltonian and
diagonalized once per N. A product initial state (sender times thermal
background) couples sectors at most n_sender apart, so only those
sector-pair blocks are evolved, each as U_k rho0[k, k'] U_k'^H with
U_k = V_k exp(-i E_k t) V_k^T, and the receiver partial trace is read from
them directly. Of each block product only what the trace reads is formed:
rho0 joins a state only to the states of the same background, and the trace
keeps only the entries whose row and column share the environment. Nothing
here uses the sine-mode formulas. Site 1 is the most significant tensor
factor; the sender occupies the leading sites and the receiver the trailing
ones, so the analytic and brute-force conventions coincide.
"""

from __future__ import annotations

import numpy as np

from .chain import ChainSpec, check_inverse_temperature, thermal_weights
from .errors import ResourceError, ValidationError

__all__ = [
    "MAX_SITES",
    "build_hamiltonian",
    "thermal_background",
    "evolve_and_trace",
]

# Measured at N = 12 on one Xeon core with one BLAS thread: the first
# evolve_and_trace call (all sector eigendecompositions and one sample) takes
# about 1 s, each further sample 0.5 s, at a peak RSS of 152 MB. The dense
# Hamiltonian of build_hamiltonian is 256 MB by itself at that size.
MAX_SITES = 12

# per N: the result of _sectors
_SECTOR_CACHE: dict[int, tuple[np.ndarray, np.ndarray, list]] = {}


def _check_sites(n: int) -> None:
    if n > MAX_SITES:
        raise ResourceError(f"oracle limited to {MAX_SITES} sites, got {n}")


def _hops(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Basis-state pairs (src, dst) joined by one hop |10> -> |01> on a bond.

    Each bond contributes (1/2)(|10><01| + |01><10|) on its two sites, which
    conserves the total excitation number; every pair occurs once.
    """
    states = np.arange(1 << n)
    src, dst = [], []
    for site in range(1, n):
        # bits are counted from the most significant side: site i sits at 2^(n-i)
        hi_bit = 1 << (n - site)
        lo_bit = 1 << (n - site - 1)
        moved = states[(states & hi_bit > 0) & (states & lo_bit == 0)]
        src.append(moved)
        dst.append(moved - hi_bit + lo_bit)
    return np.concatenate(src), np.concatenate(dst)


def build_hamiltonian(spec: ChainSpec) -> np.ndarray:
    """Nearest-neighbor hopping Hamiltonian on the full 2^N space."""
    n = spec.n_sites
    _check_sites(n)
    h = np.zeros((1 << n, 1 << n), dtype=complex)
    src, dst = _hops(n)
    h[dst, src] = h[src, dst] = 0.5
    return h


def _sectors(n: int) -> tuple[np.ndarray, np.ndarray, list]:
    """Excitation count and in-sector index of every basis state, and per
    sector k = 0..N its basis states, eigenvalues and real eigenvectors."""
    if n not in _SECTOR_CACHE:
        states = np.arange(1 << n)
        counts = ((states[:, None] >> np.arange(n)) & 1).sum(axis=1)
        pos = np.empty_like(states)
        src, dst = _hops(n)
        sectors = []
        for k in range(n + 1):
            basis = states[counts == k]
            pos[basis] = np.arange(basis.size)
            hop = counts[src] == k
            h = np.zeros((basis.size, basis.size))
            h[pos[dst[hop]], pos[src[hop]]] = h[pos[src[hop]], pos[dst[hop]]] = 0.5
            sectors.append((basis, *np.linalg.eigh(h)))
        for array in (counts, pos, *(array for sector in sectors for array in sector)):
            array.setflags(write=False)
        _SECTOR_CACHE[n] = (counts, pos, sectors)
    return _SECTOR_CACHE[n]


def _thermal_weights(b: float, count: int) -> np.ndarray:
    w1 = np.array(thermal_weights(b))
    w = np.array([1.0])
    for _ in range(count):
        w = np.kron(w, w1)
    return w


def thermal_background(b: float, count: int) -> np.ndarray:
    """Diagonal thermal state of `count` background spins (unit trace)."""
    check_inverse_temperature(b)
    return np.diag(_thermal_weights(b, count))


def evolve_and_trace(sender: np.ndarray, t: float, b: float, spec: ChainSpec) -> np.ndarray:
    """Receiver matrix of the full evolved state.

    sender is 2x2 (one qubit, site 1, receiver site N) or 4x4 (two qubits,
    sites 1 and 2, receiver sites N-1 and N). The map is linear, so sender
    need only be a square matrix of the right size; Hermiticity or positivity
    are not required here.
    """
    sender = np.asarray(sender, dtype=complex)
    if sender.shape not in ((2, 2), (4, 4)):
        raise ValidationError(f"sender must be 2x2 or 4x4, got shape {sender.shape}")
    if not np.isfinite(t):
        raise ValidationError(f"time must be finite, got {t}")
    check_inverse_temperature(b)
    n = spec.n_sites
    n_sender = 1 if sender.shape == (2, 2) else 2
    if n < 2 * n_sender:
        raise ValidationError(f"chain of {n} sites cannot host sender and receiver")
    _check_sites(n)

    counts, pos, sectors = _sectors(n)
    n_bg = n - n_sender
    d_rec = 1 << n_sender
    weights = _thermal_weights(b, n_bg)
    # U_k = V_k exp(-i E_k t) V_k^T, complex symmetric; V_k is real, so two real products
    props = [(vecs * np.cos(evals * t)) @ vecs.T - 1j * ((vecs * np.sin(evals * t)) @ vecs.T)
             for _, evals, vecs in sectors]
    out = np.zeros((d_rec, d_rec), dtype=complex)
    for k, (basis, _, _) in enumerate(sectors):
        env, rec = basis >> n_sender, basis & (d_rec - 1)
        for k2 in range(max(0, k - n_sender), min(n, k + n_sender) + 1):
            basis2 = sectors[k2][0]
            bg2 = basis2 & ((1 << n_bg) - 1)
            # U_k rho0[k, k2]: rho0 = sender (x) diag(weights) joins a column
            # state only to the rows of the same background, one per sender
            # state; a column of the symmetric U_k is its row
            u_rho = np.zeros((basis.size, basis2.size), dtype=complex)
            for a, row in enumerate(sender):
                src = (a << n_bg) | bg2
                hit = counts[src] == k
                rho0 = row[basis2[hit] >> n_bg] * weights[bg2[hit]]
                u_rho[:, hit] += props[k][pos[src[hit]]].T * rho0
            # the receiver trace of U_k rho0[k, k2] U_k2^H needs only the entries
            # whose row and column share the environment, one per receiver state
            for r2 in range(d_rec):
                dst = (env << n_sender) | r2
                hit = counts[dst] == k2
                np.add.at(out[:, r2], rec[hit],
                          np.einsum("ij,ij->i", u_rho[hit], props[k2][pos[dst[hit]]].conj()))
    return out
