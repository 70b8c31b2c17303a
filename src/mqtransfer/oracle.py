"""Brute-force simulator used as ground truth for the analytic maps.

The XX chain conserves the excitation number, so its Hamiltonian splits into
one real block per sector of k excitations (k = 0..N), built from the same
bond-hop rule as the full 2^N Hamiltonian and diagonalized once per N. For a
product initial state sender (x) diag(w) the receiver matrix is
out[r, r2] = sum_{s, s2} sender[s, s2] G[(r, s), (r2, s2)], with the Gram
matrix G = sum_{e, g} w_g U[(e, r), (s, g)] conj U[(e, r2), (s2, g)] (e the
environment the receiver trace sums over, g the background). In the sector
propagator U_k = V_k exp(-i E_k t) V_k^T the block of receiver r and sender s
has |e| = k - |r| and |g| = k - |s|, and w_g depends on |g| alone, so the
blocks of one pair (|e|, |g|) stack into one matrix m that adds w_g m m^H to
G. Nothing here uses the sine-mode formulas. Site 1 is the most significant
tensor factor; the sender occupies the leading sites and the receiver the
trailing ones, so the analytic and brute-force conventions coincide.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from .chain import ChainSpec, check_inverse_temperature, check_time, thermal_weights
from .errors import ResourceError, ValidationError

__all__ = [
    "MAX_SITES",
    "build_hamiltonian",
    "evolve_and_trace",
]

# Measured at N = 12, 4x4 sender, one Xeon core, one BLAS thread: the first
# evolve_and_trace call (sector eigendecompositions, Gram index sets and one
# sample) takes about 0.9 s, each further sample 0.27 s, at a peak RSS of
# 122 MB. The dense Hamiltonian of build_hamiltonian is 256 MB by itself.
MAX_SITES = 12


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


def _popcounts(n: int) -> np.ndarray:
    return ((np.arange(1 << n)[:, None] >> np.arange(n)) & 1).sum(axis=1)


@lru_cache(maxsize=None)
def _sectors(n: int) -> list[tuple[np.ndarray, np.ndarray, np.ndarray]]:
    """Per sector k = 0..N its basis states, eigenvalues and real eigenvectors."""
    counts = _popcounts(n)
    pos = np.empty(1 << n, dtype=np.intp)
    src, dst = _hops(n)
    sectors = []
    for k in range(n + 1):
        basis = np.flatnonzero(counts == k)
        pos[basis] = np.arange(basis.size)
        hop = counts[src] == k
        h = np.zeros((basis.size, basis.size))
        h[pos[dst[hop]], pos[src[hop]]] = h[pos[src[hop]], pos[dst[hop]]] = 0.5
        sectors.append((basis, *np.linalg.eigh(h)))
    for array in (array for sector in sectors for array in sector):
        array.setflags(write=False)
    return sectors


@lru_cache(maxsize=None)
def _gram_groups(n: int, n_sender: int) -> tuple[np.ndarray, list[tuple]]:
    """Offsets of the sector propagators stacked flat in k order; per pair
    (|e|, |g|), the labels r * 2^n_sender + s of its blocks (r, s) in U_{|e|+|r|},
    a background g of the class, and per block the stack offsets of the rows
    (e, r) and in-sector indices of the columns (s, g), e and g ascending."""
    n_bg, d_rec = n - n_sender, 1 << n_sender
    bases = [basis for basis, _, _ in _sectors(n)]
    starts = np.cumsum([0] + [basis.size ** 2 for basis in bases])
    counts = _popcounts(n_bg)
    by_count = [np.flatnonzero(counts == c) for c in range(n_bg + 1)]
    groups = []
    for c_env, env in enumerate(by_count):
        for c_bg, bg in enumerate(by_count):
            blocks = [(r, s, c_env + counts[r]) for r in range(d_rec) for s in range(d_rec)
                      if c_env + counts[r] == c_bg + counts[s]]
            if blocks:
                rows = [starts[k] + bases[k].size * np.searchsorted(bases[k], (env << n_sender) | r)
                        for r, _, k in blocks]
                cols = [np.searchsorted(bases[k], (s << n_bg) | bg) for _, s, k in blocks]
                groups.append((np.array([r * d_rec + s for r, s, _ in blocks]), bg[0],
                               np.array(rows), np.array(cols)))
    return starts, groups


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
    check_time(t)
    check_inverse_temperature(b)
    n = spec.n_sites
    n_sender = 1 if sender.shape == (2, 2) else 2
    if n < 2 * n_sender:
        raise ValidationError(f"chain of {n} sites cannot host sender and receiver")
    _check_sites(n)

    starts, groups = _gram_groups(n, n_sender)
    ground, excited = thermal_weights(b)
    ones = _popcounts(n - n_sender)
    weights = ground ** (n - n_sender - ones) * excited ** ones
    # U_k = V_k exp(-i E_k t) V_k^T from two real products, stacked flat in k order
    stacked = np.empty(starts[-1], dtype=complex)
    for (basis, evals, vecs), start in zip(_sectors(n), starts):
        u = stacked[start:start + basis.size ** 2].reshape(basis.shape * 2)
        u.real = (vecs * np.cos(evals * t)) @ vecs.T
        u.imag = -((vecs * np.sin(evals * t)) @ vecs.T)
    gram = np.zeros((sender.size, sender.size), dtype=complex)
    for labels, bg, rows, cols in groups:
        m = stacked[rows[:, :, None] + cols[:, None, :]].reshape(labels.size, -1)
        gram[np.ix_(labels, labels)] += weights[bg] * (m @ m.conj().T)
    return np.einsum("rapb,ab->rp", gram.reshape(sender.shape * 2), sender)
