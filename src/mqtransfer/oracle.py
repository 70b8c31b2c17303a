"""Receiver-end Jordan-Wigner certifier: ground truth for the analytic maps at any N.

Nothing here uses the sine modes, the amplitudes or two_qubit.transfer_blocks:
the one-particle hopping matrix h = (1/2) adjacency of the path is diagonalized
numerically, U = V exp(-i E t) V^T. Site 1 is the most significant tensor
factor; the sender occupies the leading m sites (m = 1 or 2), the receiver the
trailing m, and every other site starts in the thermal state
diag(n, e^-b n) (chain.thermal_weights), |1> the excited level.

With the string ordered from the receiver end, c_j = sigma-_j Z_{j+1} ... Z_N
(sigma- = |0><1|, Z = |0><0| - |1><1|; Lieb, Schultz and Mattis 1961), each bond
is +(1/2) c_i^+ c_{i+1} + h.c., so c_j(t) = sum_k U_jk c_k, and a receiver c_j
carries no string outside the receiver. Each receiver matrix unit is then a
combination of the 4^m monomials that take one of 1, c, c^+, c^+ c per receiver
site in site order (one 4^m x 4^m solve), and
rho_R[r, r'] = <(|r'><r|)(t)>. A factor of an evolved monomial splits into a
sender part, a sender-local matrix times the background parity P_B, and a
background part. Moving each sender part left past the background parts before
it costs a sign each, so an expectation is tr(rho_S x sender matrices) times a
Wick sum over the background parts, with <c^+ c> = e^-b n and <c c^+> = n. Under
an odd power of P_B the background state weighs |1> by -e^-b n, so <c^+ c> turns
into -e^-b n and every site outside a pair gives tanh(b/2): the sum takes
tanh(b/2)^(N - m - pairs), finite at b = 0.

build_hamiltonian, the dense 2^N Hamiltonian from the same bond-hop rule, is
kept for dense tests.
"""

from __future__ import annotations

import itertools
from functools import reduce

import numpy as np

from .chain import ChainSpec, check_inverse_temperature, check_time, thermal_weights
from .errors import ResourceError, ValidationError

__all__ = [
    "MAX_SITES",
    "build_hamiltonian",
    "evolve_and_trace",
]

# Guards only the dense 2^N matrix of build_hamiltonian: 16 * 4^N bytes, 256 MB
# at N = 12. evolve_and_trace needs the N x N hopping matrix alone.
MAX_SITES = 12

# the factors one receiver site adds to a monomial, True for an adjoint: 1, c, c^+, c^+ c
_SITE_FACTORS = ((), (False,), (True,), (True, False))


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
    if n > MAX_SITES:
        raise ResourceError(f"dense Hamiltonian limited to {MAX_SITES} sites, got {n}")
    h = np.zeros((1 << n, 1 << n), dtype=complex)
    src, dst = _hops(n)
    h[dst, src] = h[src, dst] = 0.5
    return h


def _lowering(m: int) -> list[np.ndarray]:
    """sigma-_k Z_{k+1} ... Z_m on m sites, k = 1..m: c_k with its string cut to those sites."""
    lower, z = np.array([[0.0, 1.0], [0.0, 0.0]]), np.diag([1.0, -1.0])
    return [reduce(np.kron, [np.eye(2)] * k + [lower] + [z] * (m - 1 - k)) for k in range(m)]


def _wick(parts: list, pair) -> complex:
    """Sum over the pairings of parts, signed by their crossings; 0 for an odd count."""
    if not parts:
        return 1.0
    return sum((-1) ** j * pair(parts[0], g) * _wick(parts[1:j + 1] + parts[j + 2:], pair)
               for j, g in enumerate(parts[1:]))


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
    m = 1 if sender.shape == (2, 2) else 2
    if n < 2 * m:
        raise ValidationError(f"chain of {n} sites cannot host sender and receiver")

    energies, modes = np.linalg.eigh(0.5 * (np.eye(n, k=1) + np.eye(n, k=-1)))
    u = (modes * np.exp(-1j * energies * t)) @ modes.T
    ground, excited = thermal_weights(b)
    tau = np.tanh(0.5 * b)
    ops = _lowering(m)
    # per receiver factor (site k, adjoint): its sender matrix and background coefficients
    parts = {}
    for k, adj in itertools.product(range(m), (False, True)):
        row = np.conj(u[n - m + k]) if adj else u[n - m + k]
        parts[k, adj] = (sum(row[j] * (ops[j].T if adj else ops[j]) for j in range(m)), row[m:])

    def expectation(factors: list) -> complex:
        total = 0j
        for in_sender in itertools.product((False, True), repeat=len(factors)):
            crossed = sum(not x for i, s in enumerate(in_sender) if s for x in in_sender[:i])
            odd = sum(in_sender) % 2
            bg = [f for f, s in zip(factors, in_sender) if not s]
            # <c^+ c> and <c c^+> of a background site, under P_B when odd
            weight = {(True, False): -excited if odd else excited, (False, True): ground}

            def pair(f, g):
                return weight.get((f[1], g[1]), 0.0) * (parts[f][1] @ parts[g][1])

            trace = np.trace(reduce(np.matmul, [parts[f][0] for f, s in zip(factors, in_sender) if s],
                                    sender))
            total += (-1) ** crossed * trace * _wick(bg, pair) * tau ** (odd * (n - m - len(bg) // 2))
        return total

    monomials = [[(k, adj) for k, choice in enumerate(combo) for adj in _SITE_FACTORS[choice]]
                 for combo in itertools.product(range(4), repeat=m)]
    local = [reduce(np.matmul, [ops[k].T if adj else ops[k] for k, adj in mono], np.eye(1 << m))
             for mono in monomials]
    units = np.linalg.solve(np.array([mat.ravel() for mat in local]).T, np.eye(4 ** m))
    values = np.array([expectation(mono) for mono in monomials]) @ units
    return values.reshape(sender.shape).T
