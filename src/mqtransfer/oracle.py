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

All of that combinatorics depends on the sender size m alone, and _skeleton
builds it once per m: the lowering operators on m sites, the 4^m monomials and
their units solve, each split of a monomial into sender and background factors
with its crossing sign, parity and count of background pairs, and the signed
Wick pairings of those background factors. None of it reads t, b, N or the
sender: they enter only through U, whose receiver rows give the 2m sender
matrices and, as the Gram matrix of their background parts, the value of every
pair, through the weights n, e^-b n and tanh(b/2), and through the exponent
N - m - pairs. A call does one eigh, the traces of the sender products against
rho_S, one Gram matrix and a sum over the skeleton's terms.

build_hamiltonian, the dense 2^N Hamiltonian from the same bond-hop rule, is
kept for dense tests.
"""

from __future__ import annotations

import itertools
from functools import lru_cache, reduce
from typing import NamedTuple

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

# the factors one receiver site adds to a monomial, 1 for an adjoint: 1, c, c^+, c^+ c
_SITE_FACTORS = ((), (0,), (1,), (1, 0))


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


def _pairings(items: list):
    """Each pairing of items, in their order, with its sign (-1)^crossings; none for an odd count."""
    if not items:
        yield 1, []
    for j in range(1, len(items)):
        for sign, pairs in _pairings(items[1:j] + items[j + 1:]):
            yield (-1) ** (j - 1) * sign, [(items[0], items[j])] + pairs


class _Skeleton(NamedTuple):
    """The terms of evolve_and_trace for one sender size m (_skeleton).

    A receiver factor is f = 2 k + adj: c_k, or c_k^+ for adj = 1. A term is one
    sender/background split of one monomial and one nonzero pairing of its
    background factors.
    """

    factor_ops: np.ndarray  # (2m, m, 2^m, 2^m): c_j, or c_j^T for an adjoint f, per sender site j
    chain: tuple  # per product length L >= 1: (index of its first L - 1 factors, last factor)
    trace_at: np.ndarray  # (terms,) the sender product a term traces, over all lengths from 0
    gram_at: np.ndarray  # (terms, m) its pairs (f, g) as 2m f + g, padded with (2m)^2 for a 1
    sign: np.ndarray  # (terms,) crossings, pairing and parity signs together
    excited: np.ndarray  # (terms,) its <c^+ c> pairs
    ground: np.ndarray  # (terms,) its <c c^+> pairs
    odd: np.ndarray  # (terms,) 1 where the sender holds an odd count of factors
    units: np.ndarray  # (terms, 4^m) the matrix units of its monomial


@lru_cache(maxsize=None)
def _skeleton(m: int) -> _Skeleton:
    """The skeleton of evolve_and_trace for m sender (and receiver) sites."""
    lower, z = np.array([[0.0, 1.0], [0.0, 0.0]]), np.diag([1.0, -1.0])
    # sigma-_k Z_{k+1} ... Z_m on m sites, k = 1..m: c_k with its string cut to those sites
    ops = [reduce(np.kron, [np.eye(2)] * k + [lower] + [z] * (m - 1 - k)) for k in range(m)]
    factor_ops = np.array([[op.T if f % 2 else op for op in ops] for f in range(2 * m)])
    monomials = [[2 * k + adj for k, choice in enumerate(combo) for adj in _SITE_FACTORS[choice]]
                 for combo in itertools.product(range(4), repeat=m)]
    local = [reduce(np.matmul, [factor_ops[f, f // 2] for f in mono], np.eye(1 << m))
             for mono in monomials]
    units = np.linalg.solve(np.array([mat.ravel() for mat in local]).T, np.eye(4 ** m))

    terms = []
    for mono, factors in enumerate(monomials):
        for in_sender in itertools.product((False, True), repeat=len(factors)):
            crossed = sum(not x for i, s in enumerate(in_sender) if s for x in in_sender[:i])
            odd = sum(in_sender) % 2
            held = tuple(f for f, s in zip(factors, in_sender) if s)
            for sign, pairs in _pairings([f for f, s in zip(factors, in_sender) if not s]):
                # a background pair is <c^+ c> = e^-b n, negated under P_B when odd, or
                # <c c^+> = n; c c and c^+ c^+ pair to zero
                kinds = [(f % 2, g % 2) for f, g in pairs]
                if not set(kinds) <= {(1, 0), (0, 1)}:
                    continue
                excited = kinds.count((1, 0))
                terms.append((held, [2 * m * f + g for f, g in pairs] + [4 * m * m] * (m - len(pairs)),
                              (-1) ** (crossed + odd * excited) * sign, excited,
                              len(pairs) - excited, odd, mono))
    # the sender products by length, each of length L built on its first L - 1 factors
    prefixes = {h[:i] for h, *_ in terms for i in range(len(h) + 1)}
    products = [sorted(h for h in prefixes if len(h) == length) for length in range(2 * m + 1)]
    index = {h: i for level in products for i, h in enumerate(level)}
    offsets = np.cumsum([0] + [len(level) for level in products])
    chain = tuple((np.array([index[h[:-1]] for h in level]), np.array([h[-1] for h in level]))
                  for level in products[1:])
    held, *columns, mono = zip(*terms)
    trace_at = np.array([offsets[len(h)] + index[h] for h in held])
    skeleton = _Skeleton(factor_ops, chain, trace_at, *map(np.array, columns), units[list(mono)])
    for array in itertools.chain(skeleton[:1], *skeleton[1], skeleton[2:]):
        array.setflags(write=False)
    return skeleton


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
    skeleton = _skeleton(m)

    energies, modes = np.linalg.eigh(0.5 * (np.eye(n, k=1) + np.eye(n, k=-1)))
    u = (modes * np.exp(-1j * energies * t)) @ modes.T
    # row f = 2 k + adj holds the coefficients of receiver factor f, c_k(t) = sum_j U_kj c_j
    # or its adjoint: over the sender sites they form its sender matrix, and the rest its
    # background part
    rows = np.stack((u[n - m:], np.conj(u[n - m:])), axis=1).reshape(2 * m, n)
    mats = np.einsum("fj,fjxy->fxy", rows[:, :m], skeleton.factor_ops)
    levels = [np.eye(1 << m, dtype=complex)[None]]
    for prefix, last in skeleton.chain:
        levels.append(levels[-1][prefix] @ mats[last])
    traces = np.einsum("pxy,yx->p", np.concatenate(levels), sender)
    gram = np.append(rows[:, m:] @ rows[:, m:].T, 1.0)
    ground, excited = thermal_weights(b)
    tau = np.tanh(0.5 * b)
    weights = (skeleton.sign * traces[skeleton.trace_at] * gram[skeleton.gram_at].prod(axis=1)
               * excited ** skeleton.excited * ground ** skeleton.ground
               * tau ** (skeleton.odd * (n - m - skeleton.excited - skeleton.ground)))
    return (weights @ skeleton.units).reshape(sender.shape).T
