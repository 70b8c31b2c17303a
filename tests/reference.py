"""Certifying references for the batched region kernel.

Each function here computes one piece of the region chain the slow, direct
way, one point at a time. It shares with the kernel in mqtransfer.states and
mqtransfer.solvers only the coefficient table, the 5x5 zero-order system
built from it and the tolerances PSD_TOL and COND_LIMIT:

- the coefficient table as the hand-expanded algebra of the map, one
  expression per coefficient (expanded_entries), which certifies the
  assembly of mqtransfer.two_qubit.alpha_entries from the blocks of the
  transfer matrix; it overflows for b above about 354 (e^b squared), so it
  serves b <= 30;
- the sender layout as dense 4x4 matrices (base_matrix, first_order_direction,
  SECOND_DIRECTION), and physicality as Hermiticity, unit trace and a
  smallest eigenvalue of at least -PSD_TOL (is_physical);
- creatable intervals by bracketing and bisection on the smallest eigenvalue
  of the dense sender (ray_max, c_max_ray, boundary_sweep);
- the single-quantum factor by a scalar loop over the eigenvalues sorted by
  modulus, with realness judged relative to each eigenvalue
  (select_first_order), the rounding band in which that judgement and the
  kernel's exact rule may differ (in_realness_band), and the basis in which
  the closed form reads the single-quantum map as block-triangular
  (FIRST_BASIS);
- the zero-order vector by a dense linear solve guarded by the 2-norm
  condition number (solve_zero_order_dense);
- the semi-axes of a case, chaining the three (region_reference);
- the thermal state of the background spins as a Kronecker product of
  one spin's weights (thermal_background), for the dense oracle tests;
- the receiver matrix of the full evolution, simulated one excitation sector
  at a time with its own copy of the bond-hop rule (sector_trace), the
  brute-force ground truth of mqtransfer.oracle up to N = 12;
- the amplitudes p = f_{1,N-1}, q = f_{1,N}, r = f_{2,N-1} and s = f_{2,N}
  at 50 digits, each summed on its own in mpmath (amplitudes_mp); from
  them, where W's eigenvalues are real (realness_reference), and the base
  state and the semi-axes from the moments system (moments_reference).
"""

from __future__ import annotations

from functools import lru_cache, reduce

import numpy as np
from mpmath import mp

from mqtransfer import ChainSpec, alpha_table, amplitude_set, mode_basis
from mqtransfer.chain import check_inverse_temperature, thermal_weights
from mqtransfer.solvers import COND_LIMIT, zero_order_system
from mqtransfer.states import PSD_TOL

BISECT_TOL = 1e-9


def base_matrix(x0: np.ndarray) -> np.ndarray:
    x0 = np.asarray(x0, dtype=complex)
    m = np.zeros((4, 4), dtype=complex)
    m[0, 0], m[1, 1], m[2, 2] = x0[0].real, x0[1].real, x0[2].real
    m[3, 3] = 1.0 - m[0, 0] - m[1, 1] - m[2, 2]
    m[1, 2] = x0[3]
    m[2, 1] = np.conj(x0[3])
    return m


def base_entries(x0: np.ndarray) -> tuple:
    """The base state entries (rho11, rho22, rho33, rho44, rho23) of c2_rays and c1_rays
    for a zero-order vector x0 (..., 5), rho44 from the unit trace."""
    x0 = np.asarray(x0)
    r11, r22, r33 = x0[..., 0].real, x0[..., 1].real, x0[..., 2].real
    return r11, r22, r33, 1.0 - r11 - r22 - r33, x0[..., 3]


def thermal_background(b: float, count: int) -> np.ndarray:
    """Diagonal thermal state of `count` background spins (unit trace), site 1 the most
    significant tensor factor."""
    check_inverse_temperature(b)
    return reduce(np.kron, [np.diag(thermal_weights(b))] * count, np.ones((1, 1)))


def _hops(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Basis-state pairs (src, dst) joined by one hop |10> -> |01> on a bond, site i at bit
    2^(n-i); each bond contributes (1/2)(|10><01| + |01><10|)."""
    states = np.arange(1 << n)
    src, dst = [], []
    for site in range(1, n):
        hi_bit, lo_bit = 1 << (n - site), 1 << (n - site - 1)
        moved = states[(states & hi_bit > 0) & (states & lo_bit == 0)]
        src.append(moved)
        dst.append(moved - hi_bit + lo_bit)
    return np.concatenate(src), np.concatenate(dst)


def _popcounts(n: int) -> np.ndarray:
    return ((np.arange(1 << n)[:, None] >> np.arange(n)) & 1).sum(axis=1)


@lru_cache(maxsize=None)
def sectors(n: int) -> list[tuple[np.ndarray, np.ndarray, np.ndarray]]:
    """Per sector k = 0..N its basis states, eigenvalues and real eigenvectors."""
    counts = _popcounts(n)
    pos = np.empty(1 << n, dtype=np.intp)
    src, dst = _hops(n)
    out = []
    for k in range(n + 1):
        basis = np.flatnonzero(counts == k)
        pos[basis] = np.arange(basis.size)
        hop = counts[src] == k
        h = np.zeros((basis.size, basis.size))
        h[pos[dst[hop]], pos[src[hop]]] = h[pos[src[hop]], pos[dst[hop]]] = 0.5
        out.append((basis, *np.linalg.eigh(h)))
    for array in (array for sector in out for array in sector):
        array.setflags(write=False)
    return out


@lru_cache(maxsize=None)
def gram_groups(n: int, n_sender: int) -> tuple[np.ndarray, list[tuple]]:
    """Offsets of the sector propagators stacked flat in k order; per pair
    (|e|, |g|), the labels r * 2^n_sender + s of its blocks (r, s) in U_{|e|+|r|},
    a background g of the class, and per block the stack offsets of the rows
    (e, r) and in-sector indices of the columns (s, g), e and g ascending."""
    n_bg, d_rec = n - n_sender, 1 << n_sender
    bases = [basis for basis, _, _ in sectors(n)]
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


def sector_trace(sender: np.ndarray, t: float, b: float, n: int) -> np.ndarray:
    """Receiver matrix of sender (2x2 or 4x4, any square matrix) on an N-site chain with a
    thermal background, by brute force one excitation sector at a time.

    The XX chain conserves the excitation number, so its Hamiltonian splits into one real
    block per sector k, diagonalized once per N (sectors). For a product initial state
    sender (x) diag(w), out[r, r2] = sum_{s, s2} sender[s, s2] G[(r, s), (r2, s2)] with
    the Gram matrix G = sum_{e, g} w_g U[(e, r), (s, g)] conj U[(e, r2), (s2, g)] (e the
    environment the receiver trace sums over, g the background). In U_k = V_k
    exp(-i E_k t) V_k^T the block of receiver r and sender s has |e| = k - |r| and
    |g| = k - |s|, and w_g depends on |g| alone, so the blocks of one pair (|e|, |g|)
    stack into one matrix m that adds w_g m m^H to G (gram_groups). Its cost and memory
    grow as C(2N, N): 41 MB of stacked propagators at N = 12, 159 MB at N = 13.
    """
    sender = np.asarray(sender, dtype=complex)
    n_sender = sender.shape[0].bit_length() - 1
    starts, groups = gram_groups(n, n_sender)
    ground, excited = thermal_weights(b)
    ones = _popcounts(n - n_sender)
    weights = ground ** (n - n_sender - ones) * excited ** ones
    # U_k = V_k exp(-i E_k t) V_k^T from two real products, stacked flat in k order
    stacked = np.empty(starts[-1], dtype=complex)
    for (basis, evals, vecs), start in zip(sectors(n), starts):
        u = stacked[start:start + basis.size ** 2].reshape(basis.shape * 2)
        u.real = (vecs * np.cos(evals * t)) @ vecs.T
        u.imag = -((vecs * np.sin(evals * t)) @ vecs.T)
    gram = np.zeros((sender.size, sender.size), dtype=complex)
    for labels, bg, rows, cols in groups:
        m = stacked[rows[:, :, None] + cols[:, None, :]].reshape(labels.size, -1)
        gram[np.ix_(labels, labels)] += weights[bg] * (m @ m.conj().T)
    return np.einsum("rapb,ab->rp", gram.reshape(sender.shape * 2), sender)


def is_physical(rho: np.ndarray, tol: float = PSD_TOL) -> bool:
    """True iff Hermitian, unit trace, and min eigenvalue >= -tol."""
    rho = np.asarray(rho, dtype=complex)
    if np.max(np.abs(rho - rho.conj().T)) > 1e-12:
        return False
    if abs(np.trace(rho) - 1.0) > 1e-12:
        return False
    return bool(np.linalg.eigvalsh(rho).min() >= -tol)


def first_order_direction(x1: np.ndarray) -> np.ndarray:
    v = np.zeros((4, 4), dtype=complex)
    v[0, 1], v[0, 2], v[1, 3], v[2, 3] = np.asarray(x1, dtype=complex)
    return v + v.conj().T


def _thermal_factors(b, n_sites: int) -> tuple:
    """exp(b) and the background factors k1..k4 of the coefficient table."""
    E = np.exp(b)
    k1 = 1.0 / (1.0 + E)
    k2 = 1.0 / (2.0 * (1.0 + np.cosh(b)))
    th = np.tanh(b / 2.0) ** (n_sites - 3)
    k3 = (-1) ** n_sites * np.exp(-b / 2.0) * th / (2.0 * np.cosh(b / 2.0))
    k4 = (-1) ** n_sites * np.exp(b / 2.0) * th / (2.0 * np.cosh(b / 2.0))
    return E, k1, k2, k3, k4


def expanded_entries(p, q, r, s, b, n_sites: int) -> tuple:
    """All map coefficients, stacked as (first, zero, second), from the expanded table.

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


SECOND_DIRECTION = np.zeros((4, 4), dtype=complex)
SECOND_DIRECTION[0, 3] = 1.0
SECOND_DIRECTION += SECOND_DIRECTION.conj().T
SECOND_DIRECTION.setflags(write=False)

# Rows u0 = (13 + 24), u1 = (13 - 24), u2 = (12 + 34), u3 = (12 - 34) over
# FIRST_LABELS (12, 13, 24, 34), each over sqrt(2). A chain's single-quantum
# map F has G = U F U^T block upper-triangular: G[{u1, u2}, {u0, u3}] = 0.
FIRST_BASIS = np.sqrt(0.5) * np.array([[0, 1, 1, 0], [0, 1, -1, 0], [1, 0, 0, 1], [1, 0, 0, -1]])
FIRST_BASIS.setflags(write=False)
INVARIANT, QUOTIENT = [0, 3], [1, 2]


def ray_max(m0: np.ndarray, direction: np.ndarray, tol: float, floor: float = -PSD_TOL) -> float:
    """Largest c >= 0 with min eig(m0 + c*direction) >= floor, by bracketing and bisection."""
    def ok(c: float) -> bool:
        return np.linalg.eigvalsh(m0 + c * direction).min() >= floor

    hi = 1.0
    doublings = 0
    while ok(hi):
        hi *= 2.0
        doublings += 1
        if doublings > 60:
            return float("inf")
    lo = 0.0
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        if ok(mid):
            lo = mid
        else:
            hi = mid
    return lo


def c_max_ray(x0: np.ndarray, x1: np.ndarray | None, which: str,
              tol: float = BISECT_TOL):
    """Creatable-interval endpoints along coordinate rays.

    which = 'c1': largest c1 at c2 = 0 (requires x1); 'c2': largest c2 at
    c1 = 0; 'corner': both, as the pair (c1_max, c2_max) entering the area
    estimate. The base state (c1 = c2 = 0) must be physical.
    """
    m0 = base_matrix(x0)
    if np.linalg.eigvalsh(m0).min() < -PSD_TOL:
        raise ValueError("base sender state (c1 = c2 = 0) is not positive")
    if which == "c2":
        return ray_max(m0, SECOND_DIRECTION, tol)
    if which == "c1":
        if x1 is None:
            raise ValueError("the c1 ray needs a single-quantum vector x1")
        return ray_max(m0, first_order_direction(x1), tol)
    if which == "corner":
        if x1 is None:
            raise ValueError("the corner needs a single-quantum vector x1")
        return (ray_max(m0, first_order_direction(x1), tol),
                ray_max(m0, SECOND_DIRECTION, tol))
    raise ValueError(f"unknown ray selector {which!r}")


def boundary_sweep(x0: np.ndarray, x1: np.ndarray, rays: int = 64) -> np.ndarray:
    """Polar sweep of the positivity boundary in the (c1, c2) quadrant.

    Returns the (c1, c2) boundary points along equally spaced directions in
    the first quadrant.
    """
    m0 = base_matrix(x0)
    if np.linalg.eigvalsh(m0).min() < -PSD_TOL:
        raise ValueError("base sender state is not positive")
    v1 = first_order_direction(x1)
    pts = []
    for theta in np.linspace(0.0, np.pi / 2, rays):
        direction = np.cos(theta) * v1 + np.sin(theta) * SECOND_DIRECTION
        rho_max = ray_max(m0, direction, BISECT_TOL)
        pts.append((rho_max * np.cos(theta), rho_max * np.sin(theta)))
    return np.array(pts)


def select_first_order(m: np.ndarray, realness_tol: float = 1e-6):
    """(eigenvalues by descending modulus, selected index, lambda1, unit x1), or None.

    The first eigenvalue down the modulus ordering with
    |Im| <= realness_tol * |eigenvalue| is kept, so a zero map has the real
    eigenvalue 0; x1 is rotated so its largest-modulus component is real
    positive.
    """
    ev, vecs = np.linalg.eig(np.asarray(m, dtype=complex))
    order = np.argsort(-np.abs(ev), kind="stable")
    ev, vecs = ev[order], vecs[:, order]
    for i in range(len(ev)):
        if abs(ev[i].imag) <= realness_tol * abs(ev[i]):
            x1 = vecs[:, i]
            k = int(np.argmax(np.abs(x1)))
            x1 = x1 * np.exp(-1j * np.angle(x1[k]))
            return ev, i, float(ev[i].real), x1 / np.linalg.norm(x1)
    return None


# the rounding band of in_realness_band: tanh(b/2), max|W| and |Re(q r)| / max|W|^2
# at or below these
TAU_BAND = 1e-4
W_BAND = 1e-7
D_BAND = 1e-10


def in_realness_band(n_sites: int, t: float, b: float) -> bool:
    """Whether (N, t, b) lies where rounding, not the map, decides if lambda1 is real.

    At b = 0 the map is exactly 0, and never in the band. Elsewhere the band
    has three parts. The amplitudes carry absolute errors near 1e-16, so
    where max|W| is at most W_BAND the eigenvalues of W, and so of F, can
    have imaginary parts that a relative test (select_first_order) reads as
    complex, above all where the larger eigenvalue of W is far below max|W|.
    Where q r, whose sign decides whether W's eigenvalues p +- sqrt(q r) are
    real (see mqtransfer.two_qubit.transfer_spectrum), is within
    D_BAND * max|W|^2 of 0, a dense eig moves a real pair off the real axis
    by about sqrt(eps) of its size, or a complex pair onto it. And where
    tau = tanh(b/2) is at most TAU_BAND, F's eigenvalues are tau times
    smaller than its coupling block (see mqtransfer.solvers), so a dense eig
    moves them by about eps / tau^2 of their size, and below tau ~ 1e-150
    they underflow. Over
    9,000 random points (N 4-43, t in [0, 2N], b in [0, 8] or log-uniform in
    [1e-8, 1]) every disagreement lay inside this band.
    """
    amps = amplitude_set(mode_basis(n_sites), t)
    p, q, r = amps.f11, amps.f1n, amps.f21
    size = max(abs(p), abs(q), abs(r))
    return b > 0.0 and (np.tanh(0.5 * b) <= TAU_BAND or size <= W_BAND
                        or abs((q * r).real) <= D_BAND * size ** 2)


def solve_zero_order_dense(t0: np.ndarray, b_vec: np.ndarray, lambda0: float):
    """x0 from a dense solve of (lambda0 I - T0) x0 = B; None where cond > COND_LIMIT."""
    a = lambda0 * np.eye(5) - np.asarray(t0, dtype=complex)
    if np.linalg.cond(a) > COND_LIMIT:
        return None
    return np.linalg.solve(a, np.asarray(b_vec, dtype=complex))


def region_reference(spec: ChainSpec, t: float, b: float, lambda0: float, case: int,
                     tol: float = 1e-12) -> dict:
    """Semi-axes of a case at one point from the scalar table and the references above.

    The rays are bisected to tol against the exact positivity boundary
    (smallest eigenvalue 0), which the closed forms of c2_rays and c1_rays locate.
    Returns feasible, s1, s2, lambda1, x0 and x1 with the conventions of
    RegionReport: zeros where infeasible, s1 = 0 in case 1, s2 = 0 in case 2.
    """
    table = alpha_table(amplitude_set(mode_basis(spec.n_sites), t), b, spec)
    first = select_first_order(table.first)
    out = {"feasible": False, "s1": 0.0, "s2": 0.0, "lambda1": None, "x0": None, "x1": None}
    if first is None and case != 1:
        return out
    x0 = solve_zero_order_dense(*zero_order_system(table), lambda0)
    if x0 is None:
        return out
    m0 = base_matrix(x0)
    if np.linalg.eigvalsh(m0).min() < -PSD_TOL:
        return out
    out.update(feasible=True, x0=x0)
    if case != 1:
        lam1, x1 = first[2], first[3]
        out.update(lambda1=lam1, x1=x1)
        if lam1 > 0.0:
            out["s1"] = ray_max(m0, first_order_direction(x1), tol, floor=0.0) * lam1
    lam2 = table.second.real
    if case != 2 and lam2 > 0.0:
        out["s2"] = ray_max(m0, SECOND_DIRECTION, tol, floor=0.0) * lam2
    return out


@lru_cache(maxsize=None)
def _modes_mp(n_sites: int, digits: int) -> tuple:
    """The mode weights g_ik g_jk of (p, q, r, s) and the energies, at digits."""
    with mp.workdps(digits):
        n = n_sites
        g = [[mp.sqrt(mp.mpf(2) / (n + 1)) * mp.sin(mp.pi * j * k / (n + 1))
              for k in range(1, n + 1)] for j in (1, 2, n - 1, n)]
        weights = [[g[i][k] * g[j][k] for k in range(n)] for i, j in ((0, 2), (0, 3), (1, 2), (1, 3))]
        return weights, [mp.cos(mp.pi * k / (n + 1)) for k in range(1, n + 1)]


def amplitudes_mp(n_sites: int, t: float, digits: int = 50) -> tuple:
    """(p, q, r, s) = (f_{1,N-1}, f_{1,N}, f_{2,N-1}, f_{2,N}) at t, as mpmath numbers summed
    over the sine modes at digits, each on its own (s is not taken equal to p)."""
    weights, energies = _modes_mp(n_sites, digits)
    with mp.workdps(digits):
        phase = [mp.expj(-mp.mpf(t) * e) for e in energies]
        return tuple(mp.fdot(row, phase) for row in weights)


# the band of realness_reference: |Re(q r)| at or below REAL_BAND * max|W|
REAL_BAND = 1e-15


def realness_reference(n_sites: int, ts) -> tuple:
    """Where W's eigenvalues are real at the times ts (1-d) of an even N, at 50 digits.

    For even N, p is real and q, r are imaginary, so W's eigenvalues p +- sqrt(q r) are
    real where D = Re(q r) >= 0; D is formed from amplitudes_mp. Returns that mask and the
    mask of times where |D| <= REAL_BAND max(|p|, |q|, |r|): there the float amplitudes,
    with absolute errors near 1e-16, cannot decide the sign.
    """
    real, skip = [], []
    for t in np.asarray(ts, dtype=float):
        p, q, r, _ = amplitudes_mp(n_sites, float(t))
        d = mp.re(q * r)
        real.append(d >= 0)
        skip.append(abs(d) <= REAL_BAND * max(abs(p), abs(q), abs(r)))
    return np.array(real, dtype=bool), np.array(skip, dtype=bool)


def moments_reference(n_sites: int, t: float, b: float, lambda0: float, digits: int = 50) -> dict:
    """The base state, lambda1, x1 and the semi-axes at one point, in mpmath at digits.

    The amplitudes are those of amplitudes_mp, and the zero-order vector
    solves the 5x5 moments system (lambda0 I - G) z = M B written out from
    the blocks of W (mqtransfer.two_qubit.transfer_blocks); x0 = M^-1 z,
    rho44 = 1 + z4. lambda1 = theta tau w_big, and x1 is U^T (y, tau z) with
    z Q's null vector and y = (w_big - A)^-1 C z. c1_max and c2_max are the
    closed forms of mqtransfer.states.c2_rays and c1_rays, which lose no digits at
    this precision. Returns rho (rho11, rho22, rho33, rho44, rho23) and
    lambda1 as mpmath numbers, and s1 = c1_max lambda1 (0 unless lambda1 is
    real and positive) and s2 = c2_max lambda2 (0 unless lambda2 > 0), both
    of a positive base state.
    """
    with mp.workdps(digits):
        n = n_sites
        b, lam0 = mp.mpf(b), mp.mpf(lambda0)
        p, q, r, s = amplitudes_mp(n, t, digits)
        ex = mp.exp(-b)
        nw = 1 / (1 + ex)
        kw = ex * nw
        tau = mp.tanh(b / 2)
        theta = (-1) ** n * tau ** (n - 3)
        d = p * s - q * r
        w = [[p, q], [r, s]]
        ap, aq, ar, as_, ad = (abs(x) ** 2 for x in (p, q, r, s, d))
        one_body = ((0, 0), (1, 1), (0, 1), (1, 0))
        a = mp.matrix(5, 5)
        for row, (i, j) in enumerate(one_body):
            for col, (k, l) in enumerate(one_body):
                a[row, col] = -mp.conj(w[k][i]) * w[l][j]
            a[row, row] += lam0
        r2 = -(p * mp.conj(r) + q * mp.conj(s))
        for col, value in enumerate((ap + aq - ad, ar + as_ - ad, r2, mp.conj(r2))):
            a[4, col] = -kw * value
        a[4, 4] = lam0 - ad
        s2 = -(p * mp.conj(q) + r * mp.conj(s))
        rhs = mp.matrix([nw * (ap + ar - 1), nw * (aq + as_ - 1), nw * s2, nw * mp.conj(s2),
                         nw * nw * (ad - 1) + nw * kw * (ap + aq + ar + as_ - 2)])
        z = mp.lu_solve(a, rhs)
        rho = (mp.re(-z[0] - z[1] + z[4]), mp.re(z[1] - z[4]), mp.re(z[0] - z[4]),
               mp.re(1 + z[4]), z[2])
        # single-quantum factor: Q's larger root and the eigenvector of H
        half = (p + s) / 2
        root = mp.sqrt(((p - s) / 2) ** 2 + q * r)
        w_big = half + root if abs(half + root) >= abs(half - root) else half - root
        a_blk = [[d * mp.conj(s), d * mp.conj(q)], [d * mp.conj(r), d * mp.conj(p)]]
        c_blk = [[p - mp.conj(s) * d, -(mp.conj(q) * d + r)],
                 [-(mp.conj(r) * d + q), s - mp.conj(p) * d]]
        q_blk = [[p, -r], [-q, s]]
        zv = ([q_blk[0][1], w_big - q_blk[0][0]] if abs(q_blk[0][1]) + abs(w_big - q_blk[0][0])
              >= abs(w_big - q_blk[1][1]) + abs(q_blk[1][0])
              else [w_big - q_blk[1][1], q_blk[1][0]])
        cz = [c_blk[i][0] * zv[0] + c_blk[i][1] * zv[1] for i in range(2)]
        m = mp.matrix([[w_big - a_blk[0][0], -a_blk[0][1]], [-a_blk[1][0], w_big - a_blk[1][1]]])
        y = mp.lu_solve(m, mp.matrix(cz))
        x1 = [y[1] + tau * zv[1], y[0] + tau * zv[0], y[0] - tau * zv[0], tau * zv[1] - y[1]]
        norm = mp.sqrt(mp.fsum(abs(x) ** 2 for x in x1))
        x1 = [x / norm for x in x1]
        lam1 = theta * tau * w_big
        r11, r22, r33, r44, r23 = rho
        blk_min = (r22 + r33) / 2 - mp.sqrt(((r22 - r33) / 2) ** 2 + abs(r23) ** 2)
        positive = min(r11, r44, blk_min) >= 0
        s1 = s2v = mp.mpf(0)
        if positive:
            bm = mp.matrix([[x1[0], x1[1]], [mp.conj(x1[2]), mp.conj(x1[3])]])
            gm = bm.H * mp.diag([1 / r11, 1 / r44]) * bm
            pm = mp.inverse(mp.matrix([[r22, r23], [mp.conj(r23), r33]])) * gm
            tr, det = pm[0, 0] + pm[1, 1], pm[0, 0] * pm[1, 1] - pm[0, 1] * pm[1, 0]
            sigma2 = mp.re(tr / 2 + mp.sqrt(tr ** 2 / 4 - det))
            if abs(mp.im(lam1)) <= mp.mpf(10) ** (5 - digits) and mp.re(lam1) > 0:
                s1 = mp.re(lam1) / mp.sqrt(sigma2)
            if mp.re(d) > 0:
                s2v = mp.sqrt(r11 * r44) * mp.re(d)
        return {"rho": rho, "lambda1": lam1, "s1": s1, "s2": s2v, "positive": positive}
