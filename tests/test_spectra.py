"""The closed-form single-quantum eigenproblem and the spectral identities behind it.

Seeded property tests certify, for N up to 43 or 44 and so where no oracle
reaches, that a chain's single-quantum map F is block-triangular in the basis
of FIRST_BASIS with a quotient block built from the 2x2 transfer matrix
W = [[p, q], [r, s]], that the 5x5 zero-order map T0 is block
lower-triangular in the moments MOMENTS with the one-body block
X -> W^H X W, the spectra of F and of T0 in terms of the eigenvalues w1, w2
of W, and the uniform-scaling identity
lambda1 - lambda2 = w_big (c - w_small) that case 4's closed-form curve rests
on. These properties are checked on the hand-expanded coefficient table of
tests/reference.py, so they certify the paper's algebra and not the
assembly from the blocks, which holds by construction. The closed form is
then checked against the numerical eigen-solver on the optimizer's scan
grids, with the blocks read out of the expanded table.
"""

import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from mqtransfer import ChainSpec, OptProblem, first_window, mode_basis
from mqtransfer.chain import amplitude_grids
from mqtransfer.optimize import _curve
from mqtransfer.solvers import first_order_eig, zero_order_system
from mqtransfer.states import region_points
from reference import FIRST_BASIS, INVARIANT, QUOTIENT, expanded_entries, select_first_order

# derandomized: every run draws the same examples
SEEDED = settings(derandomize=True, database=None, deadline=None, max_examples=60)

chain_points = st.tuples(st.integers(4, 43), st.floats(0.0, 1.0), st.floats(0.0, 8.0))


def _chain(n, t_frac, b):
    """At t = 2 N t_frac: W, the scale c = k3 (E - 1) = (-1)^N tanh(b/2)^(N-2), F,
    the largest prefactor |k4| = E |k3| of F's entries (floored at 1e-300) and T0."""
    p, q, r, s = amplitude_grids(mode_basis(n), 2.0 * n * t_frac)
    first, zero, _ = expanded_entries(p, q, r, s, b, n)
    c = (-1) ** n * np.tanh(b / 2.0) ** (n - 2)
    k4 = np.exp(b / 2.0) * np.tanh(b / 2.0) ** (n - 3) / (2.0 * np.cosh(b / 2.0))
    return np.array([[p, q], [r, s]]), c, first, max(k4, 1e-300), zero_order_system(zero)[0]


def _power_sums_match(m, spectrum, tol=1e-12):
    """tr(m^k) = sum(spectrum^k) to tol for k = 1..dim: the spectrum as a multiset.

    Newton's identities fix a multiset from these sums, and unlike the
    eigenvalues themselves they stay well conditioned where two merge. The
    entries of m are sums of terms of order one (F's once divided by its
    prefactor; T0's, differences of the coefficient table's columns, as they
    are), so tol is absolute: cancellation can leave |m| far below the
    rounding of those terms.
    """
    power = np.eye(len(m))
    for k in range(1, len(m) + 1):
        power = power @ m
        if abs(np.trace(power) - np.sum(spectrum ** k)) > tol:
            return False
    return True


@SEEDED
@given(chain_points)
@example((42, 0.55, 3.0))
def test_first_order_map_is_block_triangular(point):
    w, c, first, scale, _ = _chain(*point)
    g = FIRST_BASIS @ first @ FIRST_BASIS.T
    (p, q), (r, s) = w
    assert np.abs(g[np.ix_(QUOTIENT, INVARIANT)]).max() <= 1e-12 * scale
    # the quotient block is c adj(W)^T
    quotient = g[np.ix_(QUOTIENT, QUOTIENT)]
    assert np.abs(quotient - c * np.array([[s, -r], [-q, p]])).max() <= 1e-12 * scale


# z = MOMENTS x: the sender's one-body matrix X = [[z0, z2], [z3, z1]], with
# z0 = -rho11 - rho22 and z1 = -rho11 - rho33 its occupations less one, and
# z4 = -rho11 - rho22 - rho33, rho44 less one, for x = (rho11, rho22, rho33,
# rho23, rho32)
MOMENTS = np.array([[-1, -1, 0, 0, 0], [-1, 0, -1, 0, 0], [0, 0, 0, 1, 0],
                    [0, 0, 0, 0, 1], [-1, -1, -1, 0, 0]], dtype=float)
ONE_BODY = ((0, 0), (1, 1), (0, 1), (1, 0))  # the X_ij held by z0..z3


@SEEDED
@given(chain_points)
@example((42, 0.55, 3.0))
@example((6, 0.0, 2.0))
def test_zero_order_map_is_block_triangular(point):
    # G = M T0 M^-1 is block lower-triangular; its one-body block is the
    # superoperator of X -> W^H X W and its last entry |det W|^2. T0's
    # entries are differences of terms of order one, so tol is absolute
    w, _, _, _, t0 = _chain(*point)
    g = MOMENTS @ t0 @ np.linalg.inv(MOMENTS)
    assert np.abs(g[:4, 4]).max() <= 1e-12
    superop = np.array([[np.conj(w[k, i]) * w[l, j] for k, l in ONE_BODY] for i, j in ONE_BODY])
    assert np.abs(g[:4, :4] - superop).max() <= 1e-12
    assert abs(g[4, 4] - abs(np.linalg.det(w)) ** 2) <= 1e-12


@SEEDED
@given(chain_points)
@example((42, 0.55, 3.0))
def test_first_order_spectrum_from_transfer_matrix(point):
    w, c, first, scale, _ = _chain(*point)
    w1, w2 = np.linalg.eigvals(w)
    spectrum = c * np.array([w1, w2, w1 * abs(w2) ** 2, w2 * abs(w1) ** 2])
    assert _power_sums_match(first / scale, spectrum / scale)


@SEEDED
@given(chain_points)
@example((42, 0.55, 3.0))
def test_zero_order_spectrum_from_transfer_matrix(point):
    w, _, _, _, t0 = _chain(*point)
    w1, w2 = np.linalg.eigvals(w)
    spectrum = np.array([abs(w1) ** 2, abs(w2) ** 2, w1 * np.conj(w2), w2 * np.conj(w1),
                         abs(w1 * w2) ** 2])
    assert _power_sums_match(t0, spectrum)


@SEEDED
@given(st.tuples(st.integers(4, 44), st.floats(0.0, 1.0), st.floats(0.0, 12.0)))
@example((42, 0.55, 3.9))
def test_uniform_scaling_identity_against_kernel(point):
    # with ph = (-i)^(N-2), tr W / ph and det W / ph^2 are real for every N. For
    # odd N, W's eigenvalues are then imaginary or a conjugate pair: no real
    # lambda1 and no curve. For even N a real lambda1 is c w_big, so
    # lambda1 - lambda2 = w_big (c - w_small) and the curve value is w_small.
    # Checked at 32 times spread over [0, 2N)
    n, t_frac, b = point
    t = 2.0 * n * ((t_frac + np.arange(32) / 32.0) % 1.0)
    p, q, r, s = amplitude_grids(mode_basis(n), t)
    ph = (-1j) ** (n - 2)
    assert np.abs(((p + s) / ph).imag).max() <= 1e-12
    assert np.abs(((p * s - q * r) / ph ** 2).imag).max() <= 1e-12
    points = region_points(ChainSpec(n), t, b)
    v, real, lam = _curve(n, t)
    found = np.flatnonzero(points.real & (np.abs(points.lambda1) > 1e-6))
    if n % 2:
        assert not found.size and np.isnan(v).all()
        return
    c = np.tanh(b / 2.0) ** (n - 2)
    for k in found:
        w_small, w_big = sorted(np.linalg.eigvals([[p[k], q[k]], [r[k], s[k]]]), key=abs)
        lam1, lam2 = points.lambda1[k], points.lambda2.real[k]
        assert abs(lam1 - (c * w_big).real) <= 1e-12
        assert abs(lam1 - lam2 - (w_big * (c - w_small)).real) <= 1e-12
        assert real[k] and abs(v[k] - w_small.real) <= 1e-12
        assert lam[k] == lam2


def _scan_maps(n):
    """Single-quantum maps on the optimizer's default scan grid, (nb, nt, 4, 4)."""
    problem = OptProblem(case=3)
    t_lo, t_hi = first_window(ChainSpec(n))
    ts = np.arange(t_lo, t_hi + 1e-9, problem.t_step)
    bs = np.arange(problem.b_window[0], problem.b_window[1] + 1e-9, problem.b_step)
    return expanded_entries(*amplitude_grids(mode_basis(n), ts), bs[:, None], n)[0]


def _blocks(maps):
    """first_order_eig's arguments for maps F (k, 4, 4): theta = tau = 1 and the
    blocks A, C and Q of U F U^T in the basis FIRST_BASIS, with rows and
    columns INVARIANT (u0, u3) and QUOTIENT (u1, u2)."""
    g = FIRST_BASIS @ maps @ FIRST_BASIS.T

    def entries(rows, cols):
        return tuple(g[:, i, j] for i in rows for j in cols)

    return (1.0, 1.0, entries(INVARIANT, INVARIANT), entries(INVARIANT, QUOTIENT),
            entries(QUOTIENT, QUOTIENT))


@pytest.mark.parametrize("n", [6, 10, 42])
def test_closed_form_matches_eigen_reference_on_scan_grid(n):
    maps = _scan_maps(n).reshape(-1, 4, 4)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        ev, selected, lam1, x1, real = first_order_eig(*_blocks(maps))
    refs = [select_first_order(m) for m in maps]
    assert np.array_equal(real, [ref is not None for ref in refs])
    # the same eigenvalues, ordered by the same moduli; which of two equal
    # moduli (a conjugate pair) comes first is arbitrary
    ref_ev = np.linalg.eigvals(maps)
    scale = np.maximum(np.abs(ref_ev).max(axis=1), 1e-300)[:, None]
    assert np.all(np.abs(np.abs(ev) - -np.sort(-np.abs(ref_ev), axis=1)) <= 1e-10 * scale)
    assert np.all(np.abs(ev[:, :, None] - ref_ev[:, None, :]).min(axis=2) <= 1e-10 * scale)
    # the selected eigenvalue, complex: where it is tiny, the absolute realness
    # tolerance admits an imaginary part comparable to it
    lam = ev[np.arange(len(ev)), selected]
    norms = np.linalg.norm(maps, axis=(1, 2))
    residual = np.linalg.norm(np.einsum("kij,kj->ki", maps, x1) - lam[:, None] * x1, axis=1)
    assert np.all(residual[real] <= 1e-12 * norms[real])
    assert np.allclose(np.linalg.norm(x1, axis=1), 1.0, rtol=0, atol=1e-14)
    checked = 0
    for k in np.flatnonzero(real):
        _, ref_selected, ref_lam1, ref_x1 = refs[k]
        assert selected[k] == ref_selected
        assert lam1[k] == pytest.approx(ref_lam1, rel=1e-10, abs=1e-10 * scale[k, 0])
        others = np.delete(ev[k], selected[k])
        gap = min(np.abs(others - lam[k]).min(), np.abs(np.abs(others) - abs(lam[k])).min())
        if gap > 1e-6 * abs(lam[k]):
            # equal up to a phase: gauge_fix can pick different components of
            # nearly equal modulus
            phase = np.vdot(ref_x1, x1[k])
            assert np.linalg.norm(x1[k] - phase / abs(phase) * ref_x1) <= 1e-9
            checked += 1
    assert checked > 0.9 * real.sum()


@pytest.mark.parametrize("b", [1e-6, 1e-3, 0.1])
def test_closed_form_on_tiny_maps(b):
    # at N = 42 the map's entries scale as tanh(b/2)^39: near 1e-247 at b = 1e-6.
    # Its eigenvalues are smaller still by tanh(b/2), the size of the rotated
    # map's diagonal blocks next to its coupling block C, so the rounding of
    # the zero block, amplified through C, moves a numerical eig's values by
    # up to 4e-3 of the largest; the closed form reads them off the blocks
    n = 42
    p, q, r, s = amplitude_grids(mode_basis(n), np.linspace(21.0, 44.0, 47))
    maps = expanded_entries(p, q, r, s, b, n)[0]
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        ev, selected, _, x1, real = first_order_eig(*_blocks(maps))
    assert real.all()
    w = np.linalg.eigvals(np.stack([p, q, r, s], axis=-1).reshape(-1, 2, 2))
    w1, w2 = w[:, 0], w[:, 1]
    spectrum = np.tanh(b / 2.0) ** (n - 2) * np.stack(
        [w1, w2, w1 * abs(w2) ** 2, w2 * abs(w1) ** 2], axis=1)
    scale = np.abs(spectrum).max(axis=1)[:, None]
    assert np.all(np.abs(ev[:, :, None] - spectrum[:, None, :]).min(axis=2) <= 1e-8 * scale)
    lam = ev[np.arange(len(ev)), selected]
    residual = np.linalg.norm(np.einsum("kij,kj->ki", maps, x1) - lam[:, None] * x1, axis=1)
    assert np.all(residual <= 1e-12 * np.linalg.norm(maps, axis=(1, 2)))
