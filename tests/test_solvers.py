import warnings

import numpy as np
import pytest

from mqtransfer import (
    ChainSpec,
    alpha_table,
    amplitude_set,
    gauge_fix,
    lambda2_landmark,
    mode_basis,
    receiver_from_sender,
    solve_first_order,
    solve_zero_order,
    zero_order_system,
)
from mqtransfer.solvers import first_order_at
from mqtransfer.states import assemble_sender, base_vector, region_cells, region_points, time_stage
from mqtransfer.chain import amplitude_grids
from mqtransfer.two_qubit import (BLOCK_BASIS, FIRST_LABELS, temperature_factors, transfer_blocks,
                                  transfer_spectrum)
from reference import solve_zero_order_dense


def _table(n, t, b):
    return alpha_table(amplitude_set(mode_basis(n), t), b, ChainSpec(n))


def _points(n, t, b):
    """The kernel's single-quantum temperature step at (t, b)."""
    return region_points(time_stage(ChainSpec(n), t), b)


def _x0(n, t, b, lambda0):
    """The kernel's zero-order vector at one point, and whether its cell is regular."""
    times = time_stage(ChainSpec(n), t)
    zero = solve_zero_order(times.spectrum, [lambda0])
    (x0,) = base_vector(region_cells(region_points(times, b), zero)[0])
    return x0, zero[1][0]


# ---------------------------------------------------------------------------
# double quantum


def test_lambda2_zero_time():
    assert abs(_table(6, 0.0, 1.0).second) < 1e-12


def test_lambda2_always_real(rng):
    for n in (4, 5, 6, 7):
        for _ in range(10):
            val = _table(n, rng.uniform(0, 3 * n), 1.0).second
            assert abs(val.imag) < 1e-12


def test_lambda2_landmark_n6():
    t, val = lambda2_landmark(ChainSpec(6))
    assert t == pytest.approx(8.5153, abs=1e-2)
    assert abs(val) == pytest.approx(0.8960, abs=1e-3)


# ---------------------------------------------------------------------------
# first order


def test_first_order_zero_at_infinite_temperature():
    table = _table(6, 5.3, 0.0)
    assert np.max(np.abs(table.first)) == 0.0
    # every vector is an eigenvector of the zero map: the kernel reports e12
    points = _points(6, np.array([0.0, 5.3, 9.1]), 0.0)
    assert np.all(points.eigenvalues == 0.0) and points.real.all()
    assert np.array_equal(points.x1, np.tile([1.0, 0.0, 0.0, 0.0], (3, 1)))


def test_first_order_consistency_with_map(rng):
    # applying the matrix to the sender vector reproduces the mapped elements
    from mqtransfer.two_qubit import random_density
    table = _table(6, rng.uniform(3, 9), rng.uniform(0.5, 8))
    rho_s = random_density(rng)
    out = receiver_from_sender(table, rho_s)
    idx = {"1": 0, "2": 1, "3": 2, "4": 3}
    svec = np.array([rho_s[idx[a[0]], idx[a[1]]] for a in FIRST_LABELS])
    rvec = np.array([out[idx[a[0]], idx[a[1]]] for a in FIRST_LABELS])
    assert np.max(np.abs(table.first @ svec - rvec)) < 1e-12


def test_first_order_landmark_eigenvalue():
    points = _points(6, 5.0326, 10.0)
    assert points.real
    assert points.lambda1 == pytest.approx(0.8145, abs=1e-3)


def test_solve_first_order_quotient_eigenvector():
    # the eigenvector of lambda1 = c w_big lives on the quotient block: with z Q's
    # eigenvector for w_big and y = (w_big - A)^-1 C z from a dense solve on the
    # blocks of transfer_blocks, x1 is U^T (y, tau z) up to a phase, and an
    # eigenvector of the coefficient table's single-quantum map
    for n, t, b in ((6, 5.3768, 5.3790), (6, 5.0326, 10.0), (42, 41.33, 9.0)):
        p, q, r = amplitude_grids(mode_basis(n), t)
        a, c, qb = (np.array(x).reshape(2, 2) for x in transfer_blocks(p, q, r)[0])
        w, vecs = np.linalg.eig(qb)
        k = int(np.argmax(np.abs(w)))
        z = vecs[:, k]
        y = np.linalg.solve(w[k] * np.eye(2) - a, c @ z)
        _, tau, _, _ = temperature_factors(b, n)
        x = BLOCK_BASIS.T @ np.concatenate([y, tau * z])
        x = x / np.linalg.norm(x)
        points = _points(n, t, b)
        assert points.real
        phase = np.vdot(x, points.x1)
        assert np.linalg.norm(points.x1 - phase / abs(phase) * x) <= 1e-12
        f = _table(n, t, b).first
        assert np.linalg.norm(f @ points.x1 - points.lambda1 * points.x1) <= 1e-12 * np.abs(f).max()


def test_solve_first_order_ordering(rng):
    # on a chain's blocks the eigenvalues come by descending modulus as listed
    # (Q's larger and smaller root, then A's), and they are those of the dense map
    for _ in range(20):
        n = int(rng.integers(4, 45))
        t, b = rng.uniform(0.0, 3.0 * n), rng.uniform(0.0, 10.0)
        p, q, r = amplitude_grids(mode_basis(n), t)
        first, _, _ = transfer_blocks(p, q, r)
        theta, tau, _, _ = temperature_factors(b, n)
        ev, _, _ = first_order_at(solve_first_order(first, transfer_spectrum(p, q, r, n)),
                                  theta, tau)
        mods = np.abs(ev)
        assert np.all(np.diff(mods) <= 1e-12)
        dense = np.linalg.eigvals(_table(n, t, b).first)
        assert np.abs(ev[:, None] - dense[None, :]).min(axis=1).max() <= 1e-12


def test_solve_first_order_takes_the_chains_eigen_data_only():
    # W's eigen-data comes from transfer_spectrum, not from a block: passed the
    # three blocks, or a block in place of the eigen-data, it refuses
    p, q, r = amplitude_grids(mode_basis(6), 5.3)
    first, _, _ = transfer_blocks(p, q, r)
    with pytest.raises(TypeError):
        solve_first_order(*first)
    with pytest.raises(AttributeError):
        solve_first_order(first, first[2])


def test_first_order_eig_on_subnormal_maps():
    # at N = 4, t = 0 and b near 1.5e-305 max|F| is subnormal (4e-322): the
    # block scale must keep a finite reciprocal for the eigenvector
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for b in (1.5302537705130027e-305, 1e-305, 5e-324):
            points = _points(4, np.array([0.0, 1.0, 3.3]), b)
            assert np.all(np.isfinite(points.lambda1)) and np.all(np.isfinite(points.x1))
            assert np.all(np.isfinite(points.eigenvalues))


def test_solve_first_order_printed_point():
    points = _points(6, 5.3768, 5.3790)
    assert points.real
    assert points.lambda1 == pytest.approx(0.7613, abs=1e-3)
    expected = np.array([0.88361, -0.46820j, -0.00216j, -0.00408])
    assert np.max(np.abs(gauge_fix(points.x1) - expected)) < 1e-3


def test_solve_first_order_absent():
    # above the realness boundary every eigenvalue is complex
    points = _points(6, 5.75, 0.5)
    assert not points.real
    assert np.all(np.abs(points.eigenvalues.imag) > 1e-3 * np.abs(points.eigenvalues))


def test_gauge_fix():
    v = np.array([0.3j, -0.8, 0.1])
    fixed = gauge_fix(v)
    k = np.argmax(np.abs(fixed))
    assert fixed[k].imag == pytest.approx(0.0, abs=1e-15)
    assert fixed[k].real > 0


def test_gauge_fix_of_one_vector_is_its_row_of_a_batch(rng):
    # one vector takes the path that indexes its largest entry; a batch takes
    # take_along_axis. Rows with ties of modulus pick the first, as argmax does
    batch = rng.normal(size=(64, 4)) + 1j * rng.normal(size=(64, 4))
    batch[:8] = [0.5, -0.5j, 0.5, 0.1]
    batch[8:16, 2] = 0.0
    fixed = gauge_fix(batch)
    for row, want in zip(batch, fixed):
        got = gauge_fix(row)
        assert got.shape == (4,) and np.array_equal(got, want)


# ---------------------------------------------------------------------------
# zero order


def test_zero_order_row_sums_match_mixed_state():
    # T0 (1/4,1/4,1/4,0,0) + B equals the receiver zero-order data of the
    # maximally mixed sender
    table = _table(6, 6.1, 2.7)
    t0, b_vec = zero_order_system(table)
    got = t0 @ np.array([0.25, 0.25, 0.25, 0.0, 0.0]) + b_vec
    out = receiver_from_sender(table, np.eye(4) / 4.0)
    expected = np.array([out[0, 0], out[1, 1], out[2, 2], out[1, 2], out[2, 1]])
    assert np.max(np.abs(got - expected)) < 1e-12


def test_zero_order_hermiticity_pairing(rng):
    table = _table(5, rng.uniform(2, 8), rng.uniform(0, 6))
    t0, b_vec = zero_order_system(table)
    swap = [0, 1, 2, 4, 3]
    assert np.max(np.abs(t0[4] - np.conj(t0[3][swap]))) < 1e-14
    assert b_vec[4] == pytest.approx(np.conj(b_vec[3]), abs=1e-14)


def test_zero_order_printed_solution():
    x0, regular = _x0(6, 8.5153, 10.0, 1.0837)
    assert regular
    expected = np.array([0.40596, 0.15131, 0.14467, 0.00010j, -0.00010j])
    assert np.max(np.abs(x0 - expected)) < 1e-3


def test_zero_order_infinite_temperature_identity():
    # at b = 0 and lambda0 = 1 the maximally mixed diagonal solves the system
    x0, regular = _x0(6, 8.5153, 0.0, 1.0)
    assert regular
    assert np.max(np.abs(x0 - np.array([0.25, 0.25, 0.25, 0, 0]))) < 1e-10


def test_zero_order_solution_structure(rng):
    # the closed form solves the dense system of the table: the residual is
    # the one mqtransfer solve reports
    t, b, lambda0 = rng.uniform(3, 9), rng.uniform(0, 8), rng.uniform(0.9, 1.6)
    t0, b_vec = zero_order_system(_table(6, t, b))
    x0, regular = _x0(6, t, b, lambda0)
    assert regular
    assert np.linalg.norm((lambda0 * np.eye(5) - t0) @ x0 - b_vec) < 1e-10
    assert np.max(np.abs(x0[:3].imag)) < 1e-10
    assert x0[4] == pytest.approx(np.conj(x0[3]), abs=1e-10)


@pytest.mark.parametrize("b", [0.0, 5e-324, 1e-305, 1e-6])
def test_zero_order_at_tiny_temperature_factors(b):
    # the closed form at b = 0 and tiny b, over t = 0 (W = 0) and later times,
    # against the dense solve, with warnings as errors
    spec = ChainSpec(6)
    ts = np.array([0.0, 1.0, 5.6958, 8.5153])
    l0s = np.array([0.6, 1.0, 1.0837, 1.9])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        times = time_stage(spec, ts)
        zero = solve_zero_order(times.spectrum, l0s)
        base, ok, _, _ = region_cells(region_points(times, b), zero)
        x0 = base_vector(base)
        for i, t in enumerate(ts):
            t0, b_vec = zero_order_system(_table(6, float(t), b))
            for j, l0 in enumerate(l0s):
                ref = solve_zero_order_dense(t0, b_vec, float(l0))
                assert np.max(np.abs(x0[i, j] - ref)) < 1e-12
    assert np.all(np.isfinite(x0)) and ok.any()


def test_zero_order_singular_guard():
    # lambda0 on a real eigenvalue of the dense T0 is a singular cell
    t0, _ = zero_order_system(_table(6, 5.3, 0.0))
    ev = np.linalg.eigvals(t0)
    real_ev = ev[np.abs(ev.imag) < 1e-9][0].real
    assert not _x0(6, 5.3, 0.0, float(real_ev))[1]


# ---------------------------------------------------------------------------
# scaled-transfer identities


def test_scaled_transfer_identities(rng):
    # senders built on the solver outputs come out block-scaled exactly
    for _ in range(5):
        t, b = rng.uniform(3, 9), rng.uniform(0.5, 9)
        table = _table(6, t, b)
        first = _points(6, t, b)
        if not first.real:
            continue
        lam0 = rng.uniform(0.9, 1.5)
        x0, regular = _x0(6, t, b, lam0)
        if not regular:
            continue
        c1, c2 = 0.02, 0.02
        sender = assemble_sender(x0, first.x1, c1=c1, c2=c2)
        out = receiver_from_sender(table, sender)
        # double quantum scales by lambda2
        assert out[0, 3] == pytest.approx(table.second * c2, abs=1e-10)
        # single quantum scales by lambda1
        idx = {"1": 0, "2": 1, "3": 2, "4": 3}
        for k, lab in enumerate(FIRST_LABELS):
            i, j = idx[lab[0]], idx[lab[1]]
            assert out[i, j] == pytest.approx(first.lambda1 * c1 * first.x1[k], abs=1e-10)
        # zero order scales by lambda0 around the trace anchor
        for i in range(3):
            assert out[i, i].real == pytest.approx(lam0 * x0[i].real, abs=1e-10)
        assert out[1, 2] == pytest.approx(lam0 * x0[3], abs=1e-10)
