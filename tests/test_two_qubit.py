import dataclasses
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from mqtransfer import (
    AlphaTable,
    ChainSpec,
    ValidationError,
    amplitude_set,
    alpha_table,
    decompose_blocks,
    mode_basis,
    random_density,
    receiver_from_sender,
    region_metrics,
    solve_zero_order,
)
from mqtransfer.chain import amplitude_grids
from mqtransfer.oracle import evolve_and_trace
from mqtransfer.states import assemble_sender, base_vector, region_cells, region_points, time_stage
from mqtransfer.two_qubit import FIRST_LABELS, ZERO_COLS, ZERO_ROWS, alpha_entries
from reference import expanded_entries


def _table(n, t, b):
    spec = ChainSpec(n)
    return alpha_table(amplitude_set(mode_basis(n), t), b, spec)


def _random_hermitian(rng, dim=4):
    g = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    return (g + g.conj().T) / 2.0


# ---------------------------------------------------------------------------
# coherence blocks


def test_blocks_identity():
    blocks = decompose_blocks(np.eye(4) / 4.0)
    assert np.allclose(blocks[0], np.eye(4) / 4.0)
    for n in (-2, -1, 1, 2):
        assert np.all(blocks[n] == 0)


def test_blocks_double_quantum_element():
    m = np.zeros((4, 4), dtype=complex)
    m[0, 3] = 0.3 + 0.1j
    m[3, 0] = 0.3 - 0.1j
    blocks = decompose_blocks(m)
    assert blocks[2][0, 3] == 0.3 + 0.1j
    assert blocks[-2][3, 0] == 0.3 - 0.1j
    assert np.all(blocks[0] == 0)


def test_blocks_round_trip(rng):
    m = _random_hermitian(rng)
    blocks = decompose_blocks(m)
    assert np.max(np.abs(sum(blocks.values()) - m)) < 1e-15


def test_blocks_adjoint_pairing(rng):
    blocks = decompose_blocks(_random_hermitian(rng))
    for n in (1, 2):
        assert np.max(np.abs(blocks[-n] - blocks[n].conj().T)) < 1e-15


def test_blocks_reject_non_hermitian(rng):
    m = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    with pytest.raises(ValidationError):
        decompose_blocks(m)


# ---------------------------------------------------------------------------
# coefficient table


def test_table_zero_time():
    table = _table(6, 0.0, 1.3)
    assert abs(table.second) < 1e-12


def test_table_landmark_value():
    table = _table(6, 8.5153, 10.0)
    assert abs(table.second) == pytest.approx(0.8960, abs=1e-3)


def test_table_conjugation_pairs(rng):
    table = _table(5, rng.uniform(0, 15), rng.uniform(0, 6))
    assert table.coeff("11", "23") == pytest.approx(np.conj(table.coeff("11", "32")), abs=1e-15)
    assert table.coeff("22", "23") == pytest.approx(np.conj(table.coeff("22", "32")), abs=1e-15)
    for nm in ZERO_COLS:
        swapped = {"23": "32", "32": "23"}.get(nm, nm)
        assert table.coeff("32", nm) == pytest.approx(np.conj(table.coeff("23", swapped)), abs=1e-15)


@settings(derandomize=True, database=None, deadline=None, max_examples=100)
@given(st.tuples(st.integers(4, 43), st.floats(0.0, 1.0), st.floats(0.0, 30.0)))
@example((42, 0.55, 3.0))
@example((6, 0.0, 0.0))
def test_table_matches_expanded_reference(point):
    # the table assembled from the blocks of W against the hand-expanded
    # algebra, at t = 2 N t_frac: first to 1e-13 of its largest prefactor
    # |k4| = e^(b/2) tanh(b/2)^(N-3) / (2 cosh(b/2)), zero to 1e-13
    n, t_frac, b = point
    p, q, r = amplitude_grids(mode_basis(n), 2.0 * n * t_frac)
    first, zero, second = alpha_entries(p, q, r, b, n)
    ref_first, ref_zero, ref_second = expanded_entries(p, q, r, p, b, n)
    k4 = np.exp(b / 2.0) * np.tanh(b / 2.0) ** (n - 3) / (2.0 * np.cosh(b / 2.0))
    assert np.abs(first - ref_first).max() <= 1e-13 * k4
    assert np.abs(zero - ref_zero).max() <= 1e-13
    assert second == ref_second
    # the conjugation pairs are exact: column 32 of the population rows, and
    # row 32 against row 23 with the 23 and 32 columns swapped
    assert np.array_equal(zero[:3, 5], np.conj(zero[:3, 4]))
    assert np.array_equal(zero[4], np.conj(zero[3, [0, 1, 2, 3, 5, 4]]))


@pytest.mark.parametrize("b", [354.0, 700.0, 1e308])
def test_map_is_finite_at_large_b(b):
    # written in e^-b, tanh(b/2) and n = 1 / (1 + e^-b), the map reaches its
    # b -> infinity limit without overflow: at b = 60 it is there to 1e-26
    spec = ChainSpec(6)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        table, limit = (_table(6, 5.3768, x) for x in (b, 60.0))
        report, limit_report = (region_metrics(spec, 5.3768, x, 1.0837, 3) for x in (b, 60.0))
    for got, want in ((table.first, limit.first), (table.zero, limit.zero),
                      (table.second, limit.second)):
        assert np.all(np.isfinite(got)) and np.max(np.abs(got - want)) <= 1e-12
    assert report.feasible and limit_report.feasible
    for key in ("s1", "s2", "s12", "lambda1", "lambda2", "c1_max", "c2_max"):
        assert getattr(report, key) == pytest.approx(getattr(limit_report, key), rel=1e-12)
    assert np.max(np.abs(report.x0 - limit_report.x0)) <= 1e-12
    assert np.max(np.abs(report.x1 - limit_report.x1)) <= 1e-12


def test_every_coefficient_against_oracle():
    # the map is linear: feeding unit sender elements through the dense
    # evolution extracts each coefficient exactly
    for n, t, b in ((4, 1.7, 0.9), (4, 3.1, 0.0), (5, 5.3, 2.4), (6, 8.5153, 10.0)):
        spec = ChainSpec(n)
        table = _table(n, t, b)
        idx = {"1": 0, "2": 1, "3": 2, "4": 3}
        numeric = {}
        for nm in set(ZERO_COLS) | set(FIRST_LABELS) | {"14"}:
            unit = np.zeros((4, 4), dtype=complex)
            unit[idx[nm[0]], idx[nm[1]]] = 1.0
            numeric[nm] = evolve_and_trace(unit, t, b, spec)
        for ij in ZERO_ROWS:
            for nm in ZERO_COLS:
                ref = numeric[nm][idx[ij[0]], idx[ij[1]]]
                assert table.coeff(ij, nm) == pytest.approx(ref, abs=1e-10), (ij, nm)
        for ij in FIRST_LABELS:
            for nm in FIRST_LABELS:
                ref = numeric[nm][idx[ij[0]], idx[ij[1]]]
                assert table.coeff(ij, nm) == pytest.approx(ref, abs=1e-10), (ij, nm)
        assert table.coeff("14", "14") == pytest.approx(numeric["14"][0, 3], abs=1e-10)


# ---------------------------------------------------------------------------
# receiver map


def test_receiver_matches_oracle(rng):
    spec = ChainSpec(6)
    basis = mode_basis(6)
    for _ in range(8):
        rho_s = random_density(rng)
        t, b = rng.uniform(0, 12), rng.uniform(0, 6)
        table = alpha_table(amplitude_set(basis, t), b, spec)
        dense = evolve_and_trace(rho_s, t, b, spec)
        assert np.linalg.norm(receiver_from_sender(table, rho_s) - dense) < 1e-9


def test_receiver_maximally_mixed_vs_oracle():
    spec = ChainSpec(5)
    table = _table(5, 4.2, 1.1)
    got = receiver_from_sender(table, np.eye(4) / 4.0)
    dense = evolve_and_trace(np.eye(4, dtype=complex) / 4.0, 4.2, 1.1, spec)
    assert np.linalg.norm(got - dense) < 1e-10


def test_receiver_zeroed_first_order_block(rng):
    table = _table(6, 5.1, 2.2)
    rho_s = random_density(rng)
    for i, j in ((0, 1), (0, 2), (1, 3), (2, 3)):
        rho_s[i, j] = 0.0
        rho_s[j, i] = 0.0
    out = receiver_from_sender(table, rho_s)
    for i, j in ((0, 1), (0, 2), (1, 3), (2, 3)):
        assert abs(out[i, j]) < 1e-15


def test_receiver_scales_double_quantum_weight():
    # sender built on the zero-order solution plus a double-quantum weight
    spec = ChainSpec(6)
    table = _table(6, 8.5153, 10.0)
    times = time_stage(spec, 8.5153)
    zero = solve_zero_order(times.spectrum, [1.0837])
    (x0,) = base_vector(region_cells(region_points(times, 10.0), zero)[0])
    c2 = 0.2
    sender = assemble_sender(x0, c2=c2)
    out = receiver_from_sender(table, sender)
    assert out[0, 3] == pytest.approx(table.second * c2, abs=1e-12)
    assert abs(out[0, 3]) == pytest.approx(0.8960 * c2, abs=1e-3 * c2)


def test_block_independence(rng):
    # changing one sender block must not move any other receiver block
    table = _table(6, 6.7, 3.8)
    rho_s = random_density(rng)
    base = decompose_blocks(receiver_from_sender(table, rho_s))
    bumped = rho_s.copy()
    bumped[0, 3] += 0.05
    bumped[3, 0] += 0.05
    pert = decompose_blocks(receiver_from_sender(table, bumped))
    for n in (-1, 0, 1):
        assert np.max(np.abs(pert[n] - base[n])) < 1e-12


def test_receiver_trace_hermiticity_psd(rng):
    table = _table(6, 7.7, 4.4)
    for _ in range(5):
        out = receiver_from_sender(table, random_density(rng))
        assert np.trace(out) == pytest.approx(1.0, abs=1e-14)
        assert np.max(np.abs(out - out.conj().T)) < 1e-14
        assert np.linalg.eigvalsh(out).min() >= -1e-10


def test_receiver_validates_input(rng):
    table = _table(5, 3.0, 1.0)
    with pytest.raises(ValidationError):
        receiver_from_sender(table, rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4)))


# the identity map as a table (rows ZERO_ROWS, columns ZERO_COLS): the receiver is the sender
IDENTITY_TABLE = AlphaTable(n_sites=6, b=1.0, zero=np.eye(6, dtype=complex)[[0, 1, 2, 4, 5]],
                            first=np.eye(4, dtype=complex), second=1.0)


def test_receiver_flags_a_positive_sender_that_leaves_positivity():
    # a table altered to scale the double-quantum coefficient tenfold breaks positivity:
    # the warning fires for a positive sender, and not for a sender that is not positive,
    # nor for the unaltered identity map
    sender = np.eye(4, dtype=complex) / 4.0
    sender[0, 3] = sender[3, 0] = 0.2
    not_positive = sender.copy()
    not_positive[0, 3] = not_positive[3, 0] = 0.3
    altered = dataclasses.replace(IDENTITY_TABLE, second=10.0)
    with pytest.warns(RuntimeWarning, match="failed positivity"):
        receiver_from_sender(altered, sender)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert np.linalg.eigvalsh(receiver_from_sender(altered, not_positive)).min() < -1e-8
        assert np.array_equal(receiver_from_sender(IDENTITY_TABLE, sender), sender)
