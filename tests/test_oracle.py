"""The receiver-end Jordan-Wigner certifier of mqtransfer.oracle.

The brute-force sector reference of tests/reference.py (sector_trace) is
checked against the dense 2^N evolution, the certifier against it up to
N = 12, and the analytic maps against the certifier up to N = 100.
"""

import functools
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from mqtransfer import (
    ChainSpec,
    Qubit1State,
    ResourceError,
    ValidationError,
    alpha_table,
    amplitude_set,
    build_hamiltonian,
    endpoint_amplitude,
    mode_basis,
    receiver_from_sender,
    receiver_state_1q,
)
import reference
from mqtransfer import oracle
from mqtransfer.oracle import evolve_and_trace
from mqtransfer.two_qubit import decompose_blocks, random_density
from reference import sector_trace, thermal_background


def _excitation_counts(n):
    return np.array([bin(s).count("1") for s in range(1 << n)])


@functools.lru_cache(maxsize=None)
def _dense_spectrum(n):
    return np.linalg.eigh(build_hamiltonian(ChainSpec(n)))


def _dense_evolve_and_trace(sender, t, b, n):
    # certifying reference: full 2^N Hamiltonian, one eigh per N, full
    # evolution, trace over all but the trailing receiver sites
    n_sender = sender.shape[0].bit_length() - 1
    evals, evecs = _dense_spectrum(n)
    rho0 = np.kron(sender, thermal_background(b, n - n_sender))
    u = (evecs * np.exp(-1j * evals * t)) @ evecs.conj().T
    rho_t = u @ rho0 @ u.conj().T
    d_env, d_rec = 1 << (n - n_sender), 1 << n_sender
    return np.einsum("iaib->ab", rho_t.reshape(d_env, d_rec, d_env, d_rec))


def test_hamiltonian_n2():
    h = build_hamiltonian(ChainSpec(2))
    expected = np.zeros((4, 4))
    expected[1, 2] = expected[2, 1] = 0.5
    assert np.allclose(h, expected)


def test_hamiltonian_conserves_excitations():
    for n in (3, 5):
        h = build_hamiltonian(ChainSpec(n))
        counts = _excitation_counts(n)
        commutator = h * (counts[None, :] - counts[:, None])
        assert np.max(np.abs(commutator)) < 1e-12


def test_single_excitation_sector_spectrum():
    for n in (3, 6):
        h = build_hamiltonian(ChainSpec(n))
        counts = _excitation_counts(n)
        idx = np.nonzero(counts == 1)[0]
        sector = h[np.ix_(idx, idx)]
        evals = np.sort(np.linalg.eigvalsh(sector))
        assert np.allclose(evals, np.sort(mode_basis(n).energies), atol=1e-12)


def test_resource_guard():
    # the dense 2^N matrix is capped; the certifier needs only the N x N hopping matrix
    with pytest.raises(ResourceError):
        build_hamiltonian(ChainSpec(13))


def test_thermal_background():
    assert np.allclose(thermal_background(0.0, 3), np.eye(8) / 8.0)
    w = thermal_background(2.0, 1)
    ch = 2.0 * np.cosh(1.0)
    assert np.allclose(np.diag(w), [np.exp(1.0) / ch, np.exp(-1.0) / ch])
    for b in (0.3, 1.7, 6.0):
        assert np.trace(thermal_background(b, 4)) == pytest.approx(1.0, abs=1e-14)
    for b in (np.nan, np.inf, -1.0):
        with pytest.raises(ValidationError):
            thermal_background(b, 2)


def test_zero_time_gives_thermal_marginal():
    b = 1.4
    out = evolve_and_trace(np.eye(4, dtype=complex) / 4.0, 0.0, b, ChainSpec(6))
    expected = np.kron(thermal_background(b, 1), thermal_background(b, 1))
    assert np.max(np.abs(out - expected)) < 1e-13


def test_single_excitation_transfer_probability():
    # |f(t)|^2 equals the dense end-to-end excitation transfer probability
    n = 3
    spec = ChainSpec(n)
    basis = mode_basis(n)
    sender = np.diag([0.0, 1.0]).astype(complex)   # excited site 1
    for t in (0.7, 2.4, 5.9):
        out = evolve_and_trace(sender, t, 40.0, spec)   # cold background
        assert out[1, 1].real == pytest.approx(abs(endpoint_amplitude(basis, t)) ** 2,
                                               abs=1e-10)


def test_receiver_trace_and_hermiticity(rng):
    spec = ChainSpec(5)
    for _ in range(5):
        out = evolve_and_trace(random_density(rng), rng.uniform(0, 10), rng.uniform(0, 5), spec)
        assert np.trace(out) == pytest.approx(1.0, abs=1e-12)
        assert np.max(np.abs(out - out.conj().T)) < 1e-12
        assert np.linalg.eigvalsh(out).min() >= -1e-10


def test_excitation_sector_populations_constant(rng):
    # populations of fixed-excitation sectors do not move under evolution
    n = 4
    spec = ChainSpec(n)
    h = build_hamiltonian(spec)
    evals, evecs = np.linalg.eigh(h)
    rho0 = np.kron(random_density(rng), np.diag([0.6, 0.1, 0.1, 0.2]))
    counts = _excitation_counts(n)
    for t in (1.3, 4.1):
        u = (evecs * np.exp(-1j * evals * t)) @ evecs.conj().T
        rho_t = u @ rho0 @ u.conj().T
        for k in range(n + 1):
            mask = counts == k
            p0 = np.sum(np.diag(rho0).real[mask])
            pt = np.sum(np.diag(rho_t).real[mask])
            assert pt == pytest.approx(p0, abs=1e-12)


def test_oracle_block_non_mixing(rng):
    # structural check independent of the analytic map: perturbing one sender
    # block leaves the other receiver blocks untouched
    spec = ChainSpec(5)
    t, b = 3.7, 1.9
    rho_s = random_density(rng)
    base = decompose_blocks(evolve_and_trace(rho_s, t, b, spec))
    bumped = rho_s.copy()
    bumped[0, 1] += 0.03
    bumped[1, 0] += 0.03
    pert = decompose_blocks(evolve_and_trace(bumped, t, b, spec))
    for order in (0, 2, -2):
        assert np.max(np.abs(pert[order] - base[order])) < 1e-12


@pytest.mark.parametrize("n_sender", [1, 2])
def test_sector_oracle_matches_dense_reference(rng, n_sender):
    # the sector reference against the full 2^N evolution; the map is linear, so a
    # general complex matrix exercises every block
    for n in range(2 * n_sender, 10):
        points = [(0.0, 0.0), (0.0, 1.3), (2.1, 0.0)] + [
            (rng.uniform(0, 2 * n), rng.uniform(0, 6)) for _ in range(2)]
        for t, b in points:
            dim = 1 << n_sender
            sender = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
            got = sector_trace(sender, t, b, n)
            assert np.max(np.abs(got - _dense_evolve_and_trace(sender, t, b, n))) < 1e-12


@pytest.mark.parametrize("n_sender", [1, 2])
def test_certifier_matches_sector_reference(rng, n_sender):
    # N = 2..12 (one-qubit sender) and 4..12 (two-qubit), at t = 0, at b = 0 and at
    # random points, on general complex senders
    dim = 1 << n_sender
    for n in range(2 * n_sender, 13):
        points = [(0.0, 0.0), (0.0, 1.3), (2.1, 0.0)] + [
            (rng.uniform(0, 3 * n), rng.uniform(0, 10)) for _ in range(2 if n < 11 else 1)]
        for t, b in points:
            sender = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
            got = evolve_and_trace(sender, t, b, ChainSpec(n))
            assert np.max(np.abs(got - sector_trace(sender, t, b, n))) <= 1e-12


def _check_maps_at(rng, n, t, b):
    # both sender sizes: the two-qubit table map and the one-qubit map
    spec = ChainSpec(n)
    rho_s = random_density(rng)
    table = alpha_table(amplitude_set(mode_basis(n), t), b, spec)
    assert np.linalg.norm(receiver_from_sender(table, rho_s)
                          - evolve_and_trace(rho_s, t, b, spec)) < 1e-9
    state = Qubit1State.pure(rng.uniform(0, 1), rng.uniform(0, 2 * np.pi))
    sender = np.array([[1 - state.a1_sq, state.phase_prod],
                       [np.conj(state.phase_prod), state.a1_sq]])
    assert np.linalg.norm(receiver_state_1q(state, t, b, spec)
                          - evolve_and_trace(sender, t, b, spec)) < 1e-9


def _check_analytic_maps_against_oracle(rng, n, points):
    for _ in range(points):
        _check_maps_at(rng, n, rng.uniform(0, 2 * n), rng.uniform(0, 6))


def test_analytic_maps_match_oracle_n10(rng):
    # N = 10 is an N = 2 + 4n chain, where the uniform-scaling curve exists
    _check_analytic_maps_against_oracle(rng, 10, 3)


@pytest.mark.parametrize("n", [11, 12])
def test_analytic_maps_match_oracle_up_to_max_sites(rng, n):
    # the last chains the sector reference also reaches (test_certifier_matches_sector_reference)
    _check_analytic_maps_against_oracle(rng, n, 1)


@pytest.mark.parametrize("n", [14, 18, 42, 43, 100])
def test_analytic_maps_match_certifier_at_long_chains(rng, n):
    # past the sector reference: random points, t = 0, t = N, b = 0 and b = 10
    points = [(0.0, 2.0), (n, 0.0), (n, 10.0), (rng.uniform(0, 3 * n), 0.0),
              (rng.uniform(0, 3 * n), 10.0)] + [(rng.uniform(0, 3 * n), rng.uniform(0, 10))
                                               for _ in range(3)]
    for t, b in points:
        _check_maps_at(rng, n, t, b)


def test_analytic_maps_match_certifier_at_the_n42_optima(rng, table_n42_free, table_n42_one):
    # the (t, b) of every optimum criterion 6 checks, in both lambda0 modes
    for results in (table_n42_free, table_n42_one):
        for res in results.values():
            _check_maps_at(rng, 42, res.t_opt, res.b_opt)


@settings(derandomize=True, database=None, deadline=None, max_examples=40)
@given(st.integers(4, 64), st.floats(0.0, 1.0), st.floats(0.0, 10.0), st.integers(0, 2**32 - 1))
@example(42, 0.0, 0.0, 0)
@example(64, 1.0, 10.0, 1)
def test_analytic_maps_match_certifier_property(n, t_frac, b, seed):
    # t = 3 N t_frac over [0, 3N], b over [0, 10]
    _check_maps_at(np.random.default_rng(seed), n, 3.0 * n * t_frac, b)


def test_oracle_caches_are_keyed_by_sender_size(rng):
    # the sector reference's Gram index sets depend on (N, n_sender): alternating
    # sender sizes at one N gives what a run on empty caches gives
    t, b = 2.9, 0.8
    senders = [random_density(rng), np.array([[0.3, 0.2 - 0.1j], [0.2 + 0.1j, 0.7]]),
               random_density(rng)]
    cached = [sector_trace(sender, t, b, 6) for sender in senders]
    for sender, got in zip(senders, cached):
        reference.sectors.cache_clear()
        reference.gram_groups.cache_clear()
        fresh = sector_trace(sender, t, b, 6)
        assert got.shape == fresh.shape == sender.shape
        assert np.max(np.abs(got - fresh)) < 1e-15


def test_certifier_skeleton_is_keyed_by_sender_size(rng):
    # the certifier's skeleton depends on the sender size alone: alternating 2x2 and
    # 4x4 senders at one N gives what a run on an empty cache gives
    t, b, spec = 2.9, 0.8, ChainSpec(6)
    senders = [random_density(rng), np.array([[0.3, 0.2 - 0.1j], [0.2 + 0.1j, 0.7]]),
               random_density(rng), np.array([[0.6, 0.1j], [-0.1j, 0.4]])]
    cached = [evolve_and_trace(sender, t, b, spec) for sender in senders]
    for sender, got in zip(senders, cached):
        oracle._skeleton.cache_clear()
        fresh = evolve_and_trace(sender, t, b, spec)
        assert got.shape == fresh.shape == sender.shape
        assert np.max(np.abs(got - fresh)) < 1e-15


def test_sector_reference_refuses_a_stack_past_its_cap():
    # 16 C(2N, N) bytes of propagators: 41 MiB at N = 12 fit the cap, 612 MiB at N = 14
    # are refused before any sector is built
    assert 16 * math.comb(24, 12) <= reference.SECTOR_BYTES_CAP
    tracemalloc.start()
    try:
        with pytest.raises(ResourceError, match="612 MiB"):
            sector_trace(np.eye(4) / 4.0, 1.0, 1.0, 14)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20


@pytest.mark.parametrize("t, b", [(np.nan, 1.0), (np.inf, 1.0), (1.0, np.nan),
                                  (1.0, np.inf), (1.0, -0.5)])
def test_oracle_rejects_points_outside_domain(t, b):
    with pytest.raises(ValidationError):
        evolve_and_trace(np.eye(4) / 4.0, t, b, ChainSpec(6))
