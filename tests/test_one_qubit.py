import warnings

import numpy as np
import pytest

from mqtransfer import (
    ChainSpec,
    Qubit1State,
    SingularInputError,
    ValidationError,
    endpoint_amplitude,
    endpoint_power_max,
    lambda0_variant_a,
    lambda0_variant_b,
    lambda1_1q,
    mode_basis,
    perfect_zero_a1,
    receiver_state_1q,
    state_independent_target,
    state_independent_time,
)
from mqtransfer.oracle import evolve_and_trace


def _sender_matrix(state: Qubit1State) -> np.ndarray:
    return np.array([[1.0 - state.a1_sq, state.phase_prod],
                     [np.conj(state.phase_prod), state.a1_sq]], dtype=complex)


def test_state_validation():
    with pytest.raises(ValidationError):
        Qubit1State(a1_sq=1.2)
    with pytest.raises(ValidationError):
        Qubit1State(a1_sq=0.1, phase_prod=0.9)
    s = Qubit1State.pure(0.3, phase=1.1)
    assert abs(s.phase_prod) ** 2 == pytest.approx(0.3 * 0.7, abs=1e-12)


def test_receiver_thermal_at_zero_time():
    # f(0) = 0 for N > 1, so the receiver shows only the background
    spec = ChainSpec(5)
    b = 1.7
    rho = receiver_state_1q(Qubit1State.pure(0.8), 0.0, b, spec)
    ch = 2.0 * np.cosh(b / 2.0)
    assert rho[0, 0] == pytest.approx(np.exp(b / 2.0) / ch, abs=1e-12)
    assert rho[1, 1] == pytest.approx(np.exp(-b / 2.0) / ch, abs=1e-12)
    assert abs(rho[0, 1]) < 1e-12


def test_receiver_low_temperature_population():
    # b -> infinity with a fully excited sender: rho22 = |f|^2
    spec = ChainSpec(5)
    basis = mode_basis(5)
    t_max, f2 = endpoint_power_max(basis, 0.0, 15.0)
    rho = receiver_state_1q(Qubit1State.pure(1.0), t_max, 40.0, spec)
    assert rho[1, 1].real == pytest.approx(f2, abs=1e-12)


@pytest.mark.parametrize("b", [1500.0, 1e308])
def test_receiver_tends_to_zero_temperature_limit(b):
    # b -> infinity: an empty background, rho11 = 1 - |a1|^2 |f|^2 and the
    # coherence (-1)^(N-1) a0 a1* conj(f); finite at every b, warnings as errors
    spec, t = ChainSpec(5), 6.0
    state = Qubit1State.pure(0.4, phase=0.7)
    f = endpoint_amplitude(mode_basis(5), t)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rho = receiver_state_1q(state, t, b, spec)
        variants = (lambda0_variant_a(state, t, b, spec), lambda0_variant_b(state, t, b, spec),
                    state_independent_target(b), perfect_zero_a1(b))
    assert rho[0, 0].real == pytest.approx(1.0 - 0.4 * abs(f) ** 2, abs=1e-15)
    assert rho[0, 1] == pytest.approx(state.phase_prod * np.conj(f), abs=1e-15)
    assert variants == pytest.approx(((1.0 - 0.4 * abs(f) ** 2) / 0.6, abs(f) ** 2, 1.0, 0.0),
                                     abs=1e-15)


def test_receiver_against_oracle(rng):
    spec = ChainSpec(4)
    for _ in range(10):
        state = Qubit1State.pure(rng.uniform(0, 1), rng.uniform(0, 2 * np.pi))
        t = rng.uniform(0.0, 12.0)
        b = rng.uniform(0.0, 5.0)
        dense = evolve_and_trace(_sender_matrix(state), t, b, spec)
        assert np.linalg.norm(receiver_state_1q(state, t, b, spec) - dense) < 1e-10


def test_receiver_physicality(rng):
    for n in (2, 5, 8):
        spec = ChainSpec(n)
        for _ in range(10):
            state = Qubit1State.pure(rng.uniform(0, 1), rng.uniform(0, 2 * np.pi))
            rho = receiver_state_1q(state, rng.uniform(0, 3 * n), rng.uniform(0, 8), spec)
            assert abs(np.trace(rho) - 1.0) < 1e-12
            assert np.linalg.eigvalsh(rho).min() >= -1e-10


def test_lambda1_values(rng):
    spec = ChainSpec(5)
    assert lambda1_1q(3.3, 0.0, spec) == 0.0
    # N=2 reaches |f| = 1; at b -> infinity the factor has unit modulus
    t_swap, _ = endpoint_power_max(mode_basis(2), 0.0, 10.0)
    assert abs(lambda1_1q(t_swap, 40.0, ChainSpec(2))) == pytest.approx(1.0, abs=1e-9)
    # bound |lambda1| <= tanh(b/2)^(N-1)
    for _ in range(10):
        t, b = rng.uniform(0, 15), rng.uniform(0, 6)
        assert abs(lambda1_1q(t, b, spec)) <= np.tanh(b / 2) ** 4 + 1e-12


def test_lambda1_matches_oracle_ratio():
    spec = ChainSpec(5)
    state = Qubit1State.pure(0.4, 0.7)
    t, b = 6.0, 2.0
    dense = evolve_and_trace(_sender_matrix(state), t, b, spec)
    ratio = dense[0, 1] / state.phase_prod
    assert ratio == pytest.approx(lambda1_1q(t, b, spec), abs=1e-12)


def test_lambda0_variants_are_element_ratios(rng):
    spec = ChainSpec(6)
    for _ in range(10):
        state = Qubit1State.pure(rng.uniform(0.05, 0.95), rng.uniform(0, 2 * np.pi))
        t, b = rng.uniform(0, 18), rng.uniform(0, 6)
        rho = receiver_state_1q(state, t, b, spec)
        la = lambda0_variant_a(state, t, b, spec)
        lb = lambda0_variant_b(state, t, b, spec)
        assert rho[0, 0].real == pytest.approx(la * (1.0 - state.a1_sq), abs=1e-12)
        assert rho[1, 1].real == pytest.approx(lb * state.a1_sq, abs=1e-12)


def test_lambda0_variant_a_at_zero_amplitude():
    # f = 0 whenever t = 0, where the ratio reduces to p0 / rho_s11
    spec = ChainSpec(7)
    b, a1_sq = 1.3, 0.35
    expected = np.exp(b) / ((np.exp(b) + 1.0) * (1.0 - a1_sq))
    got = lambda0_variant_a(Qubit1State.pure(a1_sq), 0.0, b, spec)
    assert got == pytest.approx(expected, abs=1e-12)


def test_lambda0_variant_b_limits():
    spec = ChainSpec(6)
    basis = mode_basis(6)
    # low-temperature limit tends to |f|^2
    for t in (3.0, 7.5, 11.0):
        f2 = abs(endpoint_amplitude(basis, t)) ** 2
        got = lambda0_variant_b(Qubit1State.pure(0.6), t, 40.0, spec)
        assert abs(got - f2) < 1e-15
    # f = 0, b = 0, full excitation: 1/2
    got = lambda0_variant_b(Qubit1State.pure(1.0), 0.0, 0.0, spec)
    assert got == pytest.approx(0.5, abs=1e-15)


def test_lambda0_variant_b_matches_oracle_ratio(rng):
    spec = ChainSpec(5)
    state = Qubit1State.pure(0.55, 0.2)
    t, b = rng.uniform(0, 15), rng.uniform(0, 5)
    dense = evolve_and_trace(_sender_matrix(state), t, b, spec)
    assert dense[1, 1].real / state.a1_sq == pytest.approx(
        lambda0_variant_b(state, t, b, spec), abs=1e-12)


def test_lambda0_singularities():
    spec = ChainSpec(4)
    with pytest.raises(SingularInputError):
        lambda0_variant_a(Qubit1State.pure(1.0), 1.0, 1.0, spec)
    with pytest.raises(SingularInputError):
        lambda0_variant_b(Qubit1State.pure(0.0), 1.0, 1.0, spec)


def test_state_independent_target_bound():
    assert state_independent_target(0.0) == pytest.approx(2.0 / 3.0, abs=1e-15)
    for b in np.linspace(0.0, 12.0, 25):
        assert state_independent_target(b) >= 2.0 / 3.0 - 1e-15


def test_state_independent_time_small_chain():
    # N=2: |f|^2 sweeps up to 1, so the 2/3 threshold is crossed
    t = state_independent_time(0.0, ChainSpec(2), t_max=10.0)
    assert t is not None
    f2 = abs(endpoint_amplitude(mode_basis(2), t)) ** 2
    assert f2 == pytest.approx(2.0 / 3.0, abs=1e-8)


def test_state_independent_time_boundary_chain():
    # N=17: pick b so the threshold equals the attainable maximum; the first
    # crossing is the tangential touch at the peak
    basis = mode_basis(17)
    t_peak, v_peak = endpoint_power_max(basis, 0.0, 51.0)
    b17 = np.log(v_peak / (2.0 - 2.0 * v_peak))
    t = state_independent_time(b17, ChainSpec(17), t_max=51.0)
    assert t is not None
    assert t == pytest.approx(19.6551, abs=1e-3)
    assert t == pytest.approx(t_peak, abs=1e-3)


def test_state_independent_time_absent_for_n18():
    # the maximum of |f|^2 for N=18 sits below the b = 0 threshold 2/3
    spec = ChainSpec(18)
    assert state_independent_time(0.0, spec, t_max=54.0) is None
    assert state_independent_time(1.0, spec, t_max=54.0) is None


def test_perfect_zero_closed_loop(rng):
    for _ in range(15):
        n = int(rng.integers(2, 9))
        spec = ChainSpec(n)
        t, b = rng.uniform(0, 3 * n), rng.uniform(0, 6)
        a1 = perfect_zero_a1(b)
        assert 0.0 < a1 <= 0.5
        state = Qubit1State.pure(a1)
        assert lambda0_variant_a(state, t, b, spec) == pytest.approx(1.0, abs=1e-10)
        assert lambda0_variant_b(state, t, b, spec) == pytest.approx(1.0, abs=1e-10)


def test_perfect_zero_basic_value():
    assert perfect_zero_a1(0.0) == pytest.approx(0.5, abs=1e-15)


def test_perfect_transfer_degeneracy():
    # at |f| = 1 the zero-order condition holds for every sender population
    spec = ChainSpec(2)
    t_swap, f2 = endpoint_power_max(mode_basis(2), 0.0, 10.0)
    assert f2 == pytest.approx(1.0, abs=1e-10)
    for a1_sq in (0.2, 0.5, 0.9):
        got = lambda0_variant_a(Qubit1State.pure(a1_sq), t_swap, 2.0, spec)
        assert got == pytest.approx(1.0, abs=1e-8)


def test_restoring_identity_reconstruction(rng):
    # rebuilding the receiver from the scale factors reproduces it exactly
    spec = ChainSpec(5)
    for _ in range(10):
        state = Qubit1State.pure(rng.uniform(0.05, 0.95), rng.uniform(0, 2 * np.pi))
        t, b = rng.uniform(0, 15), rng.uniform(0, 6)
        rho = receiver_state_1q(state, t, b, spec)
        l1 = lambda1_1q(t, b, spec)
        la = lambda0_variant_a(state, t, b, spec)
        rebuilt = np.zeros((2, 2), dtype=complex)
        rebuilt[0, 0] = la * (1.0 - state.a1_sq)
        rebuilt[0, 1] = l1 * state.phase_prod
        rebuilt[1, 0] = np.conj(rebuilt[0, 1])
        rebuilt[1, 1] = 1.0 - rebuilt[0, 0]
        assert np.max(np.abs(rebuilt - rho)) < 1e-12
