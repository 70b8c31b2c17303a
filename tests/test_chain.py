import mpmath
import numpy as np
import pytest

from mqtransfer import (
    ChainSpec,
    ConfigurationError,
    Qubit1State,
    ValidationError,
    alpha_table,
    amplitude_set,
    endpoint_amplitude,
    endpoint_power_max,
    evolve_and_trace,
    lambda0_variant_a,
    lambda0_variant_b,
    lambda1_1q,
    mode_basis,
    perfect_zero_a1,
    receiver_state_1q,
    region_metrics,
    state_independent_target,
    state_independent_time,
    transition_amplitude,
    uniform_curve,
)
from mqtransfer.chain import amplitude_grids
from reference import thermal_background


def test_spec_validation():
    with pytest.raises(ConfigurationError):
        ChainSpec(1)
    with pytest.raises(ConfigurationError):
        ChainSpec(0)
    assert ChainSpec(2).n_sites == 2


def test_energies_n2():
    basis = mode_basis(2)
    assert np.allclose(basis.energies, [0.5, -0.5], atol=1e-15)


def test_energies_decreasing_and_bounded():
    for n in (2, 5, 17, 42):
        e = mode_basis(n).energies
        assert np.all(np.diff(e) < 0)
        assert np.all(np.abs(e) < 1)


def test_orthonormality():
    for n in (2, 5, 8):
        g = mode_basis(n).g
        assert np.max(np.abs(g @ g.T - np.eye(n))) < 1e-12


def test_orthogonality_n5_sites_1_3():
    g = mode_basis(5).g
    assert abs(np.dot(g[0], g[2])) < 1e-12


def test_mode_amplitude_high_precision():
    # g_{16} for N=6 against a 50-digit evaluation of the sine formula
    mpmath.mp.dps = 50
    exact = mpmath.sqrt(mpmath.mpf(2) / 7) * mpmath.sin(6 * mpmath.pi / 7)
    got = mode_basis(6).g[0, 5]
    assert abs(got - float(exact)) < 1e-14


def test_transition_amplitude_at_zero():
    basis = mode_basis(7)
    assert transition_amplitude(basis, 3, 3, 0.0) == pytest.approx(1.0, abs=1e-12)
    assert abs(transition_amplitude(basis, 2, 5, 0.0)) < 1e-12


def test_transition_amplitude_bounded(rng):
    basis = mode_basis(9)
    for _ in range(25):
        i, j = rng.integers(1, 10, size=2)
        t = rng.uniform(0.0, 40.0)
        assert abs(transition_amplitude(basis, int(i), int(j), t)) <= 1.0 + 1e-12


def test_transition_index_errors():
    basis = mode_basis(4)
    with pytest.raises(ConfigurationError):
        transition_amplitude(basis, 0, 2, 1.0)
    with pytest.raises(ConfigurationError):
        transition_amplitude(basis, 1, 5, 1.0)


def test_unitarity_row_sum(rng):
    for n in (3, 6, 11):
        basis = mode_basis(n)
        for _ in range(5):
            t = rng.uniform(0.0, 3.0 * n)
            i = int(rng.integers(1, n + 1))
            total = sum(abs(transition_amplitude(basis, i, j, t)) ** 2
                        for j in range(1, n + 1))
            assert total == pytest.approx(1.0, abs=1e-10)


def test_endpoint_parity(rng):
    # real for odd N, imaginary for even N
    for n in (4, 5, 6, 7):
        basis = mode_basis(n)
        for t in rng.uniform(0.0, 3.0 * n, size=50):
            f = endpoint_amplitude(basis, t)
            if n % 2:
                assert abs(f.imag) < 1e-12
            else:
                assert abs(f.real) < 1e-12


def test_endpoint_zero_time():
    assert abs(endpoint_amplitude(mode_basis(2), 0.0)) < 1e-14
    assert abs(endpoint_amplitude(mode_basis(9), 0.0)) < 1e-14


def test_endpoint_grid_matches_scalar(rng):
    basis = mode_basis(8)
    ts = rng.uniform(0.0, 20.0, size=12)
    grid = endpoint_amplitude(basis, ts)
    for t, z in zip(ts, grid):
        assert z == pytest.approx(endpoint_amplitude(basis, t), abs=1e-13)
    grid2 = transition_amplitude(basis, 2, 7, ts)
    for t, z in zip(ts, grid2):
        assert z == pytest.approx(transition_amplitude(basis, 2, 7, t), abs=1e-13)
    # amplitude_set, a batch of one of amplitude_grids, against the scalar sums
    for n in (4, 6, 42):
        basis = mode_basis(n)
        for t in rng.uniform(0.0, 3.0 * n, size=6):
            amps = amplitude_set(basis, float(t))
            for field, (i, j) in (("f11", (1, n - 1)), ("f1n", (1, n)), ("f21", (2, n - 1))):
                assert abs(getattr(amps, field) - transition_amplitude(basis, i, j, t)) < 1e-13
            # the endpoint amplitude is conj(f_{1,N})
            assert abs(amps.f1n.conjugate() - endpoint_amplitude(basis, t)) < 1e-13


def test_amplitudes_are_mirror_symmetric_with_fixed_parity():
    # the transfer matrix W = [[p, q], [r, p]] rests on f_{2,N} = f_{1,N-1} = p, the
    # mirror symmetry of the sine modes, and the realness rule of
    # two_qubit.transfer_spectrum on the parity of the amplitudes: for even N, p is
    # real and q, r imaginary; for odd N the reverse. Over t in [0, 3N) at step 0.05
    for n in range(4, 65):
        basis = mode_basis(n)
        ts = np.arange(0.0, 3.0 * n, 0.05)
        p, q, r = amplitude_grids(basis, ts)
        assert np.abs(transition_amplitude(basis, 2, n, ts) - p).max() <= 1e-13
        amps = amplitude_set(basis, float(ts[len(ts) // 3]))
        assert abs(transition_amplitude(basis, 2, n, amps.t) - amps.f11) <= 1e-13
        off = (p.imag, q.real, r.real) if n % 2 == 0 else (p.real, q.imag, r.imag)
        assert max(np.abs(x).max() for x in off) <= 1e-14


def test_endpoint_power_max_small_chain():
    # N=2 reaches |f| = 1 at the first swap
    basis = mode_basis(2)
    t, val = endpoint_power_max(basis, 0.0, 10.0)
    assert val == pytest.approx(1.0, abs=1e-9)


@pytest.mark.parametrize("n, t_lo, t_hi", [
    (4, 14.863, 16.217), (5, 2.816, 2.911), (6, 27.043, 27.144), (7, 21.89, 22.283), (8, 4.053, 5.51),
])
def test_endpoint_power_max_stays_in_its_window(n, t_lo, t_hi):
    # the scan grid ends at t_hi, not a step past it, where |f|^2 rises out of the window
    t, _ = endpoint_power_max(mode_basis(n), t_lo, t_hi)
    assert t_lo - 1e-9 <= t <= t_hi + 1e-9


def test_amplitude_set_structure():
    basis = mode_basis(6)
    amps = amplitude_set(basis, 0.0)
    for f in (amps.f11, amps.f1n, amps.f21):
        assert abs(f) < 1e-12
    amps = amplitude_set(basis, 8.5153)
    for f in (amps.f11, amps.f1n, amps.f21):
        assert abs(f) <= 1.0 + 1e-12
    with pytest.raises(ConfigurationError):
        amplitude_set(mode_basis(3), 1.0)


@pytest.mark.parametrize("call", [
    lambda b: region_metrics(ChainSpec(6), 5.0, b, 1.0, case=3),
    lambda b: alpha_table(amplitude_set(mode_basis(6), 5.0), b, ChainSpec(6)),
    lambda b: receiver_state_1q(Qubit1State.pure(0.4), 5.0, b, ChainSpec(5)),
    lambda b: lambda1_1q(5.0, b, ChainSpec(5)),
    lambda b: lambda0_variant_a(Qubit1State.pure(0.4), 5.0, b, ChainSpec(5)),
    lambda b: lambda0_variant_b(Qubit1State.pure(0.4), 5.0, b, ChainSpec(5)),
    lambda b: evolve_and_trace(np.eye(4) / 4.0, 5.0, b, ChainSpec(4)),
    lambda b: thermal_background(b, 3),
    lambda b: uniform_curve(ChainSpec(6), [1.0, b]),
    lambda b: perfect_zero_a1(b),
    lambda b: state_independent_target(b),
    lambda b: state_independent_time(b, ChainSpec(5), 10.0),
], ids=["region_metrics", "alpha_table", "receiver_state_1q", "lambda1_1q",
        "lambda0_variant_a", "lambda0_variant_b", "evolve_and_trace", "thermal_background",
        "uniform_curve", "perfect_zero_a1", "state_independent_target", "state_independent_time"])
@pytest.mark.parametrize("b", [-0.5, float("nan"), float("inf")])
def test_every_entry_point_rejects_b_outside_domain(call, b):
    # one domain for the inverse temperature, one check and one message
    with pytest.raises(ValidationError, match="inverse temperature must be finite and >= 0"):
        call(b)
    call(0.0)


@pytest.mark.parametrize("call", [
    lambda t: region_metrics(ChainSpec(6), t, 1.0, 1.0, case=3),
    lambda t: alpha_table(amplitude_set(mode_basis(6), t), 1.0, ChainSpec(6)),
    lambda t: receiver_state_1q(Qubit1State.pure(0.4), t, 1.0, ChainSpec(5)),
    lambda t: lambda1_1q(t, 1.0, ChainSpec(5)),
    lambda t: lambda0_variant_a(Qubit1State.pure(0.4), t, 1.0, ChainSpec(5)),
    lambda t: lambda0_variant_b(Qubit1State.pure(0.4), t, 1.0, ChainSpec(5)),
    lambda t: transition_amplitude(mode_basis(5), 1, 5, t),
    lambda t: evolve_and_trace(np.eye(4) / 4.0, t, 1.0, ChainSpec(4)),
    lambda t: state_independent_time(1.0, ChainSpec(5), t),
], ids=["region_metrics", "alpha_table", "receiver_state_1q", "lambda1_1q",
        "lambda0_variant_a", "lambda0_variant_b", "transition_amplitude", "evolve_and_trace",
        "state_independent_time"])
@pytest.mark.parametrize("t", [float("nan"), float("inf"), -float("inf")])
def test_every_entry_point_rejects_non_finite_time(call, t):
    # one rule for the time on the analytic and the oracle side, one check and one message
    with pytest.raises(ValidationError, match=f"time must be finite, got {t}"):
        call(t)
    call(5.0)
