import numpy as np
import pytest

from mqtransfer import (
    ChainSpec,
    ConfigurationError,
    OptProblem,
    ValidationError,
    alpha_table,
    amplitude_set,
    assemble_sender,
    mode_basis,
    receiver_from_sender,
    region_metrics,
    solve_zero_order,
)
from mqtransfer.states import (base_vector, c1_rays, c2_rays, region_cells, region_points,
                               time_stage)
from reference import (
    SECOND_DIRECTION,
    base_entries,
    base_matrix,
    boundary_sweep,
    c_max_ray,
    first_order_direction,
    is_physical,
    ray_max,
)

MIXED_X0 = np.array([0.25, 0.25, 0.25, 0.0, 0.0])


def _case1_x0(lam0=1.0837):
    spec = ChainSpec(6)
    table = alpha_table(amplitude_set(mode_basis(6), 8.5153), 10.0, spec)
    times = time_stage(spec, 8.5153)
    zero = solve_zero_order(times.spectrum, [lam0])
    (x0,) = base_vector(region_cells(region_points(times, 10.0), zero)[0])
    return x0, table


def test_assemble_maximally_mixed():
    m = assemble_sender(MIXED_X0)
    assert np.allclose(m, np.eye(4) / 4.0)


def test_assemble_template_structure(rng):
    x1 = rng.normal(size=4) + 1j * rng.normal(size=4)
    x1 /= np.linalg.norm(x1)
    m = assemble_sender(np.array([0.3, 0.2, 0.2, 0.05j, -0.05j]), x1, c1=0.1, c2=0.07)
    assert np.max(np.abs(m - m.conj().T)) < 1e-15
    assert np.trace(m) == pytest.approx(1.0, abs=1e-15)
    assert m[0, 1] == pytest.approx(0.1 * x1[0], abs=1e-15)
    assert m[2, 3] == pytest.approx(0.1 * x1[3], abs=1e-15)
    assert m[0, 3] == pytest.approx(0.07, abs=1e-15)
    assert m[1, 2] == pytest.approx(0.05j, abs=1e-15)


def test_assemble_printed_case4_optimum():
    # base state at the uniform-scaling optimum, with moderate weights, is physical
    x0 = np.array([0.49962, 0.20645, 0.08884, -0.07298j, 0.07298j])
    x1 = np.array([0.98333, -0.15484j, -0.01482j, -0.09414])
    x1 = x1 / np.linalg.norm(x1)
    base = assemble_sender(x0)
    assert is_physical(base, tol=1e-6)
    c1, c2 = c_max_ray(x0, x1, "corner")
    loaded = assemble_sender(x0, x1, c1=0.9 * c1)
    assert is_physical(loaded, tol=1e-8)
    loaded = assemble_sender(x0, c2=0.9 * c2)
    assert is_physical(loaded, tol=1e-8)


def test_is_physical():
    assert is_physical(np.eye(4) / 4.0)
    assert not is_physical(np.diag([1.1, -0.1, 0.0, 0.0]))


def test_is_physical_pure_state(rng):
    v = rng.normal(size=4) + 1j * rng.normal(size=4)
    v /= np.linalg.norm(v)
    assert is_physical(np.outer(v, v.conj()))


def test_c2_ray_closed_form():
    # with no single-quantum part the bound is the geometric mean of the
    # (1,1) and (4,4) populations
    c2 = c_max_ray(MIXED_X0, None, "c2")
    assert c2 == pytest.approx(0.25, abs=1e-8)


def test_c2_ray_case1_landmark():
    x0, table = _case1_x0()
    c2 = c_max_ray(x0, None, "c2")
    assert c2 * abs(table.second) == pytest.approx(0.3117, abs=2e-3)


def test_ray_bisection_certificate(rng):
    x0, _ = _case1_x0()
    c2 = c_max_ray(x0, None, "c2")
    m0 = base_matrix(x0)
    v2 = SECOND_DIRECTION
    assert np.linalg.eigvalsh(m0 + (c2 - 1e-7) * v2).min() >= -1e-10
    assert np.linalg.eigvalsh(m0 + (c2 + 1e-7) * v2).min() < -1e-10


def test_ray_bracketing_boundary(rng):
    # just above the ray endpoint the state is no longer physical
    x1 = rng.normal(size=4) + 1j * rng.normal(size=4)
    x1 /= np.linalg.norm(x1)
    x0 = np.array([0.3, 0.25, 0.2, 0.02j, -0.02j])
    c1 = c_max_ray(x0, x1, "c1")
    bad = assemble_sender(x0, x1, c1=c1 + 1e-6)
    assert np.linalg.eigvalsh(bad).min() < -1e-10


def test_ray_monotonicity():
    # shrinking the diagonal slack shrinks the creatable interval
    tight = np.array([0.30, 0.33, 0.33, 0.0, 0.0])   # rho44 = 0.04
    loose = np.array([0.30, 0.25, 0.25, 0.0, 0.0])   # rho44 = 0.20
    assert c_max_ray(tight, None, "c2") < c_max_ray(loose, None, "c2")


def test_ray_requires_physical_base():
    with pytest.raises(ValueError):
        c_max_ray(np.array([0.6, 0.5, 0.2, 0.0, 0.0]), None, "c2")  # rho44 < 0
    with pytest.raises(ValueError):
        c_max_ray(MIXED_X0, None, "c1")  # missing x1


def test_closed_form_ray_matches_bisection(rng):
    for _ in range(10):
        d = rng.uniform(0.05, 1.0, size=4)
        d /= d.sum()
        x0 = np.array([d[0], d[1], d[2], 0.03j * rng.normal(), 0.0])
        x0[4] = np.conj(x0[3])
        x1 = rng.normal(size=4) + 1j * rng.normal(size=4)
        x1 /= np.linalg.norm(x1)
        m0 = base_matrix(x0)
        positive, c2 = c2_rays(base_entries(x0))
        c1 = c1_rays(base_entries(x0), x1)
        assert positive
        for direction, closed in ((first_order_direction(x1), c1),
                                  (SECOND_DIRECTION, c2)):
            a = ray_max(m0, direction, 1e-10)
            assert a == pytest.approx(float(closed), abs=1e-8)


def test_region_metrics_case2_landmark():
    rep = region_metrics(ChainSpec(6), 5.0326, 10.0, 1.2201, case=2)
    assert rep.feasible
    assert rep.s1 == pytest.approx(0.2870, abs=2e-3)
    assert rep.s2 == 0.0
    assert rep.s12 == 0.0


def test_region_metrics_case3_landmark():
    rep = region_metrics(ChainSpec(6), 5.3768, 5.3790, 1.2634, case=3)
    assert rep.s1 == pytest.approx(0.2448, abs=2e-3)
    assert rep.s2 == pytest.approx(0.0771, abs=2e-3)
    assert rep.s12 == pytest.approx(rep.s1 * rep.s2, abs=1e-15)


def test_region_metrics_infinite_temperature_kills_s1():
    # the single-quantum factor vanishes at b = 0 while the double-quantum
    # one survives
    rep = region_metrics(ChainSpec(6), 8.5153, 0.0, 1.0, case=3)
    assert rep.feasible
    assert rep.s1 == 0.0
    assert rep.s2 > 0.2


def test_region_metrics_infeasible_point():
    # all first-order eigenvalues complex: metrics collapse to zero
    rep = region_metrics(ChainSpec(6), 5.75, 0.5, 1.0, case=2)
    assert not rep.feasible
    assert rep.s1 == rep.s2 == rep.s12 == 0.0


def test_receiver_physicality_of_assembled_senders(rng):
    # physical senders must map to physical receivers
    spec = ChainSpec(6)
    basis = mode_basis(6)
    for _ in range(5):
        t, b = rng.uniform(3, 9), rng.uniform(0, 9)
        rep = region_metrics(spec, t, b, rng.uniform(0.9, 1.4), case=3)
        if not rep.feasible:
            continue
        sender = assemble_sender(rep.x0, rep.x1, c1=0.8 * rep.c1_max, c2=0.5 * rep.c2_max)
        assert is_physical(sender, tol=1e-9)
        table = alpha_table(amplitude_set(basis, t), b, spec)
        out = receiver_from_sender(table, sender)
        assert np.linalg.eigvalsh(out).min() >= -1e-8


def test_block_scaled_end_to_end(rng):
    # the receiver of an assembled sender is the lambda-scaled assembly
    spec = ChainSpec(6)
    basis = mode_basis(6)
    t, b, lam0 = 5.3768, 5.3790, 1.15
    rep = region_metrics(spec, t, b, lam0, case=3)
    assert rep.feasible
    c1, c2 = 0.5 * rep.c1_max, 0.5 * rep.c2_max
    sender = assemble_sender(rep.x0, rep.x1, c1=c1, c2=c2)
    table = alpha_table(amplitude_set(basis, t), b, spec)
    out = receiver_from_sender(table, sender)
    scaled_x0 = lam0 * rep.x0
    rebuilt = assemble_sender(scaled_x0, rep.x1, c1=rep.lambda1 * c1, c2=rep.lambda2 * c2)
    assert np.max(np.abs(out - rebuilt)) < 1e-9


def test_boundary_sweep_endpoints():
    x0, _ = _case1_x0(1.05)
    x1 = np.array([1.0, 0.0, 0.0, 0.0], dtype=complex)
    pts = boundary_sweep(x0, x1, rays=17)
    assert pts.shape == (17, 2)
    c1 = c_max_ray(x0, x1, "c1")
    c2 = c_max_ray(x0, None, "c2")
    assert pts[0, 0] == pytest.approx(c1, abs=1e-7)
    assert pts[0, 1] == pytest.approx(0.0, abs=1e-12)
    assert pts[-1, 1] == pytest.approx(c2, abs=1e-7)
    assert pts[-1, 0] == pytest.approx(0.0, abs=1e-12)


def test_block_rays_match_bisection_on_seeded_points():
    # closed-form c1_max / c2_max against the certified bisection rays of
    # c_max_ray, at feasible (N, t, b, lambda0) points
    rng = np.random.default_rng(2024)
    checked = 0
    for n in (4, 6, 10, 42):
        spec, found = ChainSpec(n), 0
        for _ in range(400):
            t, b, lam0 = rng.uniform(0.5 * n, 1.5 * n), rng.uniform(0.0, 10.0), rng.uniform(0.5, 2.0)
            rep = region_metrics(spec, t, b, lam0, case=3)
            if not rep.feasible:
                continue
            positive, c2 = c2_rays(base_entries(rep.x0))
            c1 = c1_rays(base_entries(rep.x0), rep.x1)
            assert positive
            c1_ref, c2_ref = c_max_ray(rep.x0, rep.x1, "corner")
            assert float(c1) == pytest.approx(c1_ref, abs=1e-8)
            assert float(c2) == pytest.approx(c2_ref, abs=1e-8)
            found += 1
            if found == 21:
                break
        checked += found
    assert checked >= 80


def test_block_rays_at_eigenvalue_crossing(table_n6_one):
    # the (N = 6, fixed_one) case-2 optimum sits where the two eigenvalues of
    # M23^-1 G cross; c1_max must keep full precision there
    res = table_n6_one[2]
    m0, v1 = base_matrix(res.x0), first_order_direction(res.x1)
    d14 = m0[np.ix_([0, 3], [0, 3])]
    m23 = m0[np.ix_([1, 2], [1, 2])]
    b14 = v1[np.ix_([0, 3], [1, 2])]
    evals, evecs = np.linalg.eigh(m23)
    m23_inv_half = (evecs / np.sqrt(evals)) @ evecs.conj().T
    hermitian = m23_inv_half @ b14.conj().T @ np.linalg.inv(d14) @ b14 @ m23_inv_half
    c1_ref = 1.0 / np.sqrt(np.linalg.eigvalsh(hermitian).max())
    c1 = c1_rays(base_entries(res.x0), res.x1)
    assert float(c1) == pytest.approx(c1_ref, rel=1e-12)


def test_region_metrics_rejects_a_case_outside_1_to_4():
    # the same error type and message as OptProblem, which holds the rule for optimize
    for call in (lambda: region_metrics(ChainSpec(6), 5.0, 1.0, 1.0, case=5),
                 lambda: OptProblem(5, "free")):
        with pytest.raises(ConfigurationError, match="case must be 1..4, got 5"):
            call()


@pytest.mark.parametrize("lambda0", [float("nan"), float("inf"), -float("inf")])
def test_region_metrics_rejects_a_non_finite_lambda0(lambda0):
    # checked at the boundary, not left to give a silent infeasible report
    with pytest.raises(ValidationError, match=f"lambda0 must be finite, got {lambda0}"):
        region_metrics(ChainSpec(42), 42.0, 5.0, lambda0, 3)
