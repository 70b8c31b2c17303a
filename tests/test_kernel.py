"""Seeded property tests of the region kernel against the references of tests/reference.py."""

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from mqtransfer import ChainSpec, alpha_table, amplitude_set, mode_basis
from mqtransfer.solvers import solve_zero_order, zero_order_system
from mqtransfer.optimize import (_C2_BOUND, B_GRID, _c1_bound, _c1_cell_bound, _lambda0_grid,
                                 _t_grid)
from mqtransfer.states import (PSD_TOL, base_vector, c1_rays, c2_rays, case_metrics, region_cells,
                               region_columns, region_points, time_stage)
from mqtransfer.chain import amplitude_grids
from reference import (base_entries, c_max_ray, expanded_entries, in_realness_band,
                       moments_reference, region_reference, select_first_order)

EPS = np.finfo(float).eps

# derandomized: every run draws the same examples
SEEDED = settings(derandomize=True, database=None, deadline=None, max_examples=40)


@st.composite
def chain_points(draw, count=1):
    """N in [4, 42], then count (t, b) pairs with t in [0, 2N] and b in [0, 10]."""
    n = draw(st.integers(4, 42))
    ts = draw(st.lists(st.floats(0.0, 2.0 * n), min_size=count, max_size=count))
    bs = draw(st.lists(st.floats(0.0, 10.0), min_size=count, max_size=count))
    return n, np.array(ts), np.array(bs)


lambda0s = st.floats(0.5, 2.0)


def _forward_error_scale(spec, t, b, lambda0) -> float:
    """eps times the condition number of lambda0 I - T0 at one point, from the dense
    matrix of the point's table."""
    t0, _ = zero_order_system(alpha_table(amplitude_set(mode_basis(spec.n_sites), t), b, spec))
    return EPS * np.linalg.cond(lambda0 * np.eye(5) - t0)


@SEEDED
@given(chain_points(count=3), st.lists(lambda0s, min_size=4, max_size=4),
       st.integers(0, 2), st.integers(0, 3))
def test_point_is_a_cell_of_a_batch(sample, l0s, i, j):
    # the kernel at shape () against cell (i, j) of a (3, 4) batch. Not bitwise:
    # numpy evaluates complex products of arrays and of scalars with different
    # roundings, so the two agree to the conditioning of the cell
    n, ts, bs = sample
    spec, l0s = ChainSpec(n), np.array(l0s)
    # the points over (3, 1) and the cells over (3, 4), by broadcasting
    times = time_stage(spec, ts[:, None])
    points = region_points(times, bs[:, None])
    cells = region_cells(points, solve_zero_order(times.spectrum, l0s))
    one_times = time_stage(spec, ts[i])
    one = region_points(one_times, bs[i])
    one_cells = region_cells(one, solve_zero_order(one_times.spectrum, l0s[j]))
    assert one.real == points.real[i, 0]
    assert one.lambda1 == pytest.approx(points.lambda1[i, 0], rel=1e-12, abs=1e-14)
    assert one.lambda2 == pytest.approx(points.lambda2[i, 0], rel=1e-12, abs=1e-14)
    assert one_cells[1] == cells[1][i, j]
    tol = 64 * _forward_error_scale(spec, ts[i], bs[i], l0s[j])
    for case in (1, 2, 3, 4):
        feasible, s1, s2 = case_metrics(points, cells, case)
        one_feasible, one_s1, one_s2 = case_metrics(one, one_cells, case)
        assert one_feasible == feasible[i, j]
        assert one_s1 == pytest.approx(s1[i, j], rel=tol, abs=1e-14)
        assert one_s2 == pytest.approx(s2[i, j], rel=tol, abs=1e-14)


@pytest.mark.parametrize("n, t, b, lambda0", [
    (42, 40.3, 2.0, 1.1), (42, 58.2, 0.0, 0.9), (6, 5.5, 3.0, 1.7), (10, 9.7, 7.0, 0.6),
    (7, 6.1, 1.5, 1.2), (42, 35.0, 4.0, None), (6, 8.5, 0.0, None)])
def test_scalar_lambda0_is_the_list_of_one_without_its_axis(n, t, b, lambda0):
    # numpy broadcasting alone: at a point, a scalar lambda0 gives 0-d cells (the zero-order
    # solve and the base state as numpy scalars), and [lambda0] the same cells over (1,),
    # also at b = 0 and at a singular cell (lambda0 = |t00|^2 of the spectrum of T0, where
    # lambda0 is None). Not bitwise: numpy rounds complex products of scalars and of arrays
    # differently, so the two agree to the conditioning of the cell (over 1,500 seeded
    # points the zero-order solve differed in its last bits at 564, the case metrics at none)
    spec = ChainSpec(n)
    times = time_stage(spec, t)
    points = region_points(times, b)
    lambda0 = float(times.spectrum[0]) if lambda0 is None else lambda0
    (unit, regular), (unit1, regular1) = (solve_zero_order(times.spectrum, x)
                                          for x in (lambda0, [lambda0]))
    assert regular == regular1[0] and regular1.shape == (1,)
    cells, cells1 = (region_cells(points, zero) for zero in ((unit, regular), (unit1, regular1)))
    assert all(isinstance(x, np.generic) for x in (*unit, regular, *cells[0]))
    assert all(np.ndim(x) == 0 for x in cells[1:])
    assert all(np.shape(x) == (1,) for x in (*unit1, *cells1[0], *cells1[1:]))
    tol = 64 * _forward_error_scale(spec, t, b, lambda0) if regular else 0.0
    (_, ok, c1, _), (_, ok1, c1_1, _) = cells, cells1
    assert ok == ok1[0] and (not ok or c1 == pytest.approx(c1_1[0], rel=tol))
    for x, x1 in zip((*unit, *cells[0], cells[3]), (*unit1, *cells1[0], cells1[3])):
        assert x == pytest.approx(x1[0], rel=tol, abs=1e-14)
    for case in (1, 2, 3, 4):
        for x, x1 in zip(case_metrics(points, cells, case), case_metrics(points, cells1, case)):
            assert np.ndim(x) == 0 and x1.shape == (1,)
            assert x == pytest.approx(x1[0], rel=tol, abs=1e-14)


def test_kernel_matches_reference_chain():
    # scalar table, scalar eigen loop, dense cond-guarded solve and bisection
    # rays against the batched kernel, at one (N, t, b, lambda0) point. The two
    # agree on lambda1 when the reference selects the first eigenvalue exactly
    # where the kernel judges lambda1 real, and none where it does not; inside
    # the rounding band of in_realness_band they may disagree, so there that
    # comparison alone is skipped, and wherever they agree lambda1, x1 and the
    # feasibility flags are compared as outside the band. lambda1's absolute
    # tolerance scales with max|F|, which early times and b near 0 bring far
    # below 1e-14. The draws favour t = 0, early times and b near 0, where W or
    # tanh(b/2) is at the rounding floor, so the band holds 22 of the 40 draws
    # (11 of them judged differently); hypothesis derives the derandomized draws
    # from this test's source, so an edit may redraw them, and which draws fall
    # in the band depends on the amplitudes alone, not on the kernel. The
    # uniform draws of test_x1_matches_dense_eigenvector_up_to_phase bound its
    # share more tightly
    banded = []

    @SEEDED
    @given(chain_points(), lambda0s)
    def check(sample, lambda0):
        n, (t,), (b,) = sample
        spec = ChainSpec(n)
        times = time_stage(spec, t)
        points = region_points(times, b)
        cells = region_cells(points, solve_zero_order(times.spectrum, [lambda0]))
        table = alpha_table(amplitude_set(mode_basis(n), t), b, spec)
        first = select_first_order(table.first)
        band = in_realness_band(n, t, b)
        banded.append(band)
        selected = None if first is None else first[1]
        agree = selected == (0 if points.real else None)
        assert agree or band
        if agree and points.real:
            size = np.abs(table.first).max()
            assert points.lambda1 == pytest.approx(first[2], rel=1e-12, abs=1e-14 * size)
            assert np.max(np.abs(points.x1 - first[3])) < 1e-9
        for case in (1, 2, 3):
            ref = region_reference(spec, t, b, lambda0, case)
            feasible, s1, s2 = case_metrics(points, cells, case)
            if agree or case == 1:
                assert feasible[0] == ref["feasible"]
            if ref["feasible"]:
                scale = max(1.0, float(np.max(np.abs(ref["x0"]))))
                assert np.max(np.abs(base_vector(cells[0])[0] - ref["x0"])) <= 1e-9 * scale
            assert s1[0] == pytest.approx(ref["s1"], rel=1e-7, abs=1e-9)
            assert s2[0] == pytest.approx(ref["s2"], rel=1e-7, abs=1e-9)

    check()
    assert len(banded) == 40 and sum(banded) <= 22


# x1 is certified where the gap from lambda1 to the other eigenvalues exceeds
# GAP_FLOOR * eps * max|F|; there its error is at most X1_BOUND * eps * max|F| / gap
GAP_FLOOR = 1e6
X1_BOUND = 64.0


def test_x1_matches_dense_eigenvector_up_to_phase():
    # uniform draws, unlike the boundary-seeking ones above: N in [4, 43],
    # t in [0, 2N], b in [0, 8]. Outside the rounding band the kernel's exact
    # realness rule agrees with the dense eig of the expanded table, and
    # where lambda1 is real and isolated x1 is the dense eigenvector up to
    # a phase (gauge_fix may pick another component of near-equal modulus,
    # so no gauge is compared)
    rng = np.random.default_rng(20261019)
    draws, banded, certified = 300, 0, 0
    for _ in range(draws):
        n = int(rng.integers(4, 44))
        t, b = rng.uniform(0.0, 2.0 * n), rng.uniform(0.0, 8.0)
        points = region_points(time_stage(ChainSpec(n), t), b)
        p, q, r = amplitude_grids(mode_basis(n), t)
        first = expanded_entries(p, q, r, p, b, n)[0]
        if in_realness_band(n, t, b):
            banded += 1
            continue
        assert bool(points.real) == (select_first_order(first) is not None)
        if not points.real:
            continue
        ev, vecs = np.linalg.eig(first)
        i = int(np.argmin(np.abs(ev - points.eigenvalues[0])))
        gap = np.abs(np.delete(ev, i) - ev[i]).min()
        scale = EPS * np.abs(first).max()
        if gap <= GAP_FLOOR * scale:
            continue
        ref = vecs[:, i] / np.linalg.norm(vecs[:, i])
        phase = np.vdot(ref, points.x1)
        assert np.linalg.norm(points.x1 - phase / abs(phase) * ref) <= X1_BOUND * scale / gap
        certified += 1
    # W stays below the band's 1e-7 until the wavefront nears the receiver,
    # about the first sixth of [0, 2N] (51 of the 300 draws)
    assert banded <= 0.25 * draws
    assert certified >= 40


@st.composite
def positive_senders(draw, floor=0.05, coherence=0.9):
    """A positive base state x0 and a unit vector x1: populations drawn from [floor, 1]
    before normalization and |rho23| up to coherence sqrt(rho22 rho33)."""
    pops = np.array(draw(st.lists(st.floats(floor, 1.0), min_size=4, max_size=4)))
    assume(pops.sum() > 0.0)
    r11, r22, r33, _ = pops / pops.sum()
    bound = np.sqrt(r22 * r33)
    x23 = bound * draw(st.floats(0.0, coherence)) * np.exp(1j * draw(st.floats(0.0, 2.0 * np.pi)))
    parts = draw(st.lists(st.floats(-1.0, 1.0), min_size=8, max_size=8))
    x1 = np.array(parts[:4]) + 1j * np.array(parts[4:])
    norm = np.linalg.norm(x1)
    x1 = x1 / norm if norm > 1e-3 else np.array([1.0, 0.0, 0.0, 0.0], dtype=complex)
    return np.array([r11, r22, r33, x23, np.conj(x23)]), x1


# rho22 at zero or below the rays' floor of 1e-30, with rho33 > 0 and x1 = e13
CLAMPED_RHO22 = [(np.array(x0, dtype=complex), np.array([0.0, 1.0, 0.0, 0.0], dtype=complex))
                 for x0 in ([0.5, 0.0, 0.5, 0.0, 0.0], [0.5, 1e-31, 0.5, 0.0, 0.0],
                            [0.3, 0.0, 0.4, 0.0, 0.0])]


@SEEDED
@given(positive_senders())
@example(CLAMPED_RHO22[2])
def test_closed_form_rays_match_bisection(sender):
    x0, x1 = sender
    positive, c2 = c2_rays(base_entries(x0))
    assert positive
    c1_ref, c2_ref = c_max_ray(x0, x1, "corner", tol=1e-11)
    assert float(c1_rays(base_entries(x0), x1)) == pytest.approx(c1_ref, abs=1e-8)
    assert float(c2) == pytest.approx(c2_ref, abs=1e-8)


def test_c2_rays_give_the_ray_to_exact_positivity():
    # c2_rays accepts a base state down to -PSD_TOL but measures c2_max to exact
    # positivity, sqrt(max(rho11 rho44, 0)): at rho44 = 0 it is 0, where bisection
    # on the same floor (c_max_ray) reaches sqrt(PSD_TOL rho11) = 7.07e-6
    x0, x1 = CLAMPED_RHO22[0]
    positive, c2 = c2_rays(base_entries(x0))
    assert positive and c2 == 0.0
    assert c_max_ray(x0, x1, "corner", tol=1e-11)[1] == pytest.approx(np.sqrt(0.5 * PSD_TOL),
                                                                       rel=1e-3)


@pytest.mark.parametrize("sender", CLAMPED_RHO22, ids=["rho22=0", "rho22=1e-31", "rho44=0.3"])
def test_c1_rays_match_bisection_where_rho22_is_clamped(sender):
    # the {2,3} block's second pivot is its Schur complement, rho33 here, also where
    # rho22 is below its floor; the {1,3} minor gives c1_max = sqrt(rho11 rho33). Only
    # c1 is compared: with rho44 = 0, bisection lets c2 reach about sqrt(PSD_TOL / 2), so
    # only the third point is also an example of test_closed_form_rays_match_bisection
    x0, x1 = sender
    c1 = float(c1_rays(base_entries(x0), x1))
    assert c1 == pytest.approx(np.sqrt(x0[0].real * x0[2].real), rel=1e-12)
    assert c1 == pytest.approx(c_max_ray(x0, x1, "corner", tol=1e-11)[0], abs=1e-8)


@SEEDED
@given(positive_senders(floor=0.0, coherence=1.0))
@example((np.array([0.5, 0.0, 0.0, 0.0, 0.0]), np.array([1.0, 0.0, 0.0, 0.0], dtype=complex)))
@example((np.array([0.5, 0.5, 0.0, 0.0, 0.0]), np.array([1.0, 0.0, 0.0, 0.0], dtype=complex)))
@example((np.array([0.5, 0.25, 0.25, 0.0, 0.0]), np.array([1.0, 1.0, 0.0, 0.0]) / np.sqrt(2.0)))
@example((np.array([-0.5 * PSD_TOL, 0.5, 0.25, 0.0, 0.0]), np.full(4, 0.5 + 0.0j)))
@example((np.array([0.25, 0.25, 0.25, 0.1, 0.1]), np.array([1.0, 0.0, 0.0, 0.0], dtype=complex)))
@example(CLAMPED_RHO22[0])
@example(CLAMPED_RHO22[1])
@example(CLAMPED_RHO22[2])
def test_rays_obey_the_scan_bounds(sender):
    # the premise of the grid scan's pruning (optimize._scan): on a positive base
    # state c2_max <= 1/2, c1_max <= 1 / (2 max(|x12| + |x34|, |x13| + |x24|)) per
    # (t, b) pair and c1_max <= min sqrt(rho_ii rho_jj) / |x_ij| per cell, within
    # the scan's slack, up to the edges of positivity. The examples reach c2_max =
    # 1/2 (rho11 = rho44 = 1/2) and the c1 bounds 1/2 (rho11 = rho22 = 1/2, x1 =
    # e12); x_ij = 0 where rho_ii rho_jj = 0 (rho44 = 0 with x24 = x34 = 0); rho11
    # below zero within PSD_TOL; x1 = e12, the direction of the b = 0 column; and
    # rho22 at or below the floor of c1_rays (CLAMPED_RHO22)
    x0, x1 = sender
    base = base_entries(x0)
    positive, c2 = c2_rays(base)
    c1 = c1_rays(base, x1)
    assert positive
    assert c1 <= _c1_bound(x1) and c2 <= _C2_BOUND
    assert c1 <= _c1_cell_bound(base, x1)


@pytest.mark.parametrize("n", [4, 5, 6, 8, 10, 42])
def test_grid_rays_obey_the_scan_bounds(n):
    # the same premise at every ok cell of the default scan grid
    spec = ChainSpec(n)
    ts, l0s = _t_grid(spec, None), _lambda0_grid("free")
    checked = 0
    for points, (base, ok, c1, c2) in region_columns(spec, ts, B_GRID, l0s):
        c1_bound = np.broadcast_to(_c1_bound(points.x1), c1.shape)
        assert np.all(c1[ok] <= c1_bound[ok]) and np.all(c2[ok] <= _C2_BOUND)
        assert np.all(c1[ok] <= _c1_cell_bound(base, points.x1)[ok])
        checked += ok.sum()
    assert checked > 0


# the largest relative errors of the parent commit's kernel (rho44 formed as
# 1 - rho11 - rho22 - rho33) over the cells of test_rho44_keeps_its_digits;
# its rho44 erred by up to 2.03e-7 there
PARENT_S1_ERROR = 1.02e-7
PARENT_S2_ERROR = 1.02e-7


def test_rho44_keeps_its_digits():
    # at lambda0 = 1 and large b the base state is near the empty one and
    # rho44 = k^2 is of order e^-2b: 2.1e-9 at b = 10. Formed from its own row
    # in powers of k (solvers.zero_order_at) it keeps its relative precision,
    # and so do c2_max = sqrt(rho11 rho44) and c1_max. Against the moments
    # system solved in mpmath at 50 digits. The times include (33.80, 10) and
    # (29.20, 10) at N = 42, where the parent's rho44 erred by 2.0e-7 and
    # 6.6e-8; they skip early times, whose lambda2 is below 1e-13 and carries
    # the absolute rounding of det W
    worst = {"rho44": 0.0, "s1": 0.0, "s2": 0.0}
    cells = [(6, t) for t in (3.0, 4.0, 5.0, 6.0, 8.0)] + [
        (42, t) for t in (29.20, 30.0, 33.80, 39.0, 43.5)]
    for n, t in cells:
        spec = ChainSpec(n)
        times = time_stage(spec, t)
        zero = solve_zero_order(times.spectrum, [1.0])
        for b in (7.0, 9.0, 10.0):
            points = region_points(times, b)
            cells_at = region_cells(points, zero)
            got = {"rho44": float(cells_at[0][3][0]),
                   "s1": float(case_metrics(points, cells_at, 2)[1][0]),
                   "s2": float(case_metrics(points, cells_at, 1)[2][0])}
            ref = moments_reference(n, t, b, 1.0)
            ref = {"rho44": float(ref["rho"][3]), "s1": float(ref["s1"]), "s2": float(ref["s2"])}
            for key, value in ref.items():
                if value > 0.0:
                    worst[key] = max(worst[key], abs(got[key] - value) / value)
                else:
                    assert got[key] == 0.0
    assert worst["rho44"] <= 1e-10
    assert worst["s1"] <= PARENT_S1_ERROR
    assert worst["s2"] <= PARENT_S2_ERROR
