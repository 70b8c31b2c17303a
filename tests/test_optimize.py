import importlib
import os
import subprocess
import sys
import tracemalloc
import warnings
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from mqtransfer import (
    ChainSpec,
    ConfigurationError,
    OptProblem,
    ValidationError,
    alpha_table,
    amplitude_set,
    first_window,
    lambda2_landmark,
    mode_basis,
    optimize,
    uniform_curve,
)
from mqtransfer.chain import amplitude_grids
from mqtransfer.optimize import (B_GRID, _curve, _lambda0_grid, _lambda0_windows, _scan, _t_grid,
                                 objective_landscape, summary_table)
from mqtransfer.search import bracket_max, bracket_root
from mqtransfer.solvers import solve_zero_order, zero_order_at, zero_order_system
from mqtransfer.states import (base_cells, base_vector, c1_rays, case_metrics, region_cells,
                               region_columns, region_metrics, region_points, time_stage)
from reference import (moments_reference, region_reference, select_first_order,
                       solve_zero_order_dense)

# the package's optimize is the function; the module holds the search constants
optimize_module = importlib.import_module("mqtransfer.optimize")
states_module = importlib.import_module("mqtransfer.states")
_CASE_KEY = {1: "s2", 2: "s1", 3: "s12"}
EPS = np.finfo(float).eps


def _kernel_x0(spec, ts, b, l0s):
    """The kernel's zero-order vectors x0 (..., 5) at one b and the regular mask, over the
    broadcast shape of ts and l0s."""
    times = time_stage(spec, ts)
    zero = solve_zero_order(times.spectrum, l0s)
    return base_vector(region_cells(region_points(times, b), zero)[0]), zero[1]


def _scan_grid(spec, problem):
    """The scan's axes ts and l0s and the objective grids (nt, nb, nl) of cases
    1..3, assembled column by column from region_columns."""
    ts, l0s = _t_grid(spec, problem.t_window), _lambda0_grid(problem.lambda0_mode)
    s1, s2 = np.zeros((2, len(ts), len(B_GRID), len(l0s)))
    for bi, (points, cells) in enumerate(region_columns(spec, ts, B_GRID, l0s)):
        s1[:, bi] = case_metrics(points, cells, 2)[1]
        s2[:, bi] = case_metrics(points, cells, 1)[2]
    return ts, l0s, {1: s2, 2: s1, 3: s1 * s2}


def _case_objective(spec, t, b, l0, case):
    rep = region_metrics(spec, t, b, l0, case)
    return getattr(rep, _CASE_KEY[case])


def test_problem_validation():
    with pytest.raises(ConfigurationError):
        OptProblem(case=5)
    with pytest.raises(ConfigurationError):
        OptProblem(case=1, lambda0_mode="pinned")
    with pytest.raises(ConfigurationError):
        OptProblem(case=1, t_window=(9.0, 3.0))


@pytest.mark.parametrize("call, error", [
    (lambda: optimize(OptProblem(case=1, t_window=(float("nan"), 5.0)), ChainSpec(6)),
     ConfigurationError),
    (lambda: uniform_curve(ChainSpec(6), [0.0, float("inf")]), ValidationError),
    (lambda: uniform_curve(ChainSpec(6), [-0.5, 2.0]), ValidationError),
    (lambda: uniform_curve(ChainSpec(6), [1.0, float("nan")]), ValidationError),
    (lambda: uniform_curve(ChainSpec(6), 2.0), ConfigurationError),
], ids=["t_window=nan", "curve b_window=inf", "curve b_window<0", "curve b=nan", "curve b scalar"])
def test_bad_steps_and_windows_are_configuration_errors(call, error):
    # a b outside [0, inf) meets the one domain rule of every entry point, whose
    # error is a ValidationError (chain.check_inverse_temperature)
    with pytest.raises(error):
        call()


def test_first_window_n6():
    lo, hi = first_window(ChainSpec(6))
    assert lo == pytest.approx(3.0)
    assert hi == pytest.approx(9.0)


def test_first_window_caps_after_peak():
    lo, hi = first_window(ChainSpec(42))
    assert lo == pytest.approx(21.0)
    assert hi == pytest.approx(48.885, abs=1e-2)


def test_later_windows_at_n42_favour_case_3_not_case_1():
    # first_window's docstring: at N = 42 with free lambda0, case 3 reaches more on
    # [1.5 N, 2.5 N] than in the first window, case 1 less
    spec = ChainSpec(42)
    found = {}
    for window in (None, (63.0, 105.0)):
        problems = {case: OptProblem(case, "free", window) for case in (1, 3)}
        found[window] = optimize_module._scan_and_refine(spec, problems)
    first, later = found[None], found[(63.0, 105.0)]
    assert later[3].objective == pytest.approx(0.00168, rel=5e-3)
    assert first[3].objective == pytest.approx(0.000696, rel=5e-3)
    assert later[1].objective == pytest.approx(0.0487, rel=5e-3)
    assert first[1].objective == pytest.approx(0.1146, rel=5e-3)


def test_lambda2_landmark_n42():
    t, val = lambda2_landmark(ChainSpec(42))
    assert t == pytest.approx(47.8855, abs=1e-2)
    assert abs(val) == pytest.approx(0.2621, abs=1e-3)


@pytest.mark.parametrize("n", [4, 5, 6, 42, 43])
def test_lambda2_landmark_matches_one_grid_scan(n):
    # the step-0.05 scan against a scan of the step-1e-3 grid, the same
    # bracket search after each: both find the same peak
    ts = np.arange(0.5 * n, 1.5 * n + 1e-3, 1e-3)
    p, q, r = amplitude_grids(mode_basis(n), ts)
    i = int(np.argmax(np.abs(p * p - q * r)))

    def f(x):
        p, q, r = amplitude_grids(mode_basis(n), x)
        return np.abs(p * p - q * r)

    t_ref, _ = bracket_max(f, ts[max(i - 1, 0)], ts[min(i + 1, len(ts) - 1)], 1e-8)
    t, val = lambda2_landmark.__wrapped__(ChainSpec(n))
    assert abs(t - t_ref[0]) <= 1e-6
    p, q, r = amplitude_grids(mode_basis(n), np.array([t]))
    assert val == (p * p - q * r).real[0]
    assert abs(val) >= f(t_ref)[0] * (1.0 - 1e-12)


def test_lambda2_landmark_memory_is_bounded():
    # at N = 102 one grid of all 102,001 times of a step-1e-3 scan held 333 MB
    # at its peak; the step-0.05 scan stays far below 32 MB
    tracemalloc.start()
    try:
        lambda2_landmark.__wrapped__(ChainSpec(102))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 32e6


def test_lambda2_landmark_cache_matches_fresh_computation():
    spec = ChainSpec(10)
    fresh = lambda2_landmark.__wrapped__(spec)
    assert lambda2_landmark(spec) == fresh
    assert lambda2_landmark(spec) is lambda2_landmark(spec)
    assert first_window(spec) == (5.0, min(15.0, fresh[0] + 1.0))


def test_uniform_curve_passes_reference_point():
    pts = uniform_curve(ChainSpec(6), [2.3462])
    assert len(pts) == 1
    assert pts[0].t == pytest.approx(5.6651, abs=1e-3)
    assert pts[0].lam == pytest.approx(0.2956, abs=1e-3)


def test_uniform_curve_parity_n7_empty():
    assert uniform_curve(ChainSpec(7)) == []


# curve points on the default grids: a dropped root changes the count
_CURVE_POINTS = {6: 7, 10: 7, 14: 6, 18: 6, 42: 4}


@pytest.mark.parametrize("n", sorted(_CURVE_POINTS))
def test_uniform_curve_points_are_roots(n):
    # each curve point recomputed with the scalar table and eigen-solver
    spec, basis = ChainSpec(n), mode_basis(n)
    pts = uniform_curve(spec)
    assert len(pts) == _CURVE_POINTS[n]
    for pt in pts:
        table = alpha_table(amplitude_set(basis, pt.t), pt.b, spec)
        first = select_first_order(table.first)
        assert first is not None
        assert abs(first[2] - table.second.real) < 1e-9
        assert pt.lam == pytest.approx(table.second.real, abs=1e-12)


def test_case4_stays_in_b_window(monkeypatch):
    # the optimum over the default window (N = 6, fixed_one) lies at b = 2.095
    monkeypatch.setattr(optimize_module, "B_WINDOW", (0.0, 2.0))
    res = optimize(OptProblem(case=4, lambda0_mode="fixed_one"), ChainSpec(6))
    assert res.feasible
    assert res.b_opt <= 2.0


def test_region_column_matches_region_metrics():
    # one row per (t, b) pair and lambda0 per row, as the refinement and
    # case 4 use the kernel, against the point-by-point reference chain
    spec = ChainSpec(6)
    ts = np.array([6.2, 6.2, 6.2, 5.4, 8.5])
    bs = np.array([4.5, 4.5, 2.0, 5.4, 10.0])
    l0s = np.array([[1.1, 1.2], [0.9, 1.1], [1.1, 1.3], [1.26, 1.0], [1.08, 1.5]])
    times = time_stage(spec, ts[:, None])
    points = region_points(times, bs[:, None])
    cells = region_cells(points, solve_zero_order(times.spectrum, l0s))
    for case in (1, 2, 3):
        _, s1, s2 = case_metrics(points, cells, case)
        got = {"s1": s1, "s2": s2, "s12": s1 * s2}[_CASE_KEY[case]]
        for row, (t, b) in enumerate(zip(ts, bs)):
            for col, l0 in enumerate(l0s[row]):
                ref = region_reference(spec, float(t), float(b), float(l0), case)
                ref = {"s1": ref["s1"], "s2": ref["s2"], "s12": ref["s1"] * ref["s2"]}[_CASE_KEY[case]]
                if ref > 0:
                    assert got[row, col] == pytest.approx(ref, abs=1e-7)
                else:
                    assert got[row, col] == 0.0


def test_optimize_infeasible_window(monkeypatch):
    # at b = 0 the single-quantum factor vanishes identically
    monkeypatch.setattr(optimize_module, "B_WINDOW", (0.0, 0.0))
    monkeypatch.setattr(optimize_module, "B_GRID", np.zeros(1))
    spec = ChainSpec(6)
    problem = OptProblem(case=2)
    res = optimize(problem, spec)
    assert not res.feasible
    assert res.objective == 0.0


def test_optimize_rejects_small_chain():
    with pytest.raises(ConfigurationError):
        optimize(OptProblem(case=1), ChainSpec(3))


def test_optimize_fixed_one_mode(table_n6_one):
    res = optimize(replace(OptProblem(case=1), lambda0_mode="fixed_one"), ChainSpec(6))
    assert res.lambda0_mode == "fixed_one"
    assert res.lambda0_opt == 1.0
    assert res.s2 == pytest.approx(table_n6_one[1].s2, abs=1e-6)


def test_objective_landscape_contains_optimum(table_n6_one):
    spec = ChainSpec(6)
    res = table_n6_one[1]
    header, rows = objective_landscape(spec, OptProblem(case=1, lambda0_mode="fixed_one"),
                                       b_fixed=res.b_opt)
    assert header == ["t", "b", "lambda0", "value"]
    best = max(row[3] for row in rows)
    assert best == pytest.approx(res.objective, abs=1e-3)


def test_batched_eigen_selection_matches_scalar():
    # the batched selection against the scalar reference loop, matrix by matrix
    spec = ChainSpec(6)
    basis = mode_basis(6)
    ts = np.linspace(3.0, 9.0, 40)
    for b in (0.7, 4.2, 9.5):
        points = region_points(time_stage(spec, ts), b)
        lam, vec, found = points.lambda1, points.x1, points.real
        for i, t in enumerate(ts):
            table = alpha_table(amplitude_set(basis, float(t)), b, spec)
            sol = select_first_order(table.first)
            if sol is None:
                assert not found[i]
            else:
                assert found[i]
                assert lam[i] == pytest.approx(sol[2], abs=1e-12)
                assert np.max(np.abs(vec[i] - sol[3])) < 1e-9


def test_low_temperature_saturation(table_n6_free, table_n42_free):
    # cases 1 and 2 saturate in b: the cap at b = 10 costs less than 1e-4. The rows at
    # b = 10, the top of B_WINDOW (N = 6 free cases 1 and 2, N = 42 free case 1), are the
    # zero-temperature values to about 4-5 digits: at the row's (t, lambda0), b = 1e3
    # raises the objective by less than 1e-4 relative (measured 2.29e-5, 4.52e-5 and
    # 3.88e-5, the same at b = 40, 1e3 and 1e6)
    spec = ChainSpec(6)
    for case in (1, 2):
        res = table_n6_free[case]
        at_cap = _case_objective(spec, res.t_opt, 10.0, res.lambda0_opt, case)
        beyond = _case_objective(spec, res.t_opt, 12.0, res.lambda0_opt, case)
        assert abs(beyond - at_cap) < 1e-4
    rows = [(n, res) for n, table in ((6, table_n6_free), (42, table_n42_free))
            for res in table.values() if res.b_opt == optimize_module.B_WINDOW[1]]
    assert [(n, res.case) for n, res in rows] == [(6, 1), (6, 2), (42, 1)]
    for n, res in rows:
        cold = _case_objective(ChainSpec(n), res.t_opt, 1e3, res.lambda0_opt, res.case)
        assert res.objective <= cold < res.objective * (1.0 + 1e-4)


def test_result_local_certificate(table_n6_free):
    # the reported optimum is locally maximal for the point-by-point objective
    spec = ChainSpec(6)
    res = table_n6_free[3]
    base = _case_objective(spec, res.t_opt, res.b_opt, res.lambda0_opt, 3)
    for dt, db, dl in ((1e-3, 0, 0), (-1e-3, 0, 0), (0, 1e-3, 0),
                       (0, -1e-3, 0), (0, 0, 1e-3), (0, 0, -1e-3)):
        trial = _case_objective(spec, res.t_opt + dt, res.b_opt + db,
                                res.lambda0_opt + dl, 3)
        assert trial <= base + 1e-6


@pytest.mark.parametrize("fixture, n", [("table_n6_free", 6), ("table_n6_one", 6),
                                        ("table_n42_free", 42)])
def test_case4_local_certificate(request, fixture, n):
    # the case-4 optimum lies on the curve, and no re-rooted curve point
    # nearby in b has a larger s12 over a fine lambda0 grid
    spec, res = ChainSpec(n), request.getfixturevalue(fixture)[4]
    table = alpha_table(amplitude_set(mode_basis(n), res.t_opt), res.b_opt, spec)
    first = select_first_order(table.first)
    assert first is not None
    assert abs(first[2] - table.second.real) < 1e-9
    if res.lambda0_mode == "fixed_one":
        l0s = np.array([1.0])
    else:
        l0s = np.arange(0.5, 2.0 + 1e-9, 0.002)
    for db in (1e-3, -1e-3, 2e-2, -2e-2):
        b = res.b_opt + db
        pts = uniform_curve(spec, [b])
        t = min(pts, key=lambda pt: abs(pt.t - res.t_opt)).t
        best = max(region_metrics(spec, t, b, float(l0), case=4).s12 for l0 in l0s)
        assert best <= res.s12 * (1.0 + 1e-7)


@pytest.mark.parametrize("fixture, n", [("table_n6_free", 6), ("table_n6_one", 6),
                                        ("table_n42_free", 42), ("table_n42_one", 42)])
def test_table_rows_are_local_maxima(request, fixture, n):
    # the location of every feasible case 1-3 row: no step of 1e-3 or 1e-2 either way along
    # t, b and, in free mode, lambda0, inside the search box, raises the objective by more
    # than 1e-9 relative (the closest neighbour was lower by 7.4e-9, N = 6 free, case 3)
    spec = ChainSpec(n)
    t_lo, t_hi = first_window(spec)
    box = {0: (t_lo, t_hi), 1: optimize_module.B_WINDOW, 2: optimize_module.LAMBDA0_WINDOW}
    steps = 0
    for case in (1, 2, 3):
        res = request.getfixturevalue(fixture)[case]
        if not res.feasible:
            continue
        point = (res.t_opt, res.b_opt, res.lambda0_opt)
        for axis in (0, 1, 2) if res.lambda0_mode == "free" else (0, 1):
            for step in (1e-3, -1e-3, 1e-2, -1e-2):
                trial = list(point)
                trial[axis] += step
                if box[axis][0] <= trial[axis] <= box[axis][1]:
                    assert _case_objective(spec, *trial, case) <= res.objective * (1.0 + 1e-9)
                    steps += 1
    assert steps > 0


@pytest.mark.parametrize("fixture, n", [("table_n6_free", 6), ("table_n6_one", 6),
                                        ("table_n42_free", 42), ("table_n42_one", 42)])
def test_table_rows_match_the_50_digit_reference(request, fixture, n):
    # the value of every table row at its point: each nonzero S1 and S2 against the moments
    # system in mpmath at 50 digits, at the reported (t, b, lambda0); the worst of the 24 is
    # 5.0e-14 relative (N = 42 free, case 4, S1)
    checked = 0
    for res in request.getfixturevalue(fixture).values():
        ref = moments_reference(n, res.t_opt, res.b_opt, res.lambda0_opt) if res.feasible else {}
        for key in ("s1", "s2"):
            got = getattr(res, key)
            if got != 0.0:
                assert abs(got - float(ref[key])) <= 1e-12 * abs(float(ref[key]))
                checked += 1
    assert checked == 6


# ---------------------------------------------------------------------------
# the batched grid kernel against the scalar, certified paths


def test_resolvent_matches_solve_zero_order():
    # cell by cell against the per-point table and dense reference solve; both
    # carry an error of about cond * |x0| * eps, so large solutions get a
    # relative bound
    l0s = np.arange(0.5, 2.0 + 1e-9, 0.1)
    for n in (6, 42):
        spec, basis = ChainSpec(n), mode_basis(n)
        lo, hi = first_window(spec)
        ts = np.linspace(lo, hi, 9)
        for b in (0.5, 4.0, 9.0):
            x0, regular = _kernel_x0(spec, ts[:, None], b, l0s)
            for i, t in enumerate(ts):
                t0, b_vec = zero_order_system(alpha_table(amplitude_set(basis, float(t)), b, spec))
                for j, l0 in enumerate(l0s):
                    ref = solve_zero_order_dense(t0, b_vec, float(l0))
                    if ref is None:
                        assert not regular[i, j]
                        continue
                    assert regular[i, j]
                    scale = max(1.0, float(np.max(np.abs(ref))))
                    assert np.max(np.abs(x0[i, j] - ref)) <= 1e-10 * scale


def _merged_poles(n: int) -> np.ndarray:
    """Times in the first window where W's eigenvalues p +- sqrt(q r) merge: q r,
    real for every N, changes sign there."""

    def disc(ts):
        _, q, r = amplitude_grids(mode_basis(n), ts)
        return (q * r).real

    lo, hi = first_window(ChainSpec(n))
    ts = np.arange(lo, hi, 0.01)
    d = disc(ts)
    k = np.flatnonzero(d[:-1] * d[1:] < 0.0)
    lo, hi, found = bracket_root(disc, ts[k], ts[k + 1], 1e-13)
    return 0.5 * (lo + hi)[found]


@pytest.mark.parametrize("n", [6, 7, 42])
def test_resolvent_matches_solve_zero_order_at_merged_poles(n):
    # where w1 = w2, T0 has a fourfold pole |w|^2 and no basis of eigenvectors:
    # an eigendecomposition loses about half the digits there, the Schur
    # back-substitution does not. Both sides are bounded by the dense solve's
    # conditioning, cond(lambda0 I - T0) |x0| eps
    spec, basis = ChainSpec(n), mode_basis(n)
    ts = _merged_poles(n)
    assert ts.size
    l0s = np.arange(0.5, 2.0 + 1e-9, 0.1)
    for b in (0.5, 4.0, 9.0):
        x0, regular = _kernel_x0(spec, ts[:, None], b, l0s)
        for i, t in enumerate(ts):
            t0, b_vec = zero_order_system(alpha_table(amplitude_set(basis, float(t)), b, spec))
            for j, l0 in enumerate(l0s):
                ref = solve_zero_order_dense(t0, b_vec, float(l0))
                assert regular[i, j] == (ref is not None)
                if ref is not None:
                    cond = np.linalg.cond(l0 * np.eye(5) - t0)
                    scale = max(1.0, float(np.max(np.abs(ref))))
                    assert np.max(np.abs(x0[i, j] - ref)) <= 64 * EPS * cond * scale


@pytest.mark.parametrize("t", [5.0, 8.5153])
def test_lambda0_on_each_exact_pole_is_singular(t):
    # lambda0 set to each pole of the closed form: the real ones exactly (a
    # zero gap) and, at t = 5.0 where W's eigenvalues are real, the pair
    # w1 conj(w2) = w1 w2 too; every such cell is singular, holds zeros and
    # raises no warning
    spec = ChainSpec(6)
    d0, d1, d4, dp = time_stage(spec, t).spectrum[:4]
    assert _curve(6, np.array([t]))[1][0] == (t == 5.0)
    poles = [d0, d1, d4] + ([dp.real] if t == 5.0 else [])
    l0s = np.array(poles + [1.0837])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        x0, regular = _kernel_x0(spec, t, 10.0, l0s)
    assert regular.tolist() == [False] * len(poles) + [True]
    assert np.all(x0[:-1] == 0.0)


def test_scan_matches_region_metrics():
    # 40 random cells of the default scan grid against the point-by-point reference
    rng = np.random.default_rng(11)
    for n in (6, 42):
        spec = ChainSpec(n)
        ts, l0s, grids = _scan_grid(spec, OptProblem(case=3))
        for _ in range(40):
            it, ib, il = (int(rng.integers(k)) for k in grids[3].shape)
            t, b, l0 = float(ts[it]), float(B_GRID[ib]), float(l0s[il])
            for case, key in ((1, "s2"), (2, "s1"), (3, "s12")):
                ref = region_reference(spec, t, b, l0, case)
                ref = ref["s1"] * ref["s2"] if case == 3 else ref[key]
                assert grids[case][it, ib, il] == pytest.approx(ref, abs=1e-9)


@pytest.mark.parametrize("n", [6, 42])
def test_scan_edge_columns_match_reference(n):
    # the streamed scan at its edges against the point-by-point reference, at
    # seeded cells: the b = 0 column, where tau = 0 makes the single-quantum
    # map vanish (lambda1 real everywhere, x1 = e12) and n = k = 1/2, the
    # b = 10 column, and the lambda0 = 1 row
    spec = ChainSpec(n)
    ts, l0s, grids = _scan_grid(spec, OptProblem(case=3))
    bs = B_GRID
    points, _ = next(region_columns(spec, ts, bs[:1], l0s))
    assert bs[0] == 0.0 and points.real.all() and np.all(points.eigenvalues == 0.0)
    assert np.array_equal(points.x1, np.tile([1.0, 0.0, 0.0, 0.0], (len(ts), 1, 1)))
    assert points.weights == (0.5, 0.5)
    assert bs[-1] == 10.0
    rng = np.random.default_rng(n)
    one = int(np.argmin(np.abs(l0s - 1.0)))
    cells = ([(int(rng.integers(len(ts))), 0, int(rng.integers(len(l0s)))) for _ in range(8)]
             + [(int(rng.integers(len(ts))), len(bs) - 1, int(rng.integers(len(l0s))))
                for _ in range(8)]
             + [(int(rng.integers(len(ts))), int(rng.integers(len(bs))), one) for _ in range(8)])
    for it, ib, il in cells:
        t, b, l0 = float(ts[it]), float(bs[ib]), float(l0s[il])
        for case, key in ((1, "s2"), (2, "s1"), (3, "s12")):
            ref = region_reference(spec, t, b, l0, case)
            ref = ref["s1"] * ref["s2"] if case == 3 else ref[key]
            assert grids[case][it, ib, il] == pytest.approx(ref, abs=1e-9)


@pytest.mark.parametrize("mode", ["free", "fixed_one"])
@pytest.mark.parametrize("n, t_window", [
    *(pytest.param(n, None, id=str(n)) for n in (4, 5, 6, 7, 8, 9, 10, 12, 16, 30, 42, 43, 44)),
    pytest.param(6, (4.0, 8.0), id="6-window"),
])
def test_scan_keeps_each_case_best_cell(n, t_window, mode):
    # the best cell the pruned scan keeps per case is the first maximum of the
    # full grid in (b, t, lambda0) order, bitwise, at the same (t, b, lambda0);
    # where no cell is feasible (odd N, and cases 2 and 3 at N = 44) it is the
    # grid's first cell with value 0
    spec = ChainSpec(n)
    problem = OptProblem(case=3, lambda0_mode=mode, t_window=t_window)
    ts, l0s, grids = _scan_grid(spec, problem)
    best = _scan(spec, problem)
    assert set(best) == {1, 2, 3}
    for case, grid in grids.items():
        by_b = grid.transpose(1, 0, 2)  # the scan's order: b, then t, then lambda0
        ib, it, il = np.unravel_index(np.argmax(by_b), by_b.shape)
        assert best[case] == (grid[it, ib, il], ts[it], B_GRID[ib], l0s[il])
        if not grid.any():
            assert best[case] == (0.0, ts[0], 0.0, l0s[0])


def _quasi_concave(grid) -> np.ndarray:
    """The mask of the rows of grid (..., nl) that are quasi-concave along the last axis:
    f(j) >= min(max f(< j), max f(> j)) at every j."""
    left = np.maximum.accumulate(grid, axis=-1)
    right = np.maximum.accumulate(grid[..., ::-1], axis=-1)[..., ::-1]
    return np.all(grid[..., 1:-1] >= np.minimum(left[..., :-2], right[..., 2:]), axis=-1)


def test_quasi_concave_flags_a_second_peak():
    rows = np.array([[0, 1, 3, 3, 2, 0], [0, 0, 0, 0, 0, 0], [4, 3, 2, 1, 0, 0],
                     [1, 3, 1, 2, 0, 0], [2, 0, 0, 0, 0, 2]], dtype=float)
    assert _quasi_concave(rows).tolist() == [True, True, True, False, False]


@pytest.mark.parametrize("n", [*range(4, 13), 42, 43, 44])
def test_each_case_is_quasi_concave_along_lambda0(n):
    # the premise of the scan's coarse and fine lambda0 passes: on the default first
    # window and lambda0 grid, each case's values along lambda0 are quasi-concave at
    # every (t, b) pair, so each pair's first maximum lies between the coarse neighbours
    # of its first coarse maximum
    ts, l0s, grids = _scan_grid(ChainSpec(n), OptProblem(case=3))
    assert len(l0s) == 76
    for grid in grids.values():
        assert _quasi_concave(grid).all()


def test_lambda0_windows_hold_the_cells_between_the_coarse_neighbours():
    # the window rule on synthetic coarse profiles over the free grid's 76 cells: J at
    # index 0, at the appended last index, before it, next to a plateau below the maximum,
    # and the rows the guard sends to the whole row: a zero maximum, a maximum at two
    # coarse cells (a plateau at the top) and a second peak
    step, nl = optimize_module._COARSE_STEP, 76
    coarse = np.r_[np.arange(0, nl - 1, step), nl - 1]
    width = 2 * step - 1
    assert coarse.tolist() == [*range(0, 73, 6), 75] and width == 11
    peak = np.concatenate([np.arange(8.0), np.arange(6.0, 0.0, -1.0)])  # J at coarse 7
    rows = {
        "J at 0": (np.arange(14.0, 0.0, -1.0), 0),
        "J at the last": (np.arange(14.0), nl - width),
        "J before the last": (np.r_[np.arange(13.0), 0.0], nl - width),
        "J after a plateau": (np.r_[1.0, 2.0, 2.0, 3.0, np.zeros(10)], coarse[2] + 1),
        "J before a plateau": (np.r_[3.0, 4.0, 2.0, 2.0, np.zeros(10)], coarse[0] + 1),
        "J inside": (peak, coarse[6] + 1),
    }
    whole = {
        "zero": np.zeros(14),
        "plateau at the top": np.r_[1.0, 3.0, 3.0, np.zeros(11)],
        "second peak": np.r_[1.0, 3.0, 2.0, 2.5, np.zeros(10)],
        "second peak after a zero": np.r_[3.0, 0.0, 1.0, np.zeros(11)],
    }
    profile = np.array([row for row, _ in rows.values()] + list(whole.values()))
    start, guard = _lambda0_windows(profile, coarse, width)
    assert start.tolist() == [s for _, s in rows.values()] + [0] * len(whole)
    assert guard.tolist() == [False] * len(rows) + [True] * len(whole)
    for (row, _), s in zip(rows.values(), start):
        j = int(np.argmax(row))
        lo = coarse[j - 1] + 1 if j > 0 else 0
        hi = coarse[j + 1] if j + 1 < len(coarse) else nl
        assert 0 <= s <= lo and hi <= s + width <= nl


def test_scan_guard_sends_a_coarse_second_peak_to_the_whole_row(monkeypatch):
    # a lambda0 stage made singular at lambda0 indices 36..44 (1.22..1.38) splits each
    # feasible lambda0 interval at N = 6 in two, with a dip at the coarse cells 36 and 42,
    # so the values along lambda0 are not quasi-concave. The guard sends those rows to the
    # whole lambda0 row, and the scan keeps the full grid's first maximum; without the
    # guard the fine window around the first coarse maximum misses case 3's
    spec, problem = ChainSpec(6), OptProblem(case=3)
    l0s = _lambda0_grid("free")
    singular = l0s[36:45]

    def split(spectrum, lambda0s):
        unit, regular = solve_zero_order(spectrum, lambda0s)
        return unit, regular & ~np.isin(lambda0s, singular)

    for module in (optimize_module, states_module):
        monkeypatch.setattr(module, "solve_zero_order", split)
    ts, _, grids = _scan_grid(spec, problem)
    assert not all(_quasi_concave(grid).all() for grid in grids.values())
    first = {}
    for case, grid in grids.items():
        by_b = grid.transpose(1, 0, 2)
        ib, it, il = np.unravel_index(np.argmax(by_b), by_b.shape)
        first[case] = (grid[it, ib, il], ts[it], B_GRID[ib], l0s[il])
    assert _scan(spec, problem) == first

    def unguarded(profile, coarse, width):
        peak = np.argmax(profile, axis=1)
        start = np.minimum(np.where(peak > 0, coarse[peak - 1] + 1, 0), coarse[-1] + 1 - width)
        return start, np.zeros(len(profile), dtype=bool)

    monkeypatch.setattr(optimize_module, "_lambda0_windows", unguarded)
    missed = _scan(spec, problem)
    assert missed[3] != first[3] and missed[3][0] < first[3][0]


def test_scan_guard_sees_a_lower_second_peak(monkeypatch):
    # a lambda0 stage made singular at lambda0 indices 33..41 (1.16..1.32) at N = 6 leaves
    # case 2 a lower second peak after the gap at some pairs. The coarse values are exact
    # at every running (pair, case), so the guard sees that peak at its coarse cells and the
    # scan keeps the full grid's first maximum in cases 1-3 (a coarse pass that reads 0 at
    # the cells below a value the pair attains hides that peak and keeps case 2 at 0.278407
    # against 0.278665). A peak the coarse cells do not sample still passes the guard: at
    # indices 28..35 case 1's lower peak has no coarse cell, and the scan misses case 1's
    # first maximum there; that limit belongs to the two passes, not to the values they read
    spec, problem = ChainSpec(6), OptProblem(case=3)
    l0s = _lambda0_grid("free")
    singular = l0s[33:42]

    def split(spectrum, lambda0s):
        unit, regular = solve_zero_order(spectrum, lambda0s)
        return unit, regular & ~np.isin(lambda0s, singular)

    for module in (optimize_module, states_module):
        monkeypatch.setattr(module, "solve_zero_order", split)
    ts, _, grids = _scan_grid(spec, problem)
    assert not _quasi_concave(grids[2]).all()
    best = _scan(spec, problem)
    for case, grid in grids.items():
        by_b = grid.transpose(1, 0, 2)
        ib, it, il = np.unravel_index(np.argmax(by_b), by_b.shape)
        assert best[case] == (grid[it, ib, il], ts[it], B_GRID[ib], l0s[il])


@pytest.mark.parametrize("n", [*range(4, 13), 42, 43, 44])
def test_scan_guard_stays_quiet_on_the_default_grids(monkeypatch, n):
    # the coarse values are exact and, on the default grids, quasi-concave (the premise
    # tested above), so in free mode the guard sends no (pair, case) to its whole lambda0
    # row. Inexact coarse values make false alarms that the scan's results do not show:
    # read as 0 below a value the pair attains, they send 18 rows at N = 42, and with
    # c1_max formed for case 2 only, 45, 23 and 16 rows at N = 6, 10 and 42
    whole = []

    def counted(profile, coarse, width):
        start, rows = _lambda0_windows(profile, coarse, width)
        whole.append(int(rows.sum()))
        return start, rows

    monkeypatch.setattr(optimize_module, "_lambda0_windows", counted)
    _scan(ChainSpec(n), OptProblem(case=3))
    assert sum(whole) == 0
    assert bool(whole) == (n % 2 == 0)  # for odd N no pair runs


def _scan_cells(spec, problem):
    """The cells of the scan's full (t, b, lambda0) grid."""
    ts, l0s = _t_grid(spec, problem.t_window), _lambda0_grid(problem.lambda0_mode)
    return len(ts) * len(B_GRID) * len(l0s)


def test_scan_prunes_most_rows(monkeypatch):
    # the pruning at work: at N = 42 free, fewer than 15 % of the grid's 1,738,728 cells
    # reach the zero-order temperature step of the scan (7.9 % when this test was restated
    # over the grid's cells)
    spec, problem = ChainSpec(42), OptProblem(case=3)
    cells = []

    def counted(unit, n, k):
        cells.append(unit[0].size)
        return zero_order_at(unit, n, k)

    monkeypatch.setattr(states_module, "zero_order_at", counted)
    _scan(spec, problem)
    assert 0 < sum(cells) < 0.15 * _scan_cells(spec, problem)


def _counted_scan(monkeypatch, spec, problem) -> tuple[int, int]:
    """The cells that pass through base_cells, and through c1_rays outside the coarse lambda0
    pass, in one free-mode _scan: a c1_rays call belongs to the pass of the base_cells call
    before it, and the coarse pass's base_cells calls are those over the coarse cells, every
    _COARSE_STEP-th lambda0 and the last, per pair."""
    nl = len(_lambda0_grid(problem.lambda0_mode))
    coarse = len(range(0, nl - 1, optimize_module._COARSE_STEP)) + 1
    counts = {"base_cells": 0, "c1_rays": 0, "width": 0}

    def counted_cells(weights, zero):
        cells = base_cells(weights, zero)
        counts["base_cells"] += cells[1].size
        counts["width"] = zero[1].shape[-1]
        return cells

    def counted_rays(base, x1):
        counts["c1_rays"] += base[0].size if counts["width"] != coarse else 0
        return c1_rays(base, x1)

    monkeypatch.setattr(optimize_module, "base_cells", counted_cells)
    monkeypatch.setattr(optimize_module, "c1_rays", counted_rays)
    _scan(spec, problem)
    return counts["base_cells"], counts["c1_rays"]


def test_scan_forms_c1_max_on_few_cells(monkeypatch):
    # the per-cell bounds at work: at N = 42 free the closed form of c1_max runs, in the
    # seed and fine passes, where the per-cell bound acts, on fewer than 1 % of the grid's
    # 1,738,728 cells (10,178, 0.59 %, when this test was restated over those passes; the
    # coarse pass adds 24,624 cells, every ok cell where case 2 or 3 can be positive). With
    # the pair bound in place of the per-cell bound those passes read 42,386 cells (2.4 %)
    spec, problem = ChainSpec(42), OptProblem(case=3)
    cells = _scan_cells(spec, problem)
    _, rays = _counted_scan(monkeypatch, spec, problem)
    assert 0 < rays < 0.01 * cells
    monkeypatch.setattr(optimize_module, "_c1_cell_bound",
                        lambda base, x1: np.broadcast_to(optimize_module._c1_bound(x1),
                                                         base[0].shape))
    _, loose = _counted_scan(monkeypatch, spec, problem)
    assert loose > 0.01 * cells


def test_scan_forms_fewer_than_half_the_cells_of_one_pass(monkeypatch):
    # the coarse and fine lambda0 passes at work: at N = 42 free base_cells forms fewer
    # than half of the 374,604 cells that one pass over every lambda0 of the running (t, b)
    # pairs formed (137,665 when this test was written)
    cells, _ = _counted_scan(monkeypatch, ChainSpec(42), OptProblem(case=3))
    assert 0 < cells < 374_604 / 2


def test_scan_forms_the_semi_axes_once_per_batch(monkeypatch):
    # at N = 42 free the scan forms the semi-axes once per base_cells call (its floor's seed
    # and each batch that runs) from the positive parts it holds per pair, and never runs
    # the case mask
    calls = []

    def counted(name, func):
        def wrapper(*args):
            calls.append(name)
            return func(*args)
        monkeypatch.setattr(optimize_module, name, wrapper)

    counted("base_cells", base_cells)
    counted("semi_axes", optimize_module.semi_axes)
    for module in (states_module, optimize_module):
        monkeypatch.setattr(module, "case_metrics", lambda *args: calls.append("case_metrics"),
                            raising=False)
    _scan(ChainSpec(42), OptProblem(case=3))
    assert calls.count("base_cells") > 1 and "case_metrics" not in calls
    assert calls == ["base_cells", "semi_axes"] * calls.count("base_cells")


@pytest.mark.parametrize("mode", ["free", "fixed_one"])
def test_scan_raises_no_floating_point_warning(mode):
    # the bounds meet x_ij = 0, base states with a zero or slightly negative
    # population and lambda1 = 0 on the grid; none of them warns
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for n in (*range(4, 13), 42, 43, 44):
            _scan(ChainSpec(n), OptProblem(case=3, lambda0_mode=mode))


def test_refine_stops_at_a_fixed_point(monkeypatch):
    # at N = 6 with lambda0 = 1 the second round of the joint refinement moves no
    # case, so it is the last: two rounds of two bracket searches over one bracket
    # per case, not three; one round from its end moves nothing either
    spec = ChainSpec(6)
    problem = OptProblem(case=3, lambda0_mode="fixed_one")
    searches = []

    def counted(f, lo, hi, tol):
        searches.append(np.size(lo))
        return bracket_max(f, lo, hi, tol)

    monkeypatch.setattr(optimize_module, "bracket_max", counted)
    starts = {case: cell[1:] for case, cell in _scan(spec, problem).items()}
    end = optimize_module._refine(spec, problem, starts)
    assert searches == [3] * 4
    searches.clear()
    assert optimize_module._refine(spec, problem, end) == end
    assert searches == [3] * 2


def test_refinement_finds_the_same_optimum_on_a_quarter_step_grid(monkeypatch):
    # the basin check: at N = 6 a scan grid at a quarter of T_STEP and B_STEP
    # refines cases 1-3 to the optima of the default grid, in both lambda0 modes,
    # so the coarse grid does not miss a narrower, higher peak. In free mode case
    # 3 lies on a flat ridge, located to about 1e-3 in b, not to REFINE_TOL
    spec = ChainSpec(6)
    first_window(spec)  # the window's landmark is cached at the default step
    problems = {mode: {case: OptProblem(case, mode) for case in (1, 2, 3)}
                for mode in ("free", "fixed_one")}
    coarse = {mode: optimize_module._scan_and_refine(spec, p) for mode, p in problems.items()}
    t_step, b_step = optimize_module.T_STEP / 4, optimize_module.B_STEP / 4
    monkeypatch.setattr(optimize_module, "T_STEP", t_step)
    monkeypatch.setattr(optimize_module, "B_STEP", b_step)
    monkeypatch.setattr(optimize_module, "B_GRID", np.arange(
        optimize_module.B_WINDOW[0], optimize_module.B_WINDOW[1] + 1e-9, b_step))
    for mode, p in problems.items():
        fine = optimize_module._scan_and_refine(spec, p)
        for case in (1, 2, 3):
            a, b = coarse[mode][case], fine[case]
            assert a.feasible and b.feasible
            assert abs(a.t_opt - b.t_opt) <= 1e-3 and abs(a.b_opt - b.b_opt) <= 1e-3
            assert abs(a.lambda0_opt - b.lambda0_opt) <= 1e-3
            assert b.objective == pytest.approx(a.objective, rel=1e-7)


def _result_bytes(result) -> dict:
    """The fields of an OptResult, floats and arrays as their bytes, so NaN equals NaN."""
    return {key: value if value is None or isinstance(value, str) else np.asarray(value).tobytes()
            for key, value in vars(result).items()}


@pytest.mark.parametrize("mode", ["free", "fixed_one"])
@pytest.mark.parametrize("n", [4, 5, 6, 7, 8, 10, 42, 43, 44])
def test_joint_refinement_equals_one_case_calls(n, mode):
    # the kernel's rows do not mix and each bracket stops at its own tolerance (case 4's
    # t bracket at REFINE_TOL / 4), so refining cases 1..4 together ends each case bitwise
    # where a batch of one ends it. Cases 1..3 start from their scan cells and case 4 from
    # its curve start, the infeasible ones (whose rows are all zero or off the curve) too
    spec = ChainSpec(n)
    problem = OptProblem(case=3, lambda0_mode=mode)
    starts = {case: cell[1:] for case, cell in _scan(spec, problem).items()}
    starts[4] = optimize_module._curve_start(spec, problem)[1:]
    joint = optimize_module._refine(spec, problem, starts)
    assert list(joint) == [1, 2, 3, 4]
    for case, start in starts.items():
        assert joint[case] == optimize_module._refine(spec, problem, {case: start})[case]
    # so optimize of case 4 alone is summary_table's row, bitwise
    assert (_result_bytes(optimize(OptProblem(4, mode), spec))
            == _result_bytes(summary_table(spec, mode)[4]))


@pytest.mark.parametrize("mode", ["free", "fixed_one"])
def test_curve_start_is_the_first_maximum_of_the_curve_grid(mode):
    # case 4's start: the first maximum, in (t, lambda0) order, of s1 s2 over the t grid's
    # times on the curve, at b = b(t), and the lambda0 grid. The grid is formed again through
    # the case mask (case_metrics) with lambda0 on the leading axis, and checked point by
    # point against region_metrics at seeded cells and at the returned cell
    spec = ChainSpec(6)
    value, t, b, l0 = optimize_module._curve_start(spec, OptProblem(4, mode))
    ts, l0s = _t_grid(spec, None), _lambda0_grid(mode)
    bs, on = optimize_module._curve_b(6, ts)
    assert 0 < on.sum() < len(ts)
    ts, bs = ts[on], bs[on]
    points = region_points(time_stage(spec, ts), bs)
    cells = region_cells(points, solve_zero_order(time_stage(spec, ts).spectrum, l0s[:, None]))
    _, s1, s2 = case_metrics(points, cells, 4)
    grid = (s1 * s2).T  # (t, lambda0)
    i, j = np.unravel_index(np.argmax(grid), grid.shape)
    assert (t, b, l0) == (ts[i], bs[i], l0s[j])
    assert value == pytest.approx(grid[i, j], rel=1e-12)
    report = region_metrics(spec, t, b, l0, 4)
    assert report.feasible and report.lambda1 == pytest.approx(report.lambda2, rel=1e-9)
    assert value == pytest.approx(report.s12, rel=1e-12)
    rng = np.random.default_rng(4)
    for i, j in zip(rng.integers(len(ts), size=24), rng.integers(len(l0s), size=24)):
        ref = region_metrics(spec, float(ts[i]), float(bs[i]), float(l0s[j]), 4).s12
        assert grid[i, j] == pytest.approx(ref, rel=1e-12, abs=1e-300)
        assert grid[i, j] <= value


def test_scan_holds_no_grid():
    # at N = 42 free the grid is 558 x 41 x 76 cells; the scan keeps one best
    # cell per case, so its traced peak stays below two float64 grids
    spec = ChainSpec(42)
    problem = OptProblem(case=3)
    _scan(spec, problem)  # fills first_window's cache
    tracemalloc.start()
    try:
        _scan(spec, problem)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    cells = len(_t_grid(spec, None)) * len(B_GRID) * len(_lambda0_grid("free"))
    assert cells == 558 * 41 * 76
    assert peak < 2 * 8 * cells


@pytest.mark.parametrize("n", [2, 3])
@pytest.mark.parametrize("call", [
    lambda spec: summary_table(spec),
    lambda spec: optimize(OptProblem(case=1), spec),
    lambda spec: optimize(OptProblem(case=4), spec),
    lambda spec: region_metrics(spec, 1.0, 1.0, 1.0, 3),
    lambda spec: uniform_curve(spec),
], ids=["summary_table", "optimize", "optimize_case4", "region_metrics", "uniform_curve"])
def test_two_qubit_paths_need_four_sites(call, n):
    # a two-qubit sender and receiver need N >= 4, one rule in amplitude_grids
    with pytest.raises(ConfigurationError, match="need n_sites >= 4"):
        call(ChainSpec(n))


def test_lambda0_on_zero_order_spectrum_is_infeasible_cell():
    spec = ChainSpec(6)
    times = time_stage(spec, 8.5153)
    points = region_points(times, 10.0)
    t0, _ = zero_order_system(alpha_table(amplitude_set(mode_basis(6), 8.5153), 10.0, spec))
    ev = np.linalg.eigvals(t0)
    on_spectrum = float(ev[np.abs(ev.imag) < 1e-12][0].real)
    l0s = np.array([on_spectrum, on_spectrum + 0.05, 1.0837])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        zero = solve_zero_order(times.spectrum, l0s)
        cells = region_cells(points, zero)
        s1 = case_metrics(points, cells, 2)[1]
        s2 = case_metrics(points, cells, 1)[2]
    assert zero[1].tolist() == [False, True, True]
    assert np.all(np.isfinite(s1)) and np.all(np.isfinite(s2))
    assert s1[0] == 0.0 and s2[0] == 0.0
    assert s2[2] > 0.3


def test_summary_table_leaves_numpy_ma_unloaded():
    # np.unique imports numpy.ma on its first call, about 8 ms of a fresh process; the
    # scan seeds its floors from a mask of pairs instead
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    code = ("import sys; from mqtransfer import ChainSpec, summary_table; "
            "summary_table(ChainSpec(6)); print('numpy.ma' in sys.modules)")
    run = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    assert run.stdout.strip() == "False"
