"""Creatable-region optimization over time, temperature and zero-order scale.

Four cases are covered: only the double-quantum weight free (case 1), only
the single-quantum one (case 2), both free (case 3), and both free under the
uniform-scaling constraint lambda1 = lambda2 (case 4), which confines (b, t)
to a curve. The search is a coarse vectorized grid scan followed by
coordinatewise golden-section refinement; the landscape has kinks at
positivity and eigenvalue-realness boundaries, so no derivatives are used.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import lru_cache

import numpy as np

from .chain import ChainSpec, ModeBasis, amplitude_set, mode_basis
from .errors import ConfigurationError
from .solvers import solve_first_order, zero_order_resolvent, zero_order_system
from .states import block_rays, region_metrics
from .two_qubit import _alpha_entries, alpha_table

__all__ = [
    "OptProblem",
    "OptResult",
    "CurvePoint",
    "optimize",
    "optimize_lambda0_one",
    "uniform_curve",
    "summary_table",
    "lambda2_landmark",
    "first_window",
    "objective_landscape",
]

_INV_PHI = (np.sqrt(5.0) - 1.0) / 2.0


@dataclass(frozen=True)
class OptProblem:
    """Search configuration; windows and steps are the documented defaults.

    A t_window of None resolves to the first transfer window of the chain
    (see first_window). Case 4 walks the uniform-scaling curve instead of a
    full (t, b) grid; curve intersections with |lambda| below
    curve_min_lambda are discarded as degenerate.
    """

    case: int
    lambda0_mode: str = "free"
    t_window: tuple[float, float] | None = None
    b_window: tuple[float, float] = (0.0, 10.0)
    lambda0_window: tuple[float, float] = (0.5, 2.0)
    t_step: float = 0.05
    b_step: float = 0.25
    lambda0_step: float = 0.02
    refine_tol: float = 1e-4
    realness_tol: float = 1e-8
    curve_min_lambda: float = 1e-3

    def __post_init__(self) -> None:
        if self.case not in (1, 2, 3, 4):
            raise ConfigurationError(f"case must be 1..4, got {self.case}")
        if self.lambda0_mode not in ("free", "fixed_one"):
            raise ConfigurationError(f"lambda0_mode must be 'free' or 'fixed_one', got {self.lambda0_mode}")
        for name, win in (("t_window", self.t_window), ("b_window", self.b_window),
                          ("lambda0_window", self.lambda0_window)):
            if win is not None and win[1] < win[0]:
                raise ConfigurationError(f"{name} is empty: {win}")


@dataclass(frozen=True, eq=False)
class OptResult:
    """Optimum location, scale factors and region metrics."""

    case: int
    lambda0_mode: str
    feasible: bool
    t_opt: float
    b_opt: float
    lambda0_opt: float
    lambda1: float | None
    lambda2: float | None
    s1: float
    s2: float
    s12: float
    objective: float
    x0: np.ndarray | None
    x1: np.ndarray | None


@lru_cache(maxsize=64)
def lambda2_landmark(spec: ChainSpec, t_window: tuple[float, float] | None = None,
                     step: float = 1e-3) -> tuple[float, float]:
    """Location and signed value of the largest |double-quantum factor|.

    The default window is [0.5 N, 1.5 N], which brackets the first transfer
    window where the factor peaks near t ~ N. Results are cached per
    (spec, t_window, step).
    """
    basis = mode_basis(spec.n_sites)
    n = spec.n_sites
    lo, hi = t_window if t_window is not None else (0.5 * n, 1.5 * n)
    ts = np.arange(lo, hi + step, step)
    lam2 = _lambda2_grid(basis, ts)
    i = int(np.argmax(np.abs(lam2)))
    t_lo = ts[max(i - 1, 0)]
    t_hi = ts[min(i + 1, len(ts) - 1)]

    def val(t: float) -> float:
        return abs(_lambda2_grid(basis, np.array([t]))[0])

    t_best, _ = _golden_max(val, float(t_lo), float(t_hi), 1e-8)
    return t_best, float(_lambda2_grid(basis, np.array([t_best]))[0])


def first_window(spec: ChainSpec, margin: float = 1.0) -> tuple[float, float]:
    """Default t search window [0.5 N, min(1.5 N, first double-quantum peak + margin)].

    Later transfer windows can host larger scaled regions in long chains; the
    optimizer deliberately stays in the first one, where the reference optima
    live. Pass an explicit t_window to search further.
    """
    n = spec.n_sites
    t_peak, _ = lambda2_landmark(spec)
    return 0.5 * n, min(1.5 * n, t_peak + margin)


# ---------------------------------------------------------------------------
# vectorized grid machinery


def _amp_grids(basis: ModeBasis, ts: np.ndarray):
    """f_{1,N-1}, f_{1,N}, f_{2,N-1}, f_{2,N} over ts, sharing one phase grid."""
    n, g = basis.n_sites, basis.g
    phase = np.exp(-1j * np.multiply.outer(ts, basis.energies))
    weights = np.stack([g[0] * g[n - 2], g[0] * g[n - 1], g[1] * g[n - 2], g[1] * g[n - 1]], axis=1)
    return tuple((phase @ weights).T)


def _lambda2_grid(basis: ModeBasis, ts: np.ndarray) -> np.ndarray:
    p, q, r, s = _amp_grids(basis, ts)
    return (p * s - q * r).real


def _select_real_batch(t1: np.ndarray, realness_tol: float):
    """Per matrix: largest-modulus real eigenvalue and its gauge-fixed vector."""
    ev, vecs = np.linalg.eig(t1)
    nt = ev.shape[0]
    rows = np.arange(nt)
    order = np.argsort(-np.abs(ev), axis=1, kind="stable")
    lam = np.zeros(nt)
    vec = np.zeros((nt, 4), dtype=complex)
    found = np.zeros(nt, dtype=bool)
    for rank in range(4):
        idx = order[:, rank]
        e = ev[rows, idx]
        is_real = np.abs(e.imag) <= realness_tol * np.maximum(1.0, np.abs(e))
        take = is_real & ~found
        lam[take] = e[take].real
        vec[take] = vecs[rows, :, idx][take]
        found |= is_real
    k = np.argmax(np.abs(vec), axis=1)
    pick = vec[rows, k]
    phase = np.where(np.abs(pick) > 0, np.exp(-1j * np.angle(np.where(pick == 0, 1, pick))), 1.0)
    vec = vec * phase[:, None]
    return lam, vec, found


def _region_column(amps: tuple, b: float, n_sites: int, l0s: np.ndarray,
                   realness_tol: float) -> tuple[np.ndarray, np.ndarray]:
    """Semi-axes s1, s2 over (t, lambda0) at one b; zero at infeasible cells.

    amps are the four amplitude arrays over t. T0 is diagonalized once per t
    for the whole lambda0 axis, and the rays are closed-form.
    """
    first, zero, second = _alpha_entries(*amps, b, n_sites)
    lam1, x1, has1 = _select_real_batch(first, realness_tol)
    x0, regular = zero_order_resolvent(*zero_order_system(zero), l0s)
    positive, c1, c2 = block_rays(x0, x1[:, None, :])
    ok = regular & positive
    lam1_pos = np.where(has1 & (lam1 > 0.0), lam1, 0.0)[:, None]
    lam2_pos = np.where(second.real > 0.0, second.real, 0.0)[:, None]
    # without a real positive lambda1, x1 is zero and c1 infinite: select first
    return np.where(ok & (lam1_pos > 0.0), c1, 0.0) * lam1_pos, np.where(ok, c2, 0.0) * lam2_pos


def _scan(spec: ChainSpec, problem: OptProblem) -> dict:
    """Coarse grid of region metrics, one b column at a time.

    Returns axes ts, bs, l0s and s-arrays of shape (nt, nb, nl). Metrics are
    zero at infeasible points, so argmax directly yields the best feasible
    cell.
    """
    basis = mode_basis(spec.n_sites)
    t_lo, t_hi = problem.t_window if problem.t_window is not None else first_window(spec)
    ts = np.arange(t_lo, t_hi + 1e-9, problem.t_step)
    bs = np.arange(problem.b_window[0], problem.b_window[1] + 1e-9, problem.b_step)
    if problem.lambda0_mode == "fixed_one":
        l0s = np.array([1.0])
    else:
        l0s = np.arange(problem.lambda0_window[0], problem.lambda0_window[1] + 1e-9,
                        problem.lambda0_step)
    amps = _amp_grids(basis, ts)
    s1 = np.zeros((len(ts), len(bs), len(l0s)))
    s2 = np.zeros_like(s1)
    for bi, b in enumerate(bs):
        s1[:, bi], s2[:, bi] = _region_column(amps, float(b), spec.n_sites, l0s,
                                              problem.realness_tol)
    return {"ts": ts, "bs": bs, "l0s": l0s, "s1": s1, "s2": s2, "s12": s1 * s2}


def _objective_array(scan: dict, case: int) -> np.ndarray:
    return {1: scan["s2"], 2: scan["s1"], 3: scan["s12"]}[case]


# ---------------------------------------------------------------------------
# scalar evaluation and refinement


def _point_objective(spec: ChainSpec, t: float, b: float, lam0: float,
                     case: int, realness_tol: float) -> float:
    """Fast single-point objective using the closed-form positivity rays."""
    basis = mode_basis(spec.n_sites)
    table = alpha_table(amplitude_set(basis, t), b, spec)
    lam2 = table.second.real
    first = None
    if case != 1:
        first = solve_first_order(table.first, realness_tol)
        if first is None or first.lambda1 <= 0.0:
            return -np.inf
    if case == 1 and lam2 <= 0.0:
        return -np.inf
    t0, b_vec = zero_order_system(table)
    try:
        x0 = np.linalg.solve(lam0 * np.eye(5) - t0, b_vec)
    except np.linalg.LinAlgError:
        return -np.inf
    positive, c1, c2 = block_rays(x0, first.x1 if first is not None else None)
    if not positive:
        return -np.inf
    if case == 2:
        return float(c1) * first.lambda1
    s2 = float(c2) * lam2 if lam2 > 0.0 else 0.0
    if case == 1:
        return s2
    return float(c1) * first.lambda1 * s2


def _golden_max(f, lo: float, hi: float, tol: float) -> tuple[float, float]:
    """Golden-section maximization on [lo, hi]; endpoints are candidates too."""
    a, b = lo, hi
    c = b - _INV_PHI * (b - a)
    d = a + _INV_PHI * (b - a)
    fc, fd = f(c), f(d)
    while b - a > tol:
        if fc >= fd:
            b, d, fd = d, c, fc
            c = b - _INV_PHI * (b - a)
            fc = f(c)
        else:
            a, c, fc = c, d, fd
            d = a + _INV_PHI * (b - a)
            fd = f(d)
    candidates = [(0.5 * (a + b), f(0.5 * (a + b))), (lo, f(lo)), (hi, f(hi))]
    return max(candidates, key=lambda pair: pair[1])


def _refine(spec: ChainSpec, problem: OptProblem, start: tuple[float, float, float],
            windows: dict) -> tuple[float, float, float]:
    """Coordinatewise golden-section polish around a coarse grid winner."""
    t, b, l0 = start

    def objective(tt: float, bb: float, ll: float) -> float:
        return _point_objective(spec, tt, bb, ll, problem.case, problem.realness_tol)

    steps = {"t": problem.t_step, "b": problem.b_step, "l0": problem.lambda0_step}
    for _ in range(3):
        lo = max(windows["t"][0], t - steps["t"])
        hi = min(windows["t"][1], t + steps["t"])
        t, _ = _golden_max(lambda x: objective(x, b, l0), lo, hi, problem.refine_tol)
        lo = max(windows["b"][0], b - steps["b"])
        hi = min(windows["b"][1], b + steps["b"])
        b, _ = _golden_max(lambda x: objective(t, x, l0), lo, hi, problem.refine_tol)
        if problem.lambda0_mode == "free":
            lo = max(windows["l0"][0], l0 - steps["l0"])
            hi = min(windows["l0"][1], l0 + steps["l0"])
            l0, _ = _golden_max(lambda x: objective(t, b, x), lo, hi, problem.refine_tol)
    return t, b, l0


def _finalize(spec: ChainSpec, problem: OptProblem, t: float, b: float,
              l0: float) -> OptResult:
    """Recompute the reported optimum with the bisection-certified rays."""
    report = region_metrics(spec, t, b, l0, problem.case, problem.realness_tol)
    objective = {1: report.s2, 2: report.s1, 3: report.s12, 4: report.s12}[problem.case]
    return OptResult(
        case=problem.case, lambda0_mode=problem.lambda0_mode,
        feasible=report.feasible, t_opt=t, b_opt=b, lambda0_opt=l0,
        lambda1=report.lambda1, lambda2=report.lambda2 if problem.case != 2 else None,
        s1=report.s1, s2=report.s2, s12=report.s12, objective=objective,
        x0=report.x0, x1=report.x1,
    )


def _infeasible_result(problem: OptProblem) -> OptResult:
    return OptResult(case=problem.case, lambda0_mode=problem.lambda0_mode,
                     feasible=False, t_opt=float("nan"), b_opt=float("nan"),
                     lambda0_opt=float("nan"), lambda1=None, lambda2=None,
                     s1=0.0, s2=0.0, s12=0.0, objective=0.0, x0=None, x1=None)


def _optimize_from_scan(spec: ChainSpec, problem: OptProblem, scan: dict) -> OptResult:
    arr = _objective_array(scan, problem.case)
    flat = int(np.argmax(arr))
    if arr.flat[flat] <= 0.0:
        return _infeasible_result(problem)
    it, ib, il = np.unravel_index(flat, arr.shape)
    start = (float(scan["ts"][it]), float(scan["bs"][ib]), float(scan["l0s"][il]))
    windows = {
        "t": (float(scan["ts"][0]), float(scan["ts"][-1])),
        "b": problem.b_window,
        "l0": problem.lambda0_window if problem.lambda0_mode == "free" else (1.0, 1.0),
    }
    t, b, l0 = _refine(spec, problem, start, windows)
    return _finalize(spec, problem, t, b, l0)


def optimize(problem: OptProblem, spec: ChainSpec) -> OptResult:
    """Maximize the case objective over (t, b, lambda0).

    Cases 1..3 scan the full grid; case 4 walks the uniform-scaling curve.
    An all-zero feasible set yields a result with feasible=False.
    """
    if spec.n_sites < 4:
        raise ConfigurationError("two-qubit optimization needs n_sites >= 4")
    if problem.case == 4:
        return _optimize_case4(problem, spec)
    return _optimize_from_scan(spec, problem, _scan(spec, problem))


def optimize_lambda0_one(problem: OptProblem, spec: ChainSpec) -> OptResult:
    """Same search with the zero-order scale pinned to one."""
    return optimize(replace(problem, lambda0_mode="fixed_one"), spec)


# ---------------------------------------------------------------------------
# uniform scaling (case 4)


@dataclass(frozen=True)
class CurvePoint:
    """A (b, t) point where the single- and double-quantum factors coincide."""

    b: float
    t: float
    lam: float


def _h_scalar(spec: ChainSpec, t: float, b: float, realness_tol: float) -> float:
    basis = mode_basis(spec.n_sites)
    table = alpha_table(amplitude_set(basis, t), b, spec)
    first = solve_first_order(table.first, realness_tol)
    if first is None:
        return np.nan
    return first.lambda1 - table.second.real


def _bisect_root(spec: ChainSpec, b: float, lo: float, hi: float, h_lo: float,
                 realness_tol: float) -> float | None:
    """Refine a sign change of h on [lo, hi]; both endpoint values finite."""
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        hm = _h_scalar(spec, mid, b, realness_tol)
        if not np.isfinite(hm):
            return None
        if h_lo * hm <= 0.0:
            hi = mid
        else:
            lo, h_lo = mid, hm
    return 0.5 * (lo + hi)


def _grid_roots(spec: ChainSpec, b: float, ts: np.ndarray, hs: np.ndarray,
                realness_tol: float, min_lambda: float) -> list["CurvePoint"]:
    """Roots of h on a sampled grid, including crossings that sit just before
    a realness boundary (where two eigenvalues merge and h turns NaN)."""
    basis = mode_basis(spec.n_sites)
    roots: list[CurvePoint] = []

    def accept(t_root: float | None) -> None:
        if t_root is None:
            return
        h_root = _h_scalar(spec, t_root, b, realness_tol)
        lam_root = float(_lambda2_grid(basis, np.array([t_root]))[0])
        if np.isfinite(h_root) and abs(h_root) < 1e-6 and lam_root > min_lambda:
            roots.append(CurvePoint(b=b, t=t_root, lam=lam_root))

    for i in range(len(ts) - 1):
        a, c = hs[i], hs[i + 1]
        lo, hi = float(ts[i]), float(ts[i + 1])
        if np.isfinite(a) and np.isfinite(c):
            if a == 0.0 or a * c < 0.0:
                accept(_bisect_root(spec, b, lo, hi, a, realness_tol))
        elif np.isfinite(a) != np.isfinite(c):
            # locate the boundary between real and complex spectra, then look
            # for a crossing on the real side of it
            left_real = np.isfinite(a)
            e_lo, e_hi = lo, hi
            for _ in range(50):
                mid = 0.5 * (e_lo + e_hi)
                if np.isfinite(_h_scalar(spec, mid, b, realness_tol)) == left_real:
                    e_lo = mid
                else:
                    e_hi = mid
            t_edge = e_lo if left_real else e_hi
            h_edge = _h_scalar(spec, t_edge, b, realness_tol)
            if not np.isfinite(h_edge):
                continue
            if left_real and a * h_edge < 0.0:
                accept(_bisect_root(spec, b, lo, t_edge, a, realness_tol))
            elif not left_real and h_edge * c < 0.0:
                accept(_bisect_root(spec, b, t_edge, hi, h_edge, realness_tol))
    return roots


def uniform_curve(spec: ChainSpec, b_window: tuple[float, float] = (0.0, 10.0),
                  t_window: tuple[float, float] | None = None,
                  b_step: float = 0.25, t_step: float = 0.05,
                  realness_tol: float = 1e-8, min_lambda: float = 1e-3) -> list[CurvePoint]:
    """Sample the constraint curve lambda1(t, b) = lambda2(t).

    For each b on the grid, roots in t are bracketed on a scan of the first
    transfer window and polished by bisection; roots are kept only when both
    factors are real, the residual is below 1e-6 and the common value exceeds
    min_lambda (zero crossings of both factors are degenerate, not scaling).
    """
    basis = mode_basis(spec.n_sites)
    t_lo, t_hi = t_window if t_window is not None else first_window(spec)
    ts = np.arange(t_lo, t_hi + 1e-9, t_step)
    amps = _amp_grids(basis, ts)
    points: list[CurvePoint] = []
    for b in np.arange(b_window[0], b_window[1] + 1e-9, b_step):
        first, _, second = _alpha_entries(*amps, float(b), spec.n_sites)
        lam, _, found = _select_real_batch(first, realness_tol)
        h = np.where(found, lam - second.real, np.nan)
        points.extend(_grid_roots(spec, float(b), ts, h, realness_tol, min_lambda))
    return points


def _curve_root_near(spec: ChainSpec, b: float, t_center: float, t_step: float,
                     realness_tol: float, min_lambda: float) -> CurvePoint | None:
    """Re-solve the curve root closest to a previous one after a small b move."""
    ts = np.arange(t_center - 2.0 * t_step, t_center + 2.0 * t_step, t_step / 5.0)
    hs = np.array([_h_scalar(spec, float(t), b, realness_tol) for t in ts])
    roots = _grid_roots(spec, b, ts, hs, realness_tol, min_lambda)
    if not roots:
        return None
    return min(roots, key=lambda pt: abs(pt.t - t_center))


def _optimize_case4(problem: OptProblem, spec: ChainSpec) -> OptResult:
    curve = uniform_curve(spec, problem.b_window, problem.t_window,
                          problem.b_step, problem.t_step,
                          problem.realness_tol, problem.curve_min_lambda)
    if not curve:
        return _infeasible_result(problem)

    basis = mode_basis(spec.n_sites)
    lo, hi = problem.lambda0_window
    grid = np.arange(lo, hi + 1e-9, problem.lambda0_step)

    def best_l0(t: float, b: float) -> tuple[float, float]:
        if problem.lambda0_mode == "fixed_one":
            return 1.0, _point_objective(spec, t, b, 1.0, 4, problem.realness_tol)
        s1, s2 = _region_column(_amp_grids(basis, np.array([t])), b, spec.n_sites, grid,
                                problem.realness_tol)
        k = int(np.argmax(s1[0] * s2[0]))
        g_lo = max(lo, float(grid[k]) - problem.lambda0_step)
        g_hi = min(hi, float(grid[k]) + problem.lambda0_step)
        return _golden_max(lambda l: _point_objective(spec, t, b, l, 4, problem.realness_tol),
                           g_lo, g_hi, problem.refine_tol)

    candidates = []
    for pt in curve:
        l0, obj = best_l0(pt.t, pt.b)
        if np.isfinite(obj) and obj > 0.0:
            candidates.append((obj, pt, l0))
    if not candidates:
        return _infeasible_result(problem)
    candidates.sort(key=lambda item: -item[0])

    def polish(pt: CurvePoint, l0_start: float, obj_start: float):
        # stage 1: walk the branch both ways at b_step/10, re-rooting t each move
        best = (obj_start, pt.b, pt.t, l0_start)
        fine = problem.b_step / 10.0
        for direction in (1.0, -1.0):
            t_prev, stalls = pt.t, 0
            for k in range(1, 11):
                b_try = pt.b + direction * k * fine
                if not problem.b_window[0] <= b_try <= problem.b_window[1]:
                    break
                root = _curve_root_near(spec, b_try, t_prev, problem.t_step,
                                        problem.realness_tol, problem.curve_min_lambda)
                if root is None:
                    break
                t_prev = root.t
                l0_here, obj = best_l0(root.t, b_try)
                if np.isfinite(obj) and obj > best[0]:
                    best = (obj, b_try, root.t, l0_here)
                    stalls = 0
                else:
                    stalls += 1
                    if stalls >= 3:
                        break
        # stage 2: golden polish of b in the fine bracket, t rooted from the best t
        _, b_c, t_c, _ = best
        seen = {}

        def along(b_try: float) -> float:
            root = _curve_root_near(spec, b_try, t_c, problem.t_step,
                                    problem.realness_tol, problem.curve_min_lambda)
            if root is None:
                return -np.inf
            l0_here, obj = best_l0(root.t, b_try)
            seen[b_try] = (obj, root.t, l0_here)
            return obj

        b_lo = max(problem.b_window[0], b_c - fine)
        b_hi = min(problem.b_window[1], b_c + fine)
        _golden_max(along, b_lo, b_hi, problem.refine_tol)
        for b_try, (obj, t_try, l0_try) in seen.items():
            if np.isfinite(obj) and obj > best[0]:
                best = (obj, b_try, t_try, l0_try)
        return best

    polished = [polish(pt, l0, obj) for obj, pt, l0 in candidates[:3]]
    obj, b_opt, t_opt, l0_opt = max(polished, key=lambda item: item[0])
    return _finalize(spec, problem, t_opt, b_opt, l0_opt)


# ---------------------------------------------------------------------------
# shared table runs and landscape dumps


def summary_table(spec: ChainSpec, lambda0_mode: str = "free",
                  **problem_kwargs) -> dict[int, OptResult]:
    """Optimize all four cases, sharing one grid scan across cases 1..3."""
    problems = {case: OptProblem(case=case, lambda0_mode=lambda0_mode, **problem_kwargs)
                for case in (1, 2, 3, 4)}
    scan = _scan(spec, problems[3])
    results = {case: _optimize_from_scan(spec, problems[case], scan) for case in (1, 2, 3)}
    results[4] = _optimize_case4(problems[4], spec)
    return results


def objective_landscape(spec: ChainSpec, problem: OptProblem,
                        b_fixed: float) -> tuple[list[str], list[tuple]]:
    """Long-format landscape rows (t, b, lambda0, value) at a fixed b."""
    scan = _scan(spec, replace(problem, b_window=(b_fixed, b_fixed)))
    arr = _objective_array(scan, problem.case) if problem.case != 4 else scan["s12"]
    rows = []
    for it, t in enumerate(scan["ts"]):
        for il, l0 in enumerate(scan["l0s"]):
            rows.append((float(t), float(b_fixed), float(l0), float(arr[it, 0, il])))
    return ["t", "b", "lambda0", "value"], rows
