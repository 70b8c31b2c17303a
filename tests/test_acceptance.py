"""Acceptance criteria, one test per criterion, each printing a verdict line.

Run with `pytest tests/test_acceptance.py -s` to see the per-criterion lines.
Shared optimization tables come from session fixtures in conftest.
"""

import time

import numpy as np

from mqtransfer import (
    ChainSpec,
    Qubit1State,
    alpha_table,
    amplitude_set,
    decompose_blocks,
    endpoint_amplitude,
    endpoint_power_max,
    gauge_fix,
    lambda0_variant_a,
    lambda0_variant_b,
    lambda2_landmark,
    mode_basis,
    perfect_zero_a1,
    receiver_from_sender,
    receiver_state_1q,
    state_independent_target,
    transition_amplitude,
    uniform_curve,
)
from mqtransfer.oracle import evolve_and_trace
from mqtransfer.two_qubit import random_density


def _verdict(num: int, ok: bool, detail: str) -> None:
    print(f"criterion {num:2d} [{'PASS' if ok else 'FAIL'}] {detail}")
    assert ok, f"criterion {num}: {detail}"


def test_criterion_01_oracle_equivalence():
    started = time.time()
    rng = np.random.default_rng(1)
    worst2 = 0.0
    for n in (4, 5, 6):
        spec = ChainSpec(n)
        basis = mode_basis(n)
        for _ in range(20):
            rho_s = random_density(rng)
            t = rng.uniform(0.0, 2.0 * n)
            b = rng.uniform(0.0, 6.0)
            table = alpha_table(amplitude_set(basis, t), b, spec)
            dev = np.linalg.norm(receiver_from_sender(table, rho_s)
                                 - evolve_and_trace(rho_s, t, b, spec))
            worst2 = max(worst2, float(dev))
    worst1 = 0.0
    for n in range(2, 7):
        spec = ChainSpec(n)
        for _ in range(20):
            state = Qubit1State.pure(rng.uniform(0, 1), rng.uniform(0, 2 * np.pi))
            sender = np.array([[1 - state.a1_sq, state.phase_prod],
                               [np.conj(state.phase_prod), state.a1_sq]])
            t = rng.uniform(0.0, 2.0 * n)
            b = rng.uniform(0.0, 6.0)
            dev = np.linalg.norm(receiver_state_1q(state, t, b, spec)
                                 - evolve_and_trace(sender, t, b, spec))
            worst1 = max(worst1, float(dev))
    elapsed = time.time() - started
    ok = worst2 < 1e-9 and worst1 < 1e-9 and elapsed < 30.0
    _verdict(1, ok, f"oracle equivalence: two-qubit {worst2:.2e}, one-qubit {worst1:.2e}, "
                    f"{elapsed:.1f}s (< 1e-9, < 30s)")


def test_criterion_02_lambda2_landmarks():
    t6, v6 = lambda2_landmark(ChainSpec(6))
    t42, v42 = lambda2_landmark(ChainSpec(42))
    ok = (abs(abs(v6) - 0.8960) < 1e-3 and abs(t6 - 8.5153) < 1e-2
          and abs(abs(v42) - 0.2621) < 1e-3 and abs(t42 - 47.8855) < 1e-2)
    _verdict(2, ok, f"lambda2 first maxima: N=6 {abs(v6):.4f}@{t6:.4f} "
                    f"(0.8960@8.5153), N=42 {abs(v42):.4f}@{t42:.4f} (0.2621@47.8855)")


def test_criterion_03_one_qubit_boundary():
    t17, v17 = endpoint_power_max(mode_basis(17), 0.0, 51.0)
    _, v18 = endpoint_power_max(mode_basis(18), 0.0, 54.0)
    ok = abs(v17 - 0.6730) < 5e-4 and abs(t17 - 19.6551) < 1e-2 and v18 < 2.0 / 3.0
    _verdict(3, ok, f"|f|^2 boundary: N=17 {v17:.4f}@{t17:.4f} "
                    f"(0.6730@19.6551), N=18 max {v18:.4f} < 2/3")


_TABLE_1A = {
    1: {"s2": 0.3117, "lambda2": 0.8960, "t": 8.5153, "b": 10.0, "l0": 1.0837},
    2: {"s1": 0.2870, "lambda1": 0.8145, "t": 5.0326, "b": 10.0, "l0": 1.2201},
    3: {"s1": 0.2448, "s2": 0.0771, "lambda1": 0.7613, "lambda2": 0.2289,
        "t": 5.3768, "b": 5.3790, "l0": 1.2634},
    4: {"s1": 0.0904, "s2": 0.0946, "lambda1": 0.2956, "lambda2": 0.2956,
        "t": 5.6651, "b": 2.3462, "l0": 1.2022},
}

_TABLE_1B = {
    1: {"s2": 0.2240, "lambda2": 0.8960, "t": 8.5153, "b": 0.0},
    2: {"s1": 0.1111, "lambda1": 0.5444, "t": 5.1095, "b": 2.9830},
    3: {"s1": 0.0713, "s2": 0.0280, "lambda1": 0.2507, "lambda2": 0.2748,
        "t": 5.5794, "b": 2.0412},
    4: {"s1": 0.0756, "s2": 0.0263, "lambda1": 0.2696, "lambda2": 0.2696,
        "t": 5.5574, "b": 2.0950},
}


def _check_table_n6(results, reference, check_l0):
    errors = []
    for case, ref in reference.items():
        res = results[case]
        got = {"s1": res.s1, "s2": res.s2, "lambda1": res.lambda1,
               "lambda2": res.lambda2, "t": res.t_opt, "b": res.b_opt, "l0": res.lambda0_opt}
        for key, target in ref.items():
            if key == "l0" and not check_l0:
                continue
            tol = 5e-2 if key in ("t", "b", "l0") else 2e-3
            val = got[key]
            if val is None or abs(val - target) > tol:
                errors.append(f"case {case} {key}: {val} vs {target}")
    return errors


def test_criterion_04_table_n6_free(table_n6_free):
    errors = _check_table_n6(table_n6_free, _TABLE_1A, check_l0=True)
    _verdict(4, not errors, "Table N=6 free zero-order scale: "
             + ("all cases within tolerance" if not errors else "; ".join(errors)))


def test_criterion_05_table_n6_fixed(table_n6_one):
    errors = _check_table_n6(table_n6_one, _TABLE_1B, check_l0=False)
    _verdict(5, not errors, "Table N=6 unit zero-order scale: "
             + ("all cases within tolerance" if not errors else "; ".join(errors)))


_TABLE_42A = {1: {"s2": 0.1146, "lambda2": 0.2620},
              2: {"s1": 0.0468, "lambda1": 0.3187},
              3: {"s1": 0.0390, "s2": 0.0178, "lambda1": 0.2952, "lambda2": 0.0393},
              4: {"s1": 0.0088, "s2": 0.0212, "lambda1": 0.0494, "lambda2": 0.0494}}

_TABLE_42B = {1: {"s2": 0.0655, "lambda2": 0.2621},
              2: {"s1": 0.0162, "lambda1": 0.2101},
              3: {"s1": 0.0090, "s2": 0.0008, "lambda1": 0.0699, "lambda2": 0.0454},
              4: {"s1": 0.0067, "s2": 0.0010, "lambda1": 0.0473, "lambda2": 0.0473}}


def test_criterion_06_table_n42(table_n42_free, table_n42_one):
    errors = []
    for results, reference, label in ((table_n42_free, _TABLE_42A, "free"),
                                      (table_n42_one, _TABLE_42B, "unit")):
        for case, ref in reference.items():
            res = results[case]
            got = {"s1": res.s1, "s2": res.s2,
                   "lambda1": res.lambda1, "lambda2": res.lambda2}
            for key, target in ref.items():
                val = got[key]
                if val is None or abs(val - target) > 0.05 * abs(target):
                    errors.append(f"{label} case {case} {key}: {val} vs {target}")
    _verdict(6, not errors, "Table N=42 both panels within 5%: "
             + ("yes" if not errors else "; ".join(errors)))


_VECTORS_FREE = {
    1: {"x0": [0.40596, 0.15131, 0.14467, 0.00010j, -0.00010j]},
    2: {"x0": [0.59440, 0.12890, 0.09232, -0.10707j, 0.10707j],
        "x1": [0.77790, -0.62839j, -0.00003j, -0.00004]},
    3: {"x0": [0.51945, 0.18237, 0.07949, -0.11342j, 0.11342j],
        "x1": [0.88361, -0.46820j, -0.00216j, -0.00408]},
    4: {"x0": [0.49962, 0.20645, 0.08884, -0.07298j, 0.07298j],
        "x1": [0.98333, -0.15484j, -0.01482j, -0.09414]},
}

_VECTORS_ONE = {
    1: {"x0": [0.25, 0.25, 0.25, 0.0, 0.0]},
    2: {"x0": [0.90593, 0.04588, 0.04588, 0.0, 0.0],
        "x1": [0.79903, -0.59916j, -0.03034j, -0.04046]},
    3: {"x0": [0.78332, 0.10173, 0.10173, 0.0, 0.0],
        "x1": [0.94716, -0.29378j, -0.03815j, -0.12301]},
    4: {"x0": [0.79285, 0.09757, 0.09757, 0.0, 0.0],
        "x1": [0.93988, -0.31891j, -0.03925j, -0.11567]},
}


def test_criterion_07_optimum_vectors(table_n6_free, table_n6_one):
    errors = []
    for results, reference, label in ((table_n6_free, _VECTORS_FREE, "free"),
                                      (table_n6_one, _VECTORS_ONE, "unit")):
        for case, ref in reference.items():
            res = results[case]
            dev0 = np.max(np.abs(res.x0 - np.array(ref["x0"])))
            if dev0 > 2e-3:
                errors.append(f"{label} case {case} x0 off by {dev0:.1e}")
            if "x1" in ref:
                got = gauge_fix(res.x1)
                want = gauge_fix(np.array(ref["x1"]))
                want = want / np.linalg.norm(want)
                dev1 = np.max(np.abs(got - want))
                if dev1 > 2e-3:
                    errors.append(f"{label} case {case} x1 off by {dev1:.1e}")
    exact = np.max(np.abs(table_n6_one[1].x0 - np.array([0.25, 0.25, 0.25, 0, 0])))
    if exact > 1e-6:
        errors.append(f"unit case 1 x0 not the mixed diagonal: {exact:.1e}")
    _verdict(7, not errors, "printed optimum vectors: "
             + ("componentwise within 2e-3 (case 1 unit within 1e-6)"
                if not errors else "; ".join(errors)))


def test_criterion_08_structural_invariants(table_n6_free, table_n42_free):
    rng = np.random.default_rng(8)
    errors = []

    # block non-mixing under single-block perturbations of the sender
    spec = ChainSpec(6)
    basis = mode_basis(6)
    table = alpha_table(amplitude_set(basis, 6.8), 3.1, spec)
    rho_s = random_density(rng)
    base_blocks = decompose_blocks(receiver_from_sender(table, rho_s))
    bumps = {2: [(0, 3)], 1: [(0, 1), (1, 3)], 0: [(1, 2)]}
    for order, sites in bumps.items():
        bumped = rho_s.copy()
        for i, j in sites:
            bumped[i, j] += 0.02
            bumped[j, i] += 0.02
        if order == 0:
            # trace-neutral diagonal shift belongs to the zero-order block too
            bumped[0, 0] += 0.015
            bumped[1, 1] -= 0.015
        pert = decompose_blocks(receiver_from_sender(table, bumped))
        for other in (-2, -1, 0, 1, 2):
            if abs(other) == order:
                continue
            dev = np.max(np.abs(pert[other] - base_blocks[other]))
            if dev > 1e-12:
                errors.append(f"block {other} moved ({dev:.1e}) under order-{order} bump")

    # trace, Hermiticity and positivity preservation
    for _ in range(10):
        out = receiver_from_sender(table, random_density(rng))
        if abs(np.trace(out) - 1) > 1e-12 or np.max(np.abs(out - out.conj().T)) > 1e-14:
            errors.append("trace/Hermiticity broken")
        if np.linalg.eigvalsh(out).min() < -1e-10:
            errors.append("positivity broken")

    # propagator unitarity row sums
    for n in (5, 8):
        bb = mode_basis(n)
        for _ in range(5):
            t = rng.uniform(0, 3 * n)
            i = int(rng.integers(1, n + 1))
            total = sum(abs(transition_amplitude(bb, i, j, t)) ** 2 for j in range(1, n + 1))
            if abs(total - 1.0) > 1e-10:
                errors.append(f"row sum off at N={n}")

    # endpoint parity
    for n in (5, 6):
        bb = mode_basis(n)
        for t in rng.uniform(0, 3 * n, size=50):
            f = endpoint_amplitude(bb, t)
            bad = abs(f.imag) > 1e-12 if n % 2 else abs(f.real) > 1e-12
            if bad:
                errors.append(f"parity broken at N={n}")
                break

    # compressive/stretching ordering at the reported free optima
    for label, results in (("N=6", table_n6_free), ("N=42", table_n42_free)):
        for case, res in results.items():
            if not res.feasible:
                errors.append(f"{label} case {case} infeasible")
                continue
            if not res.lambda0_opt > 1.0:
                errors.append(f"{label} case {case} lambda0 {res.lambda0_opt} not > 1")
            for lam in (res.lambda1, res.lambda2):
                if lam is not None and not 0.0 < lam < 1.0:
                    errors.append(f"{label} case {case} scale factor {lam} not in (0, 1)")

    _verdict(8, not errors, "structural invariants: "
             + ("non-mixing, preservation, unitarity, parity, ordering all hold"
                if not errors else "; ".join(errors[:4])))


def test_criterion_09_uniform_scaling_parity():
    sizes = {}
    for n in (6, 7, 8, 9, 10):
        sizes[n] = len(uniform_curve(ChainSpec(n)))
    ok = sizes[6] > 0 and sizes[10] > 0 and sizes[7] == sizes[8] == sizes[9] == 0
    _verdict(9, ok, f"uniform-scaling curve sizes (6,7,8,9,10) = "
                    f"({sizes[6]}, {sizes[7]}, {sizes[8]}, {sizes[9]}, {sizes[10]}); "
                    f"nonzero only for N = 2 + 4n")


def test_criterion_10_perfect_zero_order():
    rng = np.random.default_rng(10)
    worst = 0.0
    for _ in range(50):
        n = int(rng.integers(2, 9))
        spec = ChainSpec(n)
        t = rng.uniform(0.0, 3.0 * n)
        b = rng.uniform(0.0, 6.0)
        a1 = perfect_zero_a1(b)
        state = Qubit1State.pure(a1)
        worst = max(worst,
                    abs(lambda0_variant_a(state, t, b, spec) - 1.0),
                    abs(lambda0_variant_b(state, t, b, spec) - 1.0))
    bound_ok = all(state_independent_target(b) >= 2.0 / 3.0 - 1e-15
                   for b in np.linspace(0.0, 20.0, 101))
    ok = worst < 1e-10 and bound_ok
    _verdict(10, ok, f"perfect zero-order closed loop: max |lambda0 - 1| = {worst:.2e} "
                     f"(< 1e-10); threshold branch >= 2/3 holds")
