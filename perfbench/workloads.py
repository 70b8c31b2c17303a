"""Workload inputs and output checks for the mqtransfer benchmark.

Every input comes from the benchmark seed; the program sees only the
generated command lines and points. Reference values are copies of the
paper-table acceptance criteria, kept here so the benchmark does not depend
on the test suite.
"""

from __future__ import annotations

import json
import random
import re

# name -> why the workload was chosen (also recorded in BENCHMARK.json)
WORKLOADS = {
    "table-n42-free": "only workload where the batched (t, b, lambda0) grid scan does most "
                      "of the work; also carries case 4 and the uncached first_window",
    "table-n6-one": "case-4 scalar loops are about 90% of the op and the scan about 4%, so "
                    "scan changes should not move it and case-4 changes show in full",
    "oracle-n10": "only workload in oracle (dense eigh plus 2^10 evolution); it never "
                  "touches optimize",
    "points-n42": "the two_qubit/solvers/states code one point at a time (bisection rays, "
                  "scalar eig and solve) instead of batched over a grid",
}

# The workloads of BENCHMARK.json. table-n6-one runs only from report.py: its
# layers (case 4, alpha_table, solve_first_order) are also a large share of
# table-n42-free, and leaving it out gives the others runs long enough for
# two table-n42-free ops.
GATED = ("table-n42-free", "oracle-n10", "points-n42")

# Workloads whose op is one CLI call in a fresh interpreter; the rest share one process.
CLI_WORKLOADS = ("table-n42-free", "table-n6-one", "oracle-n10")

ORACLE_SAMPLES = 8
ORACLE_BOUND = 1e-9  # acceptance criterion 1

POINTS_N = 42
POINTS_POOL = 4000  # seeded points cycled through by a timed run
POINTS_TRACED = 1000  # points in a traced run, a fixed count so its counts repeat
# Point ops differ up to threefold in cost (early exit vs full rays), so the
# median of single ops jumps with the mix of a run; the median of the mean
# times of batches of consecutive pool points does not.
POINTS_BATCH = 100
POINT_TOL = 1e-12

# Acceptance criterion 5: Table 1b, N = 6, unit zero-order scale; absolute tolerances.
TABLE_N6_ONE = {
    1: {"S2": 0.2240, "lambda2": 0.8960, "t_opt": 8.5153, "b_opt": 0.0},
    2: {"S1": 0.1111, "lambda1": 0.5444, "t_opt": 5.1095, "b_opt": 2.9830},
    3: {"S1": 0.0713, "S2": 0.0280, "lambda1": 0.2507, "lambda2": 0.2748,
        "t_opt": 5.5794, "b_opt": 2.0412},
    4: {"S1": 0.0756, "S2": 0.0263, "lambda1": 0.2696, "lambda2": 0.2696,
        "t_opt": 5.5574, "b_opt": 2.0950},
}

# Acceptance criterion 6: Table N = 42, free zero-order scale; 5% relative tolerance.
TABLE_N42_FREE = {
    1: {"S2": 0.1146, "lambda2": 0.2620},
    2: {"S1": 0.0468, "lambda1": 0.3187},
    3: {"S1": 0.0390, "S2": 0.0178, "lambda1": 0.2952, "lambda2": 0.0393},
    4: {"S1": 0.0088, "S2": 0.0212, "lambda1": 0.0494, "lambda2": 0.0494},
}


def _n6_tolerance(key: str, target: float) -> float:
    return 5e-2 if key in ("t_opt", "b_opt") else 2e-3


def _n42_tolerance(key: str, target: float) -> float:
    return 0.05 * abs(target)


TABLES = {
    "table-n6-one": (TABLE_N6_ONE, _n6_tolerance),
    "table-n42-free": (TABLE_N42_FREE, _n42_tolerance),
}


def cli_argv(workload: str, seed: int, op_id: int) -> list[str]:
    """Command line of op `op_id` of a CLI workload."""
    if workload == "table-n42-free":
        return ["table1", "--n", "42", "--lambda0", "free", "--format", "json",
                "--precision", "full"]
    if workload == "table-n6-one":
        return ["table1", "--n", "6", "--lambda0", "one", "--format", "json",
                "--precision", "full"]
    if workload == "oracle-n10":
        op_seed = random.Random(f"{seed}:{op_id}").randrange(2**31)
        return ["oracle-check", "--n", "10", "--samples", str(ORACLE_SAMPLES),
                "--seed", str(op_seed), "--precision", "full"]
    raise ValueError(f"{workload} is not a CLI workload")


def check_table(workload: str, stdout: str, perturb: bool = False) -> list[str]:
    """Differences between a `table1` JSON output and its reference table."""
    reference, tolerance = TABLES[workload]
    if perturb:
        reference = {case: dict(ref) for case, ref in reference.items()}
        reference[1]["lambda2"] += 1.0
    try:
        rows = {row["case"]: row for row in json.loads(stdout)["data"]}
    except (ValueError, KeyError, TypeError) as exc:
        return [f"unreadable table1 output: {exc}"]
    errors = []
    for case, ref in reference.items():
        row = rows.get(f"case{case}")
        if row is None:
            errors.append(f"case {case} missing")
            continue
        for key, target in ref.items():
            got = row.get(key)
            # written so that a NaN or missing value fails
            if not (isinstance(got, float) and abs(got - target) <= tolerance(key, target)):
                errors.append(f"case {case} {key}: {got} vs {target}")
    return errors


_DEVIATION = re.compile(r"max Frobenius deviation analytic vs oracle \(n=\d+, "
                        r"samples=\d+\): (\S+)")


def check_oracle(stdout: str, perturb: bool = False) -> list[str]:
    """The printed analytic-vs-dense deviation must lie below criterion 1's bound."""
    bound = 0.0 if perturb else ORACLE_BOUND
    match = _DEVIATION.search(stdout)
    if match is None:
        return ["no deviation line in oracle-check output"]
    deviation = float(match.group(1))
    if not deviation < bound:
        return [f"deviation {deviation!r} not below {bound}"]
    return []


def check_cli(workload: str, stdout: str, perturb: bool = False) -> list[str]:
    if workload == "oracle-n10":
        return check_oracle(stdout, perturb)
    return check_table(workload, stdout, perturb)


def _halton(size: int, base: int):
    """The first `size` points after 0 of the van der Corput sequence in `base`."""
    import numpy as np

    index = np.arange(1, size + 1)
    out, scale = np.zeros(size), 1.0
    while index.any():
        scale /= base
        out += scale * (index % base)
        index //= base
    return out


def point_pool(seed: int, size: int = POINTS_POOL) -> list[tuple]:
    """Seeded points (t, b, lambda0, sender) with t in [N/2, 3N/2], b in [0, 10],
    lambda0 in [0.5, 2] and a random full-rank 4x4 sender.

    (t, b, lambda0) is a Halton sequence shifted by a seeded random vector
    modulo 1: each point is uniform on the box, and every run of consecutive
    points covers it evenly. A point's cost depends on where it lies (early
    exit or full rays), so the pool's mean cost then hardly varies with the
    seed, as it does with independent points.
    """
    import numpy as np
    from mqtransfer.two_qubit import random_density

    rng = np.random.default_rng(seed)
    shift = rng.uniform(size=3)
    u = [(_halton(size, base) + s) % 1.0 for base, s in zip((2, 3, 5), shift)]
    ts = (0.5 + u[0]) * POINTS_N
    bs = 10.0 * u[1]
    l0s = 0.5 + 1.5 * u[2]
    return [(float(t), float(b), float(l0), random_density(rng))
            for t, b, l0 in zip(ts, bs, l0s)]


def run_point(mq, spec, point: tuple):
    """One point op, as the `region` and `map` commands do it for one point.

    Calls go through the package attributes at call time, so a tracer that
    rebinds them sees every call.
    """
    t, b, lambda0, sender = point
    report = mq.region_metrics(spec, t, b, lambda0, 3)
    table = mq.alpha_table(mq.amplitude_set(mq.mode_basis(spec.n_sites), t), b, spec)
    return report, mq.receiver_from_sender(table, sender)


def check_point(report, receiver, perturb: bool = False) -> list[str]:
    """Receiver Hermitian with unit trace; region area s12 = s1 * s2 >= 0."""
    import numpy as np

    unit = 1.5 if perturb else 1.0
    errors = []
    if np.max(np.abs(receiver - receiver.conj().T)) > POINT_TOL:
        errors.append("receiver not Hermitian")
    if abs(np.trace(receiver) - unit) > POINT_TOL:
        errors.append(f"receiver trace {np.trace(receiver)!r} is not {unit}")
    if not (report.s12 == report.s1 * report.s2 and report.s12 >= 0.0):
        errors.append(f"s12 {report.s12!r} vs s1 * s2 = {report.s1 * report.s2!r}")
    return errors
