"""Command-line front end: deterministic CSV/JSON emission of every result.

Grid commands count their points before building any grid and refuse, with
ResourceError, a request whose estimated memory exceeds GRID_BYTES. The
estimates are peaks measured with tracemalloc (CPython 3.11, numpy 2.4),
rounded up. region (_region_bytes) holds 16 bytes per (t, b, lambda0) point
(S1 and S2; a row's S12 and axes are formed as it is written); while its b
columns stream through the kernel, 352 per (t, lambda0) point (the lambda0
stage, about 57 bytes, held across all b, and the column in flight) and
1100 + 32 N per time (the t-stage, held across all b, and the amplitude
phase grid that builds it), plus 1 MiB. curve takes 18 bytes per (b, t)
sample at N = 6, 42 and 102 (its samples of the curve value against each b
and the roots polished on them), counted as 24 over the at most 20 N + 1
times of the default window; amplitudes 24 bytes of arrays per time. Rows
are written as they are produced, in CSV and in JSON, so none is held.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import itertools
import json
import re
import sys

import numpy as np

from . import __version__
from .chain import ChainSpec, amplitude_set, check_inverse_temperature, endpoint_amplitude, mode_basis
from .errors import ConfigurationError, ResourceError, SingularInputError, ValidationError
from .one_qubit import Qubit1State, lambda0_variant_a, lambda0_variant_b, lambda1_1q, receiver_state_1q
from .optimize import OptProblem, OptResult, objective_landscape, optimize, summary_table, uniform_curve
from .oracle import evolve_and_trace
from .solvers import check_lambda0, solve_zero_order, zero_order_system
from .states import (base_vector, case_metrics, region_cells, region_columns, region_points,
                     time_stage)
from .two_qubit import alpha_table, random_density, receiver_from_sender

__all__ = ["NUMERIC_EXIT", "GRID_BYTES", "build_parser", "main"]

NUMERIC_EXIT = 3

GRID_BYTES = 2**30

# the start of a negative number in any form float() reads, or of a grid that starts with one
_NEGATIVE = re.compile(r"-(\d|\.\d|inf|nan)", re.IGNORECASE)


def _fmt(value: float, precision: str) -> str:
    if precision == "full":
        return repr(float(value))
    return f"{value:.6g}"


def _complex_pair(z: complex) -> list[float]:
    return [float(np.real(z)), float(np.imag(z))]


def _matrix_pairs(m: np.ndarray) -> list:
    return [[_complex_pair(z) for z in row] for row in m]


def _parse_floats(text: str, form: str) -> list[float]:
    """Colon-separated finite numbers laid out as form, e.g. 'lo:hi:step'."""
    try:
        values = [float(x) for x in text.split(":")]
    except ValueError:
        values = []
    if len(values) != form.count(":") + 1 or not np.all(np.isfinite(values)):
        raise ConfigurationError(f"expected {form}, got {text!r}")
    return values


def _parse_grids(cost, *texts: str) -> list[np.ndarray]:
    """The 'lo:hi:step' grids, built once cost(*point counts) bytes fit in GRID_BYTES."""
    bounds = []
    for text in texts:
        lo, hi, step = _parse_floats(text, "lo:hi:step")
        if step <= 0 or hi < lo:
            raise ConfigurationError(f"bad grid {text!r}")
        bounds.append((lo, hi + 1e-12, step))
    # the lengths np.arange will give, as floats: an oversized grid is refused unbuilt
    need = cost(*(np.ceil((stop - lo) / step) for lo, stop, step in bounds))
    if not need <= GRID_BYTES:
        raise ResourceError(f"grids {' '.join(texts)} need about {need / 2**30:.3g} GiB, "
                            f"over the {GRID_BYTES / 2**30:g} GiB limit")
    return [np.arange(*b) for b in bounds]


@contextlib.contextmanager
def _opened(path: str | None):
    """The file at path opened for writing, or else sys.stdout as it is at call time."""
    if path is None:
        yield sys.stdout
    else:
        with open(path, "w", newline="") as fh:
            yield fh


def _write_csv(out, header: list[str], rows, precision: str) -> None:
    writer = csv.writer(out)
    writer.writerow(header)
    for row in rows:
        writer.writerow([cell if isinstance(cell, str) else _fmt(cell, precision) for cell in row])


def _meta(args) -> dict:
    return {"n": args.n, "command": args.command, "version": __version__}


def _emit(args, out, header: list[str], rows) -> None:
    if args.format == "csv":
        _write_csv(out, header, rows, args.precision)
        return
    # the text of json.dump({"meta": meta, "data": rows}, indent=2), written
    # one row at a time: the head runs through '"data": ['
    out.write(json.dumps({"meta": _meta(args), "data": []}, indent=2)[:-3])
    empty = True
    for row in rows:
        item = dict(zip(header, [cell if isinstance(cell, str) else float(cell)
                                 for cell in row]))
        text = json.dumps(item, indent=2).replace("\n", "\n    ")
        out.write(("\n    " if empty else ",\n    ") + text)
        empty = False
    out.write("]\n}\n" if empty else "\n  ]\n}\n")


def _emit_object(args, out, payload) -> None:
    json.dump({"meta": _meta(args), "data": payload}, out, indent=2)
    out.write("\n")


def _lambda0_mode(args) -> str:
    return "fixed_one" if args.lambda0 == "one" else "free"


def _result_payload(res: OptResult) -> dict:
    payload = {
        "case": res.case, "lambda0_mode": res.lambda0_mode, "feasible": res.feasible,
        "t_opt": res.t_opt, "b_opt": res.b_opt, "lambda0_opt": res.lambda0_opt,
        "lambda1": res.lambda1, "lambda2": res.lambda2,
        "S1": res.s1, "S2": res.s2, "S12": res.s12, "objective": res.objective,
    }
    if res.x0 is not None:
        payload["x0"] = [_complex_pair(z) for z in res.x0]
    if res.x1 is not None:
        payload["x1"] = [_complex_pair(z) for z in res.x1]
    return payload


def _cmd_amplitudes(args, out) -> None:
    basis = mode_basis(args.n)
    (ts,) = _parse_grids(lambda nt: 24 * nt, args.scan)
    f = endpoint_amplitude(basis, ts)
    rows = ((t, z.real, z.imag, abs(z) ** 2) for t, z in zip(ts, f))
    _emit(args, out, ["t", "f_re", "f_im", "f_abs2"], rows)


def _cmd_one_qubit(args, out) -> None:
    spec = ChainSpec(args.n)
    state = Qubit1State.pure(args.a1sq, args.phase)
    rho = receiver_state_1q(state, args.t, args.b, spec)
    payload = {
        "receiver": _matrix_pairs(rho),
        "lambda1": _complex_pair(lambda1_1q(args.t, args.b, spec)),
    }
    if args.a1sq < 1.0:
        payload["lambda0_variant_a"] = lambda0_variant_a(state, args.t, args.b, spec)
    if args.a1sq > 0.0:
        payload["lambda0_variant_b"] = lambda0_variant_b(state, args.t, args.b, spec)
    _emit_object(args, out, payload)


def _load_sender(path: str) -> np.ndarray:
    with open(path) as fh:
        try:
            return np.array([[complex(re, im) for re, im in row] for row in json.load(fh)])
        except (ValueError, TypeError) as exc:
            raise ValidationError(f"sender file {path} is not a matrix of [re, im] pairs: "
                                  f"{exc}") from exc


def _cmd_map(args, out) -> None:
    spec = ChainSpec(args.n)
    table = alpha_table(amplitude_set(mode_basis(args.n), args.t), args.b, spec)
    rho_r = receiver_from_sender(table, _load_sender(args.sender))
    _emit_object(args, out, {"receiver": _matrix_pairs(rho_r)})


def _cmd_solve(args, out) -> None:
    check_lambda0(args.lambda0_value)
    spec = ChainSpec(args.n)
    table = alpha_table(amplitude_set(mode_basis(args.n), args.t), args.b, spec)
    times = time_stage(spec, args.t)
    points = region_points(times, args.b)
    zero = solve_zero_order(times.spectrum, [args.lambda0_value])
    if not zero[1][0]:
        raise SingularInputError(
            f"lambda0 = {args.lambda0_value} is too close to the spectrum of the zero-order map")
    (x0,) = base_vector(region_cells(points, zero)[0])
    # the backward check of the closed form, against the dense system of the table
    t0, b_vec = zero_order_system(table)
    residual = float(np.linalg.norm((args.lambda0_value * np.eye(5) - t0) @ x0 - b_vec))
    real = bool(points.real)
    payload = {
        "lambda2": _complex_pair(points.lambda2),
        "lambda1_all": [_complex_pair(z) for z in points.eigenvalues] if real else [],
        "lambda1_selected": points.lambda1.item() if real else None,
        "x1": [_complex_pair(z) for z in points.x1] if real else None,
        "lambda0": args.lambda0_value,
        "x0": [_complex_pair(z) for z in x0],
        "residual": residual,
    }
    _emit_object(args, out, payload)


def _region_bytes(n_sites: int, nt, nb, nl):
    """The peak memory of region over nt times, nb temperatures and nl zero-order scales."""
    return 2**20 + 16 * nt * nb * nl + 352 * nt * nl + (1100 + 32 * n_sites) * nt


def _cmd_region(args, out) -> None:
    spec = ChainSpec(args.n)
    t_grid, b_grid, l0_grid = _parse_grids(
        lambda nt, nb, nl: _region_bytes(args.n, nt, nb, nl),
        args.t_grid, args.b_grid, args.lambda0_grid)
    check_inverse_temperature(b_grid)
    s1, s2 = np.zeros((2, len(t_grid), len(b_grid), len(l0_grid)))
    for bi, (points, cells) in enumerate(region_columns(spec, t_grid, b_grid, l0_grid)):
        _, s1[:, bi], s2[:, bi] = case_metrics(points, cells, args.case)
        del points, cells  # else they live on while the next column is formed
    rows = ((t, b, l0, x, y, x * y) for (t, b, l0), x, y
            in zip(itertools.product(t_grid, b_grid, l0_grid), s1.ravel(), s2.ravel()))
    _emit(args, out, ["t", "b", "lambda0", "S1", "S2", "S12"], rows)


def _cmd_optimize(args, out) -> None:
    spec = ChainSpec(args.n)
    window = tuple(_parse_floats(args.t_window, "lo:hi")) if args.t_window else None
    problem = OptProblem(args.case, _lambda0_mode(args), window)
    res = optimize(problem, spec)
    _emit_object(args, out, _result_payload(res))
    if args.dump and res.feasible:
        with _opened(args.dump) as dump:
            _write_csv(dump, *objective_landscape(spec, problem, res.b_opt), args.precision)


def _cmd_curve(args, out) -> None:
    spec = ChainSpec(args.n)
    grids = _parse_grids(lambda nb: 24 * (20 * args.n + 1) * nb, args.b_grid) if args.b_grid else []
    pts = uniform_curve(spec, *grids)
    rows = [(p.b, p.t, p.lam) for p in pts]
    _emit(args, out, ["b", "t", "lambda"], rows)


def _cmd_oracle_check(args, out) -> None:
    if args.samples < 1:
        raise ConfigurationError(f"--samples must be >= 1, got {args.samples}")
    spec = ChainSpec(args.n)
    rng = np.random.default_rng(args.seed)
    basis = mode_basis(args.n)
    worst = 0.0
    for _ in range(args.samples):
        rho_s = random_density(rng)
        t = rng.uniform(0.0, 2.0 * args.n)
        b = rng.uniform(0.0, 6.0)
        table = alpha_table(amplitude_set(basis, t), b, spec)
        dev = np.linalg.norm(receiver_from_sender(table, rho_s) - evolve_and_trace(rho_s, t, b, spec))
        worst = max(worst, float(dev))
    print(f"max Frobenius deviation analytic vs oracle (n={args.n}, "
          f"samples={args.samples}): {_fmt(worst, args.precision)}", file=out)


def _cmd_table1(args, out) -> None:
    results = summary_table(ChainSpec(args.n), _lambda0_mode(args))
    rows = ((f"case{case}", res.s1, res.s2,
             *(float("nan") if x is None else x for x in (res.lambda1, res.lambda2)),
             res.t_opt, res.b_opt, res.lambda0_opt) for case, res in results.items())
    _emit(args, out, ["case", "S1", "S2", "lambda1", "lambda2", "t_opt", "b_opt", "lambda0_opt"], rows)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mqtransfer",
        description="Block-scaled coherence transfer through spin-1/2 chains",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p: argparse.ArgumentParser, needs_tb: bool = False, rows: bool = False,
               digits: str | None = None) -> None:
        """--n and --out; --format for commands that write rows, and --precision, helped by
        digits, wherever digits are printed."""
        p.add_argument("--n", type=int, required=True, help="chain length")
        p.add_argument("--out", default=None, help="output path (default stdout)")
        if rows:
            p.add_argument("--format", choices=("csv", "json"), default="csv")
            digits = "digits of CSV cells (JSON always carries full repr floats)"
        if digits:
            p.add_argument("--precision", choices=("6", "full"), default="6", help=digits)
        if needs_tb:
            p.add_argument("--t", type=float, required=True)
            p.add_argument("--b", type=float, required=True)

    p = sub.add_parser("amplitudes", help="endpoint amplitude over a time grid")
    common(p, rows=True)
    p.add_argument("--scan", required=True, help="time grid lo:hi:step")
    p.set_defaults(func=_cmd_amplitudes)

    p = sub.add_parser("one-qubit", help="one-qubit receiver matrix and scale factors")
    common(p, needs_tb=True)
    p.add_argument("--a1sq", type=float, required=True)
    p.add_argument("--phase", type=float, default=0.0)
    p.set_defaults(func=_cmd_one_qubit)

    p = sub.add_parser("map", help="two-qubit receiver for a sender matrix file")
    common(p, needs_tb=True)
    p.add_argument("--sender", required=True, help="JSON file, 4x4 row-major [re, im] pairs")
    p.set_defaults(func=_cmd_map)

    p = sub.add_parser("solve", help="scale factors and vectors at one point")
    common(p, needs_tb=True)
    p.add_argument("--lambda0", dest="lambda0_value", type=float, required=True)
    p.set_defaults(func=_cmd_solve)

    p = sub.add_parser("region", help="region metrics over parameter grids")
    common(p, rows=True)
    p.add_argument("--t-grid", required=True, help="lo:hi:step")
    p.add_argument("--b-grid", required=True, help="lo:hi:step")
    p.add_argument("--lambda0-grid", required=True, help="lo:hi:step")
    p.add_argument("--case", type=int, choices=(1, 2, 3, 4), default=3)
    p.set_defaults(func=_cmd_region)

    p = sub.add_parser("optimize", help="maximize a case objective")
    common(p, digits="digits of the --dump CSV")
    p.add_argument("--case", type=int, choices=(1, 2, 3, 4), required=True)
    p.add_argument("--lambda0", choices=("free", "one"), default="free")
    p.add_argument("--t-window", default=None, help="override search window lo:hi")
    p.add_argument("--dump", default=None, help="CSV landscape dump path")
    p.set_defaults(func=_cmd_optimize)

    p = sub.add_parser("curve", help="uniform-scaling constraint curve")
    common(p, rows=True)
    p.add_argument("--b-grid", default=None, help="lo:hi:step")
    p.set_defaults(func=_cmd_curve)

    p = sub.add_parser("oracle-check", help="max deviation of the analytic map vs the Jordan-Wigner oracle")
    common(p, digits="digits of the deviation")
    p.add_argument("--samples", type=int, default=20)
    p.add_argument("--seed", type=int, default=1)
    p.set_defaults(func=_cmd_oracle_check)

    p = sub.add_parser("table1", help="summary of all four cases for one chain")
    common(p, rows=True)
    p.add_argument("--lambda0", choices=("free", "one"), default="free")
    p.set_defaults(func=_cmd_table1)

    return parser


def _join_negative_values(argv: list[str]) -> list[str]:
    """argv with each value that starts with a negative number joined to its option, '--t -5e0'
    as '--t=-5e0': argparse reads a separate '-5e0', '-inf' or '-1:2:1' as an option (only
    plain decimals such as '-1.5' as numbers)."""
    out: list[str] = []
    for text in argv:
        if out and out[-1].startswith("--") and "=" not in out[-1] and _NEGATIVE.match(text):
            out[-1] += "=" + text
        else:
            out.append(text)
    return out


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(_join_negative_values(sys.argv[1:] if argv is None else argv))
    try:
        # opened before the command runs, as the shell's '> F' is: an unwritable path
        # costs no work, and a command that fails leaves F empty
        with _opened(args.out) as out:
            args.func(args, out)
    except (ConfigurationError, ValidationError, SingularInputError,
            ResourceError, OSError, np.linalg.LinAlgError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return NUMERIC_EXIT
    return 0


if __name__ == "__main__":
    sys.exit(main())
