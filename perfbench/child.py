"""Worker process of the benchmark; `run.py` starts it, one interpreter per use.

    child.py setup --workload W --seed S     import mqtransfer, build the inputs
    child.py cli --op-id K [--trace] -- ARGV  one `mqtransfer ARGV` call
    child.py points --seed S (--seconds X | --count M) [--trace] [--perturb-reference]

Each mode prints one JSON object as the last line of stdout. Op times cover
only the op, measured inside this process (`points` also gives the
perf_counter time at which each batch of ops starts and the last one ends);
the CLI's own output is captured and returned for `run.py` to check.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import platform
import resource
import sys
import time
import traceback
from pathlib import Path

import workloads
from tracing import Tracer

ROOT = Path(__file__).resolve().parent.parent


def _import_package():
    """Import mqtransfer, refusing any copy other than the checkout's src/."""
    import mqtransfer
    import mqtransfer.cli  # noqa: F401  (the CLI module is not imported by the package)

    src = (ROOT / "src").resolve()
    if src not in Path(mqtransfer.__file__).resolve().parents:
        raise SystemExit(f"mqtransfer imported from {mqtransfer.__file__}, not from {src}")
    return mqtransfer


def _usage() -> tuple[float, float]:
    """CPU seconds (user + system) and peak RSS in MB of this process so far."""
    ru = resource.getrusage(resource.RUSAGE_SELF)
    return ru.ru_utime + ru.ru_stime, ru.ru_maxrss / 1024.0


def _environment() -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "blas_threads": int(os.environ["OPENBLAS_NUM_THREADS"]),
    }


def cmd_setup(args) -> dict:
    _import_package()
    if args.workload in workloads.CLI_WORKLOADS:
        workloads.cli_argv(args.workload, args.seed, 0)
    else:
        workloads.point_pool(args.seed)
    return _environment()


def cmd_cli(args) -> dict:
    mq = _import_package()
    tracer = Tracer()
    tracer.op = args.op_id
    captured = io.StringIO()
    error = None
    with contextlib.ExitStack() as stack:
        if args.trace:
            stack.enter_context(tracer.installed())
        cpu0, _ = _usage()
        start = time.perf_counter()
        try:
            with contextlib.redirect_stdout(captured):
                rc = mq.cli.main(args.argv)
        except SystemExit as exc:
            rc, error = exc.code, f"exit {exc.code}"
        except Exception:  # an op that raises is a failed op, not a failed run
            rc, error = None, traceback.format_exc(limit=5)
        wall = time.perf_counter() - start
        cpu1, rss = _usage()
    return {"rc": rc, "error": error, "stdout": captured.getvalue(), "wall": wall,
            "cpu": cpu1 - cpu0, "rss_mb": rss, "spans": tracer.spans}


def cmd_points(args) -> dict:
    mq = _import_package()
    spec = mq.ChainSpec(workloads.POINTS_N)
    pool = workloads.point_pool(args.seed)
    tracer = Tracer()
    times, stamps, errors, failed = [], [], [], 0
    with contextlib.ExitStack() as stack:
        if args.trace:
            stack.enter_context(tracer.installed())
        cpu0, _ = _usage()
        deadline = time.perf_counter() + args.seconds
        op = 0
        while op < args.count if args.count else (op == 0 or time.perf_counter() < deadline):
            tracer.op = op
            start = time.perf_counter()
            if op % workloads.POINTS_BATCH == 0:
                stamps.append(start)
            try:
                report, receiver = workloads.run_point(mq, spec, pool[op % len(pool)])
            except Exception:  # an op that raises is a failed op, not a failed run
                times.append(time.perf_counter() - start)
                problems = [traceback.format_exc(limit=3)]
            else:
                times.append(time.perf_counter() - start)
                problems = workloads.check_point(report, receiver, args.perturb_reference)
            if problems:
                failed += 1
                errors.extend(problems[: max(0, 5 - len(errors))])
            op += 1
        stamps.append(time.perf_counter())
        cpu1, rss = _usage()
    return {"times": times, "stamps": stamps, "failed": failed, "errors": errors,
            "cpu": (cpu1 - cpu0) / len(times), "rss_mb": rss, "spans": tracer.spans}


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(prog="child.py")
    sub = parser.add_subparsers(dest="mode", required=True)
    p = sub.add_parser("setup")
    p.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p = sub.add_parser("cli")
    p.add_argument("--op-id", type=int, required=True)
    p.add_argument("--trace", action="store_true")
    p.add_argument("argv", nargs=argparse.REMAINDER)
    p = sub.add_parser("points")
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=0.0)
    p.add_argument("--count", type=int, default=0)
    p.add_argument("--trace", action="store_true")
    p.add_argument("--perturb-reference", action="store_true")
    args = parser.parse_args(argv)
    if args.mode == "cli" and args.argv[:1] == ["--"]:
        args.argv = args.argv[1:]
    result = {"setup": cmd_setup, "cli": cmd_cli, "points": cmd_points}[args.mode](args)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
