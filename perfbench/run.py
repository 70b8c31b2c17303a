"""mqtransfer benchmark: one workload, one run.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
        [--perturb-reference]

Run from the root of a checkout; the program under test is `src/mqtransfer`
of that checkout. Workloads (reasons in workloads.py and BENCHMARK.json):

    table-n42-free  `mqtransfer table1 --n 42 --lambda0 free`, fresh interpreter per op
    table-n6-one    `mqtransfer table1 --n 6 --lambda0 one`, fresh interpreter per op
                    (not in BENCHMARK.json; see workloads.GATED)
    oracle-n10      `mqtransfer oracle-check --n 10 --samples 8 --seed K`, fresh interpreter
    points-n42      region_metrics(case=3) + alpha_table + receiver_from_sender at one
                    seeded point, all ops in one process

With --trace 0 the ops run for about S seconds (at least one op; a CLI op
is not started unless it is expected to end within S) and the last line
of stdout reports the end-to-end metrics: wall_s (median op seconds at a
reference CPU speed, see PROBE_REF_S; for points-n42 the median of the mean
times of batches of 100 ops), setup_s (median of several fresh-interpreter
set-ups: start, import, inputs; scaled by a reference start, see
SETUP_REF_S) and peak_rss_mb (median
peak RSS of the process running the ops). With --trace 1 untraced ops run
for S/2 seconds and then a fixed number of traced ops run with a span around
each public function of each module; the last line reports the per-layer
metrics of tracing.PER_LAYER. Every op's output is checked;
--perturb-reference checks it against a deliberately wrong reference, so
every op should fail.

The lines before the last one give the environment (versions, BLAS threads,
CPU, commit, seed), fail_ratio, the wall_s tail, wall_s as measured (before
scaling) and the median probe seconds.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import signal
import statistics
import subprocess
import sys
import threading
import time
from fractions import Fraction
from pathlib import Path

import numpy as np

import tracing
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
CHILD = HERE / "child.py"

# One BLAS/OpenMP thread in every process that runs ops: the thread count
# alone changes oracle-n10 by a third, and one thread is steadiest on a
# shared machine.
BLAS_THREADS = 1
SETUP_RUNS = 7
RUN_LIMIT_S = 160.0  # no op is started that is expected to end later than this
TAIL_PERCENTILES = ("50", "90", "99", "99.9", "99.99")
TRACED_OPS = {"points-n42": workloads.POINTS_TRACED}  # CLI workloads: one traced op
OP_BATCH = {"points-n42": workloads.POINTS_BATCH}

END_TO_END = (("wall_s", "s"), ("setup_s", "s"), ("peak_rss_mb", "MB"))

# The host's load slows the CPU by up to half for seconds at a time, and the
# op's own timer cannot tell that from a slower program. So the harness and
# every op process share one CPU, and while an op process runs the harness
# times a fixed probe kernel on it every PROBE_PERIOD_S (about 0.5% of the
# CPU). wall_s is op seconds scaled by PROBE_REF_S over the median probe of
# that op (of that batch, for point ops): the op's time at the CPU speed where
# the probe takes PROBE_REF_S, about its median on an idle 2-vCPU Xeon VM with
# Python 3.11 and numpy 2.4. On that VM, over ten runs of each workload, the
# scaled times spread less than a tenth of their median (quartile distance)
# where the measured ones spread up to three tenths.
PROBE_PERIOD_S = 0.2
PROBE_REPEATS = 4
PROBE_REF_S = 1.8e-4
# Starting an interpreter and importing numpy, most of a set-up, slows with
# the host's load in its own way (page faults, file reads), which the probe
# kernel does not feel. So each set-up is scaled by a reference start just
# before it, `python -c "import numpy"`, which the program under test does
# not take part in: SETUP_REF_S is about its median on the VM above.
SETUP_REF_S = 0.24
# A batch of point ops is scaled by the probes from this long before it
# started to this long after it ended.
PROBE_WINDOW_S = 1.0


class BenchError(RuntimeError):
    """The benchmark itself cannot run (not an op failure)."""


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    env["PYTHONHASHSEED"] = "0"
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(BLAS_THREADS)
    return env


_PROBE_RNG = np.random.default_rng(0)
_PROBE_MATRIX = _PROBE_RNG.standard_normal((6, 6))
_PROBE_MATRIX = _PROBE_MATRIX + _PROBE_MATRIX.T
_PROBE_VECTOR = _PROBE_RNG.standard_normal(2000)
_PROBE_BLOCK = _PROBE_RNG.standard_normal((96, 96))


def _probe_kernel() -> float:
    """Fixed small work of the kinds the ops do, in about equal shares of
    time: tiny eigenproblems, dot products and an interpreted loop (the
    scalar paths), and dense matrix products (BLAS, as in the oracle)."""
    total = 0.0
    for _ in range(5):
        total += float(np.linalg.eigvalsh(_PROBE_MATRIX)[0]) + float(_PROBE_VECTOR @ _PROBE_VECTOR)
    for i in range(375):
        total += i * i
    for _ in range(3):
        total += float((_PROBE_BLOCK @ _PROBE_BLOCK)[0, 0])
    return total


def probe() -> float:
    """Seconds of the fastest of PROBE_REPEATS probe kernels in a row.

    The fastest one ran with warm caches, whatever the op process left in
    them, and was not preempted by it: the kernels together take less than
    a scheduler slice, so at most the last ones are."""
    times = []
    for _ in range(PROBE_REPEATS):
        start = time.perf_counter()
        _probe_kernel()
        times.append(time.perf_counter() - start)
    return min(times)


def speed_scale(probes: list[tuple[float, float]]) -> float:
    """Factor that turns seconds measured on the CPU as it was during
    `probes` into seconds at the reference speed PROBE_REF_S."""
    return PROBE_REF_S / statistics.median(seconds for _, seconds in probes)


def spawn(args: list[str], timeout: float
          ) -> tuple[dict | None, str, float, list[tuple[float, float]]]:
    """Run child.py with `args`; return its JSON result (None on failure),
    its stderr, its wall seconds from start to exit and the timed probes
    taken on the same CPU while it ran."""
    start = time.perf_counter()
    proc = subprocess.Popen([sys.executable, str(CHILD), *args], cwd=ROOT, env=child_env(),
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
    output: list[str] = []
    reader = threading.Thread(target=lambda: output.extend(proc.communicate()), daemon=True)
    reader.start()
    probes = []
    try:
        while True:
            probes.append((time.perf_counter(), probe()))
            reader.join(PROBE_PERIOD_S)
            if not reader.is_alive():
                break
            if time.perf_counter() - start > timeout:
                proc.kill()
                reader.join()
                output[1] += f"\nkilled after {timeout:.0f} s"
                break
    finally:
        if proc.poll() is None:
            proc.kill()
        reader.join()
        proc.wait()
    wall = time.perf_counter() - start
    out, err = output
    lines = out.strip().splitlines()
    if proc.returncode != 0 or not lines:
        return None, err, wall, probes
    try:
        return json.loads(lines[-1]), err, wall, probes
    except ValueError:
        return None, err + f"\nunreadable result line: {lines[-1][:200]}", wall, probes


def reference_start() -> float:
    """Wall seconds of `python -c "import numpy"` in the op environment."""
    start = time.perf_counter()
    subprocess.run([sys.executable, "-c", "import numpy"], cwd=ROOT, env=child_env(),
                   check=True, timeout=60)
    return time.perf_counter() - start


def measure_setup(workload: str, seed: int) -> tuple[float, dict]:
    """Median wall time of fresh set-ups at the reference start time
    SETUP_REF_S, after one discarded warm-up."""
    walls, env = [], {}
    for i in range(SETUP_RUNS + 1):
        reference = reference_start()
        env, err, wall, _ = spawn(["setup", "--workload", workload, "--seed", str(seed)], 60.0)
        if env is None:
            raise BenchError(f"set-up failed:\n{err.strip()}")
        if i:
            walls.append(wall * SETUP_REF_S / reference)
    return statistics.median(walls), env


class Ops:
    """Per-op records of one phase of a run."""

    def __init__(self) -> None:
        self.walls: list[float] = []  # op seconds at the reference CPU speed
        self.raw_walls: list[float] = []  # op seconds as measured
        self.probes: list[tuple[float, float]] = []
        self.cpus: list[float] = []
        self.rss: list[float] = []
        self.spans: list[list] = []
        self.failed = 0
        self.errors: list[str] = []

    def fail(self, problems: list[str]) -> None:
        self.failed += 1
        self.errors.extend(problems[: max(0, 5 - len(self.errors))])


def run_cli_ops(ops: Ops, workload: str, seed: int, trace: bool, perturb: bool,
                budget: float, count: int, run_end: float) -> None:
    """CLI ops, each in a fresh interpreter: `count` of them, or as many as
    are expected to end within `budget` s (at least one)."""
    start = time.perf_counter()
    while True:
        now = time.perf_counter()
        done = len(ops.walls)
        longest = max(ops.raw_walls, default=0.0)
        if done and (done >= count if count else now - start + longest > budget):
            break
        if done and now + longest + 5.0 > run_end:
            break
        op_id = done + (1000 if trace else 0)
        argv = workloads.cli_argv(workload, seed, op_id)
        result, err, wall, probes = spawn(["cli", "--op-id", str(op_id),
                                           *(["--trace"] if trace else []), "--", *argv],
                                          max(5.0, run_end + 8.0 - now))
        ops.probes.extend(probes)
        if result is None:
            ops.raw_walls.append(wall)
            ops.walls.append(wall * speed_scale(probes))
            ops.fail([f"op process failed: {err.strip()[-500:]}"])
            break
        ops.raw_walls.append(result["wall"])
        ops.walls.append(result["wall"] * speed_scale(probes))
        ops.cpus.append(result["cpu"])
        ops.rss.append(result["rss_mb"])
        ops.spans.extend(result["spans"])
        if result["rc"] != 0:
            ops.fail([f"exit code {result['rc']}: {result['error']}"])
        else:
            problems = workloads.check_cli(workload, result["stdout"], perturb)
            if problems:
                ops.fail(problems)


def run_point_ops(ops: Ops, workload: str, seed: int, trace: bool, perturb: bool,
                  budget: float, count: int, run_end: float) -> None:
    """Point ops in one process: `count` of them, or for `budget` s."""
    args = ["points", "--seed", str(seed)]
    args += ["--count", str(count)] if count else ["--seconds", repr(budget)]
    args += ["--trace"] * trace + ["--perturb-reference"] * perturb
    result, err, wall, probes = spawn(args, max(5.0, run_end + 8.0 - time.perf_counter()))
    ops.probes.extend(probes)
    if result is None:
        ops.raw_walls.append(wall)
        ops.walls.append(wall * speed_scale(probes))
        ops.fail([f"op process failed: {err.strip()[-500:]}"])
        return
    times, stamps, size = result["times"], result["stamps"], workloads.POINTS_BATCH
    ops.raw_walls.extend(times)
    # the CPU's speed changes within a run, so each batch gets its own scale
    for k, (first, last) in enumerate(zip(stamps, stamps[1:])):
        near = [p for p in probes
                if first - PROBE_WINDOW_S <= p[0] <= last + PROBE_WINDOW_S] or probes
        scale = speed_scale(near)
        ops.walls.extend(t * scale for t in times[k * size:(k + 1) * size])
    ops.cpus.append(result["cpu"])
    ops.rss.append(result["rss_mb"])
    ops.spans.extend(result["spans"])
    ops.failed += result["failed"]
    ops.errors.extend(result["errors"])


def batch_median(walls: list[float], size: int) -> float:
    """Median over consecutive batches of `size` ops of the mean op time."""
    batches = [walls[i:i + size] for i in range(0, len(walls) - size + 1, size)] or [walls]
    return statistics.median(statistics.fmean(batch) for batch in batches)


def tail(samples: list[float]) -> dict | None:
    """Highest percentile of TAIL_PERCENTILES with at least ten samples beyond it."""
    n = len(samples)
    for label in reversed(TAIL_PERCENTILES):
        rank = math.ceil(n * Fraction(label) / 100)
        if rank >= 1 and n - rank >= 10:
            return {"percentile": float(label), "value": sorted(samples)[rank - 1], "n": n}
    return None


def environment(seed: int, child: dict, nproc: int) -> dict:
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    try:
        # the ceiling keeps git from finding a repository above the checkout
        git = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=10,
                             env={**os.environ, "GIT_CEILING_DIRECTORIES": str(ROOT.parent)})
        commit = git.stdout.strip() if git.returncode == 0 else None
    except (OSError, subprocess.SubprocessError):
        commit = None
    return {**child, "cpu": cpu, "nproc": nproc, "pinned_cpu": min(os.sched_getaffinity(0)),
            "commit": commit, "seed": seed}


def run(workload: str, seed: int, seconds: float, trace: bool, perturb: bool = False) -> dict:
    """One benchmark run; returns the full result record."""
    if not (ROOT / "src" / "mqtransfer" / "__init__.py").is_file():
        raise BenchError(f"no program under test: {ROOT / 'src' / 'mqtransfer'} is missing")
    run_end = time.perf_counter() + RUN_LIMIT_S
    # op processes inherit the CPU, so the probes time the CPU the ops run on
    cpus = os.sched_getaffinity(0)
    os.sched_setaffinity(0, {min(cpus)})
    try:
        setup_s, child = measure_setup(workload, seed)
        run_ops = run_cli_ops if workload in workloads.CLI_WORKLOADS else run_point_ops
        plain, traced = Ops(), Ops()
        run_ops(plain, workload, seed, False, perturb, seconds / 2 if trace else seconds, 0,
                run_end)
        if trace:
            run_ops(traced, workload, seed, True, perturb, 0.0, TRACED_OPS.get(workload, 1),
                    run_end)
        env = environment(seed, child, len(cpus))
    finally:
        os.sched_setaffinity(0, cpus)
    attempted = len(plain.walls) + len(traced.walls)
    failed = plain.failed + traced.failed
    record = {
        "workload": workload, "seconds": seconds, "trace": trace, "perturb_reference": perturb,
        "env": env,
        "attempted": attempted, "failed": failed, "fail_ratio": failed / attempted,
        "errors": (plain.errors + traced.errors)[:5],
        "wall_s.tail": tail(plain.walls),
        "wall_s.measured": batch_median(plain.raw_walls, OP_BATCH.get(workload, 1)),
        "probe_s": statistics.median(seconds for _, seconds in plain.probes + traced.probes),
    }
    if trace:
        batch = OP_BATCH.get(workload, 1)
        overhead = batch_median(traced.walls, batch) - batch_median(plain.walls, batch)
        cpu = statistics.median(plain.cpus) if plain.cpus else 0.0
        values = tracing.layer_metrics(traced.spans, len(traced.walls), cpu, overhead)
        units = dict(tracing.PER_LAYER)
    else:
        values = {"wall_s": batch_median(plain.walls, OP_BATCH.get(workload, 1)),
                  "setup_s": setup_s,
                  "peak_rss_mb": statistics.median(plain.rss) if plain.rss else 0.0}
        units = dict(END_TO_END)
    record["metrics"] = {name: {"value": value, "unit": units[name]}
                         for name, value in values.items()}
    return record


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description="mqtransfer benchmark, one workload")
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--perturb-reference", action="store_true",
                        help="check outputs against a deliberately wrong reference")
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    # a terminated run unwinds, so spawn() kills and reaps the op process it waits on
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    try:
        record = run(args.workload, args.seed, args.seconds, bool(args.trace),
                     args.perturb_reference)
    except BenchError as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 2
    for error in record["errors"]:
        print(f"op failed: {error}", file=sys.stderr)
    print(json.dumps({"env": record["env"]}))
    print(json.dumps({key: record[key] for key in ("workload", "trace", "fail_ratio",
                                                   "wall_s.tail", "wall_s.measured",
                                                   "probe_s")}))
    print(json.dumps({"correct": record["failed"] == 0, "attempted": record["attempted"],
                      "failed": record["failed"], "metrics": record["metrics"]}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
