"""Spans around the public functions of each mqtransfer module, and the
per-layer metrics computed from them.

Modules bind imported names at import time (`optimize` holds its own
reference to `two_qubit.alpha_table`), so a wrapper is installed on every
module attribute that is the original function, not only on the defining
module. Uninstalling puts every original back.

This module uses only the standard library: run.py imports it
to aggregate spans without importing numpy or mqtransfer.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from contextlib import contextmanager

# (module, function) pairs that get a span; "module.function" is the span name.
TRACED = (
    ("cli", "main"),
    ("optimize", "summary_table"),
    ("optimize", "uniform_curve"),
    ("optimize", "first_window"),
    ("states", "region_metrics"),
    ("two_qubit", "alpha_table"),
    ("two_qubit", "receiver_from_sender"),
    ("solvers", "solve_first_order"),
    ("solvers", "solve_zero_order"),
    ("chain", "amplitude_set"),
    ("oracle", "evolve_and_trace"),
    ("oracle", "build_hamiltonian"),
)

# What a span keeps of its function's result, for the ratio and count metrics.
OUTCOMES = {
    "solvers.solve_first_order": lambda result: int(result is not None),
    "states.region_metrics": lambda result: int(bool(result.feasible)),
    "optimize.uniform_curve": len,
}

# Span fields, in the order a span list stores them.
NAME, START, END, PARENT, OP, OUTCOME = range(6)

# Per-layer metrics, in report order: (name, unit). Times and counts are per op.
PER_LAYER = (
    ("optimize.self_s", "s"),
    ("optimize.summary_table.s", "s"),
    ("optimize.uniform_curve.calls", "count"),
    ("optimize.uniform_curve.s", "s"),
    ("optimize.uniform_curve.points", "count"),
    ("optimize.first_window.calls", "count"),
    ("optimize.first_window.s", "s"),
    ("two_qubit.alpha_table.calls", "count"),
    ("two_qubit.alpha_table.s", "s"),
    ("solvers.solve_first_order.calls", "count"),
    ("solvers.solve_first_order.s", "s"),
    ("solvers.solve_first_order.real_ratio", "ratio"),
    ("states.region_metrics.calls", "count"),
    ("states.region_metrics.s", "s"),
    ("states.region_metrics.self_s", "s"),
    ("states.region_metrics.feasible_ratio", "ratio"),
    ("solvers.solve_zero_order.calls", "count"),
    ("solvers.solve_zero_order.s", "s"),
    ("chain.amplitude_set.calls", "count"),
    ("chain.amplitude_set.s", "s"),
    ("two_qubit.receiver_from_sender.calls", "count"),
    ("two_qubit.receiver_from_sender.s", "s"),
    ("oracle.evolve_and_trace.calls", "count"),
    ("oracle.evolve_and_trace.s", "s"),
    ("oracle.build_hamiltonian.calls", "count"),
    ("oracle.build_hamiltonian.s", "s"),
    ("cli.main.s", "s"),
    ("cli.self_s", "s"),
    ("proc.cpu_s", "s"),
    ("trace.overhead_s", "s"),
)


class Tracer:
    """Records one span per call of each traced function, in memory.

    A span is the list [name, start, end, parent, op, outcome]; its id is its
    index in `spans`, and parent is -1 for a top-level span. Set `op` before
    each op so its spans share the op id.
    """

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.op = 0
        self._open: list[int] = []

    def wrap(self, name: str, fn):
        outcome = OUTCOMES.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, time.perf_counter(), 0.0,
                    self._open[-1] if self._open else -1, self.op, None]
            self._open.append(len(self.spans))
            self.spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[END] = time.perf_counter()
                self._open.pop()
            if outcome is not None:
                span[OUTCOME] = outcome(result)
            return result

        return traced

    @contextmanager
    def installed(self):
        """Wrap every binding of each traced function; restore them on exit."""
        importlib.import_module("mqtransfer.cli")
        modules = [mod for key, mod in sorted(sys.modules.items())
                   if key == "mqtransfer" or key.startswith("mqtransfer.")]
        patches = []
        try:
            for module_name, func_name in TRACED:
                original = getattr(sys.modules[f"mqtransfer.{module_name}"], func_name)
                wrapper = self.wrap(f"{module_name}.{func_name}", original)
                for module in modules:
                    for attr, value in list(vars(module).items()):
                        if value is original:
                            setattr(module, attr, wrapper)
                            patches.append((module, attr, original))
            yield self
        finally:
            for module, attr, original in reversed(patches):
                setattr(module, attr, original)


def self_times(spans: list[list]) -> list[float]:
    """Each span's duration minus the time its direct child spans cover.

    Spans come from one thread and a call stack, so the children of a span
    are disjoint and lie inside it; their durations add up to the covered part.
    """
    own = [span[END] - span[START] for span in spans]
    for span in spans:
        if span[PARENT] >= 0:
            own[span[PARENT]] -= span[END] - span[START]
    return own


def layer_metrics(spans: list[list], n_ops: int, cpu_s: float,
                  overhead_s: float) -> dict[str, float]:
    """Every PER_LAYER metric from the spans of `n_ops` traced ops."""
    calls: dict[str, int] = {}
    total: dict[str, float] = {}
    own: dict[str, float] = {}
    outcomes: dict[str, int] = {}
    for span, self_s in zip(spans, self_times(spans)):
        name = span[NAME]
        calls[name] = calls.get(name, 0) + 1
        total[name] = total.get(name, 0.0) + span[END] - span[START]
        own[name] = own.get(name, 0.0) + self_s
        if span[OUTCOME] is not None:
            outcomes[name] = outcomes.get(name, 0) + span[OUTCOME]

    def ratio(name: str) -> float:
        return outcomes.get(name, 0) / calls[name] if calls.get(name) else 0.0

    values = {
        "optimize.self_s": sum(v for k, v in own.items() if k.startswith("optimize.")),
        "states.region_metrics.self_s": own.get("states.region_metrics", 0.0),
        "cli.self_s": own.get("cli.main", 0.0),
        "optimize.uniform_curve.points": outcomes.get("optimize.uniform_curve", 0),
    }
    for module_name, func_name in TRACED:
        name = f"{module_name}.{func_name}"
        values[f"{name}.calls"] = calls.get(name, 0)
        values[f"{name}.s"] = total.get(name, 0.0)
    metrics = {name: values[name] / n_ops for name, _ in PER_LAYER if name in values}
    metrics["solvers.solve_first_order.real_ratio"] = ratio("solvers.solve_first_order")
    metrics["states.region_metrics.feasible_ratio"] = ratio("states.region_metrics")
    metrics["proc.cpu_s"] = cpu_s
    metrics["trace.overhead_s"] = overhead_s
    return {name: metrics[name] for name, _ in PER_LAYER}
