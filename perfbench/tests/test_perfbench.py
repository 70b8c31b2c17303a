"""Tests of the benchmark's own logic: span arithmetic, output checks, wrapper
restoration and the failure path of a whole run.

    python3 -m pytest perfbench/tests -q
"""

import contextlib
import io
import json
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
BENCH = HERE.parent
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402


def _span(name, start, end, parent, outcome=None):
    return [name, start, end, parent, 0, outcome]


def test_self_times_of_hand_built_tree():
    spans = [
        _span("cli.main", 0.0, 10.0, -1),
        _span("optimize.summary_table", 1.0, 9.0, 0),
        _span("two_qubit.alpha_table", 2.0, 3.0, 1),
        _span("chain.amplitude_set", 2.25, 2.5, 2),
        _span("optimize.uniform_curve", 4.0, 8.0, 1, outcome=7),
        _span("two_qubit.alpha_table", 5.0, 6.0, 4),
        _span("solvers.solve_first_order", 6.5, 7.0, 4, outcome=1),
        _span("solvers.solve_first_order", 7.0, 7.5, 4, outcome=0),
    ]
    assert tracing.self_times(spans) == [2.0, 3.0, 0.75, 0.25, 2.0, 1.0, 0.5, 0.5]

    m = tracing.layer_metrics(spans, n_ops=2, cpu_s=1.5, overhead_s=0.25)
    assert set(m) == {name for name, _ in tracing.PER_LAYER}
    assert m["optimize.self_s"] == (3.0 + 2.0) / 2
    assert m["cli.self_s"] == 2.0 / 2
    assert m["cli.main.s"] == 10.0 / 2
    assert m["optimize.summary_table.s"] == 8.0 / 2
    assert m["two_qubit.alpha_table.calls"] == 2 / 2
    assert m["two_qubit.alpha_table.s"] == 2.0 / 2
    assert m["optimize.uniform_curve.points"] == 7 / 2
    assert m["solvers.solve_first_order.real_ratio"] == 0.5
    assert m["states.region_metrics.calls"] == 0
    assert m["states.region_metrics.feasible_ratio"] == 0.0
    assert m["proc.cpu_s"] == 1.5 and m["trace.overhead_s"] == 0.25


def test_per_layer_list_matches_benchmark_json():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == list(tracing.PER_LAYER)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert {w["name"]: w["why"] for w in spec["workloads"]} == {
        name: workloads.WORKLOADS[name] for name in workloads.GATED}


def _table_output(reference):
    rows = [{"case": f"case{case}", "S1": 0.0, "S2": 0.0, "lambda1": float("nan"),
             "lambda2": float("nan"), "t_opt": 0.0, "b_opt": 0.0, "lambda0_opt": 1.0,
             **ref} for case, ref in reference.items()]
    return json.dumps({"meta": {}, "data": rows})


@pytest.mark.parametrize("workload", sorted(workloads.TABLES))
def test_table_check_fails_on_perturbed_reference(workload):
    reference, _ = workloads.TABLES[workload]
    assert workloads.check_table(workload, _table_output(reference)) == []
    assert workloads.check_table(workload, _table_output(reference), perturb=True)

    off = {case: dict(ref) for case, ref in reference.items()}
    off[3]["S1"] *= 1.5
    assert workloads.check_table(workload, _table_output(off)) == [
        f"case 3 S1: {off[3]['S1']} vs {reference[3]['S1']}"]

    missing = {case: dict(ref) for case, ref in reference.items()}
    del missing[2]["lambda1"]  # NaN in the output
    assert len(workloads.check_table(workload, _table_output(missing))) == 1
    assert workloads.check_table(workload, "not json")


def test_oracle_check():
    line = "max Frobenius deviation analytic vs oracle (n=10, samples=8): {}\n"
    assert workloads.check_oracle(line.format("3.1e-15")) == []
    assert workloads.check_oracle(line.format("3.1e-15"), perturb=True)
    assert workloads.check_oracle(line.format("2e-09"))
    assert workloads.check_oracle(line.format("nan"))
    assert workloads.check_oracle("")


def _bindings():
    return {(key, attr): value
            for key, module in sys.modules.items()
            if key == "mqtransfer" or key.startswith("mqtransfer.")
            for attr, value in vars(module).items() if callable(value)}


def test_tracer_restores_every_binding():
    import mqtransfer
    import mqtransfer.cli

    before = _bindings()
    tracer = tracing.Tracer()
    spec = mqtransfer.ChainSpec(6)
    point = workloads.point_pool(5, size=3)[0]
    optimize, states = sys.modules["mqtransfer.optimize"], sys.modules["mqtransfer.states"]
    with tracer.installed():
        assert optimize.alpha_table is not before[("mqtransfer.optimize", "alpha_table")]
        assert states.alpha_table is optimize.alpha_table
        report, receiver = workloads.run_point(mqtransfer, spec, point)
        with contextlib.redirect_stdout(io.StringIO()):
            assert mqtransfer.cli.main(["solve", "--n", "6", "--t", "5", "--b", "1",
                                        "--lambda0", "1.2"]) == 0
    assert workloads.check_point(report, receiver) == []
    plain_report, plain_receiver = workloads.run_point(mqtransfer, spec, point)
    assert (report.s1, report.s2, report.feasible) == (plain_report.s1, plain_report.s2,
                                                       plain_report.feasible)
    assert (receiver == plain_receiver).all()
    after = _bindings()
    assert after.keys() == before.keys()
    assert all(after[key] is before[key] for key in before)

    names = [span[tracing.NAME] for span in tracer.spans]
    assert names.count("states.region_metrics") == 1
    assert names.count("two_qubit.alpha_table") == 3  # region_metrics, the op, solve
    main = names.index("cli.main")
    assert all(span[tracing.PARENT] == main for span in tracer.spans[main + 1:]
               if span[tracing.NAME] in ("two_qubit.alpha_table", "chain.amplitude_set"))

    with pytest.raises(RuntimeError), tracer.installed():
        raise RuntimeError("op failed")
    assert all(_bindings()[key] is before[key] for key in before)


def test_run_with_perturbed_reference_reports_failures():
    record = run.run("points-n42", seed=3, seconds=0.3, trace=False, perturb=True)
    assert record["attempted"] >= 1
    assert record["fail_ratio"] == 1.0

    record = run.run("points-n42", seed=3, seconds=0.3, trace=False)
    assert record["failed"] == 0


def test_speed_scale_and_probe():
    assert run.speed_scale([(0.0, run.PROBE_REF_S * 2)] * 3 + [(1.0, 1.0)]) == 0.5
    assert 0.0 < run.probe() < 0.1


def test_point_pool_is_a_shifted_halton_sequence():
    assert list(workloads._halton(4, 2)) == [0.5, 0.25, 0.75, 0.125]
    pool = workloads.point_pool(7, size=64)
    assert [p[:3] for p in pool[:3]] == [p[:3] for p in workloads.point_pool(7, size=3)]
    assert [p[:3] for p in pool] != [p[:3] for p in workloads.point_pool(8, size=64)]
    for t, b, lambda0, sender in pool:
        assert 21.0 <= t <= 63.0 and 0.0 <= b <= 10.0 and 0.5 <= lambda0 <= 2.0
        assert sender.shape == (4, 4)
    # each eighth of the t range holds an eighth of the points, give or take one
    counts = [0] * 8
    for t, *_ in pool:
        counts[int((t / 42 - 0.5) * 8)] += 1
    assert max(counts) - min(counts) <= 1
