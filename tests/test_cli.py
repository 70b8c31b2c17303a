import csv
import io
import json
import os
import subprocess
import sys
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest

from mqtransfer import ChainSpec, amplitude_set, alpha_table, mode_basis, receiver_from_sender
from mqtransfer import cli
from mqtransfer.cli import _region_bytes, build_parser, main
from mqtransfer.two_qubit import random_density


def _run(capsys, argv):
    code = main(argv)
    out = capsys.readouterr().out
    return code, out


def _csv_rows(text):
    return list(csv.reader(io.StringIO(text)))


def test_amplitudes_csv_landmark(capsys):
    code, out = _run(capsys, ["amplitudes", "--n", "17", "--scan", "0:51:0.001"])
    assert code == 0
    rows = _csv_rows(out)
    assert rows[0] == ["t", "f_re", "f_im", "f_abs2"]
    best = max(rows[1:], key=lambda r: float(r[3]))
    assert float(best[0]) == pytest.approx(19.655, abs=1e-2)
    assert float(best[3]) == pytest.approx(0.6730, abs=5e-4)


@pytest.mark.parametrize("n", [6, 7])
def test_amplitudes_print_an_unsigned_zero_at_t0(capsys, n):
    # f(0) = 0: the imaginary part that conj turns into -0.0 prints as 0.0 (chain.endpoint_amplitude)
    _, out = _run(capsys, ["amplitudes", "--n", str(n), "--scan", "0:0:1", "--precision", "full"])
    assert _csv_rows(out)[1][2] == "0.0"


def test_amplitudes_deterministic(tmp_path):
    a = tmp_path / "a.csv"
    b = tmp_path / "b.csv"
    for path in (a, b):
        assert main(["amplitudes", "--n", "6", "--scan", "0:9:0.01",
                     "--out", str(path)]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_one_qubit_json(capsys):
    code, out = _run(capsys, ["one-qubit", "--n", "5", "--t", "6.0", "--b", "2.0",
                              "--a1sq", "0.4"])
    assert code == 0
    doc = json.loads(out)
    assert doc["meta"]["command"] == "one-qubit"
    assert doc["meta"]["n"] == 5
    rho = doc["data"]["receiver"]
    assert rho[0][0][0] + rho[1][1][0] == pytest.approx(1.0, abs=1e-12)
    assert "lambda0_variant_a" in doc["data"]


def test_map_round_trip(tmp_path, capsys):
    rng = np.random.default_rng(7)
    rho = random_density(rng)
    sender_file = tmp_path / "sender.json"
    sender_file.write_text(json.dumps([[[z.real, z.imag] for z in row] for row in rho]))
    code, out = _run(capsys, ["map", "--n", "6", "--t", "5.5", "--b", "3.0",
                              "--sender", str(sender_file)])
    assert code == 0
    doc = json.loads(out)
    got = np.array([[complex(re, im) for re, im in row] for row in doc["data"]["receiver"]])
    spec = ChainSpec(6)
    expected = receiver_from_sender(alpha_table(amplitude_set(mode_basis(6), 5.5), 3.0, spec), rho)
    assert np.max(np.abs(got - expected)) < 1e-12


def test_map_rejects_bad_sender(tmp_path, capsys):
    sender_file = tmp_path / "bad.json"
    sender_file.write_text(json.dumps([[[1.0, 0.0]] * 4] * 4))
    code, _ = _run(capsys, ["map", "--n", "6", "--t", "1.0", "--b", "1.0",
                            "--sender", str(sender_file)])
    assert code == 3


def test_solve_json(capsys):
    code, out = _run(capsys, ["solve", "--n", "6", "--t", "8.5153", "--b", "10.0",
                              "--lambda0", "1.0837"])
    assert code == 0
    doc = json.loads(out)
    lam2 = complex(*doc["data"]["lambda2"])
    assert abs(lam2) == pytest.approx(0.8960, abs=1e-3)
    x0 = [complex(re, im) for re, im in doc["data"]["x0"]]
    assert x0[0].real == pytest.approx(0.40596, abs=1e-3)
    assert doc["data"]["residual"] < 1e-10


@pytest.mark.parametrize("argv", [
    ["solve", "--n", "6", "--t", "5", "--b", "700", "--lambda0", "1"],
    ["solve", "--n", "6", "--t", "5", "--b", "1e308", "--lambda0", "1"],
    ["solve", "--n", "6", "--t", "5", "--b", "2", "--lambda0", "1e300"],
    ["solve", "--n", "6", "--t", "5", "--b", "2", "--lambda0=-1e300"],
    ["solve", "--n", "6", "--t", "5", "--b", "2", "--lambda0", "1.7e308"],
    ["one-qubit", "--n", "5", "--t", "6", "--b", "1500", "--a1sq", "0.4"],
], ids=["b700", "b1e308", "lambda0+1e300", "lambda0-1e300", "lambda0+1.7e308",
         "one-qubit-b1500"])
def test_extreme_finite_inputs_print_no_warning(capsys, argv):
    # every finite b >= 0 and lambda0 is accepted, so each must give finite
    # numbers: the thermal factors are formed from e^-b, the singularity rule
    # and the backward-error scale square no large entry
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = main(argv)
    captured = capsys.readouterr()
    assert code == 0 and not captured.err

    def numbers(node):
        if isinstance(node, dict):
            return [x for v in node.values() for x in numbers(v)]
        if isinstance(node, list):
            return [x for v in node for x in numbers(v)]
        return [node] if isinstance(node, float) else []

    values = numbers(json.loads(captured.out)["data"])
    assert values and all(np.isfinite(values))


def test_solve_on_subnormal_map_prints_no_warning(capsys):
    # max|F| is subnormal at N = 4, t = 0, b = 1.5e-305
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = main(["solve", "--n", "4", "--t", "0", "--b", "1.5e-305", "--lambda0", "1"])
    captured = capsys.readouterr()
    assert code == 0 and not captured.err
    doc = json.loads(captured.out)
    assert all(np.isfinite(part) for pair in doc["data"]["x0"] for part in pair)


def test_region_csv(capsys):
    code, out = _run(capsys, ["region", "--n", "6", "--t-grid", "8.4:8.6:0.1",
                              "--b-grid", "10:10:1", "--lambda0-grid", "1.0:1.1:0.05",
                              "--case", "1"])
    assert code == 0
    rows = _csv_rows(out)
    assert rows[0] == ["t", "b", "lambda0", "S1", "S2", "S12"]
    assert len(rows) == 1 + 3 * 1 * 3
    for row in rows[1:]:
        assert float(row[3]) == 0.0         # case 1 keeps S1 at zero
    # the interval is tiny at lambda0 = 1 and opens up toward the optimum
    assert max(float(row[4]) for row in rows[1:]) > 0.2


def test_optimize_json_and_dump(tmp_path, capsys):
    dump = tmp_path / "landscape.csv"
    code, out = _run(capsys, ["optimize", "--n", "6", "--case", "1", "--lambda0", "one",
                              "--dump", str(dump)])
    assert code == 0
    doc = json.loads(out)
    assert doc["data"]["feasible"] is True
    assert doc["data"]["S2"] == pytest.approx(0.2240, abs=2e-3)
    assert doc["data"]["b_opt"] == pytest.approx(0.0, abs=5e-2)
    rows = _csv_rows(dump.read_text())
    assert rows[0] == ["t", "b", "lambda0", "value"]
    assert len(rows) > 10


def test_curve_csv(capsys):
    code, out = _run(capsys, ["curve", "--n", "6", "--b-grid", "2:3:0.25"])
    assert code == 0
    rows = _csv_rows(out)
    assert rows[0] == ["b", "t", "lambda"]
    assert len(rows) > 1
    lams = [float(r[2]) for r in rows[1:]]
    assert all(l > 1e-3 for l in lams)


def test_region_memory_estimate(tmp_path):
    # the estimate the grid guard uses, against the traced peak of a region
    # run at N = 6: it must bound the peak without overstating it twice
    out = tmp_path / "region.csv"
    argv = ["region", "--n", "6", "--t-grid", "3:7:0.01", "--b-grid", "0:0.5:0.25",
            "--lambda0-grid", "0.5:0.99:0.01", "--out", str(out)]
    assert main(argv) == 0
    tracemalloc.start()
    try:
        assert main(argv) == 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    with open(out) as fh:
        rows = sum(1 for _ in fh) - 1
    assert rows == 401 * 3 * 50
    estimate = _region_bytes(6, 401, 3, 50)
    assert 0.5 * estimate < peak < estimate


def test_region_json_format(capsys):
    code, out = _run(capsys, ["region", "--n", "6", "--t-grid", "8.5:8.5:1",
                              "--b-grid", "10:10:1", "--lambda0-grid", "1.08:1.08:1",
                              "--case", "1", "--format", "json"])
    assert code == 0
    doc = json.loads(out)
    assert doc["meta"] == {"n": 6, "command": "region", "version": doc["meta"]["version"]}
    assert len(doc["data"]) == 1
    assert doc["data"][0]["S2"] == pytest.approx(0.3116, abs=2e-3)


@pytest.mark.parametrize("argv", [
    ["region", "--n", "6", "--t-grid", "5:6:0.5", "--b-grid", "1:3:1", "--lambda0-grid", "1:1.2:0.1"],
    ["curve", "--n", "7"],
    ["curve", "--n", "6", "--b-grid", "2:3:0.25"],
], ids=["region", "empty-curve", "curve"])
def test_json_rows_written_one_at_a_time_read_as_json_dump(capsys, argv):
    # the rows are streamed, yet the text is json.dump's at indent 2 for any row count
    code, out = _run(capsys, argv + ["--format", "json"])
    assert code == 0
    assert out == json.dumps(json.loads(out), indent=2) + "\n"


def test_oracle_check_output(capsys):
    code, out = _run(capsys, ["oracle-check", "--n", "4", "--samples", "5", "--seed", "1"])
    assert code == 0
    deviation = float(out.strip().rsplit(" ", 1)[-1])
    assert deviation < 1e-9


def test_oracle_check_reaches_the_headline_chain(capsys):
    # the certifier has no site cap: N = 42 exits 0, in the line the benchmark parses
    code, out = _run(capsys, ["oracle-check", "--n", "42", "--samples", "3"])
    assert code == 0
    head, deviation = out.strip().rsplit(" ", 1)
    assert head == "max Frobenius deviation analytic vs oracle (n=42, samples=3):"
    assert float(deviation) < 1e-9


def test_oracle_check_deterministic(capsys):
    _, first = _run(capsys, ["oracle-check", "--n", "4", "--samples", "3", "--seed", "9"])
    _, second = _run(capsys, ["oracle-check", "--n", "4", "--samples", "3", "--seed", "9"])
    assert first == second


def test_oracle_check_leaves_numpy_random_unloaded():
    # numpy.random is about 14 ms of a fresh process: the command draws from random.Random
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    code = ("import sys; from mqtransfer.cli import main; "
            "main(['oracle-check', '--n', '6', '--samples', '2']); print('numpy.random' in sys.modules)")
    run = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    assert run.stdout.splitlines()[-1] == "False"


def test_seed_only_on_oracle_check(capsys):
    # the one command that draws random numbers is the one that takes --seed
    with pytest.raises(SystemExit) as exc:
        main(["amplitudes", "--n", "6", "--scan", "0:1:1", "--seed", "1"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --seed 1" in capsys.readouterr().err


def test_table1_csv(capsys):
    code, out = _run(capsys, ["table1", "--n", "6", "--lambda0", "free"])
    assert code == 0
    rows = _csv_rows(out)
    assert rows[0] == ["case", "S1", "S2", "lambda1", "lambda2", "t_opt", "b_opt", "lambda0_opt"]
    case1 = rows[1]
    assert case1[0] == "case1"
    assert float(case1[2]) == pytest.approx(0.3117, abs=2e-3)
    assert float(case1[4]) == pytest.approx(0.8960, abs=2e-3)


@pytest.mark.parametrize("n", [7, 43])
def test_table1_odd_chain_has_no_case2(capsys, n):
    # for odd N the transfer matrix W has no real eigenvalue at b > 0, so no
    # single-quantum factor is real and case 2 is infeasible
    code, out = _run(capsys, ["table1", "--n", str(n), "--precision", "full"])
    assert code == 0
    case2 = _csv_rows(out)[2]
    assert case2[0] == "case2"
    assert float(case2[1]) == 0.0
    assert all(np.isnan(float(x)) for x in case2[3:])


def test_solve_on_the_zero_order_spectrum_is_one_line(capsys):
    # lambda0 on a real eigenvalue of the dense T0 is a singular cell of the kernel
    from mqtransfer.solvers import zero_order_system
    table = alpha_table(amplitude_set(mode_basis(6), 5.3), 0.0, ChainSpec(6))
    ev = np.linalg.eigvals(zero_order_system(table)[0])
    lambda0 = float(ev[np.abs(ev.imag) < 1e-9][0].real)
    code, err = _run_error(capsys, ["solve", "--n", "6", "--t", "5.3", "--b", "0",
                                    f"--lambda0={lambda0!r}"])
    assert code == 3
    assert len(err) == 1 and "too close to the spectrum" in err[0]


def test_unwritable_out_fails_before_the_work(tmp_path, capsys, monkeypatch):
    # --out is opened before the command runs, as the shell's '>' is: a path that
    # cannot be written costs no table
    def no_table(*args):
        raise AssertionError("summary_table ran before --out was opened")

    monkeypatch.setattr(cli, "summary_table", no_table)
    code, err = _run_error(capsys, ["table1", "--n", "6", "--out", str(tmp_path / "missing" / "t.csv")])
    assert code == 3
    assert len(err) == 1 and err[0].startswith("error:")


def test_failed_command_leaves_out_empty(tmp_path, capsys):
    out = tmp_path / "solve.json"
    code, err = _run_error(capsys, ["solve", "--n", "6", "--t", "5", "--b", "-1", "--lambda0", "1",
                                    "--out", str(out)])
    assert code == 3
    assert err == ["error: inverse temperature must be finite and >= 0, got -1.0"]
    assert out.read_bytes() == b""


def test_usage_error_exit_code():
    with pytest.raises(SystemExit) as excinfo:
        main(["amplitudes", "--n", "6"])   # missing --scan
    assert excinfo.value.code == 2
    # a negative number is a value, but not one of the flag's choices
    with pytest.raises(SystemExit) as excinfo:
        main(["table1", "--n", "6", "--lambda0", "-1e0"])
    assert excinfo.value.code == 2


@pytest.mark.parametrize("value", ["-1e300", "-5e0", "-.5E1", "-1.5"])
def test_negative_number_after_a_flag_is_its_value(capsys, value):
    # argparse alone reads a separate '-1e300' or '-.5E1' as an option and exits 2;
    # lambda0 < 0 is in the domain, so both forms print the same result
    joined = _run(capsys, ["solve", "--n", "6", "--t", "5", "--b", "1", f"--lambda0={value}"])
    separate = _run(capsys, ["solve", "--n", "6", "--t", "5", "--b", "1", "--lambda0", value])
    assert separate == joined and joined[0] == 0


@pytest.mark.parametrize("argv, message", [
    (["solve", "--n", "6", "--t", "5", "--b", "-1e300", "--lambda0", "1"], "inverse temperature"),
    (["one-qubit", "--n", "5", "--t", "-inf", "--b", "1", "--a1sq", "0.4"], "time must be finite"),
    (["region", "--n", "6", "--t-grid", "1:2:1", "--b-grid", "-1e0:1:1", "--lambda0-grid",
      "1:1:1"], "inverse temperature"),
    (["amplitudes", "--n", "6", "--scan", "-1e1:-2e1:1"], "bad grid"),
    (["optimize", "--n", "6", "--case", "1", "--t-window", "-2e0:-3e0"], "t_window"),
], ids=["solve", "one-qubit", "region", "amplitudes", "optimize"])
def test_negative_values_meet_the_domain_rules(capsys, argv, message):
    # a value that starts with a negative number reaches the domain rules on every
    # subcommand: one line and exit 3, not an argparse usage error
    code, err = _run_error(capsys, argv)
    assert code == 3
    assert len(err) == 1 and message in err[0]


def test_bad_grid_is_numeric_error(capsys):
    code, _ = _run(capsys, ["amplitudes", "--n", "6", "--scan", "nonsense"])
    assert code == 3


def test_precision_flag(capsys):
    _, out6 = _run(capsys, ["amplitudes", "--n", "4", "--scan", "1:1:1"])
    _, outf = _run(capsys, ["amplitudes", "--n", "4", "--scan", "1:1:1",
                            "--precision", "full"])
    row6 = _csv_rows(out6)[1]
    rowf = _csv_rows(outf)[1]
    assert len(rowf[1]) >= len(row6[1])


def _run_error(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.err.splitlines()


@pytest.mark.parametrize("window", ["abc", "1:2:3", "5:3"])
def test_optimize_bad_t_window_is_one_line(capsys, window):
    code, err = _run_error(capsys, ["optimize", "--n", "6", "--case", "1",
                                    "--t-window", window])
    assert code == 3
    assert len(err) == 1 and err[0].startswith("error:")


def test_map_malformed_json_is_one_line(tmp_path, capsys):
    sender_file = tmp_path / "broken.json"
    sender_file.write_text("[[[1.0, 0.0]")
    code, err = _run_error(capsys, ["map", "--n", "6", "--t", "1.0", "--b", "1.0",
                                    "--sender", str(sender_file)])
    assert code == 3
    assert len(err) == 1 and err[0].startswith("error:")


@pytest.mark.parametrize("flag, argv", [
    ("--t", ["--t", "nan", "--b", "1.0", "--lambda0", "1.0"]),
    ("--b", ["--t", "1.0", "--b", "inf", "--lambda0", "1.0"]),
    ("--lambda0", ["--t", "1.0", "--b", "1.0", "--lambda0", "inf"]),
    ("--b", ["--t", "1.0", "--b", "-1", "--lambda0", "1.0"]),
    ("--lambda0", ["--t", "1.0", "--b", "1.0", "--lambda0", "nan"]),
    ("--lambda0", ["--t", "1.0", "--b", "1.0", "--lambda0", "-inf"]),
])
def test_solve_rejects_non_finite_point(capsys, flag, argv):
    # --t, --b and --lambda0 meet the library's domain rules (--t and --b the ones the
    # oracle applies too, --lambda0 the one region_metrics applies)
    code, err = _run_error(capsys, ["solve", "--n", "6"] + argv)
    assert code == 3
    rule = {"--t": "time must be finite", "--b": "inverse temperature must be finite and >= 0",
            "--lambda0": "lambda0 must be finite"}[flag]
    assert err == [f"error: {rule}, got {float(argv[argv.index(flag) + 1])}"]


@pytest.mark.parametrize("argv", [
    ["oracle-check", "--n", "4", "--samples", "0"],
    ["oracle-check", "--n", "4", "--samples", "-2"],
    ["region", "--n", "6", "--t-grid", "5:5.1:0.1", "--b-grid=-1:-1:1", "--lambda0-grid", "1:1:1"],
    # 1e21 points each: counted and refused before any grid is built
    ["region", "--n", "6", "--case", "3", "--t-grid", "0:1e12:1e-9", "--b-grid", "0:1:1",
     "--lambda0-grid", "1:1:1"],
    ["curve", "--n", "6", "--b-grid", "0:1e12:1e-9"],
    ["oracle-check", "--n", "4", "--seed", "-1"],
])
def test_out_of_range_counts_and_grids_are_one_line(capsys, argv):
    code, err = _run_error(capsys, argv)
    assert code == 3
    assert len(err) == 1 and err[0].startswith("error:")


def test_curve_negative_b_grid_is_one_line(capsys):
    # uniform_curve validates the grid it is given: a b below zero is refused
    # with the library's one message
    code, err = _run_error(capsys, ["curve", "--n", "6", "--b-grid=-1:2:0.5"])
    assert code == 3
    assert err == ["error: inverse temperature must be finite and >= 0, got -1.0"]


@pytest.mark.parametrize("n", ["2", "3"])
@pytest.mark.parametrize("argv", [
    ["table1"],
    ["optimize", "--case", "3"],
    ["region", "--t-grid", "1:2:0.5", "--b-grid", "1:1:1", "--lambda0-grid", "1:1:1"],
    ["curve"],
    ["solve", "--t", "1.0", "--b", "1.0", "--lambda0", "1.0"],
    ["map", "--t", "1.0", "--b", "1.0", "--sender", "SENDER"],
], ids=["table1", "optimize", "region", "curve", "solve", "map"])
def test_two_qubit_commands_need_four_sites(tmp_path, capsys, argv, n):
    sender_file = tmp_path / "sender.json"
    sender_file.write_text(json.dumps([[[0.25 * (i == j), 0.0] for j in range(4)]
                                       for i in range(4)]))
    argv = [str(sender_file) if a == "SENDER" else a for a in argv]
    code, err = _run_error(capsys, argv[:1] + ["--n", n] + argv[1:])
    assert code == 3
    assert err == [f"error: two-qubit amplitudes need n_sites >= 4, got {n}"]


@pytest.mark.parametrize("a1sq", ["2", "-0.5"])
def test_one_qubit_population_out_of_range_is_one_line(capsys, a1sq):
    # validated before any square root: a numpy warning would add lines
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, err = _run_error(capsys, ["one-qubit", "--n", "5", "--t", "6.0", "--b", "2.0",
                                        "--a1sq", a1sq])
    assert code == 3
    assert err == [f"error: a1_sq must lie in [0, 1], got {float(a1sq)}"]


# Every option of every subcommand, as (value in a base call or None for left out, another
# value); '{run}' is the call's own directory and '{tmp}' the test's. Every subcommand
# takes --out, and those that write rows --format and --precision.
ROWS = {"--format": (None, "json"), "--precision": (None, "full")}
OPTIONS = {
    "amplitudes": {"--n": ("4", "5"), "--scan": ("0:2:1", "0:3:1"), **ROWS},
    "one-qubit": {"--n": ("5", "6"), "--t": ("6", "7"), "--b": ("2", "3"),
                  "--a1sq": ("0.4", "0.5"), "--phase": (None, "1")},
    "map": {"--n": ("6", "7"), "--t": ("5.5", "6"), "--b": ("3", "2"),
            "--sender": ("{tmp}/a.json", "{tmp}/b.json")},
    "solve": {"--n": ("6", "8"), "--t": ("8.5153", "8"), "--b": ("10", "9"),
              "--lambda0": ("1.0837", "1.2")},
    "region": {"--n": ("6", "8"), "--t-grid": ("8.4:8.6:0.1", "8.4:8.5:0.1"),
               "--b-grid": ("10:10:1", "9:9:1"), "--lambda0-grid": ("1:1.1:0.05", "1:1:1"),
               "--case": ("1", "3"), **ROWS},
    "optimize": {"--n": ("6", "8"), "--case": ("1", "2"), "--lambda0": ("one", "free"),
                 "--t-window": (None, "5:9"), "--dump": ("{run}/dump.csv", "{run}/other.csv"),
                 "--precision": (None, "full")},
    "curve": {"--n": ("6", "8"), "--b-grid": ("2:3:0.25", "2:2.25:0.25"), **ROWS},
    "oracle-check": {"--n": ("4", "5"), "--samples": ("2", "3"), "--seed": (None, "2"),
                     "--precision": (None, "full")},
    "table1": {"--n": ("4", "6"), "--lambda0": ("one", "free"), **ROWS},
}
for _options in OPTIONS.values():
    _options["--out"] = (None, "{run}/out.txt")
# the output flags a subcommand does not take, since it would not read them
DROPPED = {"one-qubit": ("--format", "--precision"), "map": ("--format", "--precision"),
           "solve": ("--format", "--precision"), "optimize": ("--format",),
           "oracle-check": ("--format",)}


@pytest.mark.parametrize("command", list(OPTIONS))
def test_every_option_changes_what_is_written(tmp_path, capsys, command):
    # the parser takes exactly the options above, and each one changes stdout or a
    # file written; --out moves stdout, byte for byte, into its file, and a dropped
    # output flag is a usage error
    for name, seed in (("a", 7), ("b", 8)):
        rho = random_density(np.random.default_rng(seed))
        (tmp_path / f"{name}.json").write_text(
            json.dumps([[[z.real, z.imag] for z in row] for row in rho]))
    runs = iter(range(len(OPTIONS[command]) + 1))

    def argv(changed=None, run=tmp_path):
        values = {flag: value for flag, (value, _) in OPTIONS[command].items()}
        if changed:
            values[changed] = OPTIONS[command][changed][1]
        return [command] + [text.format(run=run, tmp=tmp_path) for flag, value in values.items()
                            if value is not None for text in (flag, value)]

    def written(changed=None):
        run = tmp_path / f"run{next(runs)}"
        run.mkdir()
        code, out = _run(capsys, argv(changed, run))
        assert code == 0
        return out, {path.name: path.read_bytes() for path in run.iterdir()}

    # less the command and its function
    assert len(vars(build_parser().parse_args(argv()))) - 2 == len(OPTIONS[command])
    base = written()
    for flag in OPTIONS[command]:
        out, files = written(flag)
        if flag == "--out":
            assert (out, files) == ("", {**base[1], "out.txt": base[0].encode()})
        assert (out, files) != base, flag
    for flag in DROPPED.get(command, ()):
        with pytest.raises(SystemExit) as exc:
            main(argv() + [flag, "json" if flag == "--format" else "full"])
        assert exc.value.code == 2
        assert f"unrecognized arguments: {flag}" in capsys.readouterr().err
