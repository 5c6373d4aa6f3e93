"""Command-line front end: reports, sweeps, optimizer and simulator plumbing."""

import json
import math
import re
import subprocess
import sys

import pytest

import qrelay.cli
from qrelay import (Hermitian2, OptimizationError, Pom, Strategy, bloch, load_strategy,
                    measurements, min_error_analytic, optimal_retransmission, save_strategy,
                    symmetric_ensemble)
from qrelay.cli import main
from qrelay.tolerances import PSD


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def parsed_lines(out):
    """key = value pairs from the report, last occurrence wins."""
    values = {}
    for line in out.splitlines():
        if " = " in line:
            key, _, rest = line.partition(" = ")
            values[key.strip()] = rest.split()[0]
    return values


def test_analytic_report_three_signals(capsys):
    code, out, _ = run_cli(capsys, "analytic", "--m", "3", "--theta", str(math.pi / 2))
    assert code == 0
    values = parsed_lines(out)
    assert float(values["f_max"]) == pytest.approx(0.75, abs=1e-15)
    assert float(values["p_e_min"]) == pytest.approx(1 / 3, abs=1e-15)
    assert float(values["chi"]) == pytest.approx(math.pi / 2, abs=1e-12)
    assert values["n_outputs"] == "3"
    assert out.count("outcome") == 3


def test_analytic_directions_are_unit_vectors(capsys):
    # the two-signal search merges its four elements into two, leaving two of weight zero
    for args, outcomes in ((("analytic", "--m", "3", "--theta", "1.5707963267948966"), 3),
                           (("optimize", "--m", "2", "--theta", "0.785", "--n_elements", "4"), 4)):
        code, out, _ = run_cli(capsys, *args)
        assert code == 0
        directions = re.findall(r"direction = \(([^)]*)\)", out)
        assert len(directions) == outcomes
        for text in directions:
            x, y, z = (float(v) for v in text.split(","))
            assert math.sqrt(x * x + y * y + z * z) == pytest.approx(1.0, abs=1e-12)


def test_analytic_report_degenerate_two_signals(capsys):
    code, out, _ = run_cli(capsys, "analytic", "--m", "2", "--theta", "0")
    assert code == 0
    values = parsed_lines(out)
    assert float(values["f_max"]) == pytest.approx(1.0, abs=1e-15)
    assert float(values["p_e_min"]) == pytest.approx(0.5, abs=1e-15)


def test_analytic_report_degrees(capsys):
    code, out, _ = run_cli(capsys, "analytic", "--m", "4", "--theta", "60", "--degrees")
    assert code == 0
    values = parsed_lines(out)
    assert float(values["theta"]) == pytest.approx(math.pi / 3, abs=1e-12)
    assert float(values["f_max"]) == pytest.approx(0.8125, abs=1e-15)
    assert float(values["chi"]) == pytest.approx(math.acos(0.8), abs=1e-12)


def test_analytic_save_and_validate(capsys, tmp_path):
    path = tmp_path / "three.strategy.json"
    code, out, _ = run_cli(capsys, "analytic", "--m", "3", "--theta", "0.7",
                           "--output_path", str(path))
    assert code == 0 and f"saved: {path}" in out
    e, strategy, meta = load_strategy(path)
    assert meta["generator"] == "analytic"
    assert meta["parameters"]["m"] == 3
    code, out, _ = run_cli(capsys, "validate", "--strategy_file", str(path))
    assert code == 0
    assert out.startswith("valid:")


def test_analytic_rejects_domain_violations(capsys):
    code, _, err = run_cli(capsys, "analytic", "--m", "1", "--theta", "0.3")
    assert code == 2 and "error:" in err
    code, _, err = run_cli(capsys, "analytic", "--m", "3", "--theta", "2.0")
    assert code == 2 and "error:" in err
    code, _, err = run_cli(capsys, "analytic", "--m", "3", "--theta", "0.3",
                           "--n_outputs", "1")
    assert code == 2
    for alpha in ("inf", "nan"):
        code, _, err = run_cli(capsys, "analytic", "--m", "3", "--theta", "0.5",
                               "--alpha", alpha)
        assert code == 2 and "alpha" in err
    with pytest.raises(SystemExit) as exc:
        main(["analytic", "--m", "3", "--theta", "0.5", "--alpha", "x"])
    assert exc.value.code == 2


def test_analytic_checks_outputs_and_phase_at_two_signals(capsys):
    """m = 2 has one optimal strategy and ignores n_outputs and alpha, but not invalid ones."""
    for flag, value in (("--alpha", "nan"), ("--alpha", "inf"), ("--n_outputs", "1")):
        code, out, err = run_cli(capsys, "analytic", "--m", "2", "--theta", "0.5", flag, value)
        assert code == 2 and out == "" and flag[2:] in err
    code, out, _ = run_cli(capsys, "analytic", "--m", "2", "--theta", "0.5",
                           "--n_outputs", "5", "--alpha", "1.3")
    assert code == 0 and "n_outputs = 2\n" in out and "alpha = 0\n" in out


def test_sweep_three_point_grid(capsys, tmp_path):
    path = tmp_path / "grid.csv"
    code, out, _ = run_cli(capsys, "sweep", "--m", "3", "--theta_steps", "3",
                           "--output_path", str(path))
    assert code == 0 and "3 rows" in out
    lines = path.read_text().splitlines()
    assert lines[0] == "theta,p_e_min,f_max,chi"
    rows = [[float(x) for x in line.split(",")] for line in lines[1:]]
    assert [r[0] for r in rows] == pytest.approx([0.0, math.pi / 4, math.pi / 2], abs=1e-15)
    assert [r[2] for r in rows] == pytest.approx([1.0, 0.875, 0.75], abs=1e-15)


def test_sweep_two_signal_endpoints(capsys, tmp_path):
    path = tmp_path / "two.csv"
    code, _, _ = run_cli(capsys, "sweep", "--m", "2", "--theta_steps", "2",
                         "--output_path", str(path))
    assert code == 0
    rows = [line.split(",") for line in path.read_text().splitlines()[1:]]
    assert float(rows[0][2]) == pytest.approx(1.0, abs=1e-15)
    assert float(rows[1][2]) == pytest.approx(1.0, abs=1e-15)


def test_sweep_error_column_matches_formula(capsys, tmp_path):
    path = tmp_path / "five.csv"
    code, _, _ = run_cli(capsys, "sweep", "--m", "5", "--theta_steps", "11",
                         "--output_path", str(path))
    assert code == 0
    for line in path.read_text().splitlines()[1:]:
        theta, p_e_min = (float(x) for x in line.split(",")[:2])
        assert p_e_min == pytest.approx(min_error_analytic(5, theta), abs=1e-15)


def test_sweep_output_is_reproducible(capsys, tmp_path):
    first = tmp_path / "a.csv"
    second = tmp_path / "b.csv"
    run_cli(capsys, "sweep", "--m", "4", "--theta_steps", "7", "--output_path", str(first))
    run_cli(capsys, "sweep", "--m", "4", "--theta_steps", "7", "--output_path", str(second))
    assert first.read_bytes() == second.read_bytes()


def test_sweep_rejects_bad_arguments(capsys, tmp_path):
    code, _, err = run_cli(capsys, "sweep", "--m", "3", "--theta_steps", "1",
                           "--output_path", str(tmp_path / "x.csv"))
    assert code == 2 and "error:" in err
    code, _, err = run_cli(capsys, "sweep", "--m", "3", "--theta_steps", "3",
                           "--output_path", "/nonexistent_dir_qx/out.csv")
    assert code == 2


def test_optimize_reports_small_gap_and_saves(capsys, tmp_path):
    path = tmp_path / "opt.strategy.json"
    code, out, _ = run_cli(capsys, "optimize", "--m", "3", "--theta", str(math.pi / 2),
                           "--n_elements", "3", "--restarts", "8", "--seed", "1",
                           "--output_path", str(path))
    assert code == 0
    values = parsed_lines(out)
    assert abs(float(values["gap"])) <= 1e-4
    assert float(values["achieved_f"]) == pytest.approx(0.75, abs=1e-4)
    assert values["n_elements"] == "3"
    e, strategy, meta = load_strategy(path)
    assert meta["generator"] == "optimizer"
    code, out, _ = run_cli(capsys, "validate", "--strategy_file", str(path))
    assert code == 0


def test_optimize_residuals_are_those_of_the_saved_measurement(capsys, tmp_path):
    # README's search: its measurement misses the identity by 2.8e-17, so the
    # two reports agree on a nonzero value, digit for digit
    path = tmp_path / "found.strategy.json"
    code, out, _ = run_cli(capsys, "optimize", "--m", "3", "--theta", "0.785",
                           "--restarts", "16", "--output_path", str(path))
    assert code == 0
    assert not any(line.startswith(("weights =", "residuals =")) for line in out.splitlines())
    printed = parsed_lines(out)["identity_residual"]
    _, strategy, _ = load_strategy(path)
    assert printed == format(measurements.identity_sum_residual(strategy.pom), ".17g")
    assert float(printed) > 0.0
    code, out, _ = run_cli(capsys, "validate", "--strategy_file", str(path))
    assert code == 0
    assert re.search(r"identity_residual = ([^,]*),", out).group(1) == printed


def test_optimize_degenerate_ensemble_is_perfect(capsys):
    code, out, _ = run_cli(capsys, "optimize", "--m", "4", "--theta", "0",
                           "--n_elements", "2", "--restarts", "4", "--seed", "1")
    assert code == 0
    values = parsed_lines(out)
    assert float(values["achieved_f"]) == pytest.approx(1.0, abs=1e-9)


def test_simulate_analytic_strategy(capsys, tmp_path):
    path = tmp_path / "sim.strategy.json"
    run_cli(capsys, "analytic", "--m", "3", "--theta", str(math.pi / 2),
            "--output_path", str(path))
    code, out, _ = run_cli(capsys, "simulate", "--strategy_file", str(path),
                           "--trials", "200000", "--seed", "0")
    assert code == 0
    for line in out.splitlines():
        if "z =" in line:
            z = float(line.rsplit("z =", 1)[1])
            assert abs(z) <= 4.0


def test_simulate_report_is_pinned(capsys, tmp_path):
    path = tmp_path / "five.strategy.json"
    run_cli(capsys, "analytic", "--m", "5", "--theta", "0.9", "--n_outputs", "8",
            "--alpha", "0.3", "--output_path", str(path))
    code, out, _ = run_cli(capsys, "simulate", "--strategy_file", str(path),
                           "--trials", "200003", "--seed", "9")
    assert code == 0
    lines = out.splitlines()
    assert lines[0].startswith("file = ")
    # recorded before the simulator ran in cache-sized blocks
    assert lines[1:] == [
        "generator = analytic",
        "m = 5",
        "theta = 0.90000000000000002",
        "trials = 200003",
        "seed = 9",
        "fidelity_estimate = 0.84649730254046185  std_error = 0.00080603247536042131"
        "  exact = 0.8465997381633642  z = -0.127",
        "error_estimate = 0.65437518437223441  std_error = 0.0010634023461897875"
        "  exact = 0.65359437081761906  z = 0.734",
    ]


def test_simulate_validates_the_measurement_once_per_use(capsys, tmp_path, monkeypatch):
    path = tmp_path / "three.strategy.json"
    run_cli(capsys, "analytic", "--m", "3", "--theta", "0.8", "--output_path", str(path))
    original = measurements.validate_pom
    calls = []

    def counted(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    # every module that imported the function holds its own reference
    for module in [mod for name, mod in sys.modules.items() if name.startswith("qrelay")]:
        if getattr(module, "validate_pom", None) is original:
            monkeypatch.setattr(module, "validate_pom", counted)
    code, _, _ = run_cli(capsys, "simulate", "--strategy_file", str(path), "--trials", "1000")
    assert code == 0
    # once when loading, once for the outcome table both estimates share
    assert len(calls) == 2


def test_simulate_orthogonal_pair_never_errs(capsys, tmp_path):
    path = tmp_path / "pair.strategy.json"
    run_cli(capsys, "analytic", "--m", "2", "--theta", str(math.pi / 2),
            "--output_path", str(path))
    code, out, _ = run_cli(capsys, "simulate", "--strategy_file", str(path),
                           "--trials", "10000", "--seed", "3")
    assert code == 0
    values = parsed_lines(out)
    assert values["error_estimate"] == "0"


def test_validate_rejects_tampered_file(capsys, tmp_path):
    path = tmp_path / "bad.strategy.json"
    run_cli(capsys, "analytic", "--m", "2", "--theta", "1.0", "--output_path", str(path))
    doc = json.loads(path.read_text())
    doc["pom"][0][0] = -0.5
    doc["pom"][1][0] = 1.5
    path.write_text(json.dumps(doc))
    code, out, _ = run_cli(capsys, "validate", "--strategy_file", str(path))
    assert code == 3
    assert "invalid:" in out and "positive" in out


def test_simulate_rejects_tampered_file(capsys, tmp_path):
    path = tmp_path / "bad.strategy.json"
    run_cli(capsys, "analytic", "--m", "3", "--theta", "0.7", "--output_path", str(path))
    doc = json.loads(path.read_text())
    doc["pom"][0][0] += 0.25
    path.write_text(json.dumps(doc))
    code, out, err = run_cli(capsys, "simulate", "--strategy_file", str(path), "--trials", "100")
    assert code == 3
    assert "invalid:" in err and "identity" in err and out == ""


def test_validate_and_simulate_agree_on_a_boundary_measurement(capsys, tmp_path):
    """Element 0's lowest eigenvalue is just inside -PSD and its Born probability
    of signal 4 just outside it: both commands take the file."""
    e = symmetric_ensemble(8, 0.6301157748724883)
    rows = [[0.07313276680616232, 0.2243931947372632, 2.1426036897050586e-10, 0.6885054134091766],
            [0.9268672331938377, -0.2243931947372632, -2.1426036897050586e-10, 0.3114945865908234]]
    pom = Pom(elements=tuple(Hermitian2(a, d, complex(re_b, im_b)) for a, re_b, im_b, d in rows))
    assert bloch.lowest(*pom.terms).min() >= -PSD > bloch.born(*pom.terms, e.vectors).min()
    path = tmp_path / "boundary.strategy.json"
    save_strategy(path, e, Strategy(pom=pom, retransmit=optimal_retransmission(e, pom).states),
                  "optimizer")
    code, out, _ = run_cli(capsys, "validate", "--strategy_file", str(path))
    assert code == 0 and out.startswith("valid:")
    code, out, err = run_cli(capsys, "simulate", "--strategy_file", str(path), "--trials", "10000")
    assert code == 0 and err == ""
    assert parsed_lines(out)["trials"] == "10000"


@pytest.mark.parametrize("parameters,code", [
    ([], 3), ("p", 3),
    ({"m": 3, "n_outputs": 3, "alpha": None}, 0), ({"m": 3, "n_outputs": 3, "alpha": "x"}, 0),
    # None keeps the parameters and rewrites the generator instead
    pytest.param(None, 0, id="generator")])
def test_simulate_reads_any_parameters_value(capsys, tmp_path, parameters, code):
    """generator and parameters are provenance: simulate echoes the generator and
    interprets neither."""
    path = tmp_path / "three.strategy.json"
    run_cli(capsys, "analytic", "--m", "3", "--theta", "0.7", "--output_path", str(path))
    _, unedited, _ = run_cli(capsys, "simulate", "--strategy_file", str(path), "--trials", "1000")
    doc = json.loads(path.read_text())
    if parameters is None:
        doc["generator"] = "written by hand"
    else:
        doc["parameters"] = parameters
    path.write_text(json.dumps(doc))
    got, out, err = run_cli(capsys, "simulate", "--strategy_file", str(path), "--trials", "1000")
    assert got == code
    if code == 3:
        assert '"parameters" must be an object' in err and out == ""
    elif parameters is None:
        assert out == unedited.replace("generator = analytic\n",
                                       "generator = written by hand\n")
    else:
        assert out == unedited


def test_simulate_scores_rounding_level_exact_values(capsys, tmp_path):
    """At theta = 0 the exact fidelity can round just below 1 while every trial
    succeeds: z is measured in standard errors of the exact value, so it stays finite."""
    path = tmp_path / "zero.strategy.json"
    for m in (2, 3, 4, 5, 8):
        for n in (2, 3, m):
            for alpha in ("0", "0.7"):
                run_cli(capsys, "analytic", "--m", str(m), "--theta", "0", "--n_outputs", str(n),
                        "--alpha", alpha, "--output_path", str(path))
                code, out, _ = run_cli(capsys, "simulate", "--strategy_file", str(path),
                                       "--trials", "100000", "--seed", "0")
                assert code == 0
                for line in out.splitlines():
                    if "z =" in line:
                        z = float(line.rsplit("z =", 1)[1])
                        assert abs(z) <= 4.0, (m, n, alpha, line)


def test_simulate_rejects_non_positive_trials(capsys, tmp_path):
    path = tmp_path / "pair.strategy.json"
    run_cli(capsys, "analytic", "--m", "2", "--theta", "1.0", "--output_path", str(path))
    code, _, err = run_cli(capsys, "simulate", "--strategy_file", str(path), "--trials", "0")
    assert code == 2 and "trials" in err


def test_simulate_out_of_memory_exits_2(capsys, tmp_path):
    """A valid document of 10**17 signals cannot be simulated on any 64-bit
    machine: its first m-long array is refused without touching memory."""
    path = tmp_path / "huge.strategy.json"
    run_cli(capsys, "analytic", "--m", "5", "--theta", "0.9", "--n_outputs", "8",
            "--output_path", str(path))
    doc = json.loads(path.read_text())
    doc["ensemble"]["m"] = 10 ** 17
    path.write_text(json.dumps(doc))
    assert run_cli(capsys, "validate", "--strategy_file", str(path))[0] == 0
    code, out, err = run_cli(capsys, "simulate", "--strategy_file", str(path), "--trials", "100")
    assert code == 2 and out == ""
    assert err.startswith("error: out of memory: ") and err.count("\n") == 1
    assert "Traceback" not in err


def test_optimize_search_failure_exits_4(capsys, monkeypatch):
    def failing(e, cfg):
        raise OptimizationError("best candidate is not a valid measurement: residual 1e-3")

    monkeypatch.setattr(qrelay.cli, "optimize_fidelity", failing)
    code, out, err = run_cli(capsys, "optimize", "--m", "3", "--theta", "0.5")
    assert code == 4
    assert "optimization failed: best candidate is not a valid measurement" in err and out == ""


def test_validate_rejects_theta_beyond_double_range(capsys, tmp_path):
    path = tmp_path / "huge.strategy.json"
    run_cli(capsys, "analytic", "--m", "3", "--theta", "0.7", "--output_path", str(path))
    doc = json.loads(path.read_text())
    doc["ensemble"]["theta"] = 10 ** 400
    path.write_text(json.dumps(doc))
    code, out, _ = run_cli(capsys, "validate", "--strategy_file", str(path))
    assert code == 3 and out.startswith("invalid:")


@pytest.mark.parametrize("command", ["validate", "simulate"])
@pytest.mark.parametrize("content", [b"\xff\xfe\x00garbage",
                                     ('{"a": ' * 100000 + "1" + "}" * 100000).encode()],
                         ids=["not_utf8", "too_deep"])
def test_unreadable_file_exits_3(capsys, tmp_path, command, content):
    path = tmp_path / "unreadable.strategy.json"
    path.write_bytes(content)
    code, out, err = run_cli(capsys, command, "--strategy_file", str(path))
    assert code == 3 and "invalid: not valid" in out + err


def test_validate_rejects_an_element_whose_terms_overflow(capsys, tmp_path):
    path = tmp_path / "overflow.strategy.json"
    run_cli(capsys, "analytic", "--m", "2", "--theta", "1.0", "--output_path", str(path))
    doc = json.loads(path.read_text())
    doc["pom"][0] = [1e308, 0.0, 0.0, 1e308]
    path.write_text(json.dumps(doc))
    code, out, _ = run_cli(capsys, "validate", "--strategy_file", str(path))
    assert code == 3 and out == "invalid: pom: element 0 has a non-finite entry\n"


def test_validate_rejects_elements_whose_sum_overflows(tmp_path):
    path = tmp_path / "overflow.strategy.json"
    assert main(["analytic", "--m", "5", "--theta", "0.7", "--output_path", str(path)]) == 0
    doc = json.loads(path.read_text())
    doc["pom"][1][0], doc["pom"][4][0] = 1.7e308, 1e308
    path.write_text(json.dumps(doc))
    # in a process of its own, where any warning is an error, as in CI
    proc = subprocess.run([sys.executable, "-W", "error", "-m", "qrelay", "validate",
                           "--strategy_file", str(path)], capture_output=True, text=True)
    assert proc.returncode == 3 and proc.stderr == ""
    assert proc.stdout == "invalid: pom: elements do not sum to the identity (residual inf)\n"


def test_validate_rejects_malformed_json(capsys, tmp_path):
    path = tmp_path / "broken.strategy.json"
    path.write_text("{oops")
    code, _, err = run_cli(capsys, "validate", "--strategy_file", str(path))
    assert code == 3


def test_validate_missing_file_is_an_io_error(capsys, tmp_path):
    code, _, err = run_cli(capsys, "validate", "--strategy_file",
                           str(tmp_path / "absent.strategy.json"))
    assert code == 2


def test_module_entry_point_runs():
    proc = subprocess.run([sys.executable, "-m", "qrelay", "analytic",
                           "--m", "3", "--theta", "1.0"],
                          capture_output=True, text=True)
    assert proc.returncode == 0
    assert "f_max" in proc.stdout


def test_main_builds_its_parser_once(capsys):
    qrelay.cli.build_parser.cache_clear()
    for _ in range(2):
        code, _, _ = run_cli(capsys, "analytic", "--m", "3", "--theta", "1.0")
        assert code == 0
    info = qrelay.cli.build_parser.cache_info()
    assert (info.misses, info.hits) == (1, 1)


def test_options_do_not_carry_over_between_calls(capsys):
    _, out, _ = run_cli(capsys, "analytic", "--m", "4", "--theta", "60", "--degrees")
    assert float(parsed_lines(out)["theta"]) == pytest.approx(math.pi / 3, abs=1e-12)
    _, out, _ = run_cli(capsys, "analytic", "--m", "4", "--theta", "0.5")
    assert float(parsed_lines(out)["theta"]) == 0.5


def test_commands_in_one_process_print_what_each_prints_alone(capsys, tmp_path):
    path = tmp_path / "five.strategy.json"
    run_cli(capsys, "analytic", "--m", "5", "--theta", "0.9", "--n_outputs", "8",
            "--output_path", str(path))
    commands = (("simulate", "--strategy_file", str(path), "--trials", "70000", "--seed", "3"),
                ("validate", "--strategy_file", str(path)))
    together = [run_cli(capsys, *argv) for argv in commands]
    alone = [subprocess.run([sys.executable, "-m", "qrelay", *argv],
                            capture_output=True, text=True) for argv in commands]
    assert together == [(proc.returncode, proc.stdout, proc.stderr) for proc in alone]
    assert [code for code, _, _ in together] == [0, 0]
