"""Command-line front end: reports, sweeps, optimizer and simulator plumbing."""

import json
import math
import re
import subprocess
import sys

import pytest

import qrelay.cli
from qrelay import OptimizationError, bloch, load_strategy, measurements, min_error_analytic
from qrelay.cli import main


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
    path = tmp_path / "opt.strategy.json"
    code, out, _ = run_cli(capsys, "optimize", "--m", "3", "--theta", "0.7",
                           "--n_elements", "3", "--restarts", "4", "--seed", "2",
                           "--output_path", str(path))
    assert code == 0
    assert not any(line.startswith("weights =") for line in out.splitlines())
    printed = re.search(r"^residuals = \(([^)]*)\)$", out, re.M).group(1)
    _, strategy, _ = load_strategy(path)
    expected = bloch.completeness(*strategy.pom.terms)
    assert [float(x) for x in printed.split(",")] == [float(x) for x in expected]


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
    assert "analytic_f_max" in out and "analytic_p_e_min" in out
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
        "analytic_f_max = 0.84659973816336409  z = -0.127",
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


def test_simulate_optimizer_file_has_no_analytic_reference(capsys, tmp_path):
    path = tmp_path / "opt2.strategy.json"
    run_cli(capsys, "optimize", "--m", "2", "--theta", "0.6", "--n_elements", "2",
            "--restarts", "4", "--seed", "2", "--output_path", str(path))
    code, out, _ = run_cli(capsys, "simulate", "--strategy_file", str(path),
                           "--trials", "20000", "--seed", "1")
    assert code == 0
    assert "analytic_f_max" not in out


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


@pytest.mark.parametrize("parameters,code", [
    ([], 3), ("p", 3),
    ({"m": 3, "n_outputs": 3, "alpha": None}, 0), ({"m": 3, "n_outputs": 3, "alpha": "x"}, 0)])
def test_simulate_reads_any_parameters_value(capsys, tmp_path, parameters, code):
    path = tmp_path / "three.strategy.json"
    run_cli(capsys, "analytic", "--m", "3", "--theta", "0.7", "--output_path", str(path))
    doc = json.loads(path.read_text())
    doc["parameters"] = parameters
    path.write_text(json.dumps(doc))
    got, out, err = run_cli(capsys, "simulate", "--strategy_file", str(path), "--trials", "1000")
    assert got == code
    if code == 3:
        assert '"parameters" must be an object' in err and out == ""
    else:
        # a value that is not a number only means "not the square-root family"
        assert "analytic_f_max" in out and "analytic_p_e_min" not in out


def test_simulate_rejects_non_positive_trials(capsys, tmp_path):
    path = tmp_path / "pair.strategy.json"
    run_cli(capsys, "analytic", "--m", "2", "--theta", "1.0", "--output_path", str(path))
    code, _, err = run_cli(capsys, "simulate", "--strategy_file", str(path), "--trials", "0")
    assert code == 2 and "trials" in err


def test_optimize_search_failure_exits_4(capsys, monkeypatch):
    def failing(e, cfg):
        raise OptimizationError("no feasible start in 16 restarts")

    monkeypatch.setattr(qrelay.cli, "optimize_fidelity", failing)
    code, out, err = run_cli(capsys, "optimize", "--m", "3", "--theta", "0.5")
    assert code == 4
    assert "optimization failed: no feasible start" in err and out == ""


def test_validate_rejects_theta_beyond_double_range(capsys, tmp_path):
    path = tmp_path / "huge.strategy.json"
    run_cli(capsys, "analytic", "--m", "3", "--theta", "0.7", "--output_path", str(path))
    doc = json.loads(path.read_text())
    doc["ensemble"]["theta"] = 10 ** 400
    path.write_text(json.dumps(doc))
    code, out, _ = run_cli(capsys, "validate", "--strategy_file", str(path))
    assert code == 3 and out.startswith("invalid:")


def test_validate_rejects_an_element_whose_terms_overflow(capsys, tmp_path):
    path = tmp_path / "overflow.strategy.json"
    run_cli(capsys, "analytic", "--m", "2", "--theta", "1.0", "--output_path", str(path))
    doc = json.loads(path.read_text())
    doc["pom"][0] = [1e308, 0.0, 0.0, 1e308]
    path.write_text(json.dumps(doc))
    code, out, _ = run_cli(capsys, "validate", "--strategy_file", str(path))
    assert code == 3 and out == "invalid: pom: element 0 has a non-finite entry\n"


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
