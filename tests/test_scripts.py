"""The research scripts' verdicts."""

import importlib.util
from pathlib import Path

from qrelay import optimizer


def verify_bounds():
    path = Path(__file__).resolve().parent.parent / "scripts" / "verify_bounds.py"
    spec = importlib.util.spec_from_file_location("verify_bounds", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_verify_bounds_fails_a_search_stopped_at_the_cap(monkeypatch, capsys):
    script = verify_bounds()
    argv = ["--m", "3", "--steps", "2", "--restarts", "2"]
    assert script.main(argv) == 0
    assert "searches stopped at max_iterations: 0" in capsys.readouterr().out
    monkeypatch.setattr(optimizer, "MAX_ITERATIONS", 1)
    assert script.main(argv) == 1
    assert "searches stopped at max_iterations: 2" in capsys.readouterr().out


def test_verify_bounds_reports_when_the_best_restart_settled(capsys):
    assert verify_bounds().main(["--m", "2", "5", "--steps", "3"]) == 0
    header, *rows = capsys.readouterr().out.split("\n\n")[0].splitlines()
    assert header.split()[5:7] == ["settled", "steps"]
    settled = {(int(m), float(theta)): (int(s), int(n))
               for m, theta, _, _, _, s, n, _ in map(str.split, rows)}
    assert len(settled) == 6
    assert all(0 <= s <= n for s, n in settled.values())
    # at theta = 0 every measurement is optimal, so the start has its final value
    assert settled[2, 0.0][0] == settled[5, 0.0][0] == 0
    assert any(s < n for s, n in settled.values())
