import json

import blowup.holonomy
from blowup.cli import run_command


def _error_line(capsys) -> dict:
    lines = capsys.readouterr().err.strip().splitlines()
    assert len(lines) == 1
    return json.loads(lines[0])


def test_malformed_start_is_a_validation_error(capsys):
    code = run_command(["detour", "catalog:golden_node", "--eq", "0", "--cycles", "1", "--start", "abc"])
    assert code == 2
    assert _error_line(capsys)["error"] == "validation"


def test_winding_law_violation_exits_numerical(monkeypatch, capsys):
    # force w_t = 2, w_u = 1 on a loop that closes with m - 1 = 1
    windings = iter([2, 1, 0])
    monkeypatch.setattr(blowup.holonomy, "_try_winding", lambda samples, center: next(windings))
    code = run_command(["detour", "catalog:scalar_poly?m=2", "--eq", "0", "--cycles", "1"])
    assert code == 3
    err = _error_line(capsys)
    assert err["error"] == "numerical"
    assert "winding law violated" in err["message"]


def test_portrait_has_no_jobs_option(tmp_path):
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps({
        "chart": "XY",
        "grid": {"re": [0.1, 0.2, 2], "im": [0.0, 0.0, 1]},
        "time_direction": "Real",
        "horizon": 0.1,
    }))
    argv = ["portrait", "catalog:riccati", "--portrait", str(spec), "--output", str(tmp_path / "p"),
            "--reproducible"]
    assert run_command(argv) == 0
    assert run_command(argv + ["--jobs", "2"]) == 2
