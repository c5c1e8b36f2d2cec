import json
import math
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from jsonschema import Draft202012Validator
from referencing import Registry, Resource

import blowup.cli
import blowup.holonomy
from blowup.cli import PortraitSpec, dump_json, run_command
from blowup.flow import IntegrationConfig, TimePath
from blowup.scenarios import catalog_names

SCHEMAS = Path(__file__).resolve().parent.parent / "schemas"


def _error_line(capsys) -> dict:
    lines = capsys.readouterr().err.strip().splitlines()
    assert len(lines) == 1
    return json.loads(lines[0])


@pytest.mark.parametrize("argv", [
    pytest.param(["detour", "catalog:golden_node", "--eq", "0", "--cycles", "1", "--start", "abc"],
                 id="malformed-start"),
    pytest.param(["pendulum", "--g", "abc"], id="malformed-g"),
    pytest.param(["catalog", "show", "riccati", "--params", "a=abc"], id="malformed-params"),
    pytest.param(["catalog", "show", "riccati", "--params", "e1=1,e2=1"], id="riccati-double-root"),
    pytest.param(["catalog", "show", "riccati", "--params", "a=0"], id="riccati-zero-rate"),
    pytest.param(["catalog", "show", "homogeneous", "--params", "gx=1"], id="homogeneous-gx-one"),
    pytest.param(["classify", "catalog:homogeneous?gx=1"], id="classify-homogeneous-gx-one"),
    pytest.param(["trees", "--max-m", "31"], id="trees-out-of-range"),
    pytest.param(["linearize", "catalog:galerkin_symmetric", "--eq", "0", "--order", "20"], id="order-too-high"),
    pytest.param(["classify", "catalog:golden_node", "--small-divisors", "--small-divisor-order", "100000000"],
                 id="small-divisor-order-too-high"),
    pytest.param(["detour", "catalog:scalar_poly?m=2", "--eq", "0", "--cycles", "0"], id="zero-cycles"),
    pytest.param(["holonomy", "catalog:golden_node", "--eq", "0", "--radius", "-1"], id="negative-radius"),
    pytest.param(["holonomy", "catalog:riccati", "--eq", "2"], id="holonomy-at-a-finite-equilibrium"),
    pytest.param(["holonomy", "catalog:golden_node", "--eq", "0", "--radius", "nan"], id="holonomy-nan-radius"),
    pytest.param(["detour", "catalog:scalar_poly?m=2", "--eq", "0", "--cycles", "1", "--ball", "nan"],
                 id="detour-nan-ball"),
    pytest.param(["detour", "catalog:scalar_poly?m=2", "--eq", "0", "--cycles", "1", "--radius", "nan"],
                 id="detour-nan-radius"),
    pytest.param(["detour", "catalog:scalar_poly?m=2", "--eq", "0", "--cycles", "1", "--horizon", "nan"],
                 id="detour-nan-horizon"),
    pytest.param(["detour", "catalog:scalar_poly?m=2", "--eq", "0", "--cycles", "1", "--horizon", "inf"],
                 id="detour-inf-horizon"),
    pytest.param(["linearize", "catalog:riccati", "--eq", "0", "--order", "4", "--ball-radius", "nan"],
                 id="linearize-nan-ball-radius"),
    pytest.param(["linearize", "catalog:riccati", "--eq", "0", "--order", "4", "--ball-radius", "0"],
                 id="linearize-zero-ball-radius"),
    pytest.param(["linearize", "catalog:riccati", "--eq", "0", "--order", "4", "--ball-radius", "-0.1"],
                 id="linearize-negative-ball-radius"),
    pytest.param(["pendulum", "--g=-6,0,6", "--radius", "nan"], id="pendulum-nan-radius"),
    pytest.param(["pendulum", "--g=-6,0,6", "--radius", "0"], id="pendulum-zero-radius"),
    pytest.param(["pendulum", "--g=-6,0,6", "--radius", "inf"], id="pendulum-inf-radius"),
    # whole-number catalog parameters are not truncated
    pytest.param(["catalog", "show", "scalar_poly", "--params", "m=2.5"], id="scalar-poly-m-not-whole"),
    pytest.param(["catalog", "show", "cyclotomic", "--params", "m=3.5"], id="cyclotomic-m-not-whole"),
    pytest.param(["classify", "catalog:rational_node?n1=3.7&n2=2"], id="rational-node-n1-not-whole"),
    pytest.param(["catalog", "show", "reciprocal_linear", "--params", "n2=2.5"],
                 id="reciprocal-linear-n2-not-whole"),
    # non-finite and overflowing numbers are bad input, not numerical failures
    pytest.param(["classify", "catalog:riccati?a=1e400"], id="catalog-parameter-overflows"),
    pytest.param(["classify", "catalog:riccati?a=1" + "0" * 400], id="catalog-parameter-int-overflows"),
    pytest.param(["detour", "catalog:scalar_poly?m=2", "--eq", "0", "--cycles", "1", "--start", "nan,0"],
                 id="detour-nan-start"),
    pytest.param(["pendulum", "--g=1,2,nan"], id="pendulum-nan-force"),
    pytest.param(["pendulum", "--g=1,2,1e400"], id="pendulum-force-overflows"),
])
def test_bad_input_is_a_validation_error(argv, capsys):
    assert run_command(argv) == 2
    assert _error_line(capsys)["error"] == "validation"


_FIELD = {"f": [[2, 0, 1.0, 0.0]], "g": [[0, 1, -1.0, 0.0]]}
_SPEC = {"chart": "XY", "grid": {"re": [0.1, 0.2, 2], "im": [0.0, 0.0, 1]}, "time_direction": "Real",
         "horizon": 0.1}
_LINE = {"type": "line", "from": [0, 0], "to": [1, 0]}
_LOOP = {"type": "arc", "center": [1, 0], "radius": 0.4, "angle_from": 0, "angle_to": 2 * math.pi}


@pytest.mark.parametrize("command, doc", [
    pytest.param("integrate", {"segments": [_LINE, {"type": "line", "from": [2, 0], "to": [3, 0]}]},
                 id="path-gap"),
    pytest.param("integrate", [], id="path-not-an-object"),
    pytest.param("integrate", {"segments": ["x"]}, id="path-segment-not-an-object"),
    pytest.param("portrait", {**_SPEC, "horizon": "2"}, id="portrait-horizon-text"),
    pytest.param("portrait", {**_SPEC, "grid": []}, id="portrait-grid-not-an-object"),
    pytest.param("portrait", {**_SPEC, "max_step": [0.1]}, id="portrait-max-step-list"),
    pytest.param("portrait", {**_SPEC, "max_step": math.nan}, id="portrait-max-step-nan"),
    pytest.param("portrait", {**_SPEC, "horizon": math.nan}, id="portrait-horizon-nan"),
    pytest.param("portrait", {**_SPEC, "grid": {"re": [0.1, 0.2, 2.5], "im": [0.0, 0.0, 1]}},
                 id="portrait-grid-count-not-whole"),
    pytest.param("integrate", {"segments": [{"type": "line", "from": [0, 0], "to": [math.nan, 0]}]},
                 id="path-line-nan-end"),
    pytest.param("integrate", {"segments": [{"type": "arc", "center": [math.nan, 0], "radius": 0.4,
                                             "angle_from": 0, "angle_to": 1}]}, id="path-arc-nan-centre"),
    pytest.param("classify", {"H": [[2, 0, 1.0, 0.0], [0, 2, 1.0, 0.0]], "level": ["a", 0]},
                 id="system-level-text"),
    pytest.param("classify", {**_FIELD, "parameters": [1]}, id="system-parameters-list"),
    # bool subclasses int, but a JSON true is not the number 1
    pytest.param("integrate", {"segments": [_LINE], "cycles": True}, id="path-cycles-true"),
    pytest.param("integrate", {"segments": [{"type": "arc", "center": [1, 0], "radius": True,
                                             "angle_from": 0, "angle_to": 1}]}, id="path-arc-radius-true"),
    pytest.param("classify", {"f": [[2, 0, 1.0, 0.0]], "g": [[0, True, -1.0, 0.0]]}, id="system-exponent-true"),
    pytest.param("classify", {"f": [[2, 0, True, 0.0]], "g": [[0, 1, -1.0, 0.0]]},
                 id="system-coefficient-true"),
    pytest.param("classify", {**_FIELD, "parameters": {"a": True}}, id="system-parameter-true"),
    pytest.param("portrait", {**_SPEC, "grid": {**_SPEC["grid"], "coordinate": "frist"}},
                 id="portrait-coordinate-misspelt"),
    pytest.param("portrait", {**_SPEC, "styling": {"stroke": 1}}, id="portrait-stroke-number"),
    # a repeated loop joins its end to its start within 1e-12, like any other join: this one is 1.1e-10 short
    pytest.param("integrate", {"segments": [{**_LOOP, "angle_to": 6.2831853069}], "cycles": 2},
                 id="path-cycle-not-closed"),
    pytest.param("integrate", {"segments": [_LOOP], "cycles": 10**6 + 1}, id="path-too-many-segments"),
    # just over the 10^5 seed bound, so that a missing bound costs a slow run, not the memory of 10^12 seeds
    pytest.param("portrait", {**_SPEC, "grid": {"re": [0.1, 0.2, 1000], "im": [0.0, 0.1, 101]}},
                 id="portrait-grid-too-many-seeds"),
    # a NaN coefficient is refused, not pruned as if it were 0
    pytest.param("classify", {"f": [[2, 0, 1.0, 0.0], [1, 0, math.nan, 0.0]], "g": [[0, 1, -1.0, 0.0]]},
                 id="system-coefficient-nan"),
    # json.dumps writes inf as Infinity, which reads back as the same inf as 1e400
    pytest.param("classify", {"f": [[2, 0, math.inf, 0.0]], "g": [[0, 1, -1.0, 0.0]]},
                 id="system-coefficient-inf"),
    pytest.param("classify", {"f": [[2, 0, 1.0, 10**400]], "g": [[0, 1, -1.0, 0.0]]},
                 id="system-coefficient-int-overflows"),
    pytest.param("integrate", {"segments": [{"type": "line", "from": [0, 0], "to": [10**400, 0]}]},
                 id="path-coordinate-int-overflows"),
    pytest.param("integrate-from-inf", {"segments": [_LINE]}, id="integrate-inf-start"),
])
def test_malformed_input_file_is_a_validation_error(command, doc, tmp_path, capsys):
    file = tmp_path / "input.json"
    file.write_text(json.dumps(doc))
    argv = {
        "integrate": ["integrate", "catalog:scalar_poly?m=2", "--path", str(file), "--start", "1,0"],
        "integrate-from-inf": ["integrate", "catalog:scalar_poly?m=2", "--path", str(file), "--start", "inf,0"],
        "portrait": ["portrait", "catalog:riccati", "--portrait", str(file), "--output", str(tmp_path / "p")],
        "classify": ["classify", str(file)],
    }[command]
    assert run_command(argv) == 2
    assert _error_line(capsys)["error"] == "validation"


@pytest.mark.parametrize("cycles", ["1.5", "1e400", "0"])
def test_path_cycles_must_be_a_whole_number_of_at_least_1(cycles, tmp_path, capsys):
    # written as text: 1e400 reads back as inf, which json.dumps cannot write as a number
    file = tmp_path / "path.json"
    file.write_text('{"segments": [{"type": "arc", "center": [1, 0], "radius": 0.4, "angle_from": 0, '
                    f'"angle_to": {2 * math.pi!r}}}], "cycles": {cycles}}}')
    argv = ["integrate", "catalog:scalar_poly?m=2", "--path", str(file), "--start", "0.5,0"]
    assert run_command(argv) == 2
    assert _error_line(capsys)["error"] == "validation"


@pytest.mark.parametrize("system, start", [
    pytest.param("catalog:scalar_poly?m=2", "-2.5,0", id="scalar-poly-around-the-pole"),
    pytest.param("catalog:riccati", "0.5,0", id="riccati"),
])
def test_path_cycles_repeat_its_segments(system, start, tmp_path, capsys):
    # x' = x^2 with x(1.4) = -2.5 is x(t) = 1/(1 - t): the loop circles the pole at t = 1
    csv = []
    for doc in ({"segments": [_LOOP], "cycles": 3}, {"segments": [_LOOP] * 3}):
        path = tmp_path / "path.json"
        path.write_text(json.dumps(doc))
        assert run_command(["integrate", system, "--path", str(path), "--start", start]) == 0
        csv.append(capsys.readouterr().out)
    assert csv[0] == csv[1]


def test_integrate_detours_around_the_pole_into_the_blowup_chart(tmp_path, capsys):
    # x' = x^2 from x(0) = 1 is x(t) = 1/(1 - t): along 0 -> 0.6 and then
    # over the pole at t = 1 to t = 1.4, x = -2.5, which is u = -0.4 in UZ
    path = tmp_path / "path.json"
    path.write_text(json.dumps({"segments": [
        {"type": "line", "from": [0, 0], "to": [0.6, 0]},
        {"type": "arc", "center": [1, 0], "radius": 0.4, "angle_from": math.pi, "angle_to": 0},
    ]}))
    argv = ["integrate", "catalog:scalar_poly?m=2", "--path", str(path), "--start", "1,0"]
    assert run_command(argv) == 0
    last = capsys.readouterr().out.strip().splitlines()[-1].split(",")
    assert last[3] == "UZ"
    assert abs(complex(float(last[4]), float(last[5])) + 0.4) < 1e-9


@pytest.mark.parametrize("argv", [
    pytest.param(["pendulum", "--g", "-6,0,6"], id="pendulum-g"),
    pytest.param(["detour", "catalog:scalar_poly?m=3", "--eq", "0", "--cycles", "1", "--start", "-2.0,0.0"],
                 id="detour-start"),
    pytest.param(["integrate", "catalog:scalar_poly?m=2", "--path", "PATH", "--start", "-1,0"],
                 id="integrate-start"),
])
def test_comma_list_may_start_with_a_minus_sign(argv, tmp_path, capsys):
    # argparse takes "-6,0,6" for a flag unless it is glued on as "--g=-6,0,6"
    path = tmp_path / "path.json"
    path.write_text(json.dumps({"segments": [{"type": "line", "from": [0, 0], "to": [0.5, 0]}]}))
    argv = [str(path) if a == "PATH" else a for a in argv]
    assert run_command(argv) == 0
    spaced = capsys.readouterr().out
    glued = argv[:-2] + [f"{argv[-2]}={argv[-1]}"]
    assert run_command(glued) == 0
    assert capsys.readouterr().out == spaced


@pytest.mark.parametrize("b1", [0.8, 1.0])
@pytest.mark.parametrize("eq", ["1", "2"])
def test_holonomy_refuses_a_base_circle_near_another_root(b1, eq, capsys):
    # F_z(0, .) has roots 0 and -0.071 (b1 = 0.8) or -0.112 (b1 = 1.0): the
    # default circle of radius 0.1 encloses the other root or passes 0.012
    # from it, and its multiplier is then off by up to 1.7
    system = f"catalog:galerkin_asymmetric?b1={b1}&b3=0.5"
    assert run_command(["holonomy", system, "--eq", eq]) == 2
    assert "largest radius that passes" in _error_line(capsys)["message"]
    assert run_command(["holonomy", system, "--eq", eq, "--radius", "0.02"]) == 0
    assert json.loads(capsys.readouterr().out)["deviation"] < 1e-12


@pytest.mark.parametrize("name", ["riccati", "weierstrass"])
def test_system_file_classifies_like_its_catalog_twin(name, tmp_path, capsys):
    # `catalog show` prints the system in the file format: a field as f and
    # g rows, a Hamiltonian as H rows and its level
    assert run_command(["catalog", "show", name]) == 0
    file = tmp_path / f"{name}.json"
    file.write_text(json.dumps(json.loads(capsys.readouterr().out)["system"]))
    reports = []
    for system in (str(file), f"catalog:{name}"):
        assert run_command(["classify", system]) == 0
        reports.append(json.loads(capsys.readouterr().out))
    assert reports[0]["system"] == {"source": "file", "path": str(file)}
    assert reports[0]["equilibria"] == reports[1]["equilibria"]


@pytest.mark.parametrize("argv, code", [
    pytest.param(["catalog", "list"], 0, id="catalog-list"),
    pytest.param(["trees", "--max-m", "1"], 2, id="trees-max-m-below-2"),
])
def test_module_entry_point_exits_with_the_command_code(argv, code):
    src = str(Path(__file__).resolve().parent.parent / "src")
    done = subprocess.run([sys.executable, "-m", "blowup.cli", *argv], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": src})
    assert done.returncode == code
    assert json.loads(done.stdout if code == 0 else done.stderr)


def test_portrait_stroke_cannot_carry_markup(tmp_path, capsys):
    spec = tmp_path / "spec.json"
    stem = tmp_path / "p"
    argv = ["portrait", "catalog:riccati", "--portrait", str(spec), "--output", str(stem), "--reproducible"]
    spec.write_text(json.dumps({**_SPEC, "styling": {"stroke": '"/><script>alert(1)</script><x a="'}}))
    assert run_command(argv) == 2
    assert _error_line(capsys)["error"] == "validation"
    assert not Path(f"{stem}.svg").exists()
    spec.write_text(json.dumps({**_SPEC, "styling": {"stroke": "#c00"}}))
    assert run_command(argv) == 0
    assert Path(f"{stem}.svg").read_text().count('stroke="#c00"') == 2  # one polyline per seed


@pytest.mark.parametrize("chart, stroke", [
    pytest.param("AB", "#c00", id="unknown-chart"),
    pytest.param("XY", '"/><script>x</script><x a="', id="stroke-markup"),
])
def test_portrait_spec_is_checked_however_it_is_built(chart, stroke):
    # sample_portrait is exported, so a spec need not come through load_portrait_spec
    with pytest.raises(ValueError):
        PortraitSpec(chart, TimePath.from_points([0.0, 0.1]), ((0.1 + 0j, 0j),), IntegrationConfig(), stroke)


_FULL_SPEC = {**_SPEC, "grid": {**_SPEC["grid"], "coordinate": "second", "fixed": [0.5, 0.0]},
              "time_direction": {"Ray": 0.3}, "rel_tol": 1e-9, "abs_tol": 1e-11, "max_step": 0.05,
              "styling": {"stroke": "#c00"}}


def _key_paths(doc: dict, at: tuple = ()) -> set:
    """The path of every key in a JSON object, nested objects included."""
    paths = set()
    for key, val in doc.items():
        paths.add(at + (key,))
        if isinstance(val, dict):
            paths |= _key_paths(val, at + (key,))
    return paths


def test_portrait_schema_lists_every_key_the_reader_reads(monkeypatch):
    read = set()

    class Recorder(dict):
        """A JSON object that records the key path of every lookup."""

        def __init__(self, doc: dict, at: tuple = ()):
            super().__init__((k, Recorder(v, at + (k,)) if isinstance(v, dict) else v) for k, v in doc.items())
            self.at = at

        def __getitem__(self, key):
            read.add(self.at + (key,))
            return super().__getitem__(key)

        def get(self, key, default=None):
            read.add(self.at + (key,))
            return super().get(key, default)

        def __contains__(self, key):
            read.add(self.at + (key,))
            return super().__contains__(key)

    monkeypatch.setattr(blowup.cli, "_read_json", lambda path, what: Recorder(_FULL_SPEC))
    blowup.cli.load_portrait_spec("spec.json")
    schema = json.loads((SCHEMAS / "portrait_spec.schema.json").read_text())

    def listed(key_path) -> bool:
        node = schema
        for key in key_path:
            props = dict(node.get("properties", {}))
            for branch in node.get("oneOf", []):
                props.update(branch.get("properties", {}))
            if key not in props:
                return False
            node = props[key]
        return True

    used = read | _key_paths(_SPEC) | _key_paths(_FULL_SPEC)
    assert sorted(p for p in used if not listed(p)) == []
    assert [e.message for e in _validators()["portrait_spec"].iter_errors(_FULL_SPEC)] == []


def test_approach_that_misses_the_ball_names_its_reason(capsys):
    # off the invariant line the approach to galerkin_symmetric's Siegel saddle
    # never enters the ball: the step size underflows first
    argv = ["detour", "catalog:galerkin_symmetric?a=2", "--eq", "0", "--cycles", "1", "--start", "1,0.01"]
    assert run_command(argv) == 3
    err = _error_line(capsys)
    assert err["error"] == "numerical"
    assert "StepUnderflow" in err["message"]
    assert "Termination." not in err["message"]


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


@pytest.mark.parametrize("value, plain", [
    (0.1, 0.1), (1 / 3, 1 / 3), (5e-324, 5e-324), (-0.0, -0.0), (1e16, 1e16),
    (complex(0.1, -1e16), [0.1, -1e16]), (Fraction(-3, 7), [-3, 7]),
    (math.inf, "Infinity"), (-math.inf, "-Infinity"),
])
def test_dump_json_round_trips_value_and_type(value, plain):
    # repr tells 1e16 from 10**16 and -0.0 from 0.0, which == does not
    assert repr(json.loads(dump_json(value))) == repr(plain)


def _validators() -> dict:
    docs = {p.name.removesuffix(".schema.json"): json.loads(p.read_text())
            for p in SCHEMAS.glob("*.schema.json")}
    registry = Registry().with_resources(
        (doc["$id"], Resource.from_contents(doc)) for doc in docs.values())
    return {name: Draft202012Validator(doc, registry=registry) for name, doc in docs.items()}


def _refuse(token):
    raise ValueError(f"bare {token} is not JSON")


REPORTS = [
    ("classification_report", ["classify", "catalog:golden_node", "--small-divisors"]),
    ("holonomy_estimate", ["holonomy", "catalog:golden_node", "--eq", "0"]),
    ("detour_report", ["detour", "catalog:scalar_poly?m=2", "--eq", "0", "--cycles", "1", "--star"]),
    ("transform_dump", ["linearize", "catalog:galerkin_symmetric", "--eq", "3", "--order", "6"]),
    ("pendulum_report", ["pendulum", "--g=-6,0,6"]),
    ("trees_report", ["trees", "--max-m", "12"]),
] + [("catalog_entry", ["catalog", "show", name]) for name in catalog_names()]


def test_every_report_is_strict_json_and_matches_its_schema(capsys):
    validators = _validators()
    for schema, argv in REPORTS:
        assert run_command(argv) == 0, argv
        doc = json.loads(capsys.readouterr().out, parse_constant=_refuse)
        errors = [e.message for e in validators[schema].iter_errors(doc)]
        assert not errors, (argv, errors)


def test_cli_import_does_not_load_numpy():
    # the package runs on the standard library alone; numpy is a test reference
    src = str(Path(__file__).resolve().parent.parent / "src")
    code = "import blowup.cli, sys; assert 'numpy' not in sys.modules"
    subprocess.run([sys.executable, "-c", code], check=True, env={**os.environ, "PYTHONPATH": src})
