"""Command-line driver: classification, integration, detours, holonomy,
linearization, portraits, pendulum windings, tree counts, and the catalog.

System arguments accept either a JSON file path or a ``catalog:`` URI such
as ``catalog:galerkin_symmetric?a=2``.  Each subcommand parses its flags,
calls the library and prints the records it returns.  Every report,
``trees`` included, is one JSON document written by ``json.dumps``, so
every float is its shortest repr that reads back as the same double, and
identical invocations are byte-identical; only ``integrate`` (a CSV of
samples) and the files ``portrait`` writes are not JSON, and SVG output
carries a timestamp comment unless ``--reproducible`` is passed.  Library
records are written as they are, their fields in order as the report's
keys: complex numbers as [re, im], tuples as lists, fractions as [num, den],
and +-inf as the strings "Infinity" and "-Infinity".  NaN is still written
as a bare ``NaN``, which strict JSON refuses: the benchmark's own test of
that refusal reads this output, so the fix waits for the benchmark.  A detour
report is ``DetourReport``, so beside the keys it always had it carries
``fiber_start_magnitude``.

Exit codes: 0 success, 2 validation error, 3 numerical failure, decided by
one rule on the exception type: ``RuntimeError`` and ``ArithmeticError``
are numerical failures, every other ``ValueError`` or ``LookupError`` is bad
input.  Errors go to stderr as single-line JSON.
"""

from __future__ import annotations

import argparse
import cmath
import datetime
import json
import math
import re
import sys
import urllib.parse
from dataclasses import asdict, dataclass
from fractions import Fraction
from pathlib import Path

from blowup.algebra import BivariatePolynomial, Chart, ChartSystem, PlanarField, to_charts
from blowup.equilibria import (
    classify_spectrum,
    find_equilibria,
    small_divisor_scan,
)
from blowup.flow import (
    Arc,
    FlowError,
    IntegrationConfig,
    Line,
    Termination,
    TimePath,
    integrate_path,
)
from blowup.hamiltonian import PolynomialHamiltonian, hamiltonian_field, pendulum_loop_windings
from blowup.holonomy import approach_blowup, blowup_star, holonomy_multiplier, masuda_detour
from blowup.normalform import conjugacy_residual, poincare_linearize
from blowup.scenarios import catalog_get, catalog_names, tree_count

__all__ = ["main", "run_command", "PortraitSpec", "sample_portrait"]


class CliValidationError(ValueError):
    """Bad input: exits with code 2."""


# ------------------------------------------------------------- serialization

def _plain(value):
    """``value`` with what ``json`` cannot encode converted.

    Complex numbers become [re, im], fractions [num, den], tuples lists,
    callables a placeholder, and +-inf the strings "Infinity" and "-Infinity".
    """
    if isinstance(value, float):
        return value if not math.isinf(value) else "Infinity" if value > 0 else "-Infinity"
    if isinstance(value, complex):
        return [_plain(value.real), _plain(value.imag)]
    if isinstance(value, dict):
        return {str(k): _plain(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_plain(v) for v in value]
    if isinstance(value, Fraction):
        return [value.numerator, value.denominator]
    if callable(value):
        return "<function>"
    return value


def dump_json(value) -> str:
    """One JSON document; floats in their shortest round-trip form."""
    return json.dumps(_plain(value))


# ---------------------------------------------------------------- system I/O

def _read_json(path: str, what: str):
    try:
        return json.loads(Path(path).read_text())
    except (OSError, json.JSONDecodeError) as err:
        raise CliValidationError(f"cannot read {what} {path}: {err}") from None


def parse_system_file(path: str) -> PlanarField | PolynomialHamiltonian:
    """Load a planar field or polynomial Hamiltonian from a JSON spec file.

    Field files carry ``f`` and ``g`` coefficient tables of rows
    [j, k, re, im]; Hamiltonian files carry ``H`` (same rows) and an optional
    ``level`` pair.  Coefficients must be finite numbers; zero rows are
    pruned.  The constructors refuse a zero field and a Hamiltonian of degree
    below 2.
    """
    doc = _read_json(path, "system file")
    if not isinstance(doc, dict):
        raise CliValidationError("system file must hold a JSON object")
    if "H" in doc:
        H = _poly_from_rows(doc["H"], "H")
        return PolynomialHamiltonian(H, _pair(doc.get("level", [0.0, 0.0]), "level"))
    if "f" not in doc or "g" not in doc:
        raise CliValidationError("system file needs either f and g, or H")
    params = doc.get("parameters", {})
    if not isinstance(params, dict) or any(not _is_number(v) for v in params.values()):
        raise CliValidationError("user files must carry fully numeric parameters")
    return PlanarField(_poly_from_rows(doc["f"], "f"), _poly_from_rows(doc["g"], "g"))


def _poly_from_rows(rows, name: str) -> BivariatePolynomial:
    if not isinstance(rows, list):
        raise CliValidationError(f"{name} must be a list of [j, k, re, im] rows")
    entries = []
    for i, row in enumerate(rows):
        if not (isinstance(row, list) and len(row) == 4):
            raise CliValidationError(f"{name}[{i}] must be [j, k, re, im]")
        j, k, re, im = row
        if not (type(j) is int and type(k) is int) or j < 0 or k < 0:  # bool subclasses int
            raise CliValidationError(f"{name}[{i}]: exponents must be nonnegative integers, got {j}, {k}")
        entries.append((j, k, complex(_real(re, f"{name}[{i}].re"), _real(im, f"{name}[{i}].im"))))
    return BivariatePolynomial.from_coeffs(entries)


def resolve_system(spec: str) -> tuple[ChartSystem, dict, tuple | None]:
    """Resolve a `catalog:name?p=v` URI or a JSON file path.

    Returns the chart system of the field (a Hamiltonian's field for a
    Hamiltonian), the report's ``system`` block, and the catalog's suggested
    detour start (None for files).
    """
    if spec.startswith("catalog:"):
        name, _, query = spec[len("catalog:"):].partition("?")
        params = _parse_params(urllib.parse.parse_qsl(query))
        entry = catalog_get(name, params)
        system, start = entry.system, entry.suggested_start
        meta = {"source": "catalog", "name": name, "parameters": params}
    else:
        system, meta, start = parse_system_file(spec), {"source": "file", "path": spec}, None
    if isinstance(system, PolynomialHamiltonian):
        system = hamiltonian_field(system)
    return to_charts(system), meta, start


def _parse_params(pairs) -> dict:
    """Finite numeric catalog parameters from (key, text) pairs; the last of a key wins."""
    params = {}
    for key, val in pairs:
        try:
            params[key] = float(val) if "." in val or "e" in val.lower() else int(val)
            finite = math.isfinite(params[key])  # an int too large for a double overflows here
        except (ValueError, OverflowError):
            finite = False
        if not finite:
            raise CliValidationError(f"parameter {key}={val!r} is not a finite number")
    return params


# a run this long already stores at least 2e7 samples
_MAX_PATH_SEGMENTS = 10**6


def load_path_file(path: str) -> TimePath:
    doc = _read_json(path, "path file")
    if not (isinstance(doc, dict) and isinstance(doc.get("segments", []), list)):
        raise CliValidationError("path file must hold an object with a list of segments")
    segs = []
    for i, seg in enumerate(doc.get("segments", [])):
        kind = seg.get("type") if isinstance(seg, dict) else None
        if kind == "line":
            segs.append(Line(_pair(seg["from"], f"segments[{i}].from"),
                             _pair(seg["to"], f"segments[{i}].to")))
        elif kind == "arc":
            segs.append(Arc(_pair(seg["center"], f"segments[{i}].center"),
                            *(_real(seg[key], f"segments[{i}].{key}")
                              for key in ("radius", "angle_from", "angle_to"))))
        else:
            raise CliValidationError(f"segments[{i}]: type must be line or arc")
    if not segs:
        raise CliValidationError("path file has no segments")
    cycles = _real(doc.get("cycles", 1), "cycles")
    if not (cycles >= 1 and cycles.is_integer()):
        raise CliValidationError("cycles must be a whole number of at least 1")
    if len(segs) * cycles > _MAX_PATH_SEGMENTS:  # refused before the repeated tuple exists
        raise CliValidationError(f"path has more than {_MAX_PATH_SEGMENTS} segments after repetition")
    return TimePath(tuple(segs) * int(cycles))


def _is_number(val) -> bool:
    """A JSON number; ``bool`` subclasses ``int``, but ``true`` is not 1 here."""
    return isinstance(val, (int, float)) and not isinstance(val, bool)


def _real(val, what: str) -> float:
    """A JSON number as a finite float; an integer too large for a double is refused too."""
    if not _is_number(val):
        raise CliValidationError(f"{what} must be a number")
    try:
        out = float(val)
    except OverflowError:
        out = math.inf
    if not math.isfinite(out):
        raise CliValidationError(f"{what} must be finite")
    return out


def _pair(val, what: str) -> complex:
    if not (isinstance(val, list) and len(val) == 2):
        raise CliValidationError(f"{what} must be a [re, im] pair")
    return complex(_real(val[0], what), _real(val[1], what))


# ------------------------------------------------------------------ reports

def classified_equilibria(csys: ChartSystem) -> list:
    recs = find_equilibria(csys, "All")
    recs = [classify_spectrum(csys, r) for r in recs]
    # a total order on the location, so --eq indices never depend on the
    # order in which the root finder returns a conjugate pair
    recs.sort(key=lambda r: (r.chart, round(r.location[1].real, 9), round(r.location[1].imag, 9),
                             round(r.location[0].real, 9), round(r.location[0].imag, 9)))
    return recs


def cmd_classify(args) -> None:
    csys, meta, _ = resolve_system(args.system)
    recs = classified_equilibria(csys)
    rows = [asdict(r) for r in recs]
    if args.small_divisors:
        for rec, row in zip(recs, rows):
            if rec.eigenvalues is not None and rec.domain != "Degenerate":
                row["small_divisor_scan"] = small_divisor_scan(rec.eigenvalues, args.small_divisor_order)
    _emit(args, {"system": meta, "equilibria": rows})


def _csv(c: complex) -> str:
    return f"{c.real:.17g},{c.imag:.17g}"


def cmd_integrate(args) -> None:
    csys, _, _ = resolve_system(args.system)
    path = load_path_file(args.path)
    start = _parse_start(args.start)
    cfg = IntegrationConfig(rel_tol=args.rel_tol, abs_tol=args.abs_tol)
    traj = integrate_path(csys, args.chart, start, path, cfg)
    lines = ["s,re_t,im_t,chart,re_c1,im_c1,re_c2,im_c2"]
    for smp in traj.samples:
        lines.append(f"{smp.s:.17g},{_csv(smp.t)},{smp.chart},{_csv(smp.coords[0])},{_csv(smp.coords[1])}")
    _emit(args, "\n".join(lines) + "\n")
    if traj.terminated_reason in (Termination.STEP_UNDERFLOW, Termination.DIVERGED):
        raise FlowError(f"integration terminated: {traj.terminated_reason.value}")


def _reals(text: str, flag: str) -> list[float]:
    try:
        vals = [float(v) for v in text.split(",")]
    except ValueError:
        vals = [math.nan]
    if not all(math.isfinite(v) for v in vals):
        raise CliValidationError(f"{flag} {text!r} is not a comma-separated list of finite reals")
    return vals


def _parse_start(text: str) -> tuple[complex, complex]:
    bits = _reals(text, "--start")
    if len(bits) == 2:
        return complex(bits[0], 0.0), complex(bits[1], 0.0)
    if len(bits) == 4:
        return complex(bits[0], bits[1]), complex(bits[2], bits[3])
    raise CliValidationError("--start needs 2 or 4 comma-separated reals")


def _select_equilibrium(args) -> tuple:
    """Chart system, ``--eq`` record, report head and suggested start of ``args.system``."""
    csys, meta, suggested_start = resolve_system(args.system)
    recs = classified_equilibria(csys)
    if not (0 <= args.eq < len(recs)):
        raise CliValidationError(f"--eq index {args.eq} outside 0..{len(recs) - 1}")
    rec = recs[args.eq]
    return csys, rec, {"system": meta, "equilibrium": asdict(rec)}, suggested_start


def cmd_holonomy(args) -> None:
    csys, rec, head, _ = _select_equilibrium(args)
    _emit(args, {**head, **asdict(holonomy_multiplier(csys, rec, base_radius=args.radius))})


def cmd_detour(args) -> None:
    csys, rec, head, suggested_start = _select_equilibrium(args)
    start = _parse_start(args.start) if args.start else suggested_start
    if start is None:
        raise CliValidationError("need --start: this system suggests no detour start")
    # the loop runs at these tolerances; masuda_detour caps its step and sets its own ball
    cfg = IntegrationConfig(rel_tol=1e-12, abs_tol=1e-14, singularity_radius=args.ball)
    approach = approach_blowup(csys, start, rec, horizon=args.horizon, cfg=cfg)
    report = masuda_detour(csys, rec, approach, loop_radius=args.radius, cycles=args.cycles, cfg=cfg)
    doc = {**head, **asdict(report)}
    if report.closed and args.star:
        doc["star"] = blowup_star(csys, report)
    _emit(args, doc)


def cmd_linearize(args) -> None:
    csys, rec, head, _ = _select_equilibrium(args)
    tr = poincare_linearize(csys, rec, order_N=args.order)
    _emit(args, {
        **head,
        "order_N": tr.order_N,
        "eigenvalues": tr.eigenvalues,
        "forward": [_poly_rows(p) for p in tr.components],
        "inverse": [_poly_rows(p) for p in tr.inverse_components],
        "min_divisor": tr.min_divisor,
        "max_coefficient": tr.max_coefficient,
        "residual": conjugacy_residual(tr, ball_radius=args.ball_radius),
    })


def _poly_rows(p: BivariatePolynomial) -> list:
    return [[j, k, float(c.real), float(c.imag)] for (j, k), c in sorted(p.terms.items())]


def cmd_pendulum(args) -> None:
    coeffs = _reals(args.g, "--g")
    _emit(args, {"force_coefficients": coeffs, **pendulum_loop_windings(coeffs, loop_radius=args.radius)})


def cmd_trees(args) -> None:
    if args.max_m < 2:
        raise CliValidationError("--max-m must be at least 2")
    _emit(args, {"counts": [{"m": m, "count": tree_count(m)} for m in range(2, args.max_m + 1)]})


def cmd_catalog(args) -> None:
    if args.action == "list":
        _emit(args, {"names": catalog_names()})
        return
    if not args.name:
        raise CliValidationError("catalog show needs a name")
    params = _parse_params(kv.partition("=")[::2] for kv in args.params.split(",") if kv)
    entry = catalog_get(args.name, params)
    if isinstance(entry.system, PolynomialHamiltonian):
        system = {"H": _poly_rows(entry.system.H), "level": entry.system.level_c}
    else:
        system = {"f": _poly_rows(entry.system.f), "g": _poly_rows(entry.system.g)}
    _emit(args, {
        "name": entry.name,
        "parameters": entry.parameters,
        "system": system,
        "expected": entry.expected,
        "citation": entry.citation,
    })


# ----------------------------------------------------------------- portraits

# at 40 or more samples per seed, already about 4e6 samples
_MAX_PORTRAIT_SEEDS = 10**5


@dataclass(frozen=True)
class PortraitSpec:
    """A checked portrait: what ``sample_portrait`` integrates and how its SVG is drawn."""

    chart: str
    path: TimePath
    seeds: tuple[tuple[complex, complex], ...]
    cfg: IntegrationConfig
    stroke: str

    def __post_init__(self):
        if self.chart not in Chart.ALL:
            raise CliValidationError(f"unknown chart {self.chart!r}")
        if not isinstance(self.stroke, str) or any(c in self.stroke for c in "<>&\"'"):
            raise CliValidationError("styling.stroke must be a string without <, >, &, or quotes")


def load_portrait_spec(path: str) -> PortraitSpec:
    doc = _read_json(path, "portrait spec")
    if not isinstance(doc, dict):
        raise CliValidationError("portrait spec must hold a JSON object")
    for key in ("chart", "grid", "time_direction", "horizon"):
        if key not in doc:
            raise CliValidationError(f"portrait spec is missing {key!r}")
    horizon = _real(doc["horizon"], "horizon")
    if not 0 < horizon < math.inf:
        raise CliValidationError("horizon must be finite and positive")
    tols = {key: _real(doc.get(key, default), key)
            for key, default in (("rel_tol", 1e-9), ("abs_tol", 1e-11), ("max_step", 0.05))}
    grid = doc["grid"]
    if not (isinstance(grid, dict) and all(isinstance(grid.get(a), list) and len(grid[a]) == 3 for a in ("re", "im"))):
        raise CliValidationError("grid needs re and im as [from, to, count] triples")
    (re0, re1, n_re), (im0, im1, n_im) = grid["re"], grid["im"]
    for val in (re0, re1, n_re, im0, im1, n_im):
        _real(val, "grid")
    coordinate = grid.get("coordinate", "first")
    if coordinate not in ("first", "second"):
        raise CliValidationError("grid.coordinate must be first or second")
    styling = doc.get("styling", {})
    if not isinstance(styling, dict):
        raise CliValidationError("styling must be an object")

    direction = doc["time_direction"]
    if direction == "Real":
        end = complex(horizon, 0.0)
    elif direction == "Imaginary":
        end = complex(0.0, horizon)
    elif isinstance(direction, dict) and "Ray" in direction:
        end = horizon * cmath.exp(1j * _real(direction["Ray"], "time_direction.Ray"))
    else:
        raise CliValidationError("time_direction must be Real, Imaginary, or {\"Ray\": angle}")

    if not all(n >= 1 and float(n).is_integer() for n in (n_re, n_im)):
        raise CliValidationError("grid counts must be whole numbers of at least 1")
    if n_re * n_im > _MAX_PORTRAIT_SEEDS:  # refused before any seed exists
        raise CliValidationError(f"grid has more than {_MAX_PORTRAIT_SEEDS} seeds")
    fixed = _pair(grid.get("fixed", [0.0, 0.0]), "grid.fixed")
    seeds = []
    for i in range(int(n_re)):
        re = re0 if n_re == 1 else re0 + (re1 - re0) * i / (n_re - 1)
        for j in range(int(n_im)):
            im = im0 if n_im == 1 else im0 + (im1 - im0) * j / (n_im - 1)
            moving = complex(re, im)
            seeds.append((moving, fixed) if coordinate == "first" else (fixed, moving))
    return PortraitSpec(doc["chart"], TimePath.from_points([0.0, end]), tuple(seeds),
                        IntegrationConfig(**tols), styling.get("stroke", "#1f6fb2"))


def sample_portrait(csys: ChartSystem, spec: PortraitSpec) -> tuple[list[dict], str]:
    """Integrate every grid seed; returns per-seed polylines and an SVG body.

    Seeds run one after another and results come back in seed order, each
    with the reason its integration stopped.
    """
    results = []
    for idx, seed in enumerate(spec.seeds):
        traj = integrate_path(csys, spec.chart, seed, spec.path, spec.cfg)
        pts = [(smp.coords[0], smp.coords[1], smp.chart) for smp in traj.samples]
        results.append({"seed": idx, "status": traj.terminated_reason.value, "points": pts})
    return results, _portrait_svg(results, spec)


def _portrait_svg(results: list[dict], spec: PortraitSpec) -> str:
    """Plain SVG: one polyline of the moving coordinate per seed, plus axes."""
    width, height = 640, 640
    xs, ys = [], []
    for res in results:
        for c1, c2, chart in res["points"]:
            if chart == spec.chart:
                xs.append(c1.real)
                ys.append(c1.imag)
    if not xs:
        xs, ys = [-1.0, 1.0], [-1.0, 1.0]
    lo_x, hi_x = min(xs), max(xs)
    lo_y, hi_y = min(ys), max(ys)
    span = max(hi_x - lo_x, hi_y - lo_y, 1e-9)
    pad = 0.05 * span

    def sx(v):
        return (v - lo_x + pad) / (span + 2 * pad) * width

    def sy(v):
        return height - (v - lo_y + pad) / (span + 2 * pad) * height

    parts = [f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}" viewBox="0 0 {width} {height}">']
    parts.append(f'<line x1="{sx(lo_x - pad):.2f}" y1="{sy(0):.2f}" x2="{sx(hi_x + pad):.2f}" y2="{sy(0):.2f}" stroke="#888" stroke-width="1"/>')
    parts.append(f'<line x1="{sx(0):.2f}" y1="{sy(lo_y - pad):.2f}" x2="{sx(0):.2f}" y2="{sy(hi_y + pad):.2f}" stroke="#888" stroke-width="1"/>')
    for res in results:
        pts = [(c1, c2) for c1, c2, chart in res["points"] if chart == spec.chart]
        if len(pts) < 2:
            continue
        coords = " ".join(f"{sx(c1.real):.2f},{sy(c1.imag):.2f}" for c1, _ in pts)
        parts.append(f'<polyline points="{coords}" fill="none" stroke="{spec.stroke}" stroke-width="1"/>')
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def cmd_portrait(args) -> None:
    csys, _, _ = resolve_system(args.system)
    spec = load_portrait_spec(args.portrait)
    results, svg = sample_portrait(csys, spec)
    stem = Path(args.output or "portrait")
    if not args.reproducible:
        svg = f"<!-- generated {datetime.datetime.now(datetime.timezone.utc).isoformat()} -->\n" + svg
    Path(f"{stem}.svg").write_text(svg)
    lines = ["seed,idx,chart,re_c1,im_c1,re_c2,im_c2"]
    for res in results:
        for i, (c1, c2, chart) in enumerate(res["points"]):
            lines.append(f'{res["seed"]},{i},{chart},{_csv(c1)},{_csv(c2)}')
    Path(f"{stem}.csv").write_text("\n".join(lines) + "\n")
    statuses = {}
    for res in results:
        statuses[res["status"]] = statuses.get(res["status"], 0) + 1
    print(dump_json({"seeds": len(results), "statuses": statuses,
                     "svg": f"{stem}.svg", "csv": f"{stem}.csv"}))


# --------------------------------------------------------------------- main

def _emit(args, doc) -> None:
    """Write a report, or the CSV text ``integrate`` makes, to ``--output`` or stdout."""
    text = doc if isinstance(doc, str) else dump_json(doc) + "\n"
    if args.output:
        Path(args.output).write_text(text)
    else:
        sys.stdout.write(text)


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="blowup", description=__doc__)
    sub = ap.add_subparsers(dest="command", required=True)

    def add_system(p):
        p.add_argument("system", help="JSON spec file or catalog:name?p=v")
        p.add_argument("--output", help="write the report here instead of stdout")

    p = sub.add_parser("classify", help="locate and classify all equilibria")
    add_system(p)
    p.add_argument("--small-divisors", action="store_true", dest="small_divisors")
    p.add_argument("--small-divisor-order", type=int, default=50)
    p.set_defaults(func=cmd_classify)

    p = sub.add_parser("integrate", help="follow a complex-time path")
    add_system(p)
    p.add_argument("--path", required=True, help="JSON path spec file")
    p.add_argument("--start", required=True, help="re,im,re,im (or re,re for real starts)")
    p.add_argument("--chart", default=Chart.XY, choices=list(Chart.ALL))
    p.add_argument("--rel-tol", type=float, default=1e-10, dest="rel_tol")
    p.add_argument("--abs-tol", type=float, default=1e-12, dest="abs_tol")
    p.set_defaults(func=cmd_integrate)

    p = sub.add_parser("holonomy", help="holonomy multiplier at an equilibrium")
    add_system(p)
    p.add_argument("--eq", type=int, required=True)
    p.add_argument("--radius", type=float, default=0.1)
    p.set_defaults(func=cmd_holonomy)

    p = sub.add_parser("detour", help="complex-time loop around a blow-up time")
    add_system(p)
    p.add_argument("--eq", type=int, required=True)
    p.add_argument("--cycles", type=int, required=True)
    p.add_argument("--radius", type=float, default=None)
    p.add_argument("--start", default=None)
    p.add_argument("--horizon", type=float, default=2.0)
    p.add_argument("--ball", type=float, default=0.05)
    p.add_argument("--star", action="store_true", help="append the blow-up star when closed")
    p.set_defaults(func=cmd_detour)

    p = sub.add_parser("linearize", help="formal diagonalization at an equilibrium")
    add_system(p)
    p.add_argument("--eq", type=int, required=True)
    p.add_argument("--order", type=int, default=8)
    p.add_argument("--ball-radius", type=float, default=0.1, dest="ball_radius")
    p.set_defaults(func=cmd_linearize)

    p = sub.add_parser("portrait", help="grid of trajectories as SVG + CSV")
    add_system(p)
    p.add_argument("--portrait", required=True, help="JSON portrait spec")
    p.add_argument("--reproducible", action="store_true")
    p.set_defaults(func=cmd_portrait)

    p = sub.add_parser("pendulum", help="blow-up loop windings of a pendulum force law")
    p.add_argument("--g", required=True, help="force coefficients, low to high, comma separated")
    p.add_argument("--radius", type=float, default=0.05)
    p.add_argument("--output")
    p.set_defaults(func=cmd_pendulum)

    p = sub.add_parser("trees", help="planar tree counts")
    p.add_argument("--max-m", type=int, required=True, dest="max_m")
    p.add_argument("--output")
    p.set_defaults(func=cmd_trees)

    p = sub.add_parser("catalog", help="built-in reference systems")
    p.add_argument("action", choices=["list", "show"])
    p.add_argument("name", nargs="?")
    p.add_argument("--params", default="")
    p.add_argument("--output")
    p.set_defaults(func=cmd_catalog)

    return ap


# argparse reads any word that starts with "-" as a flag unless it is a plain
# number, so a comma list such as "-6,0,6" is glued to its flag first
_COMMA_LIST_FLAGS = ("--g", "--start")


def _glue_comma_lists(argv: list[str]) -> list[str]:
    out: list[str] = []
    for word in argv:
        if out and out[-1] in _COMMA_LIST_FLAGS and re.match(r"-\.?\d", word):
            out[-1] += "=" + word
        else:
            out.append(word)
    return out


def run_command(argv: list[str]) -> int:
    """Entry point used by tests; returns the exit code."""
    ap = build_parser()
    try:
        args = ap.parse_args(_glue_comma_lists(argv))
    except SystemExit as err:
        return 2 if err.code not in (0, None) else 0
    try:
        args.func(args)
        return 0
    except (RuntimeError, ArithmeticError) as err:
        print(dump_json({"error": "numerical", "message": str(err)}), file=sys.stderr)
        return 3
    except (ValueError, LookupError) as err:
        print(dump_json({"error": "validation", "message": str(err)}), file=sys.stderr)
        return 2


def main() -> None:
    raise SystemExit(run_command(sys.argv[1:]))


if __name__ == "__main__":
    main()
