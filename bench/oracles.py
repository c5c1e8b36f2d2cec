"""Report checks: strict JSON, schema validation, and closed-form oracles.

``check`` returns the job's normalised deviation, the worst closed-form
error divided by that job kind's tolerance (so above 1 is a miss), or None
for kinds whose oracle is exact (integer windings, an argmin).  Errors are
floored at double-precision epsilon first: below it they are roundoff, and
an exact 0 would say nothing about accuracy.  Any other miss raises
``OracleMiss`` with the reason.  Closed forms come from the job's
``expect`` map; nothing here calls into the program.
"""

from __future__ import annotations

import cmath
import csv
import json
import math
import sys
from pathlib import Path

from jsonschema import Draft202012Validator
from referencing import Registry, Resource

TOLERANCE = {
    "detour.closing": 1e-6,  # relative closure discrepancy; the CLI's own closure threshold
    "detour.jordan": 1e-6,  # relative error of each cycle's gap against 2 pi k |u0|
    "holonomy": 1e-6,  # |multiplier - exp(2 pi i lambda)|
    "portrait": 1e-7,  # chordal distance of the final point from the Moebius solution
    "linearize": 1e-9,  # relative error of the spectral quotient
    "classify": 1e-9,  # relative error of quotients and eigenvalues
}
SCHEMA = {
    "detour.closing": "detour_report",
    "detour.jordan": "detour_report",
    "detour.golden": "detour_report",
    "holonomy": "holonomy_estimate",
    "linearize": "transform_dump",
    "pendulum": "pendulum_report",
    "classify": "classification_report",
}
EPSILON = sys.float_info.epsilon
LOCATION_TOL = 1e-9
# inverse(forward(p)) = p up to terms of degree > N; at |p| = 0.05 and N >= 12
# the truncation error is far below this
IDENTITY_RADIUS = 0.05
IDENTITY_TOL = 1e-10
RESIDUAL_MAX = 1e-6  # conjugacy residual at the CLI's default ball radius 0.1
ROUNDOFF_FLOOR = 1e-14
PORTRAIT_HEADER = ["seed", "idx", "chart", "re_c1", "im_c1", "re_c2", "im_c2"]


class OracleMiss(Exception):
    """A report that is malformed or disagrees with its closed form."""


def strict_json(text: str):
    """Parse one JSON document, refusing the non-standard NaN and Infinity."""
    def refuse(token):
        raise OracleMiss(f"bare {token} in JSON output")
    try:
        return json.loads(text, parse_constant=refuse)
    except json.JSONDecodeError as err:
        raise OracleMiss(f"stdout is not one JSON document: {err}") from None


class Schemas:
    """Validators for the report schemas, resolving refs to defs.schema.json."""

    def __init__(self, schema_dir: Path):
        docs = {p.name.removesuffix(".schema.json"): json.loads(p.read_text())
                for p in schema_dir.glob("*.schema.json")}
        registry = Registry().with_resources(
            (doc["$id"], Resource.from_contents(doc)) for doc in docs.values())
        self._validators = {name: Draft202012Validator(doc, registry=registry)
                            for name, doc in docs.items()}

    def validate(self, name: str, doc) -> None:
        error = next(iter(self._validators[name].iter_errors(doc)), None)
        if error is not None:
            path = "/".join(str(p) for p in error.absolute_path)
            raise OracleMiss(f"{name} schema: {error.message} at /{path}")


def check(job, stdout: str, schemas: Schemas) -> float | None:
    doc = strict_json(stdout)
    if job.kind in SCHEMA:
        schemas.validate(SCHEMA[job.kind], doc)
    else:  # the portrait summary has no schema; its input spec does
        schemas.validate("portrait_spec", job.expect["spec"])
    error = _CHECKERS[job.kind](job, doc)
    return None if error is None else max(error, EPSILON) / TOLERANCE[job.kind]


def _expect_equal(what: str, got, want) -> None:
    if got != want:
        raise OracleMiss(f"{what}: got {got!r}, expected {want!r}")


def _c(pair) -> complex:
    return complex(pair[0], pair[1])


def _rel(got: complex, want: complex) -> float:
    return abs(got - want) / max(1.0, abs(want))


def _infinity_z(record: dict) -> complex:
    """UZ coordinate z of an equilibrium on the line at infinity (inf for w = 0)."""
    u, second = (_c(p) for p in record["location"])
    if record["chart"] not in ("UZ", "VW") or abs(u) > LOCATION_TOL:
        raise OracleMiss(f"equilibrium {record['chart']} {record['location']} is not at infinity")
    if record["chart"] == "UZ":
        return second
    return 1.0 / second if second != 0 else complex("inf")


def _lookup(roots: dict, z: complex):
    for key, value in roots.items():
        if cmath.isinf(key) or cmath.isinf(z):
            if cmath.isinf(key) and cmath.isinf(z):
                return value
        elif abs(z - key) <= LOCATION_TOL * max(1.0, abs(key)):
            return value
    raise OracleMiss(f"equilibrium at z = {z} is none of the closed-form roots {list(roots)}")


# ------------------------------------------------------------------ detour

def _detour_common(job, doc) -> None:
    _expect_equal("detour equilibrium", (doc["chart"], _infinity_z(doc["equilibrium"])), ("UZ", 0j))
    _expect_equal("cycles", doc["cycles"], job.expect["cycles"])
    _expect_equal("per-cycle discrepancies", len(doc["per_cycle_discrepancy"]), job.expect["cycles"])


def _check_closing(job, doc) -> float:
    _detour_common(job, doc)
    _expect_equal("closed", doc["closed"], True)
    _expect_equal("windings", doc["windings"], job.expect["windings"])
    early = doc["per_cycle_discrepancy"][:-1]
    if any(d <= doc["closure_threshold"] for d in early):
        raise OracleMiss(f"closed before cycle {job.expect['cycles']}: {early}")
    return doc["relative_discrepancy"]


def _check_jordan(job, doc) -> float:
    _detour_common(job, doc)
    _expect_equal("closed", doc["closed"], False)
    u0 = abs(_c(doc["start_state"][0]))
    gap = job.expect["gap"]
    errors = [abs(d / gap(k, u0) - 1.0) for k, d in enumerate(doc["per_cycle_discrepancy"], start=1)]
    return max(errors)


def _check_golden(job, doc) -> None:
    _detour_common(job, doc)
    _expect_equal("closed", doc["closed"], False)
    _expect_equal("w_t", doc["windings"]["w_t"], job.expect["cycles"])
    per_cycle = doc["per_cycle_discrepancy"]
    _expect_equal("best near-closure cycle", per_cycle.index(min(per_cycle)) + 1, job.expect["cycles"])


# ---------------------------------------------------------------- holonomy

def _check_holonomy(job, doc) -> float:
    lam = _lookup(job.expect["roots"], _infinity_z(doc["equilibrium"]))
    predicted = cmath.exp(2j * math.pi * lam)
    return abs(_c(doc["multiplier"]) - predicted)


# ---------------------------------------------------------------- portrait

def _grid_seeds(spec: dict) -> list[complex]:
    """Moving coordinates of the portrait grid, in the CLI's seed order."""
    (re0, re1, n_re), (im0, im1, n_im) = spec["grid"]["re"], spec["grid"]["im"]
    return [complex(re0 + (re1 - re0) * i / (n_re - 1), im0 + (im1 - im0) * j / (n_im - 1))
            for i in range(n_re) for j in range(n_im)]


def _end_time(spec: dict) -> complex:
    direction = spec["time_direction"]
    angle = 0.0 if direction == "Real" else direction["Ray"]
    return spec["horizon"] * cmath.exp(1j * angle)


def _chordal(a: tuple[complex, complex], b: tuple[complex, complex]) -> float:
    """Chordal distance of two points [p : q] of the Riemann sphere."""
    (p1, q1), (p2, q2) = a, b
    return abs(p1 * q2 - p2 * q1) / (math.hypot(abs(p1), abs(q1)) * math.hypot(abs(p2), abs(q2)))


def _projective_xy(chart: str, c1: complex, c2: complex):
    """x and y of a chart point, each as a pair [p : q] so infinity needs no division."""
    if chart == "XY":
        return (c1, 1.0), (c2, 1.0)
    if chart == "UZ":
        return (1.0, c1), (c2, c1)
    if chart == "VW":
        return (c2, c1), (1.0, c1)
    raise OracleMiss(f"unknown chart {chart!r} in portrait CSV")


def _riccati_xy(job, x0: complex, y0: complex, t: complex):
    """Closed-form riccati flow: (x - e1)/(x - e2) grows like exp(a (e1 - e2) t), y = y0 e^-t."""
    e1, e2 = job.expect["roots"]
    k = (x0 - e1) / (x0 - e2) * cmath.exp(job.expect["rate"] * t)
    return (e1 - e2 * k, 1.0 - k), (y0 * cmath.exp(-t), 1.0)


def _check_portrait(job, doc) -> float:
    spec = job.expect["spec"]
    seeds = _grid_seeds(spec)
    svg, csv_path = job.files
    _expect_equal("portrait summary", doc,
                  {"seeds": len(seeds), "statuses": {"Completed": len(seeds)}, "svg": svg, "csv": csv_path})
    svg_text = Path(svg).read_text()
    if not (svg_text.startswith("<svg") and svg_text.endswith("</svg>\n")):
        raise OracleMiss("SVG output is not one <svg> element")
    with open(csv_path, newline="") as fh:
        rows = csv.reader(fh)
        _expect_equal("CSV header", next(rows), PORTRAIT_HEADER)
        final = {int(row[0]): row for row in rows}
    _expect_equal("CSV seeds", sorted(final), list(range(len(seeds))))
    y0 = _c(spec["grid"]["fixed"])
    t = _end_time(spec)
    worst = 0.0
    for idx, x0 in enumerate(seeds):
        _, _, chart, *vals = final[idx]
        re1, im1, re2, im2 = map(float, vals)
        got_x, got_y = _projective_xy(chart, complex(re1, im1), complex(re2, im2))
        want_x, want_y = _riccati_xy(job, x0, y0, t)
        worst = max(worst, _chordal(got_x, want_x), _chordal(got_y, want_y))
    return worst


# --------------------------------------------------------------- linearize

def _evaluate_rows(rows: list, a: complex, b: complex) -> complex:
    return sum(complex(re, im) * a**j * b**k for j, k, re, im in rows)


def _min_divisor_bound(l1: complex, l2: complex, order: int) -> float:
    """Smallest |l_i - (a1 l1 + a2 l2)| over all 2 <= a1 + a2 <= order."""
    return min(abs(li - (a1 * l1 + (n - a1) * l2))
               for n in range(2, order + 1) for a1 in range(n + 1) for li in (l1, l2))


def _check_linearize(job, doc) -> float:
    order = job.expect["order"]
    _expect_equal("order_N", doc["order_N"], order)
    if "chart" in job.expect:
        _expect_equal("equilibrium chart", doc["equilibrium"]["chart"], job.expect["chart"])
    lam = _lookup(job.expect["roots"], _infinity_z(doc["equilibrium"]))
    l1, l2 = (_c(p) for p in doc["eigenvalues"])
    bound = _min_divisor_bound(l1, l2, order)
    if not (math.isfinite(doc["min_divisor"]) and doc["min_divisor"] >= bound * (1.0 - 1e-12)):
        raise OracleMiss(f"min_divisor {doc['min_divisor']} below the scanned bound {bound}")
    residuals = doc["residual"]["max_residuals"]
    if residuals[0] > RESIDUAL_MAX or any(b > max(a, ROUNDOFF_FLOOR) for a, b in zip(residuals, residuals[1:])):
        raise OracleMiss(f"conjugacy residuals do not fall with the ball radius: {residuals}")
    forward, inverse = doc["forward"], doc["inverse"]
    for k in range(8):
        p = (IDENTITY_RADIUS * cmath.exp(0.25j * math.pi * k), IDENTITY_RADIUS * cmath.exp(0.75j * math.pi * k + 0.5j))
        q = (_evaluate_rows(forward[0], *p), _evaluate_rows(forward[1], *p))
        back = (_evaluate_rows(inverse[0], *q), _evaluate_rows(inverse[1], *q))
        if max(abs(back[0] - p[0]), abs(back[1] - p[1])) > IDENTITY_TOL:
            raise OracleMiss(f"inverse does not undo the forward transform at {p}")
    return _rel(l1 / l2, lam)


def _check_pendulum(job, doc) -> None:
    _expect_equal("force_coefficients", doc["force_coefficients"], job.expect["force"])
    _expect_equal("windings", {k: doc[k] for k in job.expect["windings"]}, job.expect["windings"])
    _expect_equal("leaves", doc["leaves"], job.expect["leaves"])


def _check_classify(job, doc) -> float:
    records = job.expect["records"]
    at_infinity = [r for r in doc["equilibria"] if r["chart"] != "XY"]
    _expect_equal("equilibria at infinity", len(at_infinity), len(records))
    worst = 0.0
    for rec in at_infinity:
        want = _lookup(records, _infinity_z(rec))
        if rec.get("spectral_quotient") is None:
            raise OracleMiss(f"no spectral quotient at {rec['location']}")
        _expect_equal("semisimple", rec["semisimple"], want["semisimple"])
        worst = max(worst, _rel(_c(rec["spectral_quotient"]), want["quotient"]))
        if rec["chart"] == want["chart"]:
            for got, ev in zip(rec["eigenvalues"], want["eigenvalues"]):
                worst = max(worst, _rel(_c(got), ev))
    return worst


_CHECKERS = {
    "detour.closing": _check_closing,
    "detour.jordan": _check_jordan,
    "detour.golden": _check_golden,
    "holonomy": _check_holonomy,
    "portrait": _check_portrait,
    "linearize": _check_linearize,
    "pendulum": _check_pendulum,
    "classify": _check_classify,
}
