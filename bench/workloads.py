"""Seeded job lists for the four benchmark workloads.

A workload is a list of ``blowup`` command lines, run one after another in
one process.  The seed picks parameters from small admissible sets whose
members cost about the same, so total work varies little from seed to seed
while the inputs do change.  Every job carries the closed-form expectations
its oracle needs, taken from the catalog's ``expected`` maps and
``galerkin_spectrum`` when the job is built, so checking a report never
calls back into the program.
"""

from __future__ import annotations

import json
import random
import urllib.parse
from dataclasses import dataclass
from pathlib import Path

from blowup.scenarios import catalog_get, galerkin_spectrum

WORKLOADS = ("detour", "holonomy", "portrait", "linearize")

# Admissible parameter sets.  Each was sized on the parent commit so that
# any draw costs within a few percent of any other.  Members are also chosen
# so that no job fails at that commit; bench/README.md lists the parameters
# left out for that reason and the defects they trip.
RATIONAL_PAIRS = ((3, 5), (4, 5), (5, 4))  # n1 < 2 n2: see README on (5, 2)
RATIONAL_Y0 = (0.15, 0.2, 0.25)
SCALAR_M = 3
SCALAR_X0 = (1.8, 2.0, 2.2)
JORDAN_CYCLES = 2
JORDAN_X0 = (1.8, 2.0, 2.2)
GOLDEN_CYCLES = 5  # a Fibonacci number: the best near-closure up to here
# holonomy work depends on gx (it sets every quotient) and hardly on fy
HOMOGENEOUS_FY = (0.5, 0.7, 1.0, 1.2)  # fy = 0.3 fails `linearize --order 14`
HOMOGENEOUS_GX = (3.0, 3.1)
# leaf-continuation work grows with |q| and does not depend on its sign
LINEAR_Q = (0.5, -0.5)
PORTRAIT_SHIFT = (-0.1, 0.0, 0.1)
PORTRAIT_IM = ((0.1, 1.9), (0.15, 2.0), (0.2, 2.1))
PORTRAIT_Y0 = ((0.4, 0.25), (0.5, -0.25), (0.6, 0.25))
# steeper rays change the work by up to 15% (more below the real axis)
PORTRAIT_DIRECTIONS = ("Real", {"Ray": 0.1}, {"Ray": -0.05})
PORTRAIT_GRID = 12
PORTRAIT_HORIZON = 2.0
GALERKIN_B = ((0.8, 0.0), (0.8, 0.5), (1.0, 0.0), (1.0, 0.5), (1.25, 0.0))
GALERKIN_ORDER = 13
GALERKIN_A = (1.5, 2.5, 3.0, 4.0)
HOMOGENEOUS_VW_ORDERS = (12, 14)


@dataclass(frozen=True)
class Job:
    """One ``blowup`` invocation and what its oracle expects of it.

    ``kind`` selects the checker.  ``catalog`` names the catalog system the
    job uses, so set-up can build it.  ``files`` are the output files the
    job writes besides stdout.
    """

    kind: str
    argv: tuple[str, ...]
    catalog: tuple[str, dict]
    expect: dict
    files: tuple[str, ...] = ()


def build(workload: str, seed: int, workdir: Path) -> list[Job]:
    """The job list of one pass; the same (workload, seed) gives the same jobs."""
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}; choose from {WORKLOADS}")
    rng = random.Random(f"{workload}:{seed}")
    return _BUILDERS[workload](rng, workdir)


def catalog_systems(jobs: list[Job]) -> list[tuple[str, dict]]:
    """Distinct catalog systems the jobs use, in first-use order."""
    seen: list[tuple[str, dict]] = []
    for job in jobs:
        if job.catalog not in seen:
            seen.append(job.catalog)
    return seen


def _uri(name: str, params: dict) -> str:
    return f"catalog:{name}?{urllib.parse.urlencode(params)}" if params else f"catalog:{name}"


def _start(x0: float, y0: float) -> str:
    return f"{x0!r},{y0!r}"


# ------------------------------------------------------------------ detour

def _detour(rng: random.Random, workdir: Path) -> list[Job]:
    jobs = []
    for n1, n2 in rng.sample(RATIONAL_PAIRS, 2):
        params = {"n1": n1, "n2": n2}
        exp = catalog_get("rational_node", params).expected
        cycles = exp["closure_cycles"]
        jobs.append(Job(
            "detour.closing",
            ("detour", _uri("rational_node", params), "--eq", "0", "--cycles", str(cycles),
             "--start", _start(2.0, rng.choice(RATIONAL_Y0))),
            ("rational_node", params),
            {"cycles": cycles, "windings": exp["windings"]},
        ))
    params = {"m": SCALAR_M}
    exp = catalog_get("scalar_poly", params).expected
    jobs.append(Job(
        "detour.closing",
        ("detour", _uri("scalar_poly", params), "--eq", "0", "--cycles", str(exp["detour_cycles"]),
         "--start", _start(rng.choice(SCALAR_X0), 0.0)),
        ("scalar_poly", params),
        {"cycles": exp["detour_cycles"], "windings": exp["windings"]},
    ))
    exp = catalog_get("jordan_block").expected
    jobs.append(Job(
        "detour.jordan",
        ("detour", _uri("jordan_block", {}), "--eq", "0", "--cycles", str(JORDAN_CYCLES),
         "--start", _start(rng.choice(JORDAN_X0), 0.0)),
        ("jordan_block", {}),
        {"cycles": JORDAN_CYCLES, "gap": exp["cycle_discrepancy"]},
    ))
    jobs.append(Job(
        "detour.golden",
        ("detour", _uri("golden_node", {}), "--eq", "0", "--cycles", str(GOLDEN_CYCLES)),
        ("golden_node", {}),
        {"cycles": GOLDEN_CYCLES},
    ))
    return jobs


# ---------------------------------------------------------------- holonomy

def _homogeneous_roots(fy: float, gx: float) -> dict[complex, complex]:
    """Infinity roots e (as UZ coordinates z = e) mapped to their quotients."""
    exp = catalog_get("homogeneous", {"fy": fy, "gx": gx}).expected
    return {complex(key): lam for key, lam in exp["holonomy_quotients"].items()}


def _holonomy(rng: random.Random, workdir: Path) -> list[Job]:
    params = {"fy": rng.choice(HOMOGENEOUS_FY), "gx": rng.choice(HOMOGENEOUS_GX)}
    roots = _homogeneous_roots(params["fy"], params["gx"])
    jobs = [
        Job("holonomy", ("holonomy", _uri("homogeneous", params), "--eq", str(eq)),
            ("homogeneous", params), {"roots": roots})
        for eq in range(len(roots))
    ]
    for q in rng.sample(LINEAR_Q, 2):
        params = {"q": q}
        exp = catalog_get("linear_quotient", params).expected
        jobs.append(Job("holonomy", ("holonomy", _uri("linear_quotient", params), "--eq", "0"),
                        ("linear_quotient", params), {"roots": {0j: exp["uz_quotient"]}}))
    return jobs


# ---------------------------------------------------------------- portrait

def _portrait(rng: random.Random, workdir: Path) -> list[Job]:
    shift = rng.choice(PORTRAIT_SHIFT)
    im0, im1 = rng.choice(PORTRAIT_IM)
    spec = {
        "chart": "XY",
        "grid": {
            "coordinate": "first",
            "re": [-2.5 + shift, 2.5 + shift, PORTRAIT_GRID],
            "im": [im0, im1, PORTRAIT_GRID],
            "fixed": list(rng.choice(PORTRAIT_Y0)),
        },
        "time_direction": rng.choice(PORTRAIT_DIRECTIONS),
        "horizon": PORTRAIT_HORIZON,
    }
    spec_path = workdir / "portrait_spec.json"
    spec_path.write_text(json.dumps(spec))
    stem = workdir / "portrait"
    exp = catalog_get("riccati").expected
    return [Job(
        "portrait",
        ("portrait", _uri("riccati", {}), "--portrait", str(spec_path), "--output", str(stem),
         "--reproducible"),
        ("riccati", {}),
        {"spec": spec, "roots": tuple(exp["equilibria_x"]), "rate": exp["eigenvalue_at_e1"]},
        files=(f"{stem}.svg", f"{stem}.csv"),
    )]


# --------------------------------------------------------------- linearize

def _asymmetric_roots(b1: float, b3: float) -> dict:
    """galerkin_spectrum records keyed by their UZ coordinate z (inf for w = 0)."""
    out = {}
    for rec in galerkin_spectrum("asymmetric", {"b1": b1, "b3": b3}):
        w = complex(rec["location_w"])
        out[1.0 / w if w != 0 else complex("inf")] = dict(rec, chart="VW")
    return out


def _symmetric_roots(a: float) -> dict:
    return {complex(rec["location_z"]): dict(rec, chart="UZ")
            for rec in galerkin_spectrum("symmetric", {"a": a})}


def _pendulum_force(name: str) -> list[float]:
    """Force g with H = y^2/2 - G(x), G' = g, read off the catalog Hamiltonian."""
    H = catalog_get(name).system.H
    degree = max(j for j, _ in H.terms)
    return [(-(j + 1) * H.terms.get((j + 1, 0), 0j)).real + 0.0 for j in range(degree)]


def _linearize(rng: random.Random, workdir: Path) -> list[Job]:
    b1, b3 = rng.choice(GALERKIN_B)
    asym = {"b1": b1, "b3": b3}
    asym_roots = _asymmetric_roots(b1, b3)
    jobs = [Job(
        "linearize",
        ("linearize", _uri("galerkin_asymmetric", asym), "--eq", "0", "--order", str(GALERKIN_ORDER)),
        ("galerkin_asymmetric", asym),
        {"order": GALERKIN_ORDER, "roots": {z: rec["quotient"] for z, rec in asym_roots.items()}},
    )]
    hom = {"fy": rng.choice(HOMOGENEOUS_FY), "gx": rng.choice(HOMOGENEOUS_GX)}
    roots = _homogeneous_roots(hom["fy"], hom["gx"])
    # equilibria 1 and 2 are the two VW-chart slopes: |e| > 1 for every draw
    for eq, order in zip((1, 2), HOMOGENEOUS_VW_ORDERS):
        jobs.append(Job(
            "linearize",
            ("linearize", _uri("homogeneous", hom), "--eq", str(eq), "--order", str(order)),
            ("homogeneous", hom),
            {"order": order, "roots": roots, "chart": "VW"},
        ))
    for name in ("weierstrass", "duffing"):
        exp = catalog_get(name).expected
        force = _pendulum_force(name)
        jobs.append(Job(
            "pendulum",
            # "--g=" keeps argparse from reading a leading minus sign as a flag
            ("pendulum", "--g=" + ",".join(repr(c) for c in force)),
            (name, {}),
            {"force": force, "windings": exp["pendulum_windings"], "leaves": exp["leaves"]},
        ))
    sym = {"a": rng.choice(GALERKIN_A)}
    for name, params, records in (("galerkin_asymmetric", asym, asym_roots),
                                  ("galerkin_symmetric", sym, _symmetric_roots(sym["a"]))):
        jobs.append(Job("classify", ("classify", _uri(name, params)), (name, params),
                        {"records": records}))
    return jobs


_BUILDERS = {
    "detour": _detour,
    "holonomy": _holonomy,
    "portrait": _portrait,
    "linearize": _linearize,
}
