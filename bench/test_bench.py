"""Tests of the benchmark itself (not part of the tier-1 suite).

    python3 -m pytest bench -q

They run a few jobs of each workload with the oracles on, check that the
traced counts repeat exactly and fall where the layer table predicts, and
that tracing leaves the package exactly as it found it.
"""

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(ROOT / "src"))

import oracles  # noqa: E402
import run  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402

SEED = 0


@pytest.fixture(scope="module")
def schemas():
    return oracles.Schemas(ROOT / "schemas")


def one_per_kind(workload, tmp_path):
    """The smallest run of a workload that still exercises every oracle it has."""
    picked = {}
    for job in workloads.build(workload, SEED, tmp_path):
        picked.setdefault(job.kind, job)
    return list(picked.values())


def cheap(workload, tmp_path, names):
    return [job for job in workloads.build(workload, SEED, tmp_path) if job.catalog[0] in names]


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_smoke_with_oracles(workload, schemas, tmp_path):
    jobs = one_per_kind(workload, tmp_path)
    results = run.run_pass(jobs, schemas)
    assert [r.failure for r in results] == [None] * len(jobs)
    assert all(r.seconds > 0 for r in results)
    assert any(r.deviation is not None and 0 <= r.deviation <= 1 for r in results)


def test_job_lists_follow_the_seed(tmp_path):
    def inputs(workload, seed):
        """Every job's command line plus the JSON files it reads."""
        jobs = workloads.build(workload, seed, tmp_path)
        return tuple(job.argv + tuple(Path(a).read_text() for a in job.argv if a.endswith(".json"))
                     for job in jobs)

    for workload in workloads.WORKLOADS:
        assert inputs(workload, 3) == inputs(workload, 3)
        assert len({inputs(workload, seed) for seed in range(10)}) > 1
    golden = [job for job in workloads.build("detour", 3, tmp_path) if job.kind == "detour.golden"]
    assert [job.expect["cycles"] for job in golden] == [workloads.GOLDEN_CYCLES]


def test_pendulum_flag_keeps_negative_coefficients(tmp_path):
    pendulum = [job for job in workloads.build("linearize", SEED, tmp_path) if job.kind == "pendulum"]
    assert [job.argv[1] for job in pendulum] == ["--g=-6.0,0.0,6.0", "--g=0.0,-1.0,0.0,1.0"]


def test_bare_nan_fails_the_job(schemas):
    # linear_diag with l2 = -1.5 has no divisor to scan at order 4, and the
    # CLI prints min_divisor as a bare NaN
    job = workloads.Job("linearize", ("linearize", "catalog:linear_diag?l1=1&l2=-1.5", "--eq", "0",
                                      "--order", "4"), ("linear_diag", {}), {"order": 4, "roots": {}})
    assert "NaN" in run.run_job(job, 0, schemas).failure
    with pytest.raises(oracles.OracleMiss):
        oracles.strict_json('{"x": Infinity}')


@pytest.fixture(scope="module")
def traced_twice(schemas, tmp_path_factory):
    """Two traced passes each over cheap detour, holonomy and linearize jobs."""
    tmp = tmp_path_factory.mktemp("traced")
    subsets = {
        "detour": cheap("detour", tmp, {"scalar_poly"}),
        "holonomy": cheap("holonomy", tmp, {"linear_quotient"})[:1],
        "linearize": cheap("linearize", tmp, {"homogeneous", "weierstrass"}),
    }
    out = {}
    for name, jobs in subsets.items():
        out[name] = []
        for _ in range(2):
            results, tr = run.traced_pass(jobs, schemas)
            assert [r.failure for r in results] == [None] * len(jobs)
            out[name].append(tr.layer_metrics())
    return out


def test_traced_counts_repeat_exactly(traced_twice):
    for name, (first, second) in traced_twice.items():
        for metric in ("flow.accepted_steps", "flow.rhs_calls", "algebra.compose_calls",
                       "algebra.field_calls", "flow.samples_stored"):
            assert first[metric] == second[metric], (name, metric)


def test_layer_separation(traced_twice):
    detour, holonomy, linearize = (traced_twice[k][0] for k in ("detour", "holonomy", "linearize"))
    assert linearize["flow.accepted_steps"] == 0 and linearize["flow.rhs_calls"] == 0
    assert linearize["algebra.compose_calls"] > 0
    assert detour["algebra.compose_calls"] == 0
    assert detour["flow.accepted_steps"] > 0 and detour["flow.integrate_path_calls"] > 0
    assert holonomy["flow.continue_leaf_calls"] == 3 and holonomy["algebra.chart_point_calls"] == 0
    # every integrator step costs at least the seven Dormand-Prince stages
    for metrics in (detour, holonomy):
        assert metrics["flow.rhs_per_step"] >= 7


def _tracer_wrappers():
    found = []
    for mod_name, mod in list(sys.modules.items()):
        if mod_name == "blowup" or mod_name.startswith("blowup."):
            for owner in [mod, *(v for v in vars(mod).values() if isinstance(v, type))]:
                for key, val in vars(owner).items():
                    if "Tracer." in getattr(val, "__qualname__", ""):
                        found.append(f"{mod_name}.{key}")
    return found


def test_uninstall_restores_every_original(schemas, tmp_path):
    import blowup.algebra
    import blowup.cli
    import blowup.holonomy

    before = {
        "cli.integrate_path": blowup.cli.integrate_path,
        "holonomy.integrate_path": blowup.holonomy.integrate_path,
        "cli.masuda_detour": blowup.cli.masuda_detour,
        "field_call": vars(blowup.algebra.PlanarField)["__call__"],
        "poly_mul": vars(blowup.algebra.BivariatePolynomial)["__mul__"],
    }
    tr = tracer.Tracer()
    tr.install()
    try:
        assert blowup.cli.masuda_detour is not before["cli.masuda_detour"]
        assert blowup.holonomy.integrate_path is not before["holonomy.integrate_path"]
        assert _tracer_wrappers()
    finally:
        tr.uninstall()
    assert _tracer_wrappers() == []
    after = {
        "cli.integrate_path": blowup.cli.integrate_path,
        "holonomy.integrate_path": blowup.holonomy.integrate_path,
        "cli.masuda_detour": blowup.cli.masuda_detour,
        "field_call": vars(blowup.algebra.PlanarField)["__call__"],
        "poly_mul": vars(blowup.algebra.BivariatePolynomial)["__mul__"],
    }
    assert after == before


def test_untraced_pass_installs_nothing(schemas, tmp_path):
    run.run_pass(cheap("linearize", tmp_path, {"weierstrass"}), schemas)
    assert _tracer_wrappers() == []


def test_benchmark_json_names_every_metric():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.E2E_UNITS
    layer = dict(tracer.LAYER_UNITS, **{"cli.report_bytes": "bytes", "trace.overhead_frac": "frac"})
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == layer


def test_refuses_to_run_without_the_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    done = subprocess.run([sys.executable, "bench/run.py", "--workload", "detour", "--seed", "1",
                           "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=180)
    assert done.returncode != 0
    assert done.stdout.strip() == ""


def test_margin_reads_the_worst_deviation():
    results = [run.JobResult(1.0, None, 1e-8, 0), run.JobResult(1.0, None, None, 0),
               run.JobResult(1.0, "exit code 3", None, 0)]
    attempted, failed, margin = run.summary([results])
    assert (attempted, failed) == (3, 1)
    assert math.isclose(margin, 8.0)


def test_probe_times_set_up_and_the_chunk():
    setup_s, chunk_s = run.probe([["jordan_block", {}]])
    assert 0 < setup_s < 60 and 0 < chunk_s < 1


def test_chunks_run_a_fixed_count_and_restore_the_collector():
    import gc

    import reference

    assert len(reference.time_chunks(3)) == 3
    assert gc.isenabled()


def test_pace_times_chunks_only_inside_its_blocks():
    import signal
    import time

    pace = run.Pace()
    for _ in range(2):
        with pace:
            end = time.perf_counter() + 0.4
            while time.perf_counter() < end:
                pass
    assert len(pace.chunks) >= 2 and pace.spent >= sum(pace.chunks)
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    assert signal.getsignal(signal.SIGALRM) == signal.SIG_DFL
