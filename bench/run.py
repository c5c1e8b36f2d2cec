"""Benchmark of the blowup CLI: seeded workloads checked against closed forms.

    python3 bench/run.py --workload detour --seed 1 --seconds 30 --trace 0

Run from the repository root.  Each job is one ``blowup`` command line run
in-process through ``blowup.cli.run_command``, one at a time (a closed loop
with one client and no threads).  The workload's job list is one pass; the
run repeats passes while another fits in ``--seconds``, always at least one.
Every report is parsed strictly, validated against its schema and checked
against its closed form; a job that fails any of that counts as failed.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` alternates
untraced and traced passes and prints the per-layer metrics of the traced
ones, plus the tracing overhead; the spans go to ``.bench_out/``.  The last
line of stdout is one JSON object: ``correct``, ``attempted``, ``failed``
and ``metrics`` (each a value with its unit).  Progress and failures go to
stderr.  See bench/README.md for the workloads and what each metric means.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import io
import json
import math
import os
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass
from pathlib import Path

import oracles
from reference import reference_chunk
from tracer import LAYER_UNITS, Tracer

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"

E2E_UNITS = {
    "setup_s": "s",
    "wall_s": "s",
    "job_p50_s": "s",
    "peak_rss_mb": "MB",
    "pass_frac": "frac",
    "oracle_margin_log10": "log10",
}

# A host that shares its cores drifts in speed: on a 2-core VM the same pass
# took 1.6 times as long in one half hour as in the next, and the same job
# ran 1.7 times slower for a second or two at a time.  So while the jobs of a
# --trace 0 run execute, a wall-clock timer interrupts each job PACE_FIRST_S
# after it starts and every PACE_INTERVAL_S after that, to time one fixed
# chunk of benchmark-owned work (bench/reference.py) with the collector off;
# the chunk's time is taken out of the job's time.  Each job's seconds are
# scaled by REFERENCE_CHUNK_S over the mean time of the chunks taken while it
# ran: seconds at the speed at which one chunk takes REFERENCE_CHUNK_S.  The
# chunks sample the host at moments set by the clock and never call the
# program, so the program cannot move the scale.  Set-up is timed in a fresh
# interpreter (bench/setup_probe.py) at least PROBES times, spread evenly over
# the run between jobs, each scaled by chunks timed in that interpreter.
REFERENCE_CHUNK_S = 0.02
PACE_FIRST_S = 0.05
PACE_INTERVAL_S = 0.25
PROBES = 16


class Pace:
    """Reference chunks timed on a wall-clock timer inside ``with pace:``
    blocks: PACE_FIRST_S after the block starts, then every PACE_INTERVAL_S."""

    def __init__(self):
        self.chunks: list[float] = []
        self.spent = 0.0  # seconds spent in the timer handler

    def _tick(self, signum, frame):
        began = time.perf_counter()
        collecting = gc.isenabled()
        gc.disable()
        try:
            self.chunks.append(reference_chunk())
        finally:
            if collecting:
                gc.enable()
            self.spent += time.perf_counter() - began

    def __enter__(self):
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, PACE_FIRST_S, PACE_INTERVAL_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)


@dataclass
class JobResult:
    seconds: float
    failure: str | None
    deviation: float | None
    output_bytes: int
    chunks: tuple[float, ...] = ()  # reference chunks timed while the job ran


def run_job(job, job_id: int, schemas, tracer=None, pace: Pace | None = None) -> JobResult:
    """Run one command line in-process, time it, then check its output."""
    from blowup.cli import run_command  # importable once main has found the sources

    out, err = io.StringIO(), io.StringIO()
    crash = None
    if tracer is not None:
        tracer.begin_job(job_id)
    chunks: tuple[float, ...] = ()
    paced, first_chunk = (pace.spent, len(pace.chunks)) if pace is not None else (0.0, 0)
    start = time.perf_counter()
    try:
        with pace or contextlib.nullcontext(), \
                contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = run_command(list(job.argv))
    except Exception as exc:  # a crash is this job's failure, not the run's
        code, crash = None, traceback.format_exception_only(exc)[-1].strip()
    finally:
        seconds = time.perf_counter() - start
        if pace is not None:
            chunks = tuple(pace.chunks[first_chunk:])
            seconds -= pace.spent - paced
        if tracer is not None:
            tracer.end_job()
    stdout = out.getvalue()
    output_bytes = len(stdout.encode()) + sum(os.path.getsize(f) for f in job.files if os.path.exists(f))
    failure, deviation = crash, None
    if failure is None and code != 0:
        failure = f"exit code {code}: {err.getvalue().strip()}"
    if failure is None:
        try:
            deviation = oracles.check(job, stdout, schemas)
        except oracles.OracleMiss as miss:
            failure = str(miss)
        if deviation is not None and not deviation <= 1.0:
            failure = f"closed-form deviation {deviation:.3g} times the tolerance"
    return JobResult(seconds, failure, deviation, output_bytes, chunks)


def run_pass(jobs, schemas, tracer=None, pace=None, between=None) -> list[JobResult]:
    """Run the job list once; ``between`` is called after each job, untimed."""
    results = []
    for i, job in enumerate(jobs):
        results.append(run_job(job, i, schemas, tracer, pace))
        if between is not None:
            between()
    for job, res in zip(jobs, results):
        if res.failure:
            print(f"FAILED {' '.join(job.argv)}: {res.failure}", file=sys.stderr)
    return results


def probe(systems: list) -> tuple[float, float]:
    """Set-up seconds and reference-chunk seconds, from a fresh interpreter."""
    script = Path(__file__).with_name("setup_probe.py")
    done = subprocess.run([sys.executable, str(script), str(SRC), json.dumps(systems)],
                          capture_output=True, text=True, timeout=120, check=True)
    timed = json.loads(done.stdout.strip().splitlines()[-1])
    return timed["setup_s"], timed["chunk_s"]


def pass_seconds(results: list[JobResult]) -> float:
    return sum(r.seconds for r in results)


def summary(passes: list[list[JobResult]]) -> tuple[int, int, float]:
    """Attempted jobs, failed jobs, and the oracle margin in decimal digits."""
    flat = [r for results in passes for r in results]
    failed = sum(1 for r in flat if r.failure)
    # with no closed-form deviation to read, claim no margin at all
    worst = max((r.deviation for r in flat if r.deviation is not None), default=1.0)
    return len(flat), failed, -math.log10(worst)


def repeat(seconds: float, one_pass):
    """Call one_pass until the next call would overrun the budget; at least once."""
    began, longest, results = time.perf_counter(), 0.0, []
    while True:
        pass_began = time.perf_counter()
        results.append(one_pass())
        longest = max(longest, time.perf_counter() - pass_began)
        if time.perf_counter() - began + longest > seconds:
            return results


def end_to_end(jobs, schemas, seconds: float, systems: list):
    began, pace, probes = time.perf_counter(), Pace(), []

    def between():
        # catching up after a long job keeps the probes inside the budget
        while len(probes) < PROBES and time.perf_counter() - began >= len(probes) * seconds / PROBES:
            probes.append(probe(systems))

    passes = repeat(seconds, lambda: run_pass(jobs, schemas, pace=pace, between=between))
    while len(probes) < PROBES:
        probes.append(probe(systems))
    attempted, failed, margin = summary(passes)
    # the chunk's time is two-valued as the host flips between its speeds, so
    # the mean, not the median, follows the share of time spent at each
    run_chunk = statistics.fmean(pace.chunks or [reference_chunk()])

    def scaled(r: JobResult) -> float:
        # a job is scaled by the chunks timed while it ran, since a slow spell
        # of the host lasts a second or more; one too short to be interrupted
        # is scaled by the run's mean
        return r.seconds * REFERENCE_CHUNK_S / statistics.fmean(r.chunks or [run_chunk])

    measured = {
        "wall_s": statistics.median(pass_seconds(p) for p in passes),
        "job_p50_s": statistics.median(r.seconds for p in passes for r in p),
        "setup_s": statistics.median(s for s, _ in probes),
    }
    metrics = {
        # each set-up time is scaled by the chunks timed in its own interpreter
        "setup_s": statistics.median(s * REFERENCE_CHUNK_S / c for s, c in probes),
        "wall_s": statistics.median(sum(scaled(r) for r in p) for p in passes),
        "job_p50_s": statistics.median(scaled(r) for p in passes for r in p),
    }
    print(f"as measured: {json.dumps(measured)}; chunk mean {run_chunk:.5f} s of {len(pace.chunks)}; "
          f"{len(probes)} set-up probes", file=sys.stderr)
    metrics.update({
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "pass_frac": 1.0 - failed / attempted,
        "oracle_margin_log10": margin,
    })
    return attempted, failed, {k: {"value": v, "unit": E2E_UNITS[k]} for k, v in metrics.items()}


def traced_pass(jobs, schemas):
    tracer = Tracer()
    tracer.install()
    try:
        results = run_pass(jobs, schemas, tracer)
    finally:
        tracer.uninstall()
    return results, tracer


def per_layer(jobs, schemas, seconds: float, trace_file: Path):
    pairs = repeat(seconds, lambda: (run_pass(jobs, schemas), *traced_pass(jobs, schemas)))
    plain = [p for p, _, _ in pairs]
    traced = [t for _, t, _ in pairs]
    tracers = [tr for _, _, tr in pairs]
    per_pass = [tr.layer_metrics() for tr in tracers]
    # counts repeat exactly from pass to pass, so the median is the count
    metrics = {name: {"value": statistics.median(m[name] for m in per_pass), "unit": unit}
               for name, unit in LAYER_UNITS.items()}
    metrics["cli.report_bytes"] = {"value": sum(r.output_bytes for r in traced[0]), "unit": "bytes"}
    overhead = (statistics.median(pass_seconds(p) for p in traced)
                / statistics.median(pass_seconds(p) for p in plain) - 1.0)
    metrics["trace.overhead_frac"] = {"value": overhead, "unit": "frac"}
    trace_file.parent.mkdir(parents=True, exist_ok=True)
    trace_file.write_text(json.dumps({"metrics": metrics, "first_traced_pass": tracers[0].dump()}))
    attempted, failed, _ = summary(plain + traced)
    return attempted, failed, metrics


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, help="detour, holonomy, portrait or linearize")
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True, help="measuring budget of the run")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (SRC / "blowup" / "cli.py").is_file() or not (ROOT / "schemas").is_dir():
        print(f"no blowup sources and schemas under {ROOT}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    os.environ.pop("BLOWUP_JOBS", None)  # the portrait job must run its seeds serially
    import blowup
    import workloads

    if Path(blowup.__file__).resolve().parent != SRC / "blowup":
        print(f"imported blowup from {blowup.__file__}, not from {SRC}", file=sys.stderr)
        return 2
    workdir = OUT / f"work-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        try:
            jobs = workloads.build(args.workload, args.seed, workdir)
        except ValueError as err:
            print(err, file=sys.stderr)
            return 2
        schemas = oracles.Schemas(ROOT / "schemas")
        if args.trace:
            trace_file = OUT / f"trace-{args.workload}-seed{args.seed}.json"
            attempted, failed, metrics = per_layer(jobs, schemas, args.seconds, trace_file)
            print(f"spans written to {trace_file}", file=sys.stderr)
        else:
            systems = workloads.catalog_systems(jobs)
            attempted, failed, metrics = end_to_end(jobs, schemas, args.seconds, systems)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
