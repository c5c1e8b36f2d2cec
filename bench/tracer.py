"""Per-layer tracing of blowup, installed from outside the package.

``Tracer.install`` replaces each traced public function with a timing
wrapper in every ``blowup`` namespace that holds it (``blowup.cli`` and
``blowup.holonomy`` import ``integrate_path`` by name, for instance), and
methods on their class.  Ordinary functions record a span: name, start,
end, parent span and job.  Hot leaves (one RHS evaluation, one polynomial
product) only add to a count and a total time, and charge their time to the
enclosing span, so self times exclude them.  ``uninstall`` puts every
original object back.

``flow.rhs_calls`` counts ``PlanarField.__call__`` invoked directly inside
an integrator span: the integrators evaluate the field through that method
once per stage.  A change that evaluates the field some other way must say
so, because this count would then drop without any work being saved.
"""

from __future__ import annotations

import importlib
import sys
import time
from collections import Counter, defaultdict

# (span name, module, attribute path)
SPANS = (
    ("cli.resolve_system", "blowup.cli", "resolve_system"),
    ("cli.sample_portrait", "blowup.cli", "sample_portrait"),
    ("cli.dump_json", "blowup.cli", "dump_json"),
    ("scenarios.catalog_get", "blowup.scenarios", "catalog_get"),
    ("algebra.to_charts", "blowup.algebra", "to_charts"),
    ("algebra.compose", "blowup.algebra", "BivariatePolynomial.compose"),
    ("equilibria.find_equilibria", "blowup.equilibria", "find_equilibria"),
    ("equilibria.classify_spectrum", "blowup.equilibria", "classify_spectrum"),
    ("flow.integrate_path", "blowup.flow", "integrate_path"),
    ("flow.continue_leaf", "blowup.flow", "continue_leaf"),
    ("flow.winding_number", "blowup.flow", "winding_number"),
    ("holonomy.approach_blowup", "blowup.holonomy", "approach_blowup"),
    ("holonomy.masuda_detour", "blowup.holonomy", "masuda_detour"),
    ("holonomy.holonomy_multiplier", "blowup.holonomy", "holonomy_multiplier"),
    ("normalform.poincare_linearize", "blowup.normalform", "poincare_linearize"),
    ("normalform.conjugacy_residual", "blowup.normalform", "conjugacy_residual"),
    ("hamiltonian.pendulum_loop_windings", "blowup.hamiltonian", "pendulum_loop_windings"),
)
LEAVES = (
    ("algebra.field", "blowup.algebra", "PlanarField.__call__"),
    ("algebra.evaluate", "blowup.algebra", "evaluate"),
    ("algebra.chart_point", "blowup.algebra", "chart_point"),
    ("algebra.poly_mul", "blowup.algebra", "BivariatePolynomial.__mul__"),
)
INTEGRATORS = ("flow.integrate_path", "flow.continue_leaf")

# unit of every layer metric ``Tracer.layer_metrics`` reports
LAYER_UNITS = {
    "algebra.field_calls": "count",
    "algebra.field_s": "s",
    "algebra.ns_per_field_call": "ns",
    "algebra.evaluate_calls": "count",
    "algebra.evaluate_s": "s",
    "algebra.chart_point_calls": "count",
    "algebra.chart_point_s": "s",
    "algebra.compose_calls": "count",
    "algebra.compose_s": "s",
    "algebra.poly_mul_calls": "count",
    "algebra.poly_mul_s": "s",
    "algebra.to_charts_s": "s",
    "flow.integrate_path_calls": "count",
    "flow.integrate_path_s": "s",
    "flow.continue_leaf_calls": "count",
    "flow.continue_leaf_s": "s",
    "flow.us_per_step": "us",
    "flow.accepted_steps": "count",
    "flow.rhs_calls": "count",
    "flow.rhs_per_step": "calls/step",
    "flow.chart_switches": "count",
    "flow.samples_stored": "count",
    "flow.winding_number_s": "s",
    "holonomy.holonomy_multiplier_s": "s",
    "holonomy.masuda_detour_s": "s",
    "holonomy.approach_blowup_s": "s",
    "holonomy.cycles": "count",
    "normalform.poincare_linearize_s": "s",
    "normalform.conjugacy_residual_s": "s",
    "normalform.transform_terms": "count",
    "hamiltonian.pendulum_loop_windings_s": "s",
    "equilibria.find_equilibria_s": "s",
    "equilibria.classify_spectrum_s": "s",
    "equilibria.classify_calls": "count",
    "scenarios.catalog_get_s": "s",
    "cli.resolve_s": "s",
    "cli.sample_portrait_s": "s",
    "cli.dump_json_s": "s",
}


def _trajectory_counts(counts: Counter, traj) -> None:
    samples = traj.samples
    # a chart switch re-records the state at the same s in the new chart
    switches = sum(1 for a, b in zip(samples, samples[1:]) if b.s == a.s and b.chart != a.chart)
    counts["flow.chart_switches"] += switches
    counts["flow.accepted_steps"] += len(samples) - 1 - switches
    counts["flow.samples_stored"] += len(samples)


def _leaf_counts(counts: Counter, result: dict) -> None:
    counts["flow.accepted_steps"] += len(result["fiber_trace"]) - 1
    counts["flow.samples_stored"] += len(result["fiber_trace"])


def _detour_counts(counts: Counter, report) -> None:
    counts["holonomy.cycles"] += report.cycles


def _transform_counts(counts: Counter, tr) -> None:
    counts["normalform.transform_terms"] += sum(
        len(p.terms) for p in (*tr.components, *tr.inverse_components))


# counts read off the objects a traced function returns
RESULT_COUNTS = {
    "flow.integrate_path": _trajectory_counts,
    "flow.continue_leaf": _leaf_counts,
    "holonomy.masuda_detour": _detour_counts,
    "normalform.poincare_linearize": _transform_counts,
}


class _Open:
    __slots__ = ("id", "name", "start", "child_ns")

    def __init__(self, span_id: int, name: str, start: int):
        self.id, self.name, self.start, self.child_ns = span_id, name, start, 0


class Tracer:
    """Spans and leaf counters of one traced pass, kept in memory."""

    def __init__(self):
        self.spans: list[tuple[str, int, int, int, int]] = []  # name, start, end, parent, job
        self.self_ns: Counter = Counter()
        self.leaf_calls: Counter = Counter()
        self.leaf_ns: Counter = Counter()
        self.leaf_in_span: Counter = Counter()  # (enclosing span, leaf) -> outermost calls
        self.counts: Counter = Counter()
        self._stack: list[_Open] = []
        self._leaf_depth = 0
        self._job = -1
        self._next_id = 0
        self._patches: list[tuple[object, str, object]] = []

    # ------------------------------------------------------------ install

    def install(self) -> None:
        if self._patches:
            raise RuntimeError("tracer already installed")
        self._stack = [_Open(-1, "pass", time.perf_counter_ns())]
        for name, module, path in SPANS:
            self._patch(module, path, lambda fn, name=name: self._span_wrapper(name, fn))
        for name, module, path in LEAVES:
            self._patch(module, path, lambda fn, name=name: self._leaf_wrapper(name, fn))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def _patch(self, module: str, path: str, make) -> None:
        owner = importlib.import_module(module)
        *parents, attr = path.split(".")
        for part in parents:
            owner = getattr(owner, part)
        original = vars(owner)[attr]
        wrapper = make(original)
        if parents:  # a method: patch the class that defines it
            targets = [(owner, attr)]
        else:  # a function: patch every blowup module that imported it by name
            targets = [(mod, key) for mod_name, mod in list(sys.modules.items())
                       if mod_name == "blowup" or mod_name.startswith("blowup.")
                       for key, val in vars(mod).items() if val is original]
        for target, key in targets:
            self._patches.append((target, key, original))
            setattr(target, key, wrapper)

    # ----------------------------------------------------------- wrappers

    def begin_job(self, job_id: int) -> None:
        self._job = job_id
        self._push("job")

    def end_job(self) -> None:
        self._pop()

    def _push(self, name: str) -> None:
        self._stack.append(_Open(self._next_id, name, time.perf_counter_ns()))
        self._next_id += 1

    def _pop(self) -> None:
        end = time.perf_counter_ns()
        span = self._stack.pop()
        parent = self._stack[-1]
        duration = end - span.start
        parent.child_ns += duration
        self.self_ns[span.name] += duration - span.child_ns
        self.spans.append((span.name, span.start, end, parent.id, self._job))

    def _span_wrapper(self, name: str, fn):
        tracer = self
        counts_of = RESULT_COUNTS.get(name)

        def traced(*args, **kwargs):
            if any(s.name == name for s in tracer._stack):  # recursion, e.g. dump_json
                return fn(*args, **kwargs)
            tracer._push(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._pop()
            if counts_of is not None:
                t0 = time.perf_counter_ns()
                counts_of(tracer.counts, result)
                tracer._stack[-1].child_ns += time.perf_counter_ns() - t0  # not the caller's work
            return result

        return traced

    def _leaf_wrapper(self, name: str, fn):
        tracer = self
        clock = time.perf_counter_ns

        def traced(*args, **kwargs):
            depth = tracer._leaf_depth
            tracer._leaf_depth = depth + 1
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = clock() - t0
                tracer._leaf_depth = depth
                tracer.leaf_calls[name] += 1
                tracer.leaf_ns[name] += elapsed
                if not depth:
                    top = tracer._stack[-1]
                    top.child_ns += elapsed
                    tracer.leaf_in_span[top.name, name] += 1

        return traced

    # ------------------------------------------------------------ results

    def layer_metrics(self) -> dict[str, float]:
        """Per-layer numbers of the traced pass; ratios read 0 when their base is 0."""
        calls: Counter = Counter()
        inclusive: defaultdict = defaultdict(int)
        for name, start, end, _, _ in self.spans:
            calls[name] += 1
            inclusive[name] += end - start

        def s(ns: float) -> float:
            return ns / 1e9

        def ratio(num: float, den: float) -> float:
            return num / den if den else 0.0

        steps = self.counts["flow.accepted_steps"]
        rhs = sum(self.leaf_in_span[span, "algebra.field"] for span in INTEGRATORS)
        integrator_ns = sum(inclusive[span] for span in INTEGRATORS)
        return {
            "algebra.field_calls": self.leaf_calls["algebra.field"],
            "algebra.field_s": s(self.leaf_ns["algebra.field"]),
            "algebra.ns_per_field_call": ratio(self.leaf_ns["algebra.field"], self.leaf_calls["algebra.field"]),
            "algebra.evaluate_calls": self.leaf_calls["algebra.evaluate"],
            "algebra.evaluate_s": s(self.leaf_ns["algebra.evaluate"]),
            "algebra.chart_point_calls": self.leaf_calls["algebra.chart_point"],
            "algebra.chart_point_s": s(self.leaf_ns["algebra.chart_point"]),
            "algebra.compose_calls": calls["algebra.compose"],
            "algebra.compose_s": s(inclusive["algebra.compose"]),
            "algebra.poly_mul_calls": self.leaf_calls["algebra.poly_mul"],
            "algebra.poly_mul_s": s(self.leaf_ns["algebra.poly_mul"]),
            "algebra.to_charts_s": s(inclusive["algebra.to_charts"]),
            "flow.integrate_path_calls": calls["flow.integrate_path"],
            "flow.integrate_path_s": s(self.self_ns["flow.integrate_path"]),
            "flow.continue_leaf_calls": calls["flow.continue_leaf"],
            "flow.continue_leaf_s": s(self.self_ns["flow.continue_leaf"]),
            "flow.us_per_step": ratio(integrator_ns / 1e3, steps),
            "flow.accepted_steps": steps,
            "flow.rhs_calls": rhs,
            "flow.rhs_per_step": ratio(rhs, steps),
            "flow.chart_switches": self.counts["flow.chart_switches"],
            "flow.samples_stored": self.counts["flow.samples_stored"],
            "flow.winding_number_s": s(inclusive["flow.winding_number"]),
            "holonomy.holonomy_multiplier_s": s(self.self_ns["holonomy.holonomy_multiplier"]),
            "holonomy.masuda_detour_s": s(self.self_ns["holonomy.masuda_detour"]),
            "holonomy.approach_blowup_s": s(inclusive["holonomy.approach_blowup"]),
            "holonomy.cycles": self.counts["holonomy.cycles"],
            "normalform.poincare_linearize_s": s(self.self_ns["normalform.poincare_linearize"]),
            "normalform.conjugacy_residual_s": s(self.self_ns["normalform.conjugacy_residual"]),
            "normalform.transform_terms": self.counts["normalform.transform_terms"],
            "hamiltonian.pendulum_loop_windings_s": s(inclusive["hamiltonian.pendulum_loop_windings"]),
            "equilibria.find_equilibria_s": s(inclusive["equilibria.find_equilibria"]),
            "equilibria.classify_spectrum_s": s(inclusive["equilibria.classify_spectrum"]),
            "equilibria.classify_calls": calls["equilibria.classify_spectrum"],
            "scenarios.catalog_get_s": s(inclusive["scenarios.catalog_get"]),
            "cli.resolve_s": s(inclusive["cli.resolve_system"]),
            "cli.sample_portrait_s": s(self.self_ns["cli.sample_portrait"]),
            "cli.dump_json_s": s(inclusive["cli.dump_json"]),
        }

    def dump(self) -> dict:
        """Everything recorded, in a JSON-ready form."""
        return {
            "span_fields": ["name", "start_ns", "end_ns", "parent", "job"],
            "spans": [list(span) for span in self.spans],
            "self_ns": dict(self.self_ns),
            "leaves": {name: {"calls": self.leaf_calls[name], "ns": self.leaf_ns[name]}
                       for name in self.leaf_calls},
            "leaf_calls_by_span": {f"{span} > {leaf}": n for (span, leaf), n in self.leaf_in_span.items()},
            "counts": dict(self.counts),
        }
