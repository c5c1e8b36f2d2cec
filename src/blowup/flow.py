"""Integration of chart systems along paths in complex time.

Paths live in the plane of *original* time t.  Inside a blow-up chart the
polynomial field is divided pointwise by the Euler multiplier u^(m-1)
(resp. v^(m-1)), which is exactly the time transform dt = u^(m-1) dt1; this
keeps a single global clock while the state may hop between charts.

The stepper is the embedded Dormand-Prince 5(4) pair (Hairer, Norsett &
Wanner, *Solving ODEs I*, II.4-II.5) with PI step-size control, on a state
that is a tuple of Python ``complex`` throughout.  A step's raw error is the
RMS over complex components of |err| / (abs_tol + rel_tol * max(|y|, |y_new|)).
The controller sees one error measure, the raw error per unit step, where a
step shorter than the roundoff floor 8 eps / rel_tol is charged as one of
that length: the embedded error of any step carries roundoff of the state
at that level, so demanding less of a short step cannot be met.  A stage
that divides by zero or overflows counts as an infinite error.  The last
stage of an accepted step is the first stage of the next one (FSAL), and a
rejected attempt keeps its first stage, so a step costs 6 RHS calls.

One attempt is straight-line code, compiled once per state size (1 for
``continue_leaf``, 2 for ``integrate_path``): from the first stage it
evaluates the other six, and returns the new state, the raw error and the
seventh stage, which FSAL hands on.  Each sum is the tableau's arithmetic
in the tableau's order, term by term with zero weights included, so the
floats are those of applying the tableau with loops.

Both integrators, ``integrate_path`` and ``continue_leaf``, march through
``_march(path, y0, cfg, rhs, on_step)``, the only loop that takes steps: it
calls the compiled attempt and runs the step controller itself.  It walks
the path one segment at a time, because corners are derivative jumps: segment
``floor(s + 1e-9)`` runs up to its end, and the step controller starts
afresh at every corner.  Inside a segment both callbacks see the global
parameter ``s``, the state ``y``, the active segment and its local
parameter ``sigma``, clamped to [0, 1] because adaptive stages may poke a
rounding error past the corner, where the path velocity jumps.
``rhs(s, y, seg, sigma)`` returns dy/ds, and must be a pure function of
those arguments between ``on_step`` calls; ``on_step`` may change it only
when it returns a replacement state, because the stage reused by FSAL was
computed before ``on_step`` ran.  ``on_step(s, y, seg, sigma)`` runs after
every accepted step and returns ``None`` to go on, a ``Termination`` to stop
there, or a replacement state (a chart switch), from which the march
restarts the step controller at the same ``s`` towards the same segment
end.  ``_march`` returns ``Termination.COMPLETED`` when the path is done,
and raises ``StepUnderflowError`` when the step collapses.

``integrate_path`` takes a ``ChartSystem`` and a start chart, since it may
switch charts.  ``continue_leaf(fld, base_loop, fiber_start, cfg)`` takes
only the ``PlanarField`` it transports (first coordinate the fiber, second
the base, which follows ``base_loop``); it returns ``fiber_end`` and
``fiber_trace``, the ``(s, fiber)`` pairs of the start and of every accepted
step, and raises ``SectionTangencyError`` where the base field vanishes.
"""

from __future__ import annotations

import cmath
import functools
import math
import sys
from dataclasses import dataclass
from enum import Enum
from typing import Callable, Sequence

from blowup.algebra import Chart, ChartSystem, PlanarField, chart_point

__all__ = [
    "Line",
    "Arc",
    "TimePath",
    "TrajectorySample",
    "Trajectory",
    "Termination",
    "IntegrationConfig",
    "FlowError",
    "PathDiscontinuityError",
    "StepUnderflowError",
    "NotClosedError",
    "TooCoarseError",
    "SectionTangencyError",
    "integrate_path",
    "winding_number",
    "continue_leaf",
]

_JOIN_TOL = 1e-12
_CLOSED_TOL = 1e-9
_DIVERGE_NORM = 1e12
_SWITCH_THRESHOLD = 2.0  # leave a chart once a coordinate exceeds this
_UNDERFLOW_FACTOR = 1e-14


class FlowError(RuntimeError):
    pass


class PathDiscontinuityError(ValueError):
    """Consecutive path segments do not join continuously (bad input, like TimePath's other checks)."""


class StepUnderflowError(FlowError):
    """The adaptive step collapsed; an unavoidable singularity sits on the path."""


class NotClosedError(FlowError):
    """A curve handed to winding extraction does not close."""


class TooCoarseError(FlowError):
    """Winding extraction could not round to an integer reliably."""


class SectionTangencyError(FlowError):
    """The base field vanished along a leaf continuation loop."""


@dataclass(frozen=True)
class Line:
    start: complex
    end: complex

    def __post_init__(self):
        if not (cmath.isfinite(self.start) and cmath.isfinite(self.end)):
            raise ValueError(f"line ends must be finite, got {self.start!r} and {self.end!r}")

    def point(self, sigma: float) -> complex:
        return self.start + (self.end - self.start) * sigma

    def velocity(self, sigma: float) -> complex:
        return self.end - self.start

    @property
    def first(self) -> complex:
        return self.start

    @property
    def last(self) -> complex:
        return self.end


@dataclass(frozen=True)
class Arc:
    center: complex
    radius: float
    angle_from: float
    angle_to: float

    def __post_init__(self):
        if not 0.0 < self.radius < math.inf:  # also refuses NaN
            raise ValueError(f"arc radius must be finite and positive, got {self.radius!r}")
        if not (cmath.isfinite(self.center) and math.isfinite(self.angle_from) and math.isfinite(self.angle_to)):
            raise ValueError(f"arc centre and angles must be finite, got {self.center!r}, "
                             f"{self.angle_from!r} and {self.angle_to!r}")

    def point(self, sigma: float) -> complex:
        ang = self.angle_from + (self.angle_to - self.angle_from) * sigma
        return self.center + self.radius * cmath.exp(1j * ang)

    def velocity(self, sigma: float) -> complex:
        ang = self.angle_from + (self.angle_to - self.angle_from) * sigma
        return 1j * (self.angle_to - self.angle_from) * self.radius * cmath.exp(1j * ang)

    @property
    def first(self) -> complex:
        return self.point(0.0)

    @property
    def last(self) -> complex:
        return self.point(1.0)


Segment = Line | Arc
State = tuple[complex, ...]  # one Python complex per component


@dataclass(frozen=True)
class TimePath:
    """Piecewise-smooth curve in the complex time plane, traversed ``cycles`` times."""

    segments: tuple[Segment, ...]
    cycles: int = 1

    def __post_init__(self):
        if not self.segments:
            raise ValueError("path needs at least one segment")
        if self.cycles < 1:
            raise ValueError("cycles must be positive")
        object.__setattr__(self, "segments", tuple(self.segments))
        for prev, nxt in zip(self.segments, self.segments[1:]):
            if abs(prev.last - nxt.first) > _JOIN_TOL:
                raise PathDiscontinuityError(
                    f"segments do not join: {prev.last} vs {nxt.first}"
                )
        if self.cycles > 1 and not self.is_closed:
            raise PathDiscontinuityError("multi-cycle path must be closed")

    @property
    def is_closed(self) -> bool:
        return abs(self.segments[-1].last - self.segments[0].first) < _CLOSED_TOL

    @property
    def s_length(self) -> float:
        return float(len(self.segments) * self.cycles)

    def point(self, s: float) -> complex:
        """Time at global parameter ``s``, clamped to [0, s_length]."""
        n = len(self.segments)
        total = n * self.cycles
        s = min(max(s, 0.0), total)
        idx = min(int(s), total - 1)
        return self.segments[idx % n].point(s - idx)

    @staticmethod
    def from_points(points: Sequence[complex], cycles: int = 1) -> "TimePath":
        segs = tuple(Line(a, b) for a, b in zip(points, points[1:]))
        return TimePath(segs, cycles)

    @staticmethod
    def circle(center: complex, radius: float, cycles: int = 1) -> "TimePath":
        return TimePath((Arc(center, radius, 0.0, 2.0 * math.pi),), cycles)


class Termination(str, Enum):
    COMPLETED = "Completed"
    ENTERED_SINGULARITY_BALL = "EnteredSingularityBall"
    STEP_UNDERFLOW = "StepUnderflow"
    DIVERGED = "Diverged"


@dataclass(frozen=True)
class TrajectorySample:
    s: float
    t: complex
    chart: str
    coords: tuple[complex, complex]


@dataclass(frozen=True)
class Trajectory:
    samples: tuple[TrajectorySample, ...]
    terminated_reason: Termination

    @property
    def end(self) -> TrajectorySample:
        return self.samples[-1]


@dataclass(frozen=True)
class IntegrationConfig:
    rel_tol: float = 1e-10
    abs_tol: float = 1e-12
    max_step: float = 0.05
    singularity_radius: float = 1e-4

    def __post_init__(self):
        for name in ("rel_tol", "abs_tol"):
            v = getattr(self, name)
            if not (0.0 < v <= 1e-2):
                raise ValueError(f"{name} must lie in (0, 1e-2]")
        for name in ("max_step", "singularity_radius"):
            v = getattr(self, name)
            if not 0.0 < v < math.inf:  # also refuses NaN, on which the step controller never ends
                raise ValueError(f"{name} must be finite and positive, got {v!r}")


# Dormand-Prince RK5(4) tableau.
_DP_C = (0.0, 1 / 5, 3 / 10, 4 / 5, 8 / 9, 1.0, 1.0)
_DP_A = (
    (),
    (1 / 5,),
    (3 / 40, 9 / 40),
    (44 / 45, -56 / 15, 32 / 9),
    (19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729),
    (9017 / 3168, -355 / 33, 46732 / 5247, 49 / 176, -5103 / 18656),
    (35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84),
)
_DP_B5 = (35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84, 0.0)
_DP_B4 = (5179 / 57600, 0.0, 7571 / 16695, 393 / 640, -92097 / 339200, 187 / 2100, 1 / 40)


# error weights b5 - b4: the step's error straight from the stages, not as y5 - y4, which cancels
_DP_E = tuple(b5 - b4 for b5, b4 in zip(_DP_B5, _DP_B4))


@functools.cache
def _compile_attempt(n: int) -> Callable:
    """Straight-line code for one DP5(4) attempt on an ``n``-component state.

    ``attempt(s, y, h, k1, rhs, seg, idx, atol, rtol)`` evaluates stages 2-7,
    each at its local parameter clamped to [0, 1], and returns ``(y_new,
    err_raw, k7)``, where ``k7`` is dy/ds at ``(s + h, y_new)``.  Every sum
    is ``y_i + h * (0j + w1 * k1_i + w2 * k2_i + ...)`` over all weights of
    its tableau row, zeros included, and the error's mean square is summed
    from 0 in component order: the arithmetic of applying the tableau term
    by term, so the floats are the same.  The weights are bound as names,
    never formatted into the source.
    """
    values: list[float] = []

    def bind(row: Sequence[float]) -> list[str]:
        values.extend(row)
        return [f"w{i}" for i in range(len(values) - len(row), len(values))]

    def total(ws: list[str], i: int) -> str:
        return " + ".join(["0j"] + [f"{w} * k{j}_{i}" for j, w in enumerate(ws, start=1)])

    def unpack(var: str) -> str:
        return "".join(f"{var}_{i}, " for i in range(n)) + f"= {var}"

    comps = range(n)
    body = [unpack("y"), unpack("k1")]
    for j, (c, row) in enumerate(zip(_DP_C[1:], _DP_A[1:]), start=2):
        (cj,), ws = bind((c,)), bind(row)
        stage = "".join(f"y_{i} + h * ({total(ws, i)}), " for i in comps)
        body += [f"sc = s + {cj} * h",
                 "sg = sc - idx",  # clamped as min(max(sg, 0.0), 1.0) is, NaN included
                 f"k{j} = rhs(sc, ({stage}), seg, 0.0 if sg < 0.0 else 1.0 if sg > 1.0 else sg)",
                 unpack(f"k{j}")]
    b5, e = bind(_DP_B5), bind(_DP_E)
    body += [f"n_{i} = y_{i} + h * ({total(b5, i)})" for i in comps]
    squares = " + ".join(
        ["0"] + [f"(abs(0j + h * ({total(e, i)})) / (atol + rtol * max(abs(y_{i}), abs(n_{i})))) ** 2"
                 for i in comps])
    body += [f"return ({''.join(f'n_{i}, ' for i in comps)}), sqrt(({squares}) / {n}), k7"]
    src = "".join(
        [f"def bind(sqrt, {', '.join(f'w{i}' for i in range(len(values)))}):\n",
         "    def attempt(s, y, h, k1, rhs, seg, idx, atol, rtol):\n"]
        + [f"        {line}\n" for line in body]
        + ["    return attempt\n"]
    )
    namespace: dict = {}
    exec(src, namespace)
    return namespace["bind"](math.sqrt, *values)


def _march(
    path: TimePath,
    y0: State,
    cfg: IntegrationConfig,
    rhs: Callable[[float, State, Segment, float], State],
    on_step: Callable[[float, State, Segment, float], Termination | State | None],
) -> Termination:
    """Integrate ``rhs`` along ``path`` segment by segment (contract in the module docstring)."""
    total = path.s_length
    safety, order = 0.9, 4.0  # error-per-unit-step: controlled error is O(h^4)
    # no step's embedded error can drop below roundoff of the state, so a
    # step shorter than this is charged as one this long: forced-short steps
    # at segment ends, and every step at tight rel_tol, meet the tolerance
    # there without the error measure changing its meaning
    roundoff_floor = 8.0 * sys.float_info.epsilon / cfg.rel_tol
    attempt, atol, rtol = _compile_attempt(len(y0)), cfg.abs_tol, cfg.rel_tol
    s, y = 0.0, y0
    while s < total - 1e-12:
        idx = min(int(math.floor(s + 1e-9)), int(total) - 1)
        s1 = min(idx + 1.0, total)
        seg = path.segments[idx % len(path.segments)]
        span = s1 - s
        h = min(cfg.max_step, span / 10.0, span)
        prev_err = 1.0
        k1 = None  # dy/ds at (s, y): kept by a rejected attempt, and FSAL
        while s < s1 - 1e-15 * max(span, abs(s1)):
            h = min(h, s1 - s, cfg.max_step)
            if h < _UNDERFLOW_FACTOR * span:
                raise StepUnderflowError(f"step underflow at s={s:.6g}")
            try:
                if k1 is None:
                    k1 = rhs(s, y, seg, min(max(s - idx, 0.0), 1.0))
                y_new, err_raw, k7 = attempt(s, y, h, k1, rhs, seg, idx, atol, rtol)
            except (ZeroDivisionError, OverflowError):  # a stage hit a pole: an infinite error
                h *= 0.1
                continue
            # error per unit step: accumulated error over the whole span then
            # tracks the tolerance proportionally, so halving rel_tol (at least)
            # halves the global drift
            err = err_raw / max(h, roundoff_floor)
            if err <= 1.0 or h < 4 * _UNDERFLOW_FACTOR * span:
                snapped = (s1 - s) <= h * (1.0 + 1e-9)
                s = s1 if snapped else s + h
                y = y_new
                verdict = on_step(s, y, seg, min(max(s - idx, 0.0), 1.0))
                if isinstance(verdict, Termination):
                    return verdict
                if verdict is not None:
                    y = verdict  # chart switch: the controller restarts at this s
                    break
                # FSAL: the last stage is dy/ds at (s + h, y_new), unless s snapped
                k1 = None if snapped else k7
                # PI controller (0.7/order, 0.4/order exponents).
                growth = safety * err ** (-0.7 / order) * prev_err ** (0.4 / order) if err > 0 else 5.0
                h *= min(5.0, max(0.2, growth))
                prev_err = max(err, 1e-10)
            else:
                h *= max(0.1, safety * err ** (-1.0 / order))
        else:
            s = s1  # corner reached; the next segment starts afresh
    return Termination.COMPLETED


def _best_chart(coords: tuple[complex, complex], chart: str) -> tuple[str, tuple[complex, complex]]:
    """Chart in which the max coordinate magnitude is smallest."""
    best, best_coords = chart, coords
    best_mag = max(abs(coords[0]), abs(coords[1]))
    for cand in Chart.ALL:
        if cand == chart:
            continue
        try:
            mapped = chart_point(coords, chart, cand)
        except ZeroDivisionError:
            continue
        mag = max(abs(mapped[0]), abs(mapped[1]))
        if mag < best_mag and all(math.isfinite(abs(c)) for c in mapped):
            best, best_coords, best_mag = cand, mapped, mag
    return best, best_coords


def integrate_path(
    system: ChartSystem,
    start_chart: str,
    start_coords: tuple[complex, complex],
    path: TimePath,
    cfg: IntegrationConfig | None = None,
    designated_equilibrium: tuple[str, tuple[complex, complex]] | None = None,
) -> Trajectory:
    """Follow a path in original time t, switching charts as the state grows.

    In a blow-up chart the field is divided by the Euler multiplier (u^(m-1)
    or v^(m-1)), so the independent variable stays the path parameter of t
    throughout.  Stops early with ``EnteredSingularityBall`` when the state
    comes within ``cfg.singularity_radius`` of the designated equilibrium, or
    with ``Diverged`` when no chart keeps the state below 1e12.
    """
    cfg = cfg or IntegrationConfig()
    chart = start_chart
    state = (complex(start_coords[0]), complex(start_coords[1]))
    samples = [TrajectorySample(0.0, path.point(0.0), chart, state)]

    def bind(chart: str) -> tuple[PlanarField, int | None]:
        """The chart's field and Euler exponent (None in XY, where dt/d(chart time) is 1)."""
        return system.field(chart), None if chart == Chart.XY else system.euler_exponent

    fld, exponent = bind(chart)  # rebound at a chart switch

    def rhs(s: float, y: State, seg: Segment, sigma: float) -> State:
        tdot = seg.velocity(sigma)
        da, db = fld(*y)
        rho = 1.0 if exponent is None else y[0] ** exponent
        return da * tdot / rho, db * tdot / rho

    def on_step(s: float, coords: State, seg: Segment, sigma: float) -> Termination | State | None:
        nonlocal chart, fld, exponent
        t = seg.point(sigma)
        samples.append(TrajectorySample(s, t, chart, coords))
        if designated_equilibrium is not None:
            eq_chart, eq_pt = designated_equilibrium
            try:
                here = chart_point(coords, chart, eq_chart)
                if math.hypot(abs(here[0] - eq_pt[0]), abs(here[1] - eq_pt[1])) < cfg.singularity_radius:
                    return Termination.ENTERED_SINGULARITY_BALL
            except ZeroDivisionError:
                pass
        mag = max(abs(coords[0]), abs(coords[1]))
        if mag > _SWITCH_THRESHOLD:
            new_chart, new_coords = _best_chart(coords, chart)
            if new_chart != chart:
                chart = new_chart
                fld, exponent = bind(chart)
                samples.append(TrajectorySample(s, t, chart, new_coords))
                return new_coords
        if mag > _DIVERGE_NORM:
            # a chart holding the state below this bound would have won above
            return Termination.DIVERGED
        return None

    try:
        reason = _march(path, state, cfg, rhs, on_step)
    except StepUnderflowError:
        reason = Termination.STEP_UNDERFLOW
    return Trajectory(tuple(samples), reason)


def winding_number(curve: Sequence[complex], center: complex) -> int:
    """Signed number of turns of a closed sampled curve around ``center``.

    The continuous argument is accumulated sample to sample and divided by
    2*pi.  Demands endpoint gap < 1e-9 and a rounding residual < 0.05; the
    samples must also stay at least 10 local spacings away from the center so
    that no turn can hide between two samples.
    """
    pts = [complex(p) for p in curve]
    if len(pts) < 3:
        raise TooCoarseError("need at least 3 samples")
    if abs(pts[-1] - pts[0]) > 1e-9:
        raise NotClosedError(f"endpoint gap {abs(pts[-1] - pts[0]):.3g}")
    rel = [p - center for p in pts]
    dist = min(abs(r) for r in rel)
    if dist == 0.0:
        raise TooCoarseError("curve passes through the center")
    spacing = max(abs(b - a) for a, b in zip(pts, pts[1:]))
    if dist <= 10.0 * spacing / (2.0 * math.pi):
        # a full turn between adjacent samples would need |step| ~ 2 pi d;
        # require the sampling an order of magnitude finer than that
        raise TooCoarseError(f"sample spacing {spacing:.3g} too coarse at distance {dist:.3g}")
    total = 0.0
    for a, b in zip(rel, rel[1:]):
        total += cmath.phase(b / a)
    turns = total / (2.0 * math.pi)
    nearest = round(turns)
    if abs(turns - nearest) >= 0.05:
        raise TooCoarseError(f"winding residual {abs(turns - nearest):.3g}")
    return int(nearest)


def continue_leaf(
    fld: PlanarField,
    base_loop: TimePath,
    fiber_start: complex,
    cfg: IntegrationConfig | None = None,
) -> dict:
    """Transport a fiber value along a loop in the base coordinate of a field.

    The field's second coordinate is the base, the first the fiber.  The leaf
    of the foliation satisfies d(fiber)/d(base) = field_fiber / field_base,
    which is independent of any time rescaling: Euler multipliers cancel in
    the quotient, so a chart field is passed as it is.  Returns the holonomy
    image of ``fiber_start`` together with the traced fiber samples.
    """
    cfg = cfg or IntegrationConfig()
    fiber0 = complex(fiber_start)
    trace = [(0.0, fiber0)]

    def rhs(s: float, y: State, seg: Segment, sigma: float) -> State:
        d_fiber, d_base = fld(y[0], seg.point(sigma))
        if abs(d_base) < 1e-10 * max(abs(d_fiber), 1e-300):
            raise SectionTangencyError(f"base field vanished at s={s:.6g}")
        return (d_fiber / d_base * seg.velocity(sigma),)

    def on_step(s: float, y: State, seg: Segment, sigma: float) -> None:
        trace.append((s, y[0]))

    _march(base_loop, (fiber0,), cfg, rhs, on_step)
    return {"fiber_end": trace[-1][1], "fiber_trace": tuple(trace)}
