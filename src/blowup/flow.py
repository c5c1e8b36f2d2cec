"""Integration of chart systems along paths in complex time.

Paths live in the plane of *original* time t.  Inside a blow-up chart the
polynomial field is divided pointwise by the Euler multiplier u^(m-1)
(resp. v^(m-1)), which is exactly the time transform dt = u^(m-1) dt1; this
keeps a single global clock while the state may hop between charts.  A
separate entry point integrates a chart system in its *own* rescaled time and
accumulates original time as an augmented variable, which is the natural
parametrization when relaxing onto a blow-up equilibrium.

The stepper is an embedded Dormand-Prince 5(4) pair with PI step-size
control, applied to the complex state viewed as four reals.

All three integrators march through ``_march(path, y0, cfg, rhs, on_step)``.
It walks the path one segment at a time, because corners are derivative
jumps: segment ``floor(s + 1e-9)`` runs up to its end, and the step
controller starts afresh at every corner.  Inside a segment both callbacks
see the global parameter ``s``, the state ``y``, the active segment and its
local parameter ``sigma``, clamped to [0, 1] because adaptive stages may
poke a rounding error past the corner, where the path velocity jumps.
``rhs(s, y, seg, sigma)`` returns dy/ds.  ``on_step(s, y, seg, sigma)`` runs
after every accepted step and returns ``None`` to go on, a ``Termination``
to stop there, or a replacement state (a chart switch), from which the march
restarts the step controller at the same ``s`` towards the same segment end.
``_march`` returns ``Termination.COMPLETED`` when the path is done, and
raises ``StepUnderflowError`` when the step collapses.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, field
from enum import Enum
from typing import Callable, Sequence

import numpy as np

from blowup.algebra import Chart, ChartSystem, chart_point

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
    "DivergedError",
    "NotClosedError",
    "TooCoarseError",
    "SectionTangencyError",
    "integrate_path",
    "integrate_chart_time",
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


class PathDiscontinuityError(FlowError):
    """Consecutive path segments do not join continuously."""


class StepUnderflowError(FlowError):
    """The adaptive step collapsed; an unavoidable singularity sits on the path."""


class DivergedError(FlowError):
    """State norm exceeded the divergence bound in every valid chart."""


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
        if self.radius <= 0:
            raise ValueError("arc radius must be positive")

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

    def locate(self, s: float) -> tuple[Segment, float]:
        """Segment and local parameter sigma in [0,1] for global parameter s."""
        n = len(self.segments)
        total = n * self.cycles
        s = min(max(s, 0.0), total)
        idx = min(int(s), total - 1)
        return self.segments[idx % n], s - idx

    def segment_at(self, index: int) -> Segment:
        """Segment for the unit interval [index, index+1] of the parameter."""
        n = len(self.segments)
        total = n * self.cycles
        if not (0 <= index < total):
            raise IndexError(f"segment index {index} outside [0, {total})")
        return self.segments[index % n]

    def point(self, s: float) -> complex:
        seg, sigma = self.locate(s)
        return seg.point(sigma)

    @staticmethod
    def from_points(points: Sequence[complex], cycles: int = 1) -> "TimePath":
        segs = tuple(Line(a, b) for a, b in zip(points, points[1:]))
        return TimePath(segs, cycles)

    @staticmethod
    def circle(center: complex, radius: float, start_angle: float = 0.0, cycles: int = 1) -> "TimePath":
        return TimePath(
            (Arc(center, radius, start_angle, start_angle + 2.0 * math.pi),),
            cycles,
        )


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
    def start(self) -> TrajectorySample:
        return self.samples[0]

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
        if self.max_step <= 0 or self.singularity_radius <= 0:
            raise ValueError("max_step and singularity_radius must be positive")


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


def _dp_step(f: Callable[[float, np.ndarray], np.ndarray], s: float, y: np.ndarray, h: float):
    """One embedded step; returns (y5, error_estimate, stages_used)."""
    k = []
    for i in range(7):
        yi = y.copy()
        for j, a in enumerate(_DP_A[i]):
            yi = yi + h * a * k[j]
        k.append(f(s + _DP_C[i] * h, yi))
    y5 = y + h * sum(b * ki for b, ki in zip(_DP_B5, k))
    y4 = y + h * sum(b * ki for b, ki in zip(_DP_B4, k))
    return y5, y5 - y4


def _adaptive_run(
    f: Callable[[float, np.ndarray], np.ndarray],
    s0: float,
    s1: float,
    y0: np.ndarray,
    cfg: IntegrationConfig,
    callback: Callable[[float, np.ndarray], Termination | np.ndarray | None],
) -> tuple[Termination | np.ndarray | None, float, np.ndarray]:
    """March f from s0 to s1 with PI-controlled DP45 steps.

    ``callback(s, y)`` is invoked after every accepted step (it is
    responsible for recording state); any value but ``None`` stops the run.
    Returns that value, or ``None`` once s1 is reached, with the last
    accepted (s, y).  Raises StepUnderflowError when the step collapses
    below 1e-14 of the span.
    """
    span = s1 - s0
    s, y = s0, y0.copy()
    h = min(cfg.max_step, span / 10.0, span)
    prev_err = 1.0
    safety, order = 0.9, 4.0  # error-per-unit-step: controlled error is O(h^4)
    # the embedded difference cannot drop below roundoff of the state, so
    # steps whose scaled error reaches that floor are accepted regardless of
    # the per-unit-step demand (forced-short steps at segment ends hit this)
    roundoff_floor = 8.0 * np.finfo(float).eps / cfg.rel_tol
    while s < s1 - 1e-15 * max(span, abs(s1)):
        h = min(h, s1 - s, cfg.max_step)
        if h < _UNDERFLOW_FACTOR * span:
            raise StepUnderflowError(f"step underflow at s={s:.6g}")
        y_new, err_vec = _dp_step(f, s, y, h)
        scale = cfg.abs_tol + cfg.rel_tol * np.maximum(np.abs(y), np.abs(y_new))
        err_raw = float(np.sqrt(np.mean(np.abs(err_vec / scale) ** 2)))
        # error per unit step: accumulated error over the whole span then
        # tracks the tolerance proportionally, so halving rel_tol (at least)
        # halves the global drift
        err = err_raw / max(h, 1e-300)
        at_floor = err_raw <= roundoff_floor
        if err <= 1.0 or at_floor or h < 4 * _UNDERFLOW_FACTOR * span:
            s = s1 if (s1 - s) <= h * (1.0 + 1e-9) else s + h
            y = y_new
            verdict = callback(s, y)
            if verdict is not None:
                return verdict, s, y
            if at_floor:
                h *= 5.0
            else:
                # PI controller (0.7/order, 0.4/order exponents).
                growth = safety * err ** (-0.7 / order) * prev_err ** (0.4 / order) if err > 0 else 5.0
                h *= min(5.0, max(0.2, growth))
            prev_err = max(err, 1e-10)
        else:
            h *= max(0.1, safety * err ** (-1.0 / order))
    return None, s, y


def _march(
    path: TimePath,
    y0: np.ndarray,
    cfg: IntegrationConfig,
    rhs: Callable[[float, np.ndarray, Segment, float], np.ndarray],
    on_step: Callable[[float, np.ndarray, Segment, float], Termination | np.ndarray | None],
) -> Termination:
    """Integrate ``rhs`` along ``path`` segment by segment (contract in the module docstring)."""
    total = path.s_length
    s_now, state = 0.0, y0
    while s_now < total - 1e-12:
        idx = min(int(math.floor(s_now + 1e-9)), int(total) - 1)
        seg_end = min(idx + 1.0, total)
        seg = path.segment_at(idx)

        def f(s: float, y: np.ndarray) -> np.ndarray:
            return rhs(s, y, seg, min(max(s - idx, 0.0), 1.0))

        def callback(s: float, y: np.ndarray) -> Termination | np.ndarray | None:
            return on_step(s, y, seg, min(max(s - idx, 0.0), 1.0))

        verdict, s_stop, state = _adaptive_run(f, s_now, seg_end, state, cfg, callback)
        if isinstance(verdict, Termination):
            return verdict
        if verdict is None:
            s_now = seg_end  # corner reached; move on to the next segment
        else:
            s_now, state = s_stop, verdict
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

    def rhs(s: float, y: np.ndarray, seg: Segment, sigma: float) -> np.ndarray:
        tdot = seg.velocity(sigma)
        a, b = y[0], y[1]
        da, db = system.field(chart)(a, b)
        rho = system.euler_multiplier(chart, (a, b))
        return np.array([da * tdot / rho, db * tdot / rho])

    def on_step(s: float, y: np.ndarray, seg: Segment, sigma: float) -> Termination | np.ndarray | None:
        nonlocal chart
        coords = (complex(y[0]), complex(y[1]))
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
                samples.append(TrajectorySample(s, t, chart, new_coords))
                return np.array(new_coords, dtype=complex)
        if mag > _DIVERGE_NORM:
            # a chart holding the state below this bound would have won above
            return Termination.DIVERGED
        return None

    try:
        reason = _march(path, np.array(state, dtype=complex), cfg, rhs, on_step)
    except StepUnderflowError:
        reason = Termination.STEP_UNDERFLOW
    return Trajectory(tuple(samples), reason)


def integrate_chart_time(
    system: ChartSystem,
    chart: str,
    start_coords: tuple[complex, complex],
    path: TimePath,
    cfg: IntegrationConfig | None = None,
    t_start: complex = 0.0,
) -> Trajectory:
    """Integrate one chart system along a path in its *own* rescaled time.

    Original time is accumulated alongside the state through dt = rho dt1
    using the same Runge-Kutta stages (augmented system), so the recorded
    ``t`` carries the integrator's order of accuracy.  No chart switching:
    the caller asked for dynamics of this chart specifically.
    """
    cfg = cfg or IntegrationConfig()
    fld = system.field(chart)
    samples = [TrajectorySample(0.0, complex(t_start), chart, (complex(start_coords[0]), complex(start_coords[1])))]

    def rhs(s: float, y: np.ndarray, seg: Segment, sigma: float) -> np.ndarray:
        tau_dot = seg.velocity(sigma)
        a, b = y[0], y[1]
        da, db = fld(a, b)
        rho = system.euler_multiplier(chart, (a, b))
        return np.array([da * tau_dot, db * tau_dot, rho * tau_dot])

    def on_step(s: float, y: np.ndarray, seg: Segment, sigma: float) -> None:
        samples.append(TrajectorySample(s, complex(y[2]), chart, (complex(y[0]), complex(y[1]))))

    state = np.array([start_coords[0], start_coords[1], t_start], dtype=complex)
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
    system: ChartSystem,
    chart: str,
    base_loop: TimePath,
    fiber_start: complex,
    cfg: IntegrationConfig | None = None,
) -> dict:
    """Transport a fiber value along a loop in the base coordinate of a chart.

    The chart's second coordinate is the base, the first the fiber.  The leaf
    of the foliation satisfies d(fiber)/d(base) = field_fiber / field_base,
    which is independent of any time rescaling: Euler multipliers cancel in
    the quotient.  Returns the holonomy image of ``fiber_start`` together
    with the traced fiber samples.
    """
    cfg = cfg or IntegrationConfig()
    fld = system.field(chart)
    trace = [(0.0, complex(fiber_start))]

    def rhs(s: float, y: np.ndarray, seg: Segment, sigma: float) -> np.ndarray:
        d_fiber, d_base = fld(y[0], seg.point(sigma))
        if abs(d_base) < 1e-10 * max(abs(d_fiber), 1e-300):
            raise SectionTangencyError(f"base field vanished at s={s:.6g}")
        return np.array([d_fiber / d_base * seg.velocity(sigma)])

    def on_step(s: float, y: np.ndarray, seg: Segment, sigma: float) -> None:
        trace.append((s, complex(y[0])))

    _march(base_loop, np.array([fiber_start], dtype=complex), cfg, rhs, on_step)
    return {"fiber_end": trace[-1][1], "fiber_trace": tuple(trace)}
