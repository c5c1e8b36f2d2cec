"""Integration of chart systems along paths in complex time.

Paths live in the plane of *original* time t.  Inside a blow-up chart the
polynomial field is divided pointwise by the Euler multiplier u^(m-1)
(resp. v^(m-1)), which is exactly the time transform dt = u^(m-1) dt1; this
keeps a single global clock while the state may hop between charts.

The stepper is a Taylor series method (Corliss & Chang, "Solving ordinary
differential equations using Taylor series", ACM TOMS 8, 1982; Jorba & Zou,
"A software package for the numerical integration of ODEs by means of
high-order Taylor methods", Experimental Mathematics 14, 2005), on a state
that is a tuple of Python ``complex`` throughout.  Every field it meets is
y' = P(y) / D(y) with P polynomial: D is 1 in XY, the Euler multiplier
u^(m-1) in a blow-up chart, and the base field g in ``continue_leaf``,
where the base coordinate is the independent variable.  At each step the
coefficients of y(t0 + tau) = sum_k y_k tau^k follow from Cauchy products of
the state's series and the quotient recurrence q_k = (P_k - sum_(j>=1)
D_j q_(k-j)) / D_0, y_(k+1) = q_k / (k+1), at O(p^2) per product.  In a
blow-up chart the division is exact where u^(m-1) divides: each numerator
is split as P = u^(m-1) A + B, A's coefficients are Cauchy products only,
and B alone goes through the quotient recurrence.  F_u has no B (the line
at infinity is invariant), so u' is never divided.  The straight-line code
is compiled once per monomial structure and order, bound to a field's
coefficients on first use (``_series``), and kept on the ``PlanarField``
like its evaluator.

The order is p = ceil(-ln(rel_tol) / 2) + 1 (Jorba & Zou's rule; rel_tol
is taken no smaller than machine epsilon), and the last two coefficients
set the step with the error-per-unit-step meaning of a classical
controller: with weights 1 / (abs_tol + rel_tol |y_0|) and the RMS over
components, a step h in path parameter at path speed v = |dt/ds| is charged
||y_k|| (v h)^k for k = p-1 and p, each charge per unit step (divided by h)
is at most 1, and the step taken is 0.8 of the longest that passes.  No
step is rejected.  The step also ends at ``max_step`` and at the segment
end, and moves the state by evaluating the series at the chord
dt = path.point(s + h) - path.point(s): the solution is analytic, so inside
its disc of convergence the chord gives the value the arc would.  A pole at
the expansion point (a zero D_0 in a row that divides: the base field's
zero in ``continue_leaf``, or u = 0 in a blow-up chart when some row has a
remainder B) or coefficients that overflow end the march with
``StepUnderflowError``.

In the designated equilibrium's chart a step may carry the state at most
half its distance to that equilibrium, where the distance moved is bounded
by the majorant sum_(k>=1) |y_k| (v h)^k of each component: so no step
jumps over the singularity ball, and a run heading straight in covers at
most half the remaining distance per step until it is inside.

A ``TimePath`` is only its segments, each joined to the next within 1e-12
and the roundoff of evaluating a segment's end.  A loop run k times is its
segments repeated, ``TimePath(segments * k)`` (``TimePath.circle(...,
cycles=k)`` is k full arcs): the join from the end of one round to the
start of the next is checked like every other join, and the march meets it
as one more corner.

Every integrator marches through ``_march(path, y0, cfg, expand,
on_step)``, the only loop that takes steps.  It walks the path one segment
at a time, because corners are derivative jumps: segment ``floor(s +
1e-9)`` runs up to its end, and no step crosses a corner.
``expand(t, y)`` returns the series coefficients y_0 .. y_p of every
component, p the order ``cfg.rel_tol`` sets, at the path point ``t`` and
state ``y``, and ``reach``, the distance the state may move in this step
(``math.inf`` when nothing caps it).
``on_step(s, y, t)`` runs after every step with the global parameter
``s``, the state and the step's end time ``t``, the path point at ``s``;
the next step expands from that same ``t``, so the path is evaluated once
per step and once at the start of each segment.  It returns ``None`` to go
on, a ``Termination`` to stop there, or a replacement state (a chart
switch), from which the next step expands with whatever ``expand`` is then
bound to.  ``_march`` returns ``Termination.COMPLETED`` when the path is
done, and raises ``StepUnderflowError`` when the step collapses.

The step's own work is straight-line code as well, generated once per
component count and order (``_step_code``): the weighted sums of squares
of y_(p-1) and y_p that the step rule reads, each summed left to right from
0.0, and the Horner update of every component from 0j, the same floats as
the plain loops the tests compare them with.  ``_march`` binds them once
per march and works the step rule inline.

``integrate_path`` takes a ``ChartSystem`` and a start chart, since it may
switch charts.  ``continue_leaf(fld, base_loop, fiber_start, cfg)`` takes
only the ``PlanarField`` it transports (first coordinate the fiber, second
the base, which follows ``base_loop``); it returns ``fiber_end`` and
``fiber_trace``, the ``(s, fiber)`` pairs of the start and of every step
end, and raises ``SectionTangencyError`` where the base field vanishes.
``time_to_equilibrium`` runs a blow-up chart's field in its own time into
an equilibrium at infinity, and returns the original time that takes.
"""

from __future__ import annotations

import cmath
import functools
import math
import sys
from dataclasses import dataclass
from enum import Enum
from typing import Callable, NamedTuple, Sequence

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
    "time_to_equilibrium",
]

_JOIN_TOL = 1e-12
_DIVERGE_NORM = 1e12
_SWITCH_THRESHOLD = 2.0  # leave a chart once a coordinate exceeds this
_UNDERFLOW_FACTOR = 1e-14
_SAFETY = 0.8  # fraction of the step the tolerance allows that is taken
_ARRIVAL = 1e-14  # distance at which the chart-time flow has reached its equilibrium
_CLOCK_SPAN = 1e3  # chart time allowed for that, in units of 1 / |lambda_u|


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


Segment = Line | Arc
State = tuple[complex, ...]  # one Python complex per component
Monomials = tuple[tuple[int, int], ...]  # a polynomial's exponent pairs, in term order


@dataclass(frozen=True)
class TimePath:
    """Piecewise-smooth curve in the complex time plane; run k times, it is ``TimePath(segments * k)``."""

    segments: tuple[Segment, ...]

    def __post_init__(self):
        if not self.segments:
            raise ValueError("path needs at least one segment")
        object.__setattr__(self, "segments", tuple(self.segments))
        for prev, nxt in zip(self.segments, self.segments[1:]):
            end, start = prev.point(1.0), nxt.point(0.0)
            # beyond 1e-12, allow the roundoff of a line's end, start + (end - start), far from t = 0
            slack = 4.0 * sys.float_info.epsilon * max(abs(prev.point(0.0)), abs(end))
            if abs(end - start) > _JOIN_TOL + slack:
                raise PathDiscontinuityError(f"segments do not join: {end} vs {start}")

    def point(self, s: float) -> complex:
        """Time at global parameter ``s``, clamped to [0, number of segments]."""
        n = len(self.segments)
        s = min(max(s, 0.0), n)
        idx = min(int(s), n - 1)
        return self.segments[idx].point(s - idx)

    @staticmethod
    def from_points(points: Sequence[complex]) -> "TimePath":
        return TimePath(tuple(Line(a, b) for a, b in zip(points, points[1:])))

    @staticmethod
    def circle(center: complex, radius: float, cycles: int = 1) -> "TimePath":
        return TimePath((Arc(center, radius, 0.0, 2.0 * math.pi),) * cycles)


class Termination(str, Enum):
    COMPLETED = "Completed"
    ENTERED_SINGULARITY_BALL = "EnteredSingularityBall"
    STEP_UNDERFLOW = "StepUnderflow"
    DIVERGED = "Diverged"


class TrajectorySample(NamedTuple):
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
    """Tolerances and limits of one integration.

    ``rel_tol`` sets the series order, p = ceil(-ln(rel_tol) / 2) + 1.
    ``rel_tol`` and ``abs_tol`` together bound each step's last two series
    terms per unit of path parameter, measured against abs_tol + rel_tol
    |y| in each component (RMS over components): the truncation error a
    step may leave, not the global error, which accumulates over the path.
    ``max_step`` caps a step in path parameter (a fraction of a segment),
    and ``singularity_radius`` is the ball around a designated equilibrium
    that ends ``integrate_path``.
    """

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
            if not 0.0 < v < math.inf:  # also refuses NaN, on which the march never ends
                raise ValueError(f"{name} must be finite and positive, got {v!r}")


def _order(rel_tol: float) -> int:
    """Series order p = ceil(-ln(rel_tol) / 2) + 1; below machine epsilon no more terms can help."""
    return math.ceil(-math.log(max(rel_tol, sys.float_info.epsilon)) / 2.0) + 1


def _series(fld: PlanarField, order: int, kind: str, exponent: int | None = None) -> Callable:
    """The generated Taylor series of one of ``fld``'s flows, built on first use and kept on ``fld``.

    ``kind`` "path" is y' = (f, g) / x^exponent (no division when
    ``exponent`` is None), "leaf" is y' = f / g with the second coordinate
    the independent variable, and "clock" is (f, g) with a third component
    whose derivative is x^exponent.  ``series(state, t)`` returns, per state
    component, its coefficients y_0 .. y_order in powers of the increment of
    the independent variable, whose value is ``t``.

    A "path" numerator P with exponent e is split as P = x^e A + B: A holds
    the terms of x-degree e and above, lowered by e, and B the rest, so
    P / x^e = A + B / x^e.  A takes Cauchy products only; B alone goes
    through the quotient recurrence, and a row with no B divides nowhere,
    so a zero x at the expansion point is a pole only when some row has a
    B.  "leaf" divides all of f by g; "clock" and an undivided "path"
    divide nothing.
    """
    cache = fld.__dict__.setdefault("_series", {})
    key = (kind, exponent, order)
    if key not in cache:
        e = exponent or 0
        power = {(e, 0): 1 + 0j}
        if kind == "leaf":
            rows, denominator = [({}, fld.f.terms)], fld.g.terms
        elif kind == "clock":
            rows, denominator = [(fld.f.terms, {}), (fld.g.terms, {}), (power, {})], {}
        else:  # P = x^e A + B
            rows = [({(j - e, l): c for (j, l), c in p.terms.items() if j >= e},
                     {(j, l): c for (j, l), c in p.terms.items() if j < e}) for p in (fld.f, fld.g)]
            denominator = power
        keys = tuple((tuple(direct), tuple(divided)) for direct, divided in rows)
        bind = _series_code(keys, tuple(denominator), kind == "leaf", order)
        cache[key] = bind(*(c for row in rows for terms in row for c in terms.values()), *denominator.values())
    return cache[key]


def _component_degrees(rows: tuple[tuple[Monomials, Monomials], ...], base: bool) -> list[float]:
    """Polynomial degree in the increment of each state component's series, ``math.inf`` where unbounded.

    A row with no divided part whose monomials use only components of
    finite degree has degree (its largest monomial degree) + 1, and 0 with
    no monomials; the degrees are inferred to a fixed point from all
    unbounded.
    """
    degrees = [math.inf] * len(rows)
    while True:
        dx, dy = degrees[0], 1 if base else degrees[1]
        inferred = [math.inf if divided else
                    max(((j and j * dx) + (l and l * dy) for j, l in direct), default=-1) + 1
                    for direct, divided in rows]
        if inferred == degrees:
            return degrees
        degrees = inferred


@functools.cache
def _series_code(rows: tuple[tuple[Monomials, Monomials], ...], denominator: Monomials, base: bool,
                 order: int) -> Callable:
    """Straight-line code for the Taylor coefficients of y' = A + B / D per row, as a function of their coefficients.

    ``rows`` holds, per state component, the monomials of its direct part A
    and of its divided part B; ``denominator`` the monomials of D.  The
    coefficients are bound in that order: each row's A then B, then D.  The
    polynomials are in (x, y): the first two state components, or, with
    ``base``, the first component and the independent variable itself, whose
    series is (t, 1).  Components past the second are quadratures, which
    appear in no polynomial.  Per order k, in this order:

    - each power x^j = x^(j-1) * x, y^l = y^(l-1) * y and product
      x^j * y^l is the Cauchy sum over i = 0 .. k of a_i * b_(k-i), left
      to right; in a square (x^2, y^2) the product a_i * a_(k-i) is the
      same float as its mirror a_(k-i) * a_i, so it is formed once, for
      i < k / 2, and read twice;
    - D_k, when some row has a B, then per row A_k and B_k, each the sum of
      c * (monomial)_k in the polynomial's term order;
    - r_k = (B_k - sum_(j=1..k) D_j r_(k-j)) / D_0 for a row with a B,
      q_k = A_k + r_k (either alone when the other part is empty), and
      y_(k+1) = q_k / (k + 1).

    Terms that are zero by degree are left out: the base past degree 1,
    a component whose row divides nothing and uses only components of
    finite degree past its own (``_component_degrees``), products of
    these past the sum of their degrees, D past its degree, and the
    constant past order 0.  A factor 1 is not multiplied either: neither
    changes a finite float.  The coefficients are bound as names, never
    formatted into the source, so the code is compiled once per monomial
    structure and order.  A zero D_0 raises
    ``ZeroDivisionError`` when some row has a B; no row with a B, no D.
    """
    nodes: list[tuple[str, tuple, tuple]] = []  # (name, left, right) products, in dependency order
    # a series is (name, degree): coefficient k is the local name_k up to its degree, zero past it
    degrees = _component_degrees(rows, base)
    x, y = ("a0", degrees[0]), ("b", 1) if base else ("a1", degrees[1])
    monomials: dict[tuple[int, int], tuple[str, float]] = {(0, 0): ("one", 0), (1, 0): x, (0, 1): y}

    def coeff(series: tuple[str, float], k: int) -> str | None:
        name, degree = series
        if k > degree:
            return None
        if name == "one":
            return "1"
        return ("t", "1")[k] if name == "b" else f"{name}_{k}"

    def times(a: str, b: str) -> str:
        return b if a == "1" else a if b == "1" else f"{a} * {b}"

    def monomial(j: int, l: int) -> tuple[str, float]:
        if (j, l) not in monomials:
            if l == 0:
                left, right = monomial(j - 1, 0), x
            elif j == 0:
                left, right = monomial(0, l - 1), y
            else:
                left, right = monomial(j, 0), monomial(0, l)
            monomials[(j, l)] = (f"n{len(nodes)}", left[1] + right[1])
            nodes.append((monomials[(j, l)][0], left, right))
        return monomials[(j, l)]

    n_coeffs = sum(len(keys) for row in rows for keys in row) + len(denominator)
    names = iter(range(n_coeffs))

    def named(keys: Monomials) -> list[tuple[str, tuple[str, float]]]:
        return [(f"c{next(names)}", monomial(j, l)) for j, l in keys]

    terms = [(named(direct), named(divided)) for direct, divided in rows]
    divides = any(divided for _, divided in terms)
    den_terms = named(denominator) if divides else []  # D's powers are formed only where some row divides
    den_degree = max((series[1] for _, series in den_terms), default=0)

    def value(row: list[tuple[str, tuple[str, float]]], k: int) -> list[str]:
        return [times(name, m) for name, series in row if (m := coeff(series, k)) is not None]

    body = ["".join(f"a{i}_0, " for i in range(len(terms))) + "= state"]
    for k in range(order):
        for name, left, right in nodes:
            if k <= left[1] + right[1]:
                pairs = [times(a, b) for i in range(k + 1)
                         if (a := coeff(left, i)) is not None and (b := coeff(right, k - i)) is not None]
                if left == right:  # a square: a_i * a_(k-i) is a_(k-i) * a_i bit for bit, so form it once
                    for i in range(len(pairs) // 2):
                        if " * " in pairs[i]:
                            body.append(f"m{i} = {pairs[i]}")
                            pairs[i] = pairs[-1 - i] = f"m{i}"
                body.append(f"{name}_{k} = {' + '.join(pairs)}")
        if divides and k <= den_degree:
            body.append(f"d_{k} = {' + '.join(value(den_terms, k)) or '0j'}")
        for i, (direct, divided) in enumerate(terms):
            parts = value(direct, k)
            if divided:
                b = " + ".join(value(divided, k)) or "0j"
                carried = " + ".join(f"d_{j} * r{i}_{k - j}" for j in range(1, min(k, den_degree) + 1))
                body.append(f"r{i}_{k} = ({b}{f' - ({carried})' if carried else ''}) / d_0")
                parts.append(f"r{i}_{k}")
            q = " + ".join(parts) or "0j"
            body.append(f"a{i}_{k + 1} = {q}" if k == 0 else f"a{i}_{k + 1} = ({q}) / {k + 1}")
    body.append("return " + "".join(
        "(" + "".join(f"a{i}_{k}, " for k in range(order + 1)) + "), " for i in range(len(terms))))
    src = "".join(
        [f"def bind({', '.join(f'c{i}' for i in range(n_coeffs))}):\n",
         "    def series(state, t):\n"]
        + [f"        {line}\n" for line in body]
        + ["    return series\n"]
    )
    namespace: dict = {}
    exec(src, namespace)
    return namespace["bind"]


@functools.cache
def _step_code(components: int, order: int) -> tuple[Callable, Callable]:
    """Straight-line step helpers for ``components`` series of order ``order``: ``(tails, advance)``.

    ``tails(coeffs, abs_tol, rel_tol)`` returns the weighted sums of squares
    of y_(p-1) and y_p, each 0.0 + a_0 * a_0 + a_1 * a_1 + ... over the
    components, with a_i = |c_i[k]| w_i and w_i = 1 / (abs_tol + rel_tol
    |c_i[0]|).  ``advance(coeffs, dt)`` returns the state the series give at
    the increment ``dt``, each component by Horner's rule from 0j:
    ((0j * dt + c_p) * dt + c_(p-1)) * dt + ... + c_0.  Compiled once per
    component count and order.
    """
    comps = range(components)
    tails = ["def tails(coeffs, abs_tol, rel_tol):\n",
             f"    {''.join(f'y{i}, ' for i in comps)}= coeffs\n"]
    for i in comps:
        tails += [f"    w{i} = 1.0 / (abs_tol + rel_tol * abs(y{i}[0]))\n",
                  f"    a{i} = abs(y{i}[{order - 1}]) * w{i}\n",
                  f"    b{i} = abs(y{i}[{order}]) * w{i}\n"]
    tails.append("    return " + ", ".join(" + ".join(["0.0"] + [f"{v}{i} * {v}{i}" for i in comps]) for v in "ab")
                 + "\n")
    advance = ["def advance(coeffs, dt):\n",
               "    " + "".join("(" + "".join(f"c{i}_{k}, " for k in range(order + 1)) + "), " for i in comps)
               + "= coeffs\n"]
    values = []
    for i in comps:
        acc = f"0j * dt + c{i}_{order}"
        for k in reversed(range(order)):
            acc = f"({acc}) * dt + c{i}_{k}"
        values.append(acc + ", ")
    advance.append(f"    return {''.join(values)}\n")
    namespace: dict = {}
    exec("".join(tails + advance), namespace)
    return namespace["tails"], namespace["advance"]


def _moved(coeffs: tuple[tuple[complex, ...], ...], delta: float) -> float:
    """Majorant of the distance a step of length ``delta`` moves the state: hypot over components of sum_k>=1 |y_k| delta^k."""
    total = 0.0
    for c in coeffs:
        m = 0.0
        for ck in reversed(c[1:]):
            m = m * delta + abs(ck)
        total += (m * delta) * (m * delta)
    return math.sqrt(total)


def _march(
    path: TimePath,
    y0: State,
    cfg: IntegrationConfig,
    expand: Callable[[complex, State], tuple[tuple[tuple[complex, ...], ...], float]],
    on_step: Callable[[float, State, complex], Termination | State | None],
) -> Termination:
    """Integrate along ``path`` segment by segment (contract in the module docstring).

    The step is 0.8 of the longest whose last two series terms meet the
    tolerance per unit step, up to ``max_step`` and the segment end.  The
    safety factor cuts the truncation error, which scales as h^(p+1), about
    thirtyfold at p = 15: at tight tolerances that puts it at roundoff.
    The rule is worked in logarithms, so no power overflows, and a
    coefficient that is not finite gives the step 0.
    """
    n, order = len(y0), _order(cfg.rel_tol)
    tails, advance = _step_code(n, order)
    abs_tol, rel_tol, max_step = cfg.abs_tol, cfg.rel_tol, cfg.max_step
    total = float(len(path.segments))
    s, y = 0.0, y0
    while s < total - 1e-12:
        idx = min(int(math.floor(s + 1e-9)), int(total) - 1)
        s1 = min(idx + 1.0, total)
        seg = path.segments[idx]
        span = s1 - s
        done, shortest = s1 - 1e-15 * max(span, abs(s1)), _UNDERFLOW_FACTOR * span
        speed = abs(seg.velocity(0.0))  # constant along a line or an arc
        if speed > 0.0:  # the logarithms of speed^k in the charges of y_(p-1) and y_p
            lead, trail = (order - 1) * math.log(speed), order * math.log(speed)
        t0 = seg.point(min(max(s - idx, 0.0), 1.0))
        while s < done:
            try:
                coeffs, reach = expand(t0, y)
                before, last = tails(coeffs, abs_tol, rel_tol)
                longest = min(max_step, s1 - s)
                norm_before, norm_last = math.sqrt(before / n), math.sqrt(last / n)
                if norm_before != norm_before or norm_last != norm_last:  # a coefficient is not finite
                    h = 0.0
                else:
                    log_h = math.log(longest / _SAFETY)
                    if speed > 0.0:
                        if norm_before > 0.0:
                            log_h = min(log_h, -(math.log(norm_before) + lead) / (order - 2))
                        if norm_last > 0.0:
                            log_h = min(log_h, -(math.log(norm_last) + trail) / (order - 1))
                    h = min(longest, _SAFETY * math.exp(log_h))
                if reach < math.inf:
                    moved = _moved(coeffs, speed * h)  # the arc is no shorter than the chord
                    if moved > reach:
                        h *= reach / moved  # moved(delta) / delta grows with delta
            except (ZeroDivisionError, OverflowError):  # a pole at the expansion point
                h = 0.0
            if not h >= shortest:
                raise StepUnderflowError(f"step underflow at s={s:.6g}")
            s = s1 if s1 - s <= h * (1.0 + 1e-9) else s + h
            t = seg.point(min(max(s - idx, 0.0), 1.0))
            y = advance(coeffs, t - t0)
            verdict = on_step(s, y, t)
            if isinstance(verdict, Termination):
                return verdict
            if verdict is not None:
                y = verdict  # chart switch: the next step expands from here
            t0 = t
        s = s1  # corner reached; the next segment starts afresh
    return Termination.COMPLETED


def _distance(a: Sequence[complex], b: Sequence[complex]) -> float:
    """Euclidean distance between the first two coordinates of two points of C^2."""
    return math.hypot(abs(a[0] - b[0]), abs(a[1] - b[1]))


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
    order = _order(cfg.rel_tol)
    chart = start_chart
    state = (complex(start_coords[0]), complex(start_coords[1]))
    samples = [TrajectorySample(0.0, path.point(0.0), chart, state)]
    eq_chart, eq_pt = designated_equilibrium or (None, None)

    def bind(chart: str) -> Callable:
        """The chart's series: its field divided by the Euler multiplier, except in XY."""
        return _series(system.field(chart), order, "path", None if chart == Chart.XY else system.euler_exponent)

    series = bind(chart)  # rebound at a chart switch

    def expand(t: complex, y: State) -> tuple[tuple[tuple[complex, ...], ...], float]:
        reach = math.inf
        if chart == eq_chart:  # no step may jump over the singularity ball
            reach = 0.5 * _distance(y, eq_pt)
        return series(y, t), reach

    def on_step(s: float, coords: State, t: complex) -> Termination | State | None:
        nonlocal chart, series
        samples.append(TrajectorySample(s, t, chart, coords))
        if eq_chart is not None:
            try:
                here = chart_point(coords, chart, eq_chart)
                if _distance(here, eq_pt) < cfg.singularity_radius:
                    return Termination.ENTERED_SINGULARITY_BALL
            except ZeroDivisionError:
                pass
        mag = max(abs(coords[0]), abs(coords[1]))
        if mag > _SWITCH_THRESHOLD:
            new_chart, new_coords = _best_chart(coords, chart)
            if new_chart != chart:
                chart = new_chart
                series = bind(chart)
                samples.append(TrajectorySample(s, t, chart, new_coords))
                return new_coords
        if mag > _DIVERGE_NORM:
            # a chart holding the state below this bound would have won above
            return Termination.DIVERGED
        return None

    try:
        reason = _march(path, state, cfg, expand, on_step)
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
    series = _series(fld, _order(cfg.rel_tol), "leaf")

    def expand(t: complex, y: State) -> tuple[tuple[tuple[complex, ...], ...], float]:
        try:
            coeffs = series(y, t)
        except ZeroDivisionError:
            coeffs = None
        # the base field zero, or |d fiber / d base| above 1e10 times max(|fiber|, 1): measured
        # against the fiber, so a fiber that merely grows large is no tangency
        if coeffs is None or abs(coeffs[0][1]) > 1e10 * max(abs(y[0]), 1.0):
            raise SectionTangencyError(f"base field vanished at {t:.6g}")
        return coeffs, math.inf

    def on_step(s: float, y: State, t: complex) -> None:
        trace.append((s, y[0]))

    _march(base_loop, (fiber0,), cfg, expand, on_step)
    return {"fiber_end": trace[-1][1], "fiber_trace": tuple(trace)}


def time_to_equilibrium(
    fld: PlanarField,
    euler_exponent: int,
    start: tuple[complex, complex],
    equilibrium: tuple[complex, complex],
    cfg: IntegrationConfig | None = None,
) -> tuple[tuple[complex, tuple[complex, complex]], ...]:
    """Original time the flow of a blow-up chart takes from ``start`` into ``equilibrium``.

    The chart field runs in its own time t1, where dt = u^(m-1) dt1, with
    one more component tau' = u^euler_exponent: tau is the original time
    elapsed.  It runs along the chart-time ray t1 = -L / lambda_u, with
    lambda_u = dF_u/du at the equilibrium, on which |u| decays as e^(-L),
    until the state is within 1e-14 of the equilibrium.  Returns the
    ``(tau, state)`` pairs of the start and of every step end; the last tau
    is the time to the equilibrium itself, to within the tolerance.  Raises
    ``FlowError`` when the state does not arrive: when a coordinate passes
    2 (it has left the chart), or when the ray ends first, as it does off
    the stable separatrix of a saddle, where the flow settles elsewhere.
    """
    cfg = cfg or IntegrationConfig()
    u0, z0 = equilibrium
    lam_u = sum(j * c * u0 ** (j - 1) * z0**k for (j, k), c in fld.f.terms.items() if j >= 1)
    if lam_u == 0:
        raise FlowError("dF_u/du vanishes at the equilibrium: u does not decay in chart time")
    series = _series(fld, _order(cfg.rel_tol), "clock", euler_exponent)
    tail = [(0j, (complex(start[0]), complex(start[1])))]

    def expand(t: complex, y: State) -> tuple[tuple[tuple[complex, ...], ...], float]:
        return series(y, t), math.inf

    def on_step(s: float, y: State, t: complex) -> Termination | None:
        tail.append((y[2], (y[0], y[1])))
        if _distance(y, equilibrium) < _ARRIVAL:
            return Termination.ENTERED_SINGULARITY_BALL
        return Termination.DIVERGED if max(abs(y[0]), abs(y[1])) > _SWITCH_THRESHOLD else None

    ray = TimePath((Line(0.0, -_CLOCK_SPAN / lam_u),))
    reason = _march(ray, (*tail[0][1], 0j), cfg, expand, on_step)
    if reason != Termination.ENTERED_SINGULARITY_BALL:
        end = tail[-1][1]
        raise FlowError(f"the chart-time flow ends {_distance(end, equilibrium):.3g} from the "
                        f"equilibrium, at ({end[0]:.6g}, {end[1]:.6g}) ({reason.value})")
    return tuple(tail)
