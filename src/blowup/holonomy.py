"""Detours around finite-time blow-up, loop discrepancies, and holonomy.

A detour starts from an approach trajectory that ran into the singularity
ball of a blow-up equilibrium (u, z) = (0, e).  The finite blow-up time T
comes from the flow: from the approach's end the chart field runs in its own
time t1 into the equilibrium, where dt = u^(m-1) dt1, and T is the end time
plus the original time that run takes (``flow.time_to_equilibrium``).  It
does not depend on the ball.  The coefficient C of the leading relation

    t - T = C * u^(m-1)

(exact for the linearized flow, leading-order in general) is then fitted
over that run with T fixed.  The detour walks a circle of given radius
around T, ``cycles`` times, dragging the lifted state along in the blow-up
chart, and reports the end-versus-start discrepancy together with the
measured winding numbers of the time loop and of both coordinate traces.

One simple time loop drives the fiber coordinate u through 1/(m-1) of a
turn, so u closes after m-1 cycles; the base coordinate z then picks up the
holonomy multiplier exp(2 pi i * mu_z/mu_u) per u-turn.  Closure of the
whole lifted loop therefore happens exactly when the number of u-turns is a
multiple of the reduced denominator of mu_z/mu_u, at nondegenerate
semisimple equilibria with rational quotient, and never otherwise.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, replace

from blowup.algebra import BivariatePolynomial, Chart, ChartSystem, PlanarField, chart_point
from blowup.equilibria import EquilibriumRecord, find_equilibria
from blowup.flow import (
    Arc,
    FlowError,
    IntegrationConfig,
    Line,
    NotClosedError,
    Termination,
    TimePath,
    TooCoarseError,
    Trajectory,
    continue_leaf,
    integrate_path,
    time_to_equilibrium,
    winding_number,
)

__all__ = [
    "DetourReport",
    "HolonomyEstimate",
    "DetourError",
    "LoopHitsSingularityError",
    "NoInvariantFiberError",
    "NotClosedReportError",
    "WindingLawError",
    "holonomy_multiplier",
    "masuda_detour",
    "blowup_star",
    "approach_blowup",
]

_HOLONOMY_CFG = IntegrationConfig(rel_tol=1e-12, abs_tol=1e-14)


class DetourError(RuntimeError):
    pass


class LoopHitsSingularityError(DetourError):
    """The lifted loop entered the singularity ball around the equilibrium."""


class NoInvariantFiberError(ValueError):
    """Holonomy needs an invariant fiber line: bad input, not a numerical failure."""


class NotClosedReportError(DetourError):
    """A closed detour report was required but the loop did not close."""


class WindingLawError(DetourError):
    """A closed loop broke w_t = (m-1) w_u at a semisimple equilibrium."""


@dataclass(frozen=True)
class HolonomyEstimate:
    multiplier: complex
    predicted: complex | None
    deviation: float | None


@dataclass(frozen=True)
class DetourReport:
    """One detour; its fields, in this order, are the keys of the CLI report."""

    cycles: int
    loop_radius: float
    start_state: tuple[complex, complex]
    end_state: tuple[complex, complex]
    discrepancy: float
    relative_discrepancy: float
    windings: dict
    closed: bool
    chart: str
    T_estimate: complex
    t_fit_coefficient: complex
    a_u: complex
    closure_threshold: float
    per_cycle_discrepancy: tuple[float, ...]
    fiber_start_magnitude: float


def approach_blowup(
    system: ChartSystem,
    start_xy: tuple[complex, complex],
    eq: EquilibriumRecord,
    horizon: float,
    cfg: IntegrationConfig | None = None,
) -> Trajectory:
    """Run real time forward until the state enters the equilibrium's ball.

    Convenience front end for detour experiments: integrates the original
    field from an xy start along the real segment [0, horizon] with the given
    equilibrium designated, so the trajectory stops inside its singularity
    ball if blow-up happens before the horizon.
    """
    path = TimePath.from_points([0.0, horizon])
    return integrate_path(system, Chart.XY, start_xy, path, cfg,
                          designated_equilibrium=(eq.chart, eq.location))


def _blowup_time(
    system: ChartSystem,
    approach: Trajectory,
    eq: EquilibriumRecord,
    cfg: IntegrationConfig,
) -> tuple[complex, complex]:
    """(T, C) in t - T = C u^(m-1): T from the flow, C fitted over its tail with T fixed.

    From the approach's end the chart flow runs in its own time into the
    equilibrium (``time_to_equilibrium``), and T is the end time plus the
    original time that run takes.  Over the run's samples, where t = T +
    C p with p = u^(m-1), the one-column fit is C = sum conj(p) (t - T) /
    sum |p|^2.
    """
    entry_state = chart_point(approach.end.coords, approach.end.chart, eq.chart)
    try:
        tail = time_to_equilibrium(system.field(eq.chart), system.euler_exponent, entry_state, eq.location, cfg)
    except FlowError as err:
        raise DetourError(f"the approach does not run into the equilibrium: {err}") from None
    T = approach.end.t + tail[-1][0]
    m1 = max(system.euler_exponent, 1)
    ps = [(state[0] - eq.location[0]) ** m1 for _, state in tail]
    spread = sum(abs(p) ** 2 for p in ps)
    if spread == 0:
        raise DetourError("approach tail does not move toward the blow-up point")
    C = sum(p.conjugate() * (tau - tail[-1][0]) for p, (tau, _) in zip(ps, tail)) / spread  # t - T
    return T, C


def masuda_detour(
    system: ChartSystem,
    blowup_eq: EquilibriumRecord,
    approach: Trajectory,
    loop_radius: float | None,
    cycles: int,
    cfg: IntegrationConfig | None = None,
) -> DetourReport:
    """Circle the blow-up time and measure the lifted discrepancy.

    T is the approach's end time plus the original time the chart flow
    takes from there into the equilibrium, and C in t - T = C u^(m-1) is
    fitted over that run with T fixed; an approach whose chart flow does
    not run into the equilibrium (off a saddle's stable separatrix) is
    refused, and so is an equilibrium that is not at infinity.  The time
    loop starts at the phase of the approach endpoint, after a radial
    transport leg from the endpoint onto the circle.  Discrepancy is the
    state-space distance between the lifted states before and after the
    ``cycles`` traversals, reported both absolutely and against the
    relative closure threshold (1e-6 of the fiber magnitude at loop entry).
    ``loop_radius=None`` takes half the distance |t_enter - T| from the
    approach endpoint to the blow-up time; a radius of that distance or
    more is refused as bad input (``ValueError``).  The distance depends on
    the approach's singularity ball, so the caller cannot know it
    beforehand, and the message names it.
    """
    if blowup_eq.chart == Chart.XY:
        raise ValueError("a detour circles a blow-up time: the equilibrium must lie at infinity (UZ or VW)")
    if approach.terminated_reason != Termination.ENTERED_SINGULARITY_BALL:
        raise DetourError(f"approach did not reach the singularity ball ({approach.terminated_reason.value})")
    if cycles < 1:
        raise ValueError("cycles must be positive")
    base_cfg = cfg or IntegrationConfig()
    T_est, C_fit = _blowup_time(system, approach, blowup_eq, base_cfg)
    t_enter = approach.end.t
    gap = abs(t_enter - T_est)
    if loop_radius is None:
        loop_radius = 0.5 * gap
    if loop_radius >= gap:
        raise ValueError(
            f"loop radius {loop_radius:.3g} reaches past the approach endpoint (|t-T| = {gap:.3g}): the radius "
            f"must stay under {gap:.3g}, the distance from the blow-up time at which the approach entered its "
            f"singularity ball, so a larger ball (--ball) allows a larger radius")

    entry_state = chart_point(approach.end.coords, approach.end.chart, blowup_eq.chart)
    phase = cmath.phase(t_enter - T_est)
    circle = TimePath((Arc(T_est, loop_radius, phase, phase + 2.0 * math.pi),))  # refuses a bad radius
    circle_entry = T_est + loop_radius * cmath.exp(1j * phase)

    m1 = max(system.euler_exponent, 1)
    expected_u = abs(loop_radius / C_fit) ** (1.0 / m1)  # raises on C = 0 before the log below
    a_u = cmath.exp(-cmath.log(C_fit) / m1)  # principal C^(-1/(m-1)): the loop's fiber direction scale
    guard = replace(base_cfg, max_step=min(base_cfg.max_step, 0.02), singularity_radius=0.05 * expected_u)

    # transport leg: radially from t_enter to the circle.
    _, start_state = _lifted_run(system, blowup_eq, entry_state, TimePath((Line(t_enter, circle_entry),)),
                                 guard, "transport leg")
    state = start_state
    per_cycle: list[float] = []
    trace: list[complex] = []  # t, u, z of every cycle's samples, one triple after another
    for cycle in range(1, cycles + 1):
        run, state = _lifted_run(system, blowup_eq, state, circle, guard, f"loop cycle {cycle}")
        for smp in run.samples:
            trace.append(smp.t)
            trace.extend(chart_point(smp.coords, smp.chart, blowup_eq.chart))
        per_cycle.append(_state_gap(state, start_state))

    discrepancy = per_cycle[-1]
    fiber_mag = abs(start_state[0] - blowup_eq.location[0])
    threshold = 1e-6 * fiber_mag
    closed = discrepancy < threshold

    windings = {
        "w_t": _try_winding(trace[0::3], T_est),
        "w_u": _try_winding(trace[1::3], blowup_eq.location[0]),
        "w_z": _try_winding(trace[2::3], blowup_eq.location[1]),
    }
    if closed:
        missing = [k for k, v in windings.items() if v is None]
        if missing:
            raise DetourError(f"closed loop but winding extraction failed for {missing}")
        if blowup_eq.semisimple and blowup_eq.domain not in (None, "Degenerate"):
            if windings["w_t"] != system.euler_exponent * windings["w_u"]:
                raise WindingLawError(
                    f"winding law violated: w_t={windings['w_t']}, "
                    f"(m-1)*w_u={system.euler_exponent * windings['w_u']}"
                )

    return DetourReport(
        cycles=cycles,
        loop_radius=loop_radius,
        start_state=start_state,
        end_state=state,
        discrepancy=discrepancy,
        relative_discrepancy=discrepancy / fiber_mag,
        windings=windings,
        closed=closed,
        chart=blowup_eq.chart,
        T_estimate=T_est,
        t_fit_coefficient=C_fit,
        a_u=a_u,
        closure_threshold=threshold,
        per_cycle_discrepancy=tuple(per_cycle),
        fiber_start_magnitude=fiber_mag,
    )


def _lifted_run(
    system: ChartSystem,
    eq: EquilibriumRecord,
    state: tuple[complex, complex],
    path: TimePath,
    cfg: IntegrationConfig,
    what: str,
) -> tuple[Trajectory, tuple[complex, complex]]:
    """Run ``path`` in ``eq``'s chart and lift the end state into that chart.

    The one integrate-and-check of a detour, shared by its transport leg and
    every cycle: entering the singularity ball raises
    ``LoopHitsSingularityError``, any other early end ``DetourError``.
    """
    run = integrate_path(system, eq.chart, state, path, cfg, designated_equilibrium=(eq.chart, eq.location))
    if run.terminated_reason == Termination.ENTERED_SINGULARITY_BALL:
        raise LoopHitsSingularityError(f"{what} entered the singularity ball")
    if run.terminated_reason != Termination.COMPLETED:
        raise DetourError(f"{what} ended early: {run.terminated_reason.value}")
    return run, chart_point(run.end.coords, run.end.chart, eq.chart)


def _state_gap(a: tuple[complex, complex], b: tuple[complex, complex]) -> float:
    return math.hypot(abs(a[0] - b[0]), abs(a[1] - b[1]))


def _try_winding(samples: list[complex], center: complex) -> int | None:
    pts = [complex(s) for s in samples]
    if not pts:
        return None
    if max(abs(p - center) for p in pts) < 1e-12:
        return 0  # trace collapsed onto the center: a dummy invariant line
    # close the curve up to integrator tolerance before extraction
    if abs(pts[-1] - pts[0]) > 1e-9:
        return None
    closed = pts + [pts[0]]
    try:
        return winding_number(closed, center)
    except (NotClosedError, TooCoarseError):
        return None


def holonomy_multiplier(
    system: ChartSystem,
    eq: EquilibriumRecord,
    base_radius: float,
) -> HolonomyEstimate:
    """Linear part h'(0) of the fiber holonomy over one base loop.

    Requires an equilibrium at infinity, where the chart structure makes the
    fiber line u = 0 invariant (the first chart component F_u is divisible by
    the fiber coordinate).  Along that line the derivative of the holonomy
    solves the variational equation

        d(du)/dz = dF_u/du(0, z) / F_z(0, z) * du,

    the leaf equation of the field's part linear in the fiber: the terms of
    F_u of fiber degree 1 and of F_z of fiber degree 0.  The equation is
    linear, so one continuation of it from du = 1 around the base circle
    ends at h'(0) itself, with no fiber radius to choose and no higher germ
    coefficient to extrapolate away.  The continuation runs on the unit
    circle in zeta = (z - e) / R, where the coefficients of zeta^k carry
    R^k (R^(k-1) in F_z): in z itself they scale as R^-k, and past R ~ 1e15
    the tail underflows and reads as converged.  The multiplier is compared
    against exp(2 pi i lambda) when the record carries a spectral quotient.
    The base radius R must be finite and positive.

    The base circle must enclose this root of F_z(0, z) alone and stay clear
    of the others, so another equilibrium at infinity closer than twice the
    radius to the centre, measured in this chart, is refused as bad input.
    """
    if not 0.0 < base_radius < math.inf:
        raise ValueError(f"base radius must be finite and positive, got {base_radius!r}")
    if eq.chart not in (Chart.UZ, Chart.VW):
        raise NoInvariantFiberError("holonomy needs a blow-up chart equilibrium")
    centre = eq.location[1]
    for other in find_equilibria(system, "InfinityOnly"):
        coord = other.location[1]
        if other.chart != eq.chart:
            if coord == 0:
                continue  # the other chart's origin is this chart's point at infinity
            coord = 1.0 / coord
        gap = abs(coord - centre)  # a gap within the root finder's own tolerance is eq itself
        if 1e-8 * max(1.0, abs(centre)) < gap < 2.0 * base_radius:
            raise ValueError(
                f"the equilibrium at infinity {other.chart} {other.location} lies {gap:.3g} from the loop "
                f"centre, within twice the base radius {base_radius:.3g}; the largest radius that passes "
                f"is {0.5 * gap:.3g}")
    fld = system.field(eq.chart)
    if any(j == 0 for j, _ in fld.f.terms):
        raise NoInvariantFiberError("first chart component is not divisible by the fiber coordinate")
    f_u = BivariatePolynomial({jk: c for jk, c in fld.f.terms.items() if jk[0] == 1}).shifted(0.0, centre)
    f_z = BivariatePolynomial({jk: c for jk, c in fld.g.terms.items() if jk[0] == 0}).shifted(0.0, centre)
    try:  # each coefficient is scaled in one product, so none is pruned on the way
        linear = PlanarField(
            BivariatePolynomial({(1, k): c * base_radius**k for (_, k), c in f_u.terms.items()}),
            BivariatePolynomial({(0, k): c * base_radius ** (k - 1) for (_, k), c in f_z.terms.items()}),
        )
    except OverflowError:
        raise FlowError(f"base radius {base_radius:.3g} overflows the leaf's coefficients") from None
    multiplier = continue_leaf(linear, TimePath.circle(0.0, 1.0), 1 + 0j, _HOLONOMY_CFG)["fiber_end"]
    predicted = None
    deviation = None
    if eq.spectral_quotient is not None:
        predicted = cmath.exp(2j * math.pi * eq.spectral_quotient)
        deviation = abs(multiplier - predicted)
    return HolonomyEstimate(multiplier=multiplier, predicted=predicted, deviation=deviation)


def blowup_star(system: ChartSystem, report: DetourReport) -> list[dict]:
    """Real-time blow-up and blow-down directions attached to a closed loop.

    From t - T = C u^(m-1): incoming real-time branches (t < T) sit where
    C u^(m-1) is negative real, outgoing ones (t > T) where it is positive
    real, giving w_t branches of each kind that alternate in angle.  Each of
    the m-1 distinct fiber directions carries w_u sheets of the leaf.
    """
    if not report.closed:
        raise NotClosedReportError("blow-up star requires a closed detour report")
    m1 = system.euler_exponent
    w_t = report.windings["w_t"]
    C = report.t_fit_coefficient
    base = -cmath.phase(C) / m1
    branches: list[dict] = []
    for j in range(w_t):
        branches.append({"direction": cmath.exp(1j * (base + math.pi * (2 * (j % m1) + 1) / m1)),
                         "kind": "BlowUp"})
    for j in range(w_t):
        branches.append({"direction": cmath.exp(1j * (base + 2.0 * math.pi * (j % m1) / m1)),
                         "kind": "BlowDown"})
    return branches
