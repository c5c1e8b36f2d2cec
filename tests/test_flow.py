import cmath
import math
import random

import numpy as np
import pytest

from blowup.algebra import BivariatePolynomial, Chart, PlanarField, to_charts
from blowup.equilibria import find_equilibria
from blowup.flow import (
    _DP_A,
    _DP_B5,
    _DP_C,
    _DP_E,
    Arc,
    IntegrationConfig,
    Line,
    NotClosedError,
    PathDiscontinuityError,
    SectionTangencyError,
    Termination,
    TimePath,
    TooCoarseError,
    _compile_attempt,
    _march,
    continue_leaf,
    integrate_path,
    winding_number,
)
from blowup.scenarios import catalog_get

P = BivariatePolynomial.from_coeffs

TIGHT = IntegrationConfig(rel_tol=1e-12, abs_tol=1e-14, max_step=0.05)


def riccati_system():
    # dx/dt = x^2 on the invariant line y = 0, embedded as (x^2, -y).
    return to_charts(PlanarField(P([(2, 0, 1.0)]), P([(0, 1, -1.0)])))


def riccati_pm1_system():
    # dx/dt = x^2 - 1 embedded.
    return to_charts(PlanarField(P([(2, 0, 1.0), (0, 0, -1.0)]), P([(0, 1, -1.0)])))


def linear_uz_system(mu1: complex, mu2: complex):
    """Planar field whose uz chart is diag(mu1, mu2): f = -mu1 x, g = (mu2-mu1) y."""
    return to_charts(PlanarField(P([(1, 0, -mu1)]), P([(0, 1, mu2 - mu1)])))


def xy_of(sample):
    from blowup.algebra import chart_point
    return chart_point(sample.coords, sample.chart, Chart.XY)


# ------------------------------------------------------------- bad configs

@pytest.mark.parametrize("bad", [math.nan, math.inf, 0.0, -0.1])
@pytest.mark.parametrize("name", ["max_step", "singularity_radius"])
def test_config_lengths_must_be_finite_and_positive(name, bad):
    # a NaN max_step once made every step size NaN, and the march never ended
    with pytest.raises(ValueError, match=name):
        IntegrationConfig(**{name: bad})


@pytest.mark.parametrize("bad", [math.nan, math.inf, 0.0, -0.1])
def test_arc_radius_must_be_finite_and_positive(bad):
    with pytest.raises(ValueError, match="arc radius"):
        Arc(0.0, bad, 0.0, 1.0)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_segment_ends_must_be_finite(bad):
    # a NaN time once ran the whole path as one StepUnderflow
    for make in (lambda: Line(0.0, bad), lambda: Line(complex(0.0, bad), 1.0),
                 lambda: Arc(complex(0.0, bad), 1.0, 0.0, 1.0),
                 lambda: Arc(0.0, 1.0, bad, 1.0), lambda: Arc(0.0, 1.0, 0.0, bad)):
        with pytest.raises(ValueError, match="finite"):
            make()


# ---------------------------------------------------------------- TimePath

def test_path_segments_must_join():
    with pytest.raises(PathDiscontinuityError):
        TimePath((Line(0.0, 1.0), Line(2.0, 3.0)))


def test_circle_path_is_closed():
    path = TimePath.circle(1.0, 0.5)
    assert path.is_closed
    assert path.point(0.0) == pytest.approx(1.5)
    assert path.point(0.5) == pytest.approx(0.5)


def test_multicycle_requires_closed():
    with pytest.raises(PathDiscontinuityError):
        TimePath((Line(0.0, 1.0),), cycles=2)


# ---------------------------------------------------------- integrate_path

def test_riccati_real_line_closed_form():
    # x0 = 1: x(t) = 1/(1 - t); at t = 0.5 the value is 2.
    path = TimePath.from_points([0.0, 0.5])
    traj = integrate_path(riccati_system(), Chart.XY, (1.0, 0.0), path, TIGHT)
    assert traj.terminated_reason == Termination.COMPLETED
    assert abs(xy_of(traj.end)[0] - 2.0) < 1e-9


def test_riccati_closed_form_along_random_paths():
    # x(t) = 1/(-t + 1/x0) checked at every sample of 10 random paths that
    # keep distance >= 0.1 from the pole at T = 1.
    rng = np.random.default_rng(42)
    sys = riccati_system()
    done = 0
    while done < 10:
        pts = [0.0 + 0.0j]
        for _ in range(3):
            pts.append(pts[-1] + complex(rng.uniform(-0.5, 0.5), rng.uniform(-0.5, 0.5)))
        if any(_dist_to_segment(1.0 + 0j, a, b) < 0.1 for a, b in zip(pts, pts[1:])):
            continue
        done += 1
        traj = integrate_path(sys, Chart.XY, (1.0, 0.0), TimePath.from_points(pts), TIGHT)
        for smp in traj.samples:
            expected = 1.0 / (1.0 - smp.t)
            if smp.chart == Chart.XY:
                got = smp.coords[0]
            elif smp.chart == Chart.UZ:
                got = 1.0 / smp.coords[0]
            else:
                continue
            assert abs(got - expected) < 1e-9 * max(1.0, abs(expected))


def _dist_to_segment(p: complex, a: complex, b: complex) -> float:
    if a == b:
        return abs(p - a)
    lam = ((p - a) * (b - a).conjugate()).real / abs(b - a) ** 2
    lam = min(max(lam, 0.0), 1.0)
    return abs(p - (a + lam * (b - a)))


def test_riccati_semicircular_detour_past_pole():
    # Continue x0 = 1 through the pole at T = 1 via an upper semicircle;
    # the continuation is real again with x(2) = 1/(1-2) = -1.
    path = TimePath((
        Line(0.0, 0.5),
        Arc(1.0, 0.5, math.pi, 0.0),
        Line(1.5, 2.0),
    ))
    traj = integrate_path(riccati_system(), Chart.XY, (1.0, 0.0), path, TIGHT)
    assert traj.terminated_reason == Termination.COMPLETED
    assert abs(xy_of(traj.end)[0] - (-1.0)) < 1e-8
    # The detour must actually have passed through the blow-up chart.
    assert any(s.chart == Chart.UZ for s in traj.samples)


def test_riccati_lower_semicircle_gives_same_continuation():
    upper = TimePath((Line(0.0, 0.5), Arc(1.0, 0.5, math.pi, 0.0), Line(1.5, 2.0)))
    lower = TimePath((Line(0.0, 0.5), Arc(1.0, 0.5, math.pi, 2.0 * math.pi), Line(1.5, 2.0)))
    xu = xy_of(integrate_path(riccati_system(), Chart.XY, (1.0, 0.0), upper, TIGHT).end)[0]
    xl = xy_of(integrate_path(riccati_system(), Chart.XY, (1.0, 0.0), lower, TIGHT).end)[0]
    assert abs(xu - xl) < 1e-8


def test_imaginary_period_of_riccati_pm1():
    # Orbits of dx/dt = x^2 - 1 are periodic in imaginary time with period pi.
    path = TimePath.from_points([0.0, 1j * math.pi])
    traj = integrate_path(riccati_pm1_system(), Chart.XY, (1j, 0.0), path, TIGHT)
    assert abs(xy_of(traj.end)[0] - 1j) < 1e-7


def test_singularity_ball_termination():
    sys = riccati_system()
    cfg = IntegrationConfig(rel_tol=1e-10, abs_tol=1e-12, singularity_radius=0.05)
    path = TimePath.from_points([0.0, 1.2])  # runs into T = 1
    traj = integrate_path(sys, Chart.XY, (1.0, 0.0), path, cfg,
                          designated_equilibrium=(Chart.UZ, (0.0, 0.0)))
    assert traj.terminated_reason == Termination.ENTERED_SINGULARITY_BALL
    assert traj.end.chart == Chart.UZ
    assert abs(traj.end.coords[0]) < 0.055


def test_flow_property_on_catalog_style_systems():
    # Phi^{t2} o Phi^{t1} = Phi^{t1+t2} along concatenated paths.
    rng = np.random.default_rng(5)
    systems = [riccati_pm1_system(), linear_uz_system(-1.0, -2.0)]
    for sys in systems:
        for _ in range(20):
            t1 = complex(rng.uniform(-0.15, 0.15), rng.uniform(-0.15, 0.15))
            t2 = complex(rng.uniform(-0.15, 0.15), rng.uniform(-0.15, 0.15))
            start = (complex(rng.uniform(0.3, 0.8), rng.uniform(-0.2, 0.2)),
                     complex(rng.uniform(0.3, 0.8), 0.0))
            two_leg = integrate_path(sys, Chart.XY, start, TimePath.from_points([0.0, t1, t1 + t2]), TIGHT)
            direct = integrate_path(sys, Chart.XY, start, TimePath.from_points([0.0, t1 + t2]), TIGHT)
            a = np.array(two_leg.end.coords)
            b = np.array(direct.end.coords)
            assert np.max(np.abs(a - b)) < 1e-8


def test_reversibility():
    sys = riccati_pm1_system()
    start = (0.4 + 0.3j, 0.5 + 0.0j)
    path = TimePath.from_points([0.0, 0.4 + 0.2j, 0.1 + 0.5j])
    fwd = integrate_path(sys, Chart.XY, start, path, TIGHT)
    back_path = TimePath.from_points([0.0, -0.4 + 0.3j, -(0.1 + 0.5j) + 0.0])
    # reverse by walking the displacement backwards from the endpoint
    pts = [0.1 + 0.5j, 0.4 + 0.2j, 0.0]
    back = integrate_path(sys, fwd.end.chart, fwd.end.coords, TimePath.from_points(pts), TIGHT)
    # back path re-parametrizes t but the field is autonomous: shift to 0-based
    assert np.max(np.abs(np.array(back.end.coords) - np.array(start))) < 1e-8


# ---------------------------------------------------------- winding_number

def _circle_samples(center, radius, turns, n=200, phase=0.0):
    sgn = 1.0 if turns >= 0 else -1.0
    total = abs(turns) * n
    return [center + radius * cmath.exp(1j * (phase + sgn * 2 * math.pi * k / n)) for k in range(total + 1)]


def test_winding_unit_circle():
    assert winding_number(_circle_samples(0.0, 1.0, 1), 0.0) == 1


def test_winding_double_clockwise():
    assert winding_number(_circle_samples(0.0, 1.0, -2), 0.0) == -2


def test_winding_center_outside():
    assert winding_number(_circle_samples(3.0, 1.0, 1), 0.0) == 0


def test_winding_orientation_antisymmetry():
    curve = _circle_samples(0.2 + 0.1j, 1.3, 3)
    assert winding_number(list(reversed(curve)), 0.0) == -winding_number(curve, 0.0)


def test_winding_not_closed():
    curve = _circle_samples(0.0, 1.0, 1)[:-5]
    with pytest.raises(NotClosedError):
        winding_number(curve, 0.0)


def test_winding_too_coarse():
    with pytest.raises(TooCoarseError):
        winding_number(_circle_samples(0.0, 1.0, 1, n=4), 0.0)


# ----------------------------------------------------------- continue_leaf

def test_linear_holonomy_multiplier_minus_one():
    # uz system diag(-1, -2): holonomy of u over a z-loop multiplies by
    # exp(2 pi i * (1/2)) = -1.
    sys = linear_uz_system(-1.0, -2.0)
    loop = TimePath.circle(0.0, 0.1)
    u0 = 0.01
    res = continue_leaf(sys.uz_field, loop, u0, TIGHT)
    assert abs(res["fiber_end"] - u0 * cmath.exp(1j * math.pi)) < 1e-8


@pytest.mark.parametrize("cycles", [1, 2, 3])
def test_holonomy_compounds_over_repeated_cycles(cycles):
    # uz system diag(-1, -3): each turn of the base loop multiplies the
    # fiber by exp(2 pi i / 3); the march crosses the corner of the one-arc
    # path between cycles
    sys = linear_uz_system(-1.0, -3.0)
    u0 = 0.01
    res = continue_leaf(sys.uz_field, TimePath.circle(0.0, 0.1, cycles=cycles), u0, TIGHT)
    assert abs(res["fiber_end"] - u0 * cmath.exp(2j * math.pi * cycles / 3)) < 1e-12


def test_equal_eigenvalue_holonomy_is_identity():
    sys = linear_uz_system(-1.5, -1.5)
    res = continue_leaf(sys.uz_field, TimePath.circle(0.0, 0.1), 0.02, TIGHT)
    assert abs(res["fiber_end"] - 0.02) < 1e-9


def test_caricature_saddle_holonomy_is_near_identity():
    # a = 2 saddle at (0,0): spectral quotient -1, multiplier exp(-2 pi i) = 1.
    a = 2.0
    fld = PlanarField(P([(2, 0, 1.0), (0, 2, a / 4.0)]), P([(0, 1, -1.0), (1, 1, a)]))
    sys = to_charts(fld)
    u0 = 1e-3
    res = continue_leaf(sys.uz_field, TimePath.circle(0.0, 0.1), u0, TIGHT)
    assert abs(res["fiber_end"] - u0) < 1e-6


def test_contractible_base_loop_returns_fiber():
    # A loop not enclosing the base singular point transports trivially.
    sys = linear_uz_system(-1.0, -2.0)
    loop = TimePath.circle(0.5, 0.1)  # z = 0 outside
    res = continue_leaf(sys.uz_field, loop, 0.03, TIGHT)
    assert abs(res["fiber_end"] - 0.03) < 1e-9


# ---------------------------------------------------------- integrator work

def _counted_leaf(monkeypatch, system, chart, loop, fiber_start, cfg):
    """continue_leaf with every field evaluation (one per RHS call) recorded."""
    calls = []
    real = PlanarField.__call__

    def counting(fld, x, y):
        calls.append((x, y))
        return real(fld, x, y)

    monkeypatch.setattr(PlanarField, "__call__", counting)
    res = continue_leaf(system.field(chart), loop, fiber_start, cfg)
    monkeypatch.undo()
    return calls, len(res["fiber_trace"]) - 1


def test_tight_tolerance_leaf_costs_at_most_seven_rhs_calls_per_step(monkeypatch):
    # at rel_tol = 1e-12 the roundoff floor is reached on every step; the
    # controller must grow the step from it without a rejection each time
    system = to_charts(catalog_get("golden_node").system)
    eq = next(r for r in find_equilibria(system, "All") if r.chart == Chart.UZ)
    cfg = IntegrationConfig(rel_tol=1e-12, abs_tol=1e-14)
    calls, accepted = _counted_leaf(monkeypatch, system, Chart.UZ, TimePath.circle(eq.location[1], 0.1),
                                    0.01, cfg)
    assert len(calls) <= 7 * accepted


def test_integrate_path_evaluates_every_stage_through_the_chart_field(monkeypatch):
    # x' = x^2 from x(0) = 1 along an arc from t = 0 to 1.2 that passes the
    # pole at t = 1 above it, where |x| grows past 2 and the state moves to UZ
    system = riccati_system()
    calls = []
    real = PlanarField.__call__

    def counting(fld, x, y):
        calls.append(fld)
        return real(fld, x, y)

    monkeypatch.setattr(PlanarField, "__call__", counting)
    traj = integrate_path(system, Chart.XY, (1.0, 0.0), TimePath((Arc(0.6, 0.6, math.pi, 0.0),)))
    monkeypatch.undo()
    assert traj.terminated_reason == Termination.COMPLETED
    charts = [smp.chart for smp in traj.samples]
    switches = sum(a != b for a, b in zip(charts, charts[1:]))
    assert switches == 1 and charts[-1] == Chart.UZ
    assert abs(traj.end.coords[0] - (1.0 - 1.2)) < 1e-9  # u = 1/x = 1 - t
    # every stage went to the active chart's field: XY's until the switch, UZ's after it
    n_xy = calls.count(system.xy_field)
    assert calls == [system.xy_field] * n_xy + [system.uz_field] * (len(calls) - n_xy)
    accepted = len(traj.samples) - 1 - switches
    assert 6 * accepted < len(calls) <= 7 * accepted


def test_rejected_attempt_reuses_the_first_stage(monkeypatch):
    # a retry from the same (s, y) keeps k1, and an accepted step hands its
    # last stage on (FSAL), so no field point of this one-arc loop is
    # evaluated twice; each rejected attempt costs 6 calls
    calls, accepted = _counted_leaf(monkeypatch, linear_uz_system(-1.0, -2.0), Chart.UZ,
                                    TimePath.circle(0.0, 0.1), 0.01, IntegrationConfig())
    rejected, rest = divmod(len(calls) - 1 - 6 * accepted, 6)
    assert rest == 0 and rejected >= 1
    assert len(set(calls)) == len(calls)


def _tableau_attempt(s, y, h, k1, rhs, seg, idx, atol, rtol):
    """One DP5(4) attempt with the tableau applied by generic loops, term by term."""
    def combine(y, weights, k):
        out = []
        for i, yi in enumerate(y):
            acc = 0j
            for w, kj in zip(weights, k):
                acc += w * kj[i]
            out.append(yi + h * acc)
        return tuple(out)

    k = [k1]
    for c, a in zip(_DP_C[1:], _DP_A[1:]):
        sc = s + c * h
        k.append(rhs(sc, combine(y, a, k), seg, min(max(sc - idx, 0.0), 1.0)))
    y_new = combine(y, _DP_B5, k)
    err_raw = math.sqrt(sum(
        (abs(e) / (atol + rtol * max(abs(old), abs(new)))) ** 2
        for old, new, e in zip(y, y_new, combine((0j,) * len(y), _DP_E, k))
    ) / len(y))
    return y_new, err_raw, k[6]


@pytest.mark.parametrize("n", [1, 2])
def test_compiled_attempt_matches_the_tableau_bit_for_bit(n):
    rng = random.Random(n)
    coeffs = [complex(rng.uniform(-2, 2), rng.uniform(-2, 2)) for _ in range(3 * n)]

    def field(calls):
        def rhs(s, y, seg, sigma):
            calls.append((s, y, sigma))
            tdot = seg.velocity(sigma)
            return tuple((coeffs[3 * i] * y[i] * y[i - 1] + coeffs[3 * i + 1] * s + coeffs[3 * i + 2]) * tdot
                         for i in range(n))
        return rhs

    attempt = _compile_attempt(n)
    assert _compile_attempt(n) is attempt  # compiled once per state size
    for _ in range(200):
        idx = rng.randrange(3)
        # the march may start a step a rounding error before its segment,
        # and a step may poke stages past the segment end: both are clamped
        s = idx + rng.choice((-1e-10, 0.0, rng.random()))
        h = 10.0 ** rng.uniform(-12, 0)
        y = tuple(complex(rng.gauss(0, 1), rng.gauss(0, 1)) for _ in range(n))
        seg = Arc(rng.uniform(-1, 1), rng.uniform(0.1, 1), rng.uniform(-3, 3), rng.uniform(-3, 3))
        atol, rtol = 10.0 ** rng.uniform(-14, -6), 10.0 ** rng.uniform(-12, -4)
        k1 = field([])(s, y, seg, min(max(s - idx, 0.0), 1.0))
        want_calls, got_calls = [], []
        want = _tableau_attempt(s, y, h, k1, field(want_calls), seg, idx, atol, rtol)
        got = attempt(s, y, h, k1, field(got_calls), seg, idx, atol, rtol)
        assert got == want  # the same floats, not merely close ones
        assert got_calls == want_calls


def test_a_stage_that_divides_by_zero_reaches_the_step_controller():
    pole = ZeroDivisionError("pole")

    def rhs(s, y, seg, sigma):
        if len(calls) == 3 and poles:  # stage 4 of the first attempt, once
            raise poles.pop()
        calls.append(s)
        return (1 + 0j,)

    calls, poles = [], [pole]
    with pytest.raises(ZeroDivisionError) as caught:
        _compile_attempt(1)(0.0, (0j,), 0.05, rhs(0.0, (0j,), None, 0.0), rhs, Line(0.0, 1.0), 0, 1e-12, 1e-10)
    assert caught.value is pole
    # in the march, the attempt is retried at a tenth of the step
    calls, poles, ends = [], [pole], []
    path = TimePath.from_points([0.0, 1.0])
    cfg = IntegrationConfig(max_step=0.05)
    assert _march(path, (0j,), cfg, rhs, lambda s, y, seg, sigma: ends.append(s)) == Termination.COMPLETED
    assert ends[0] == 0.1 * 0.05 and ends[-1] == 1.0


# ------------------------------------------------------- march terminations

def test_branch_point_on_the_path_underflows_in_the_blowup_chart():
    # x' = x^3 from x0 = 1: x(t) = (1 - 2t)^(-1/2).  At t = 1/2 this is a
    # branch point, not a pole: even in UZ, u = (1 - 2t)^(1/2) has unbounded
    # slope there, so the step collapses.
    sys = to_charts(PlanarField(P([(3, 0, 1.0)]), P([(0, 1, -1.0)])))
    traj = integrate_path(sys, Chart.XY, (1.0, 0.0), TimePath.from_points([0.0, 1.0]), TIGHT)
    assert traj.terminated_reason == Termination.STEP_UNDERFLOW
    assert traj.end.chart == Chart.UZ
    assert abs(traj.end.t - 0.5) < 1e-9


def test_start_on_the_line_at_infinity_underflows():
    # the UZ chart divides by the Euler multiplier u^(m-1), which vanishes at
    # u = 0: a stage that divides by zero is rejected like an infinite error
    traj = integrate_path(riccati_system(), Chart.UZ, (0.0, 0.5), TimePath.from_points([0.0, 0.5]), TIGHT)
    assert traj.terminated_reason == Termination.STEP_UNDERFLOW
    assert len(traj.samples) == 1


def test_leaf_continuation_through_a_base_zero_raises_tangency():
    # x' = x, y' = -y: the UZ base field vanishes at z = 0, where the base
    # segment starts, so the leaf cannot be written over the base there.
    sys = to_charts(PlanarField(P([(1, 0, 1.0)]), P([(0, 1, -1.0)])))
    with pytest.raises(SectionTangencyError):
        continue_leaf(sys.uz_field, TimePath.from_points([0.0, 0.1]), 0.01, TIGHT)
