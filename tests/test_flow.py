import cmath
import collections
import dis
import math
import random
from fractions import Fraction

import numpy as np
import pytest

import blowup.flow
from blowup.algebra import BivariatePolynomial, Chart, PlanarField, to_charts
from blowup.equilibria import find_equilibria
from blowup.flow import (
    Arc,
    IntegrationConfig,
    Line,
    NotClosedError,
    PathDiscontinuityError,
    SectionTangencyError,
    StepUnderflowError,
    Termination,
    TimePath,
    TooCoarseError,
    _order,
    _series,
    _step_code,
    continue_leaf,
    integrate_path,
    winding_number,
)
from blowup.hamiltonian import hamiltonian_field
from blowup.scenarios import catalog_get, catalog_names

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


def test_lines_join_far_from_time_zero():
    # the first line's end evaluates as its start + (end - start), 3.8e-12 from 0.001
    path = TimePath((Line(1e5 + 0.3j, 0.001), Line(0.001, 1.0)))
    assert abs(path.segments[0].point(1.0) - 0.001) > 1e-12


def test_circle_path_is_closed():
    path = TimePath.circle(1.0, 0.5, cycles=2)  # checks the join from one round to the next
    assert path.point(0.0) == pytest.approx(1.5)
    assert path.point(0.5) == pytest.approx(0.5)


def test_multicycle_requires_closed():
    with pytest.raises(PathDiscontinuityError):
        TimePath((Line(0.0, 1.0),) * 2)


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
    # the continuation is real again with x(2) = 1/(1-2) = -1.  On the arc
    # |x| = 1/0.45 lies past the chart-switch threshold 2 (a radius of 0.5
    # would put it exactly on the threshold, where roundoff decides).
    path = TimePath((
        Line(0.0, 0.55),
        Arc(1.0, 0.45, math.pi, 0.0),
        Line(1.45, 2.0),
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

def _recording_series(monkeypatch) -> list:
    """The field of every series expansion the integrators make, in order."""
    expanded = []
    real = blowup.flow._series

    def recording(fld, *args):
        series = real(fld, *args)

        def counted(state, t):
            expanded.append(fld)
            return series(state, t)
        return counted

    monkeypatch.setattr(blowup.flow, "_series", recording)
    return expanded


def test_tight_tolerance_leaf_costs_at_most_seven_rhs_calls_per_step(monkeypatch):
    # at rel_tol = 1e-12 a low-order step had to reach the roundoff floor;
    # a series step evaluates the field once, as its expansion, is never
    # retried, and stays long
    system = to_charts(catalog_get("golden_node").system)
    eq = next(r for r in find_equilibria(system, "All") if r.chart == Chart.UZ)
    cfg = IntegrationConfig(rel_tol=1e-12, abs_tol=1e-14)
    expanded = _recording_series(monkeypatch)
    res = continue_leaf(system.field(Chart.UZ), TimePath.circle(eq.location[1], 0.1), 0.01, cfg)
    accepted = len(res["fiber_trace"]) - 1
    assert expanded == [system.field(Chart.UZ)] * accepted
    assert accepted <= 60


def test_a_chart_switch_rebinds_the_step(monkeypatch):
    # x' = x^2 from x(0) = 1 along an arc from t = 0 to 1.2 that passes the
    # pole at t = 1 above it, where |x| grows past 2 and the state moves to UZ
    system = riccati_system()
    expanded = _recording_series(monkeypatch)
    traj = integrate_path(system, Chart.XY, (1.0, 0.0), TimePath((Arc(0.6, 0.6, math.pi, 0.0),)))
    assert traj.terminated_reason == Termination.COMPLETED
    charts = [smp.chart for smp in traj.samples]
    switches = sum(a != b for a, b in zip(charts, charts[1:]))
    assert switches == 1 and charts[-1] == Chart.UZ
    assert abs(traj.end.coords[0] - (1.0 - 1.2)) < 1e-9  # u = 1/x = 1 - t
    # every step expanded the active chart's field: XY's until the switch, UZ's after it
    n_xy = expanded.count(system.xy_field)
    assert 0 < n_xy < len(expanded)
    assert expanded == [system.xy_field] * n_xy + [system.uz_field] * (len(expanded) - n_xy)
    assert len(expanded) == len(traj.samples) - 1 - switches


def test_a_march_evaluates_its_path_once_per_step_and_once_per_segment(monkeypatch):
    # each step ends at a path point, and the next step expands from that
    # same point; only a segment's start is evaluated afresh
    path = TimePath((Line(0.0, 0.5), Arc(0.75, 0.25, math.pi, 0.0)))  # built first: its joins read points too
    calls = collections.Counter()
    for cls in (Line, Arc):
        def counted(self, sigma, real=cls.point, name=cls.__name__):
            calls[name] += 1
            return real(self, sigma)
        monkeypatch.setattr(cls, "point", counted)
    traj = integrate_path(riccati_system(), Chart.XY, (0.5, 0.0), path, TIGHT)
    assert traj.terminated_reason == Termination.COMPLETED
    assert all(smp.chart == Chart.XY for smp in traj.samples)  # no switch restates a sample
    on_line = sum(0.0 < smp.s <= 1.0 for smp in traj.samples)
    on_arc = sum(smp.s > 1.0 for smp in traj.samples)
    assert on_line > 1 and on_arc > 1
    # the line also gives the start sample's time, path.point(0.0)
    assert calls == {"Line": 1 + 1 + on_line, "Arc": 1 + on_arc}


def _reference_tails(coeffs, cfg):
    """Weighted sums of squares of y_(p-1) and y_p, by the loop the generated ``tails`` replaced."""
    last = before = 0.0
    for c in coeffs:
        w = 1.0 / (cfg.abs_tol + cfg.rel_tol * abs(c[0]))
        a, b = abs(c[-2]) * w, abs(c[-1]) * w
        before += a * a
        last += b * b
    return before, last


def _reference_step_length(coeffs, cfg, speed, longest):
    """0.8 of the longest step whose last two series terms meet the tolerance per unit step, up to ``longest``.

    The rule as a function, worked in logarithms: ||y_k|| (speed h)^k / h
    <= 1 for k = p-1 and p, the RMS over components of the weighted terms;
    a coefficient that is not finite gives 0.
    """
    order = len(coeffs[0]) - 1
    before, last = _reference_tails(coeffs, cfg)
    log_h = math.log(longest / 0.8)
    for k, square in ((order - 1, before), (order, last)):
        norm = math.sqrt(square / len(coeffs))
        if norm != norm:
            return 0.0
        if norm > 0.0 and speed > 0.0:
            log_h = min(log_h, -(math.log(norm) + k * math.log(speed)) / (k - 1))
    return min(longest, 0.8 * math.exp(log_h))


def _reference_horner(c, dt):
    acc = 0j
    for ck in reversed(c):
        acc = acc * dt + ck
    return acc


@pytest.mark.parametrize("seed", [1, 2])
def test_generated_step_helpers_match_the_reference_loops_bit_for_bit(seed):
    rng = random.Random(20 + seed)
    components = collections.Counter()
    for fld, kind, exponent in _series_cases(seed):
        order = rng.choice((4, 7, 15))
        n = {"leaf": 1, "path": 2, "clock": 3}[kind]
        tails, advance = _step_code(n, order)
        assert _step_code(n, order) == (tails, advance)  # generated once per component count and order
        cfg = IntegrationConfig(rel_tol=10.0 ** rng.uniform(-14, -3), abs_tol=10.0 ** rng.uniform(-16, -3))
        state = tuple(complex(rng.gauss(0, 0.5), rng.gauss(0, 0.5)) for _ in range(n))
        coeffs = _series(fld, order, kind, exponent)(state, complex(rng.gauss(0, 0.5), rng.gauss(0, 0.5)))
        dt = complex(rng.gauss(0, 0.1), rng.gauss(0, 0.1))
        assert tails(coeffs, cfg.abs_tol, cfg.rel_tol) == _reference_tails(coeffs, cfg)  # the same floats
        assert advance(coeffs, dt) == tuple(_reference_horner(c, dt) for c in coeffs)
        components[n] += 1
    assert set(components) == {1, 2, 3}


@pytest.mark.parametrize("bad", [complex(math.nan, 0.0), complex(math.inf, 1.0), complex(0.5, -math.inf)])
def test_a_coefficient_that_is_not_finite_gives_step_zero(bad):
    cfg = IntegrationConfig()
    order = _order(cfg.rel_tol)
    coeffs = ((0.5 + 0j,) + (0.1j,) * (order - 1) + (bad,),)
    assert _reference_step_length(coeffs, cfg, 1.0, cfg.max_step) == 0.0
    before, last = _step_code(1, order)[0](coeffs, cfg.abs_tol, cfg.rel_tol)
    assert before == _reference_tails(coeffs, cfg)[0] and not math.isfinite(last)
    with pytest.raises(StepUnderflowError):  # the march's rule gives the same step 0
        blowup.flow._march(TimePath.from_points([0.0, 1.0]), (0.5 + 0j,), cfg,
                           lambda t, y: (coeffs, math.inf), lambda s, y, t: None)


def test_the_march_steps_by_the_reference_rule_bit_for_bit(monkeypatch):
    # x' = x^2 from x0 = 0.5 along a line and an arc: every step's length
    # and end state are the reference rule's and Horner's, and each step
    # expands at the time where the last one ended, or at its segment's start
    expansions = []
    real = blowup.flow._series

    def recording(fld, *args):
        series = real(fld, *args)

        def recorded(state, t):
            expansions.append((state, t, series(state, t)))
            return expansions[-1][2]
        return recorded

    monkeypatch.setattr(blowup.flow, "_series", recording)
    path = TimePath((Line(0.0, 0.5), Arc(0.75, 0.25, math.pi, 0.0)))
    cfg = IntegrationConfig(rel_tol=1e-11, abs_tol=1e-13, max_step=0.3)
    traj = integrate_path(riccati_system(), Chart.XY, (0.5, 0.0), path, cfg)
    assert traj.terminated_reason == Termination.COMPLETED
    assert len(expansions) == len(traj.samples) - 1
    starts = 0
    for (state, t, coeffs), here, there in zip(expansions, traj.samples, traj.samples[1:]):
        idx = int(math.floor(here.s + 1e-9))
        seg, s1 = path.segments[idx], idx + 1.0
        t0 = seg.point(0.0) if here.s == idx else here.t
        starts += here.s == idx
        assert (state, t) == (here.coords, t0)
        h = _reference_step_length(coeffs, cfg, abs(seg.velocity(0.0)), min(cfg.max_step, s1 - here.s))
        assert there.s == (s1 if s1 - here.s <= h * (1.0 + 1e-9) else here.s + h)
        assert there.coords == tuple(_reference_horner(c, there.t - t0) for c in coeffs)
    assert starts == 2


def test_a_square_forms_each_mirrored_product_once():
    # x' = x^2: the Cauchy sum of (x^2)_k reads a_i * a_(k-i) and its mirror
    # a_(k-i) * a_i, the same float.  Formed once each, the square takes
    # sum_k ceil((k + 1) / 2) = 64 products at p = 15, where the full sums
    # took 120; 15 more multiply (x^2)_k by its coefficient
    series = _series(PlanarField(P([(2, 0, 1.0)]), P([])), 15, "path")
    products = sum(ins.opname == "BINARY_OP" and ins.argrepr == "*" for ins in dis.get_instructions(series))
    assert products == 64 + 15


def _reference_series(rows, denominator, base, order, state, t):
    """Taylor coefficients of y' = A + B / D per row by list-based recurrences.

    ``rows`` holds per component its direct part A and its divided part B.
    The polynomials are in (x, y): the first two state components, or with
    ``base`` the first one and the independent variable, whose series is
    (t, 1, 0, ...).  Each order recomputes every power x^j = x^(j-1) * x,
    y^l = y^(l-1) * y and product x^j * y^l from scratch as Cauchy sums.  A
    row with a B carries its quotient r_k = (B_k - sum_(j>=1) D_j r_(k-j)) /
    D_0, and q_k = A_k + r_k; a row without one is q_k = A_k, and divides
    by nothing.
    """
    ys = [[complex(v)] for v in state]

    def cauchy(a, b, k):
        return sum(a[i] * b[k - i] for i in range(k + 1))

    def monomial(j, l, x, y, k):
        if (j, l) == (0, 0):
            return [1 + 0j] + [0j] * k
        if (j, l) in ((1, 0), (0, 1)):
            return (x if j else y)[:k + 1]
        if l == 0:
            a, b = monomial(j - 1, 0, x, y, k), x
        elif j == 0:
            a, b = monomial(0, l - 1, x, y, k), y
        else:
            a, b = monomial(j, 0, x, y, k), monomial(0, l, x, y, k)
        return [cauchy(a, b, i) for i in range(k + 1)]

    def value(p, x, y, k):
        return sum(c * monomial(j, l, x, y, k)[k] for (j, l), c in p.terms.items())

    rs = [[] for _ in rows]
    for k in range(order):
        x = ys[0]
        y = [complex(t), 1 + 0j] + [0j] * order if base else ys[1]
        for i, (direct, divided) in enumerate(rows):
            q = value(direct, x, y, k)
            if not divided.is_zero:
                ds = [value(denominator, x, y, j) for j in range(k + 1)]
                rs[i].append((value(divided, x, y, k) - sum(ds[j] * rs[i][k - j] for j in range(1, k + 1))) / ds[0])
                q = q + rs[i][k]
            ys[i].append(q / (k + 1))
    return tuple(tuple(c) for c in ys)


def _split(p, e):
    """P = x^e A + B: A the terms of x-degree e and above, lowered by e, and B the rest."""
    return (BivariatePolynomial({(j - e, l): c for (j, l), c in p.terms.items() if j >= e}),
            BivariatePolynomial({(j, l): c for (j, l), c in p.terms.items() if j < e}))


def _random_poly(rng, n_terms, max_degree):
    return P([(j, d - j, complex(rng.uniform(-2, 2), rng.uniform(-2, 2)))
              for d, j in ((d, rng.randint(0, d)) for d in (rng.randint(0, max_degree) for _ in range(n_terms)))])


def _series_cases(seed):
    """(field, kind, exponent) triples: random sparse fields in every kind, and catalog charts."""
    rng = random.Random(seed)
    for _ in range(12):
        fld = PlanarField(_random_poly(rng, rng.randint(1, 4), 3), _random_poly(rng, rng.randint(1, 4), 3))
        for kind, exponent in (("path", None), ("path", rng.randint(1, 3)), ("leaf", None),
                               ("clock", rng.randint(0, 3))):
            yield fld, kind, exponent
    for name in catalog_names():
        system = catalog_get(name).system
        charts = to_charts(system if isinstance(system, PlanarField) else hamiltonian_field(system))
        yield charts.xy_field, "path", None
        for chart in (Chart.UZ, Chart.VW):
            yield charts.field(chart), "path", charts.euler_exponent
            yield charts.field(chart), "leaf", None
            yield charts.field(chart), "clock", charts.euler_exponent


@pytest.mark.parametrize("seed", [1, 2])
def test_generated_series_matches_the_reference_recurrence_bit_for_bit(seed):
    rng = random.Random(10 + seed)
    cases = 0
    for fld, kind, exponent in _series_cases(seed):
        e, zero = exponent or 0, P([])
        power = P([(e, 0, 1.0)])
        rows, denominator, base = {"path": ((_split(fld.f, e), _split(fld.g, e)), power, False),
                                   "leaf": (((zero, fld.f),), fld.g, True),
                                   "clock": (((fld.f, zero), (fld.g, zero), (power, zero)), None, False)}[kind]
        order = rng.choice((4, 7, 15))
        series = _series(fld, order, kind, exponent)
        assert _series(fld, order, kind, exponent) is series  # generated once per field, kind and order
        for _ in range(3):
            state = tuple(complex(rng.gauss(0, 0.5), rng.gauss(0, 0.5)) for _ in range(len(rows)))
            t = complex(rng.gauss(0, 0.5), rng.gauss(0, 0.5))
            want = _reference_series(rows, denominator, base, order, state, t)
            assert series(state, t) == want  # the same floats, not merely close ones
            cases += 1
    assert cases > 100


@pytest.mark.parametrize("x0", [1.5, 1 + 1j, -0.5j])
def test_series_of_x_squared_is_geometric(x0):
    # x' = x^2 from x0 is x0 / (1 - x0 t) = sum x0^(k+1) t^k, and with these
    # x0 every product and quotient in the recurrence is exact
    series = _series(riccati_system().xy_field, 15, "path")
    x, y = series((complex(x0), 0j), 0j)
    assert x == tuple(complex(x0) ** (k + 1) for k in range(16))
    assert y == (0j,) * 16


def _exact_path_series(fld, exponent, state, order):
    """Taylor coefficients of y' = (f, g)(y) / x^exponent in exact rational arithmetic, for real fields and states."""
    def product(a, b):
        return [sum(a[i] * b[m - i] for i in range(m + 1)) for m in range(len(a))]

    def power(a, n):
        p = [Fraction(1)] + [Fraction(0)] * (len(a) - 1)
        for _ in range(n):
            p = product(p, a)
        return p

    ys = [[Fraction(v)] for v in state]
    for k in range(order):
        x, y = ys
        d = power(x, exponent)
        new = []
        for p in (fld.f, fld.g):
            num = [Fraction(0)] * (k + 1)
            for (j, l), c in p.terms.items():
                num = [n + Fraction(c.real) * m for n, m in zip(num, product(power(x, j), power(y, l)))]
            q = []
            for m in range(k + 1):
                q.append((num[m] - sum(d[j] * q[m - j] for j in range(1, m + 1))) / d[0])
            new.append(q[k] / (k + 1))
        for c, v in zip(ys, new):
            c.append(v)
    return ys


def test_a_blowup_chart_u_series_matches_exact_arithmetic():
    # riccati's UZ field is (-u + u^3, -z - u z + u^2 z) and the Euler
    # multiplier is u: F_u / u = -1 + u^2 takes no division, and its
    # coefficients are exact to roundoff; dividing all of F_u by u = 0.05
    # amplified roundoff about twentyfold per order, to 25% at order 12
    charts = to_charts(catalog_get("riccati").system)
    assert all(c.imag == 0 for p in (charts.uz_field.f, charts.uz_field.g) for c in p.terms.values())
    exact = _exact_path_series(charts.uz_field, charts.euler_exponent, (0.05, 0.3), 12)
    u, _ = _series(charts.uz_field, 12, "path", charts.euler_exponent)((0.05 + 0j, 0.3 + 0j), 0j)
    assert all(abs(got - float(want)) <= 1e-14 * abs(float(want)) for got, want in zip(u, exact[0]))


def test_a_blowup_chart_row_that_u_divides_is_exact():
    # rational_node's UZ field is (-n2 u, -n1 z + gamma u^2): u' = -n2 exactly,
    # and only F_z's remainder -n1 z is divided by u
    charts = to_charts(catalog_get("rational_node", {"n1": 4, "n2": 5}).system)
    series = _series(charts.uz_field, 15, "path", charts.euler_exponent)
    u, _ = series((0.05 + 0.01j, 0.3 - 0.2j), 0j)
    assert u == (0.05 + 0.01j, -5) + (0,) * 14
    # the generated code holds the quotients r1_k of row 1 alone: row 0 is never divided by d_0
    assert {name.partition("_")[0] for name in series.__code__.co_varnames if name.startswith("r")} == {"r1"}


def test_a_component_of_finite_degree_is_not_read_past_its_degree():
    # golden_node's UZ field is (-u, -phi z + u^2) with Euler multiplier u:
    # u' = -1 makes u linear in t, so no product, quotient or power reads
    # u_k past k = 1, and D = u stops at d_1; only the return reads u_2 .. u_15
    loads = collections.Counter()
    charts = to_charts(catalog_get("golden_node").system)
    series = _series(charts.uz_field, 15, "path", charts.euler_exponent)
    for ins in dis.get_instructions(series):
        if ins.opname.startswith("LOAD_FAST"):
            loads.update(ins.argval if isinstance(ins.argval, tuple) else (ins.argval,))
    assert all(loads[f"a0_{k}"] == 1 for k in range(2, 16))
    assert {name for name in loads if name.startswith("d_")} == {"d_0", "d_1"}
    u, _ = series((0.05 + 0.01j, 0.3 - 0.2j), 0j)
    assert u == (0.05 + 0.01j, -1) + (0,) * 14


def test_no_step_jumps_over_the_singularity_ball():
    # in UZ, x' = x^2 is u' = -1: the series ends at order 1, so only
    # max_step (0.06 in t on this path) limits a step, and a ball of radius
    # 1e-3 around u = 0 would fall between two step ends
    cfg = IntegrationConfig(rel_tol=1e-12, abs_tol=1e-14, singularity_radius=1e-3)
    traj = integrate_path(riccati_system(), Chart.XY, (1.0, 0.0), TimePath.from_points([0.0, 1.2]), cfg,
                          designated_equilibrium=(Chart.UZ, (0.0, 0.0)))
    assert traj.terminated_reason == Termination.ENTERED_SINGULARITY_BALL
    assert traj.end.chart == Chart.UZ
    assert abs(traj.end.coords[0]) < 1e-3
    assert abs(traj.end.t - (1.0 - traj.end.coords[0])) < 1e-12  # u = 1 - t


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
    # in UZ, x' = x^2, y' = -y is u' = -1 and z' = (-z - u z) / u: the
    # remainder -z of F_z is divided by the Euler multiplier u, which
    # vanishes at u = 0, so the first expansion divides by zero and the
    # step collapses
    traj = integrate_path(riccati_system(), Chart.UZ, (0.0, 0.5), TimePath.from_points([0.0, 0.5]), TIGHT)
    assert traj.terminated_reason == Termination.STEP_UNDERFLOW
    assert len(traj.samples) == 1


def test_leaf_continuation_through_a_base_zero_raises_tangency():
    # x' = x, y' = -y: the UZ base field vanishes at z = 0, where the base
    # segment starts, so the leaf cannot be written over the base there.
    sys = to_charts(PlanarField(P([(1, 0, 1.0)]), P([(0, 1, -1.0)])))
    with pytest.raises(SectionTangencyError):
        continue_leaf(sys.uz_field, TimePath.from_points([0.0, 0.1]), 0.01, TIGHT)
