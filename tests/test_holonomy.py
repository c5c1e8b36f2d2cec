import cmath
import json
import math

import pytest

import blowup.equilibria
import blowup.holonomy
from blowup.algebra import BivariatePolynomial, Chart, PlanarField, to_charts
from blowup.cli import run_command
from blowup.equilibria import classify_spectrum, find_equilibria
from blowup.flow import FlowError, IntegrationConfig, Termination, TimePath, Trajectory
from blowup.holonomy import (
    DetourError,
    LoopHitsSingularityError,
    NoInvariantFiberError,
    NotClosedReportError,
    approach_blowup,
    blowup_star,
    holonomy_multiplier,
    masuda_detour,
)
from blowup.scenarios import GOLDEN_MEAN, catalog_get

P = BivariatePolynomial.from_coeffs

APPROACH_CFG = IntegrationConfig(rel_tol=1e-12, abs_tol=1e-14, singularity_radius=0.02)
LOOP_CFG = IntegrationConfig(rel_tol=1e-12, abs_tol=1e-14, max_step=0.02)


def classified_infinity_eq(system, chart, coord):
    from blowup.equilibria import EquilibriumRecord
    rec = EquilibriumRecord(chart, (0.0 + 0.0j, complex(coord)))
    return classify_spectrum(system, rec)


# ------------------------------------------------------- holonomy_multiplier

@pytest.mark.parametrize("quotient,", [(0.5,), (2.0 / 3.0,), (-1.0,), (GOLDEN_MEAN,)])
def test_linear_holonomy_multiplier_matches_spectral_quotient(quotient):
    (q,) = quotient if isinstance(quotient, tuple) else (quotient,)
    entry = catalog_get("linear_quotient", {"q": q})
    sys = to_charts(entry.system)
    eq = classified_infinity_eq(sys, Chart.UZ, 0.0)
    assert eq.spectral_quotient == pytest.approx(q, abs=1e-12)
    est = holonomy_multiplier(sys, eq, base_radius=0.1)
    assert abs(est.multiplier - cmath.exp(2j * math.pi * q)) < 1e-6
    assert est.deviation < 1e-6


def test_equal_eigenvalues_multiplier_is_one():
    # Semisimple double eigenvalue: (x^2, -y) has uz chart (-u, -z - u z),
    # spectral quotient 1 at the origin, holonomy multiplier exp(2 pi i) = 1.
    fld = PlanarField(P([(2, 0, 1.0)]), P([(0, 1, -1.0)]))
    sys = to_charts(fld)
    eq = classified_infinity_eq(sys, Chart.UZ, 0.0)
    est = holonomy_multiplier(sys, eq, base_radius=0.1)
    assert abs(est.multiplier - 1.0) < 1e-7


def test_homogeneous_multipliers_match_residue_formula():
    entry = catalog_get("homogeneous", {"fy": 1.0, "gx": 2.0})
    sys = to_charts(entry.system)
    for key, lam in entry.expected["holonomy_quotients"].items():
        e = complex(key.replace("j", "j"))
        eq = classified_infinity_eq(sys, Chart.UZ, e)
        assert eq.spectral_quotient == pytest.approx(lam, abs=1e-9)
        est = holonomy_multiplier(sys, eq, base_radius=0.1)
        assert abs(est.multiplier - cmath.exp(2j * math.pi * lam)) < 1e-6


def test_homogeneous_nontrivial_quotients():
    # f = x^2 + y^2, g = 3xy: quotients -1/2 at z=0 and 3/4 at z = +-sqrt(2).
    entry = catalog_get("homogeneous", {"fy": 1.0, "gx": 3.0})
    sys = to_charts(entry.system)
    eq0 = classified_infinity_eq(sys, Chart.UZ, 0.0)
    assert eq0.spectral_quotient == pytest.approx(-0.5, abs=1e-12)
    est0 = holonomy_multiplier(sys, eq0, base_radius=0.1)
    assert abs(est0.multiplier - (-1.0)) < 1e-6


def test_holonomy_orientation_reversal_inverts_multiplier():
    entry = catalog_get("linear_quotient", {"q": 2.0 / 3.0})
    sys = to_charts(entry.system)
    eq = classified_infinity_eq(sys, Chart.UZ, 0.0)
    from blowup.flow import Arc, continue_leaf
    fwd = TimePath.circle(0.0, 0.1)
    rev = TimePath((Arc(0.0, 0.1, 2.0 * math.pi, 0.0),))
    r = 1e-3
    m_fwd = continue_leaf(sys.uz_field, fwd, r)["fiber_end"] / r
    m_rev = continue_leaf(sys.uz_field, rev, r)["fiber_end"] / r
    assert abs(m_fwd * m_rev - 1.0) < 1e-7


@pytest.mark.parametrize("name, params, index", [
    pytest.param("golden_node", {}, 0, id="golden_node-eq0"),
    pytest.param("rational_node", {"n1": 3, "n2": 5}, 0, id="rational_node-3-5-eq0"),
    pytest.param("galerkin_asymmetric", {}, 0, id="galerkin_asymmetric-eq0-UZ"),
    pytest.param("galerkin_asymmetric", {}, 1, id="galerkin_asymmetric-eq1-VW"),
    pytest.param("galerkin_symmetric", {}, 1, id="galerkin_symmetric-eq1-VW-jordan"),
    pytest.param("jordan_block", {}, 0, id="jordan_block-eq0"),
])
def test_multiplier_of_a_nonlinear_fiber_is_exp_2_pi_i_lambda(name, params, index):
    # the fiber's higher germ coefficients must not leak into h'(0): these
    # fields are nonlinear in the fiber, in both charts, and some of the
    # points are not semisimple
    from blowup.cli import classified_equilibria
    sys = to_charts(catalog_get(name, params).system)
    eq = classified_equilibria(sys)[index]
    assert eq.chart in (Chart.UZ, Chart.VW) and eq.spectral_quotient is not None
    est = holonomy_multiplier(sys, eq, base_radius=0.1)
    assert abs(est.multiplier - cmath.exp(2j * math.pi * eq.spectral_quotient)) < 1e-12


@pytest.mark.parametrize("name, params, index, radius", [
    *(pytest.param("linear_quotient", {"q": q}, 0, radius, id=f"linear_quotient-{q}-R{radius:g}")
      for q in (0.5, -0.5) for radius in (1e-12, 1e-10, 0.1, 1e15, 1e100, 1e300)),
    # centred at z = 1/sqrt(2), where the other roots of F_z(0, z) bound R
    *(pytest.param("homogeneous", {"fy": 1.0, "gx": 3.0}, 2, radius, id=f"homogeneous-off-centre-R{radius:g}")
      for radius in (1e-12, 1e-8, 0.1)),
])
def test_multiplier_does_not_depend_on_the_base_radius(name, params, index, radius):
    # in z the leaf's coefficients scale as R^-k: past R = 1e15 the tail
    # underflowed and read as converged (the multiplier at R = 1e200 was
    # -0.78 for -1), and at R = 1e-10 every step underflowed
    from blowup.cli import classified_equilibria
    sys = to_charts(catalog_get(name, params).system)
    eq = classified_equilibria(sys)[index]
    assert holonomy_multiplier(sys, eq, base_radius=radius).deviation < 1e-14


def test_a_base_radius_past_the_double_range_is_a_numerical_failure():
    # x' = x^2 + y^2, y' = xy: F_z(0, z) = -z^3 has no other root, so no
    # radius is refused; the leaf's z^2 coefficient carries R^2
    sys = to_charts(PlanarField(P([(2, 0, 1.0), (0, 2, 1.0)]), P([(1, 1, 1.0)])))
    eq = classified_infinity_eq(sys, Chart.UZ, 0.0)
    assert abs(holonomy_multiplier(sys, eq, base_radius=1e100).multiplier - 1.0) < 1e-14
    with pytest.raises(FlowError, match="overflows the leaf's coefficients"):
        holonomy_multiplier(sys, eq, base_radius=1e200)


def test_a_fiber_that_grows_large_is_no_tangency():
    # the same field at R = 0.1: d(fiber)/dz = fiber (1/z^3 + 1/z) carries the
    # fiber to about 3e43 around the circle, where the base field -z^3 never
    # vanishes; a bound of 1e10 on d(fiber)/d(base) itself, not measured
    # against the fiber, called that a tangency
    sys = to_charts(PlanarField(P([(2, 0, 1.0), (0, 2, 1.0)]), P([(1, 1, 1.0)])))
    eq = classified_infinity_eq(sys, Chart.UZ, 0.0)
    assert abs(holonomy_multiplier(sys, eq, base_radius=0.1).multiplier - 1.0) < 1e-13


@pytest.mark.parametrize("radius", [0.0, -1.0, math.nan, math.inf])
def test_base_radius_must_be_finite_and_positive(radius):
    sys = to_charts(catalog_get("golden_node").system)
    eq = classified_infinity_eq(sys, Chart.UZ, 0.0)
    with pytest.raises(ValueError, match="base radius must be finite and positive"):
        holonomy_multiplier(sys, eq, base_radius=radius)


def test_holonomy_reuses_the_equilibrium_search_of_its_system(monkeypatch):
    # the neighbour check of holonomy_multiplier used to search again
    from blowup.cli import classified_equilibria
    searches = []
    real = blowup.equilibria._infinity_equilibria
    monkeypatch.setattr(blowup.equilibria, "_infinity_equilibria", lambda csys: searches.append(csys) or real(csys))
    sys = to_charts(catalog_get("golden_node").system)
    eq = classified_equilibria(sys)[0]
    holonomy_multiplier(sys, eq, base_radius=0.1)
    assert searches == [sys]
    found = find_equilibria(sys)
    found.clear()
    assert find_equilibria(sys) == find_equilibria(to_charts(catalog_get("golden_node").system)) != []
    assert len(searches) == 2


def test_no_invariant_fiber_for_finite_equilibrium():
    entry = catalog_get("riccati", {})
    sys = to_charts(entry.system)
    recs = find_equilibria(sys, "FiniteOnly")
    eq = classify_spectrum(sys, recs[0])
    with pytest.raises(NoInvariantFiberError):
        holonomy_multiplier(sys, eq, base_radius=0.1)


# ------------------------------------------------------------ masuda_detour

def scalar_power_detour(m: int, cycles: int, radius_scale: float = 0.5):
    entry = catalog_get("scalar_poly", {"m": m})
    sys = to_charts(entry.system)
    eq = classified_infinity_eq(sys, Chart.UZ, 0.0)
    approach = approach_blowup(sys, entry.suggested_start, eq, horizon=1.0, cfg=APPROACH_CFG)
    assert approach.terminated_reason == Termination.ENTERED_SINGULARITY_BALL
    gap = abs(approach.end.t - _fit_T(sys, approach, eq))
    return sys, eq, approach, gap


def _fit_T(sys, approach, eq):
    from blowup.holonomy import _blowup_time
    return _blowup_time(sys, approach, eq, APPROACH_CFG)[0]


@pytest.mark.parametrize("m", [2, 3, 4])
def test_scalar_power_detours_close_at_m_minus_1_cycles(m):
    sys, eq, approach, gap = scalar_power_detour(m, m - 1)
    report = masuda_detour(sys, eq, approach, loop_radius=0.5 * gap, cycles=m - 1, cfg=LOOP_CFG)
    assert report.closed
    assert report.discrepancy < 1e-7 * report.fiber_start_magnitude
    assert report.windings["w_t"] == m - 1
    assert report.windings["w_u"] == 1
    assert report.windings["w_z"] == 0  # dummy line stays put


def test_default_loop_radius_is_half_the_gap_to_blowup():
    sys, eq, approach, _ = scalar_power_detour(2, 1)
    report = masuda_detour(sys, eq, approach, loop_radius=None, cycles=1, cfg=LOOP_CFG)
    assert report.loop_radius == 0.5 * abs(approach.end.t - report.T_estimate)
    assert report.closed


@pytest.mark.parametrize("m,k", [(3, 1), (4, 1), (4, 2)])
def test_scalar_power_detours_fail_early(m, k):
    sys, eq, approach, gap = scalar_power_detour(m, k)
    report = masuda_detour(sys, eq, approach, loop_radius=0.5 * gap, cycles=k, cfg=LOOP_CFG)
    assert not report.closed
    assert report.discrepancy > 0.5 * report.fiber_start_magnitude


def test_riccati_detour_closes_in_one_cycle():
    sys, eq, approach, gap = scalar_power_detour(2, 1)
    report = masuda_detour(sys, eq, approach, loop_radius=0.5 * gap, cycles=1, cfg=LOOP_CFG)
    assert report.closed
    assert (report.windings["w_t"], report.windings["w_u"]) == (1, 1)


def node_detour(n1, n2, cycles, loop_radius=1e-3, start=None):
    entry = catalog_get("rational_node", {"n1": n1, "n2": n2, "gamma": 1.0})
    sys = to_charts(entry.system)
    eq = classified_infinity_eq(sys, Chart.UZ, 0.0)
    cfg = IntegrationConfig(rel_tol=1e-12, abs_tol=1e-14,
                            singularity_radius=4.0 * n2 * loop_radius)
    approach = approach_blowup(sys, start or entry.suggested_start, eq, horizon=1.0, cfg=cfg)
    assert approach.terminated_reason == Termination.ENTERED_SINGULARITY_BALL
    return sys, eq, approach, entry


def test_rational_node_two_thirds_closes_after_three_cycles():
    sys, eq, approach, entry = node_detour(2, 3, 3)
    report = masuda_detour(sys, eq, approach, loop_radius=1e-3, cycles=3, cfg=LOOP_CFG)
    assert report.closed
    assert report.discrepancy < 1e-6 * report.fiber_start_magnitude
    assert report.windings == {"w_t": 3, "w_u": 3, "w_z": 2}


@pytest.mark.parametrize("k", [1, 2])
def test_rational_node_two_thirds_fails_early(k):
    sys, eq, approach, entry = node_detour(2, 3, k)
    report = masuda_detour(sys, eq, approach, loop_radius=1e-3, cycles=k, cfg=LOOP_CFG)
    assert not report.closed
    assert report.discrepancy > 0.1 * report.fiber_start_magnitude


def test_rational_node_three_quarters_closure():
    sys, eq, approach, entry = node_detour(3, 4, 4)
    report = masuda_detour(sys, eq, approach, loop_radius=1e-3, cycles=4, cfg=LOOP_CFG)
    assert report.closed
    assert report.windings == {"w_t": 4, "w_u": 4, "w_z": 3}
    for k in (1, 2, 3):
        early = masuda_detour(sys, eq, approach, loop_radius=1e-3, cycles=k, cfg=LOOP_CFG)
        assert not early.closed
        assert early.discrepancy > 0.1 * early.fiber_start_magnitude


def test_semisimple_one_to_one_closes_in_single_cycle():
    sys, eq, approach, entry = node_detour(1, 1, 1)
    report = masuda_detour(sys, eq, approach, loop_radius=1e-3, cycles=1, cfg=LOOP_CFG)
    assert report.closed
    assert report.windings == {"w_t": 1, "w_u": 1, "w_z": 1}


def test_winding_law_hard_assertion_on_closed_reports():
    sys, eq, approach, entry = node_detour(2, 3, 3)
    report = masuda_detour(sys, eq, approach, loop_radius=1e-3, cycles=3, cfg=LOOP_CFG)
    assert report.windings["w_t"] == sys.euler_exponent * report.windings["w_u"]


def test_jordan_block_never_closes():
    entry = catalog_get("jordan_block")
    sys = to_charts(entry.system)
    eq = classified_infinity_eq(sys, Chart.UZ, 0.0)
    assert eq.semisimple is False
    cfg = IntegrationConfig(rel_tol=1e-11, abs_tol=1e-13, singularity_radius=0.05)
    approach = approach_blowup(sys, entry.suggested_start, eq, horizon=1.0, cfg=cfg)
    report = masuda_detour(sys, eq, approach, loop_radius=1e-2, cycles=20,
                           cfg=LOOP_CFG)
    assert not report.closed
    for k, d in enumerate(report.per_cycle_discrepancy, start=1):
        assert d > 1e-3 * report.fiber_start_magnitude
        # analytic gap: z picks up 2 pi k u per cycle
        assert d == pytest.approx(2.0 * math.pi * k * report.fiber_start_magnitude, rel=1e-2)


def test_golden_node_quasiperiodic_near_closure():
    entry = catalog_get("golden_node")
    sys = to_charts(entry.system)
    eq = classified_infinity_eq(sys, Chart.UZ, 0.0)
    cfg = IntegrationConfig(rel_tol=1e-11, abs_tol=1e-13, singularity_radius=0.0127)
    approach = approach_blowup(sys, entry.suggested_start, eq, horizon=1.0, cfg=cfg)
    report = masuda_detour(sys, eq, approach, loop_radius=1e-2, cycles=100,
                           cfg=IntegrationConfig(rel_tol=1e-11, abs_tol=1e-13, max_step=0.02))
    rel = [d / report.fiber_start_magnitude for d in report.per_cycle_discrepancy]
    assert rel[0] > 0.3
    assert min(rel) < 0.05
    assert rel.index(min(rel)) + 1 == entry.expected["best_cycle_below_100"]
    assert not report.closed


def test_loop_radius_past_endpoint_rejected():
    sys, eq, approach, entry = node_detour(2, 3, 1)
    with pytest.raises(ValueError, match="must stay under"):  # bad input, not a numerical failure
        masuda_detour(sys, eq, approach, loop_radius=10.0, cycles=1, cfg=LOOP_CFG)


@pytest.mark.parametrize("failing_call, what", [(1, "transport leg"), (3, "loop cycle 2")])
@pytest.mark.parametrize("reason, error", [
    (Termination.ENTERED_SINGULARITY_BALL, LoopHitsSingularityError),
    (Termination.STEP_UNDERFLOW, DetourError),
])
def test_leg_and_cycle_failures_map_to_typed_errors(failing_call, what, reason, error, monkeypatch):
    # the leg is the detour's first integrate_path call and cycle k its (k+1)-th
    sys, eq, approach, gap = scalar_power_detour(2, 3)
    calls = []
    real = blowup.holonomy.integrate_path

    def failing(*args, **kwargs):
        run = real(*args, **kwargs)
        calls.append(run)
        return Trajectory(run.samples, reason) if len(calls) == failing_call else run

    monkeypatch.setattr(blowup.holonomy, "integrate_path", failing)
    with pytest.raises(error) as caught:
        masuda_detour(sys, eq, approach, loop_radius=0.5 * gap, cycles=3, cfg=LOOP_CFG)
    assert type(caught.value) is error
    assert len(calls) == failing_call
    assert str(caught.value).startswith(what)
    if reason == Termination.STEP_UNDERFLOW:
        assert "StepUnderflow" in str(caught.value)
        assert "Termination." not in str(caught.value)


# --------------------------------------------------------------- blow-up time

def _detour_report(argv, capsys) -> dict:
    assert run_command(argv) == 0
    return json.loads(capsys.readouterr().out)


def test_blowup_time_on_the_galerkin_invariant_line_is_ln_3(capsys):
    # the default start (0, 2) lies on the invariant line x = 0, where
    # y' = -y + (3/4) y^2 blows up at T = ln 3; a fit of t - T = C u^(m-1)
    # over the approach's last samples was off by 4.2e-3
    doc = _detour_report(["detour", "catalog:galerkin_asymmetric", "--eq", "2", "--cycles", "1"], capsys)
    assert abs(complex(*doc["T_estimate"]) - math.log(3.0)) < 1e-12


@pytest.mark.parametrize("system, eq, start, T", [
    ("catalog:galerkin_asymmetric", "0", "1,0.8", 0.58902502629351),
    ("catalog:galerkin_symmetric?a=3", "2", "1,1.6", 0.37317546988953),
])
def test_blowup_time_does_not_depend_on_the_ball(system, eq, start, T, capsys):
    # T from an independent chart-time quadrature; a fit over the approach
    # tail was off by 1.1e-4 and 2.1e-4 at the default ball 0.05, and by
    # 2.6e-6 and 1.4e-5 at 0.01
    times = [complex(*_detour_report(["detour", system, "--eq", eq, "--cycles", "1", "--start", start,
                                      "--ball", ball], capsys)["T_estimate"]) for ball in ("0.05", "0.01")]
    assert abs(times[0] - times[1]) < 1e-12
    assert abs(times[0] - T) < 1e-12


def test_an_approach_off_the_saddle_separatrix_is_refused():
    # a = 2 puts a Siegel saddle at UZ (0, 0).  From (1, 0.01) the approach
    # enters a ball of radius 0.2, but it does not blow up there: from its
    # end the chart-time flow runs along the line at infinity to (0, sqrt 2)
    sys = to_charts(catalog_get("galerkin_symmetric", {"a": 2}).system)
    eq = classified_infinity_eq(sys, Chart.UZ, 0.0)
    cfg = IntegrationConfig(rel_tol=1e-12, abs_tol=1e-14, singularity_radius=0.2)
    approach = approach_blowup(sys, (1.0, 0.01), eq, horizon=1.0, cfg=cfg)
    assert approach.terminated_reason == Termination.ENTERED_SINGULARITY_BALL
    with pytest.raises(DetourError, match="does not run into the equilibrium"):
        masuda_detour(sys, eq, approach, loop_radius=None, cycles=1, cfg=cfg)


# -------------------------------------------------------------- blowup_star

def test_star_riccati_antipodal_branches():
    sys, eq, approach, gap = scalar_power_detour(2, 1)
    report = masuda_detour(sys, eq, approach, loop_radius=0.5 * gap, cycles=1, cfg=LOOP_CFG)
    branches = blowup_star(sys, report)
    ups = [b["direction"] for b in branches if b["kind"] == "BlowUp"]
    downs = [b["direction"] for b in branches if b["kind"] == "BlowDown"]
    assert len(ups) == len(downs) == 1
    assert ups[0] == pytest.approx(1.0, abs=1e-6)
    assert downs[0] == pytest.approx(-1.0, abs=1e-6)


def test_star_cubic_imaginary_blowdown():
    sys, eq, approach, gap = scalar_power_detour(3, 2)
    report = masuda_detour(sys, eq, approach, loop_radius=0.5 * gap, cycles=2, cfg=LOOP_CFG)
    branches = blowup_star(sys, report)
    ups = sorted(cmath.phase(b["direction"]) % (2 * math.pi) for b in branches if b["kind"] == "BlowUp")
    downs = sorted(cmath.phase(b["direction"]) % (2 * math.pi) for b in branches if b["kind"] == "BlowDown")
    assert len(ups) == len(downs) == 2
    assert ups == pytest.approx([0.0, math.pi], abs=1e-6)
    assert downs == pytest.approx([math.pi / 2, 3 * math.pi / 2], abs=1e-6)


def test_star_quartic_three_plus_three():
    sys, eq, approach, gap = scalar_power_detour(4, 3)
    report = masuda_detour(sys, eq, approach, loop_radius=0.5 * gap, cycles=3, cfg=LOOP_CFG)
    branches = blowup_star(sys, report)
    ups = [b for b in branches if b["kind"] == "BlowUp"]
    downs = [b for b in branches if b["kind"] == "BlowDown"]
    assert len(ups) == len(downs) == 3
    # directions alternate: sorted angles interleave
    all_angles = sorted(
        (cmath.phase(b["direction"]) % (2 * math.pi), b["kind"]) for b in branches
    )
    kinds = [k for _, k in all_angles]
    assert all(kinds[i] != kinds[i + 1] for i in range(len(kinds) - 1))


def test_star_requires_closed_report():
    sys, eq, approach, entry = node_detour(2, 3, 1)
    report = masuda_detour(sys, eq, approach, loop_radius=1e-3, cycles=1, cfg=LOOP_CFG)
    with pytest.raises(NotClosedReportError):
        blowup_star(sys, report)
