import cmath
import math

import pytest

from blowup.algebra import BivariatePolynomial, Chart, PlanarField, to_charts
from blowup.equilibria import classify_spectrum, find_equilibria
from blowup.flow import IntegrationConfig, Termination, TimePath
from blowup.holonomy import (
    DetourError,
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
    from blowup.holonomy import _fit_blowup_time
    return _fit_blowup_time(sys, approach, eq)[0]


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
    with pytest.raises(DetourError):
        masuda_detour(sys, eq, approach, loop_radius=10.0, cycles=1, cfg=LOOP_CFG)


# -------------------------------------------------------------- blowup_star

def test_star_riccati_antipodal_branches():
    sys, eq, approach, gap = scalar_power_detour(2, 1)
    report = masuda_detour(sys, eq, approach, loop_radius=0.5 * gap, cycles=1, cfg=LOOP_CFG)
    branches = blowup_star(sys, eq, report)
    ups = [b["direction"] for b in branches if b["kind"] == "BlowUp"]
    downs = [b["direction"] for b in branches if b["kind"] == "BlowDown"]
    assert len(ups) == len(downs) == 1
    assert ups[0] == pytest.approx(1.0, abs=1e-6)
    assert downs[0] == pytest.approx(-1.0, abs=1e-6)


def test_star_cubic_imaginary_blowdown():
    sys, eq, approach, gap = scalar_power_detour(3, 2)
    report = masuda_detour(sys, eq, approach, loop_radius=0.5 * gap, cycles=2, cfg=LOOP_CFG)
    branches = blowup_star(sys, eq, report)
    ups = sorted(cmath.phase(b["direction"]) % (2 * math.pi) for b in branches if b["kind"] == "BlowUp")
    downs = sorted(cmath.phase(b["direction"]) % (2 * math.pi) for b in branches if b["kind"] == "BlowDown")
    assert len(ups) == len(downs) == 2
    assert ups == pytest.approx([0.0, math.pi], abs=1e-6)
    assert downs == pytest.approx([math.pi / 2, 3 * math.pi / 2], abs=1e-6)


def test_star_quartic_three_plus_three():
    sys, eq, approach, gap = scalar_power_detour(4, 3)
    report = masuda_detour(sys, eq, approach, loop_radius=0.5 * gap, cycles=3, cfg=LOOP_CFG)
    branches = blowup_star(sys, eq, report)
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
        blowup_star(sys, eq, report)
