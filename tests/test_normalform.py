import math

import numpy as np
import pytest

from blowup.algebra import BivariatePolynomial, Chart, PlanarField, to_charts
from blowup.cli import classified_equilibria
from blowup.equilibria import classify_spectrum, EquilibriumRecord, small_divisor_scan
from blowup.normalform import (
    NormalFormError,
    NotSemisimpleError,
    ResonantAtOrderError,
    conjugacy_residual,
    poincare_linearize,
)
from blowup.scenarios import catalog_get

P = BivariatePolynomial.from_coeffs


def classified(sys, chart, coord):
    return classify_spectrum(sys, EquilibriumRecord(chart, (0.0 + 0.0j, complex(coord))))


def uz_system(mu1, mu2, extra_g=None):
    """Planar field with uz chart (mu1 u, mu2 z + extra(u, z))."""
    f = P([(1, 0, -mu1)])
    g_terms = [(0, 1, mu2 - mu1)]
    fld = PlanarField(P([(1, 0, -mu1)]), P(g_terms))
    return to_charts(fld)


def caricature(a: float):
    return to_charts(PlanarField(
        P([(2, 0, 1.0), (0, 2, a / 4.0)]),
        P([(0, 1, -1.0), (1, 1, a)]),
    ))


def single_term_system():
    # uz chart (-2u + z^2, -3z): from f = 2x^2, g = -xy + x^2 * (z^2 -> y^2/x^2...)
    # Build directly through the chart recipe: f1 = 2 - z^2/... needs care, so
    # construct the planar field whose uz chart is exactly (-2u + z^2, -3z):
    # u' = -u f1 + ... cannot produce a u-free z^2 term, so use the xy chart
    # itself as the localized system: field (f, g) = (-2x + y^2, -3y) at the
    # finite equilibrium (0, 0).
    return to_charts(PlanarField(P([(1, 0, -2.0), (0, 2, 1.0)]), P([(0, 1, -3.0)])))


def test_identity_transform_for_diagonal_system():
    sys = to_charts(PlanarField(P([(1, 0, -2.0)]), P([(0, 1, -3.0)])))
    eq = classify_spectrum(sys, EquilibriumRecord(Chart.XY, (0.0 + 0.0j, 0.0 + 0.0j)))
    tr = poincare_linearize(sys, eq, order_N=6)
    assert tr.components[0].terms == pytest.approx({(1, 0): 1.0})
    assert tr.components[1].terms == pytest.approx({(0, 1): 1.0})


def test_single_step_elimination_z_squared():
    # (-2x + y^2, -3y): the y^2 term dies with divisor l1 - 2*l2 = 4 and the
    # transform is exactly Psi^x = x~ - y~^2/4.
    sys = single_term_system()
    eq = classify_spectrum(sys, EquilibriumRecord(Chart.XY, (0.0 + 0.0j, 0.0 + 0.0j)))
    assert eq.eigenvalues == (pytest.approx(-2.0), pytest.approx(-3.0))
    tr = poincare_linearize(sys, eq, order_N=6)
    assert tr.components[0].terms == pytest.approx({(1, 0): 1.0, (0, 2): -0.25})
    assert tr.components[1].terms == pytest.approx({(0, 1): 1.0})
    assert tr.min_divisor == pytest.approx(4.0)
    res = conjugacy_residual(tr, ball_radius=0.1)
    # exact one-step linearization: residual at roundoff, slope reported inf
    assert res["max_residuals"][0] < 1e-13
    assert res["fitted_order"] >= 6.5


def test_inverse_composes_to_identity():
    sys = caricature(-0.5)
    eq = classified(sys, Chart.UZ, 0.0)
    tr = poincare_linearize(sys, eq, order_N=8)
    ident = (BivariatePolynomial({(1, 0): 1.0}), BivariatePolynomial({(0, 1): 1.0}))
    # Psi o Phi and Phi o Psi
    for outer, inner in ((tr.components, tr.inverse_components), (tr.inverse_components, tr.components)):
        for p, want in zip(outer, ident):
            gap = p.compose(inner[0], inner[1], max_degree=8) - want
            assert max((abs(c) for c in gap.terms.values()), default=0.0) < 1e-10


def test_caricature_two_thirds_linearizes_at_order_8():
    # a = -1/2 gives uz eigenvalues (-1, -3/2), quotient 2/3: nonresonant.
    sys = caricature(-0.5)
    eq = classified(sys, Chart.UZ, 0.0)
    assert eq.spectral_quotient == pytest.approx(2.0 / 3.0)
    tr = poincare_linearize(sys, eq, order_N=8)
    res = conjugacy_residual(tr, ball_radius=0.1)
    assert res["fitted_order"] >= 8.5


def test_caricature_resonant_quotient_raises():
    # a = 1/2 gives uz eigenvalues (-1, -1/2), quotient 2: resonant.
    sys = caricature(0.5)
    eq = classified(sys, Chart.UZ, 0.0)
    assert eq.spectral_quotient == pytest.approx(2.0)
    with pytest.raises(ResonantAtOrderError) as err:
        poincare_linearize(sys, eq, order_N=8)
    assert err.value.order == 2
    assert err.value.alpha in ((0, 2), (2, 0))


def test_jordan_block_refused():
    sys = to_charts(PlanarField(P([(2, 0, 1.0)]), P([(1, 0, 1.0)])))
    eq = classified(sys, Chart.UZ, 0.0)
    with pytest.raises(NotSemisimpleError):
        poincare_linearize(sys, eq, order_N=4)


def test_fiber_factorization_no_pure_base_terms():
    # Source uz system has u-divisible first component, so Psi^u carries no
    # pure z~ monomials at any order.
    sys = caricature(-0.5)
    eq = classified(sys, Chart.UZ, 0.0)
    tr = poincare_linearize(sys, eq, order_N=10)
    pure_z = {jk: c for jk, c in tr.components[0].terms.items() if jk[0] == 0}
    assert pure_z == {}


def test_residual_order_scales_with_radius():
    sys = caricature(-0.5)
    eq = classified(sys, Chart.UZ, 0.0)
    tr = poincare_linearize(sys, eq, order_N=8)
    res = conjugacy_residual(tr, ball_radius=0.1)
    r1, r2, r3 = res["max_residuals"]
    # residual ~ C r^(N+1): ratios within a factor 10 of 2^(N+1)
    assert r1 / r2 == pytest.approx(2.0**9, rel=0.9)
    assert r2 / r3 == pytest.approx(2.0**9, rel=0.9)


def test_scaling_equivariance_of_transform():
    # Scaling the field by c rescales time only: same transform.
    sys = caricature(-0.5)
    eq = classify_spectrum(sys, EquilibriumRecord(Chart.UZ, (0.0 + 0.0j, 0.0 + 0.0j)))
    tr = poincare_linearize(sys, eq, order_N=6)
    scaled = to_charts(sys.xy_field.scaled(2.5))
    eq2 = classify_spectrum(scaled, EquilibriumRecord(Chart.UZ, (0.0 + 0.0j, 0.0 + 0.0j)))
    tr2 = poincare_linearize(scaled, eq2, order_N=6)
    for p, q in zip(tr.components, tr2.components):
        assert q.terms == pytest.approx(p.terms)


def test_near_resonance_guard():
    # eigenvalues (-1, -2 + 1e-12): divisor l1 - 2 l2 ~ 2e-12 trips the guard.
    mu2 = -2.0 + 1e-12
    sys = to_charts(PlanarField(P([(1, 0, 1.0)]), P([(0, 1, mu2 + 1.0)])))
    eq = classified(sys, Chart.UZ, 0.0)
    with pytest.raises(ResonantAtOrderError):
        poincare_linearize(sys, eq, order_N=6)


def test_straightened_detour_recovers_algebraic_leaf():
    # In straightened coordinates of the rational 2:3 node, the traced detour
    # satisfies u~^2 / z~^3 = const to high accuracy.
    from blowup.flow import IntegrationConfig, TimePath
    from blowup.holonomy import approach_blowup, masuda_detour
    from blowup.scenarios import catalog_get

    entry = catalog_get("rational_node", {"n1": 2, "n2": 3, "gamma": 1.0})
    sys = to_charts(entry.system)
    eq = classified(sys, Chart.UZ, 0.0)
    tr = poincare_linearize(sys, eq, order_N=8)
    cfg = IntegrationConfig(rel_tol=1e-12, abs_tol=1e-14, singularity_radius=0.12)
    approach = approach_blowup(sys, entry.suggested_start, eq, horizon=1.0, cfg=cfg)
    report = masuda_detour(sys, eq, approach, loop_radius=1e-2, cycles=3,
                           cfg=IntegrationConfig(rel_tol=1e-12, abs_tol=1e-14, max_step=0.02))
    assert report.closed
    # sample the reported loop endpoints through the inverse transform
    s0 = tr.to_straightened(report.start_state)
    s1 = tr.to_straightened(report.end_state)
    # leaf invariant in straightened coordinates: u~^n1 / z~^n2 with the
    # base eigenvalue -n1 = -2 and fiber eigenvalue -n2 = -3:
    # u~ ~ exp(-3 t1), z~ ~ exp(-2 t1): u~^2 / z~^3 is constant.
    inv0 = s0[0] ** 2 / s0[1] ** 3
    inv1 = s1[0] ** 2 / s1[1] ** 3
    assert abs(inv0 - inv1) < 1e-8 * abs(inv0)


def test_zero_spectrum_is_resonant_at_order_two():
    # golden_node's VW equilibrium has J = 0, so every divisor vanishes
    sys = to_charts(catalog_get("golden_node").system)
    eq = classified(sys, Chart.VW, 0.0)
    assert eq.eigenvalues == (0j, 0j)
    with pytest.raises(ResonantAtOrderError) as err:
        poincare_linearize(sys, eq, order_N=4)
    assert err.value.order == 2


def test_degenerate_record_is_resonant_at_order_two():
    # at a multiple equilibrium the spectrum may come out as roundoff, not 0:
    # the record is Degenerate and semisimple, and 0 = l1 makes l2 = l1 + l2
    sys = to_charts(catalog_get("homogeneous").system)
    eq = classify_spectrum(sys, EquilibriumRecord(Chart.XY, (1e-22 + 0j, 1e-22 + 0j)))
    assert eq.domain == "Degenerate" and eq.semisimple
    with pytest.raises(ResonantAtOrderError) as err:
        poincare_linearize(sys, eq, order_N=4)
    assert (err.value.order, err.value.alpha) == (2, (1, 1))


def _galerkin_asymmetric_eq0(b1, b3):
    """Equilibrium 0 in the order the CLI's ``--eq`` counts."""
    sys = to_charts(catalog_get("galerkin_asymmetric", {"b1": b1, "b3": b3}).system)
    return sys, classified_equilibria(sys)[0]


def test_galerkin_asymmetric_linearizes_at_order_13():
    # no divisor is small here, so F o Psi = DPsi . Lambda p must hold to
    # 1e-9 * max|lambda| through order 13
    sys, eq = _galerkin_asymmetric_eq0(1.0, -0.5)
    tr = poincare_linearize(sys, eq, order_N=13)
    r1, r2, _ = conjugacy_residual(tr, ball_radius=0.1)["max_residuals"]
    assert r1 / r2 >= 2.0**13


def test_conjugacy_check_refuses_near_resonant_transform():
    # quotient 5.0096: the order-5 divisor is 2.1e-3, above the pre-scan
    # guard, and the transform it feeds fails the conjugacy check
    sys, eq = _galerkin_asymmetric_eq0(1.25, 0.5)
    assert eq.spectral_quotient == pytest.approx(5.0096, abs=1e-4)
    assert small_divisor_scan(eq.eigenvalues, 5)[-1]["min_divisor"] == pytest.approx(2.1e-3, rel=0.05)
    with pytest.raises(NormalFormError, match="elimination left residual coefficients"):
        poincare_linearize(sys, eq, order_N=13)


@pytest.mark.parametrize("name, params, index, order", [
    ("galerkin_asymmetric", {"b1": 0.8, "b3": 0.0}, 0, 13),
    ("homogeneous", {"fy": 0.5, "gx": 3.1}, 2, 14),
])
def test_inverse_solves_its_own_equation(name, params, index, order):
    # Phi = Psi^-1 maps the field to its linear part: DPhi . F = Lambda Phi
    # through the truncation order, F the localized field Phi was solved against
    sys = to_charts(catalog_get(name, params).system)
    tr = poincare_linearize(sys, classified_equilibria(sys)[index], order_N=order)
    f1, f2 = tr.local_field
    for phi, li in zip(tr.inverse_components, tr.eigenvalues):
        resid = (phi.partial_x() * f1 + phi.partial_y() * f2 - phi.scaled(li)).truncated(order)
        worst = max((abs(c) for c in resid.terms.values()), default=0.0)
        assert worst < 1e-11 * max(abs(v) for v in tr.eigenvalues)
