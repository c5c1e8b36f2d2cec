import cmath
import math

import numpy as np
import pytest

from blowup import hamiltonian
from blowup.algebra import BivariatePolynomial, Chart, PlanarField, evaluate, to_charts
from blowup.flow import (
    IntegrationConfig,
    Termination,
    TimePath,
    TooCoarseError,
    Trajectory,
    TrajectorySample,
    integrate_path,
)
from blowup.hamiltonian import (
    DegenerateLeadingTermError,
    PolynomialHamiltonian,
    hamiltonian_field,
    pendulum_loop_windings,
)
from blowup.scenarios import catalog_get

P = BivariatePolynomial.from_coeffs


def weierstrass(level=0.5):
    return catalog_get("weierstrass", {"c": level}).system


# --------------------------------------------------------- hamiltonian_field

def test_pendulum_field_shape():
    # H = y^2/2 - G(x) gives (y, G'(x)).
    G = P([(3, 0, 2.0), (1, 0, -6.0)])
    H = P([(0, 2, 0.5)]) - G
    fld = hamiltonian_field(PolynomialHamiltonian(H))
    assert fld.f.terms == pytest.approx({(0, 1): 1.0})
    assert fld.g.terms == pytest.approx({(2, 0): 6.0, (0, 0): -6.0})


def test_linear_pendulum_field():
    ham = catalog_get("linear_pendulum").system
    fld = hamiltonian_field(ham)
    assert fld.f.terms == pytest.approx({(0, 1): 1.0})
    assert fld.g.terms == pytest.approx({(1, 0): 1.0})


def test_quadratic_hamiltonian_minimum_degree():
    with pytest.raises(ValueError):
        PolynomialHamiltonian(P([(1, 0, 1.0)]))


def test_field_annihilates_hamiltonian_exactly():
    # dH(F) = H_x f + H_y g vanishes coefficientwise.
    for ham in (weierstrass(), catalog_get("duffing").system):
        fld = hamiltonian_field(ham)
        pairing = ham.H.partial_x() * fld.f + ham.H.partial_y() * fld.g
        assert pairing.terms == {}


# -------------------------------------------------------- compactify_energy

def compactify_energy(ham: PolynomialHamiltonian) -> dict[str, BivariatePolynomial]:
    """Chart versions of the shifted energy H - c, all polynomial:

        H_xy = H - c,
        H_uz = u^(m+1) H(1/u, z/u) - c u^(m+1),
        H_vw = v^(m+1) H(w/v, 1/v) - c v^(m+1).

    All three vanish along the leaf, so a trajectory stays on the zero set of
    each in its own chart.
    """
    m = ham.field_degree
    c = complex(ham.level_c)
    return {
        Chart.XY: ham.H - BivariatePolynomial({(0, 0): c}),
        Chart.UZ: ham.H.reversed_uz(m + 1) - BivariatePolynomial({(m + 1, 0): c}),
        Chart.VW: ham.H.reversed_vw(m + 1) - BivariatePolynomial({(m + 1, 0): c}),
    }


def test_compactified_energy_hand_example():
    # H = y^2/2 - x^3, c = 0, m = 2: H_uz = u^3 (z^2/(2u^2) - 1/u^3) = u z^2/2 - 1.
    H = P([(0, 2, 0.5), (3, 0, -1.0)])
    charts = compactify_energy(PolynomialHamiltonian(H, 0.0))
    assert charts[Chart.UZ].terms == pytest.approx({(1, 2): 0.5, (0, 0): -1.0})


def test_compactified_energy_consistency_random_points():
    ham = PolynomialHamiltonian(weierstrass().H, 0.25)
    m = ham.field_degree
    charts = compactify_energy(ham)
    rng = np.random.default_rng(17)
    for _ in range(10):
        x = complex(rng.uniform(0.5, 2.0), rng.uniform(-1.0, 1.0))
        y = complex(rng.uniform(0.5, 2.0), rng.uniform(-1.0, 1.0))
        val_xy = charts[Chart.XY](x, y)
        u, z = 1.0 / x, y / x
        val_uz = charts[Chart.UZ](u, z)
        assert val_uz == pytest.approx(u ** (m + 1) * val_xy, abs=1e-12 * max(1.0, abs(val_xy)))
        v, w = 1.0 / y, x / y
        val_vw = charts[Chart.VW](v, w)
        assert val_vw == pytest.approx(v ** (m + 1) * val_xy, abs=1e-12 * max(1.0, abs(val_xy)))


def test_weierstrass_vw_relation_matches_energy():
    # On the zero level, v^(m-1) = 2 v^(m+1) G(w/v) after clearing y^2/2.
    ham = PolynomialHamiltonian(weierstrass().H, 0.0)
    charts = compactify_energy(ham)
    G = P([(3, 0, 2.0), (1, 0, -6.0)])
    rng = np.random.default_rng(5)
    for _ in range(10):
        v = complex(rng.uniform(0.2, 1.0), rng.uniform(-0.5, 0.5))
        w = complex(rng.uniform(0.2, 1.0), rng.uniform(-0.5, 0.5))
        lhs = 0.5 * v ** 1 - v ** 3 * evaluate(G, w / v, 0.0)
        assert charts[Chart.VW](v, w) == pytest.approx(lhs, abs=1e-12 * max(1.0, abs(lhs)))


def test_chart_hamiltonian_consistency_symbolic():
    # to_charts of the Hamiltonian field matches the Hamiltonian chart field
    # up to the energy-relation multiple:
    #   first component: -u H_z^{uz}; second: u H_u^{uz} - (m+1) H^{uz}.
    for m, g_coeffs in ((2, [(2, 0, 6.0), (0, 0, -6.0)]),
                        (3, [(3, 0, 1.0), (1, 0, -1.0)]),
                        (4, [(4, 0, 5.0), (0, 0, -1.0)])):
        g_poly = P(g_coeffs)
        G = _antiderivative(g_poly)
        H = P([(0, 2, 0.5)]) - G
        ham = PolynomialHamiltonian(H, 0.0)
        fld = hamiltonian_field(ham)
        assert fld.degree_m == m
        sys = to_charts(fld)
        h_uz = compactify_energy(ham)[Chart.UZ]
        u = BivariatePolynomial({(1, 0): 1.0})
        first = u * h_uz.partial_y()
        want_first = sys.uz_field.f.scaled(-1.0)
        assert _poly_close(first, want_first)
        second = u * h_uz.partial_x() - h_uz.scaled(m + 1)
        assert _poly_close(second, sys.uz_field.g)


def _antiderivative(p):
    return BivariatePolynomial({(j + 1, k): c / (j + 1) for (j, k), c in p.terms.items()})


def _poly_close(a, b, tol=1e-12):
    gap = a - b
    return max((abs(c) for c in gap.terms.values()), default=0.0) < tol


def test_constant_level_makes_zero_charts():
    # H identically equal to its level: all three compactified energies vanish.
    H = P([(0, 2, 0.5), (2, 0, 0.5)])
    ham = PolynomialHamiltonian(H, 0.0)
    charts = compactify_energy(PolynomialHamiltonian(H - H + P([(0, 2, 0.5), (2, 0, 0.5)]), 0.0))
    # sanity: the xy chart equals H - c
    assert charts[Chart.XY].terms == pytest.approx(H.terms)


# -------------------------------------------------------------- energy_drift

def energy_drift(ham: PolynomialHamiltonian, trajectory: Trajectory) -> float:
    """Max deviation of the chart-appropriate compactified energy from 0: the
    integration error along a trajectory, in whichever chart each sample lies."""
    charts = compactify_energy(ham)
    worst = 0.0
    for smp in trajectory.samples:
        worst = max(worst, abs(charts[smp.chart](smp.coords[0], smp.coords[1])))
    return worst


def test_equilibrium_trajectory_zero_drift():
    ham = catalog_get("duffing", {"c": 0.0}).system
    samples = (
        TrajectorySample(0.0, 0.0, Chart.XY, (1.0 + 0.0j, 0.0 + 0.0j)),
        TrajectorySample(1.0, 1.0, Chart.XY, (1.0 + 0.0j, 0.0 + 0.0j)),
    )
    traj = Trajectory(samples, Termination.COMPLETED)
    ham0 = PolynomialHamiltonian(ham.H, complex(ham.H(1.0, 0.0)))
    assert energy_drift(ham0, traj) < 1e-15


def test_linear_pendulum_analytic_samples():
    # (sinh t, cosh t) lies on the level 1/2 exactly.
    ham = catalog_get("linear_pendulum", {"c": 0.5}).system
    ts = np.linspace(0.0, 1.0, 30)
    samples = tuple(
        TrajectorySample(float(s), complex(s), Chart.XY,
                         (complex(math.sinh(s)), complex(math.cosh(s))))
        for s in ts
    )
    traj = Trajectory(samples, Termination.COMPLETED)
    assert energy_drift(ham, traj) < 1e-12


def weierstrass_rectangle_drift(rel_tol):
    x0, y0 = 0.0 + 0.0j, 1.0 + 0.0j
    ham = PolynomialHamiltonian(weierstrass().H, complex(weierstrass().H(x0, y0)))
    sys = to_charts(hamiltonian_field(ham))
    rect = TimePath.from_points([0.0, 0.3, 0.3 + 0.5j, 0.5j, 0.0])
    # max_step chosen so the error test, not the cap, controls every step
    cfg = IntegrationConfig(rel_tol=rel_tol, abs_tol=rel_tol * 1e-2, max_step=0.5)
    traj = integrate_path(sys, Chart.XY, (x0, y0), rect, cfg)
    assert traj.terminated_reason == Termination.COMPLETED
    return energy_drift(ham, traj)


def test_weierstrass_rectangle_drift_default_tolerances():
    assert weierstrass_rectangle_drift(1e-10) < 1e-8


def test_drift_halves_with_rel_tol():
    # Error-per-unit-step control makes the drift track the tolerance: over a
    # ladder of halvings the drift at least halves on average (controller
    # phase makes individual halvings noisy) and never increases.
    ladder = [2.0**-e for e in range(19, 26)]
    drifts = [weierstrass_rectangle_drift(tol) for tol in ladder]
    for d1, d2 in zip(drifts, drifts[1:]):
        assert d2 <= d1
    mean_factor = (drifts[0] / drifts[-1]) ** (1.0 / (len(drifts) - 1))
    assert mean_factor >= 2.0


# ----------------------------------------------------- pendulum_loop_windings

def test_weierstrass_loop_windings():
    rep = pendulum_loop_windings([-6.0, 0.0, 6.0])  # g = 6(x^2 - 1)
    assert (rep["w_t"], rep["w_v"], rep["w_w"]) == (1, 3, 1)
    assert rep["leaves"] == 1


def test_duffing_loop_windings_per_leaf():
    rep = pendulum_loop_windings([0.0, -1.0, 0.0, 1.0])  # g = x^3 - x
    assert (rep["w_t"], rep["w_v"], rep["w_w"]) == (1, 2, 1)
    assert rep["leaves"] == 2


def test_quartic_force_loop_windings():
    rep = pendulum_loop_windings([-1.0, 0.0, 0.0, 0.0, 5.0])  # g = 5x^4 - 1
    assert (rep["w_t"], rep["w_v"], rep["w_w"]) == (3, 5, 3)
    assert rep["leaves"] == 1


def test_pendulum_windings_break_the_naive_law():
    # The degenerate equilibrium at v = w = 0 escapes w_t = (m-1) w_v.
    for coeffs, m in (([-6.0, 0.0, 6.0], 2), ([-1.0, 0.0, 0.0, 0.0, 5.0], 4)):
        rep = pendulum_loop_windings(coeffs)
        assert rep["w_t"] != (m - 1) * rep["w_v"]


@pytest.mark.parametrize("g_coeffs, windings, leaves", [
    ([-6.0, 0.0, 6.0], (1, 3, 1), 1),
    ([0.0, -1.0, 0.0, 1.0], (1, 2, 1), 2),
    ([-1.0, 0.0, 0.0, 0.0, 5.0], (3, 5, 3), 1),
    ([1.0, 2.0, 3.0], (1, 3, 1), 1),
    ([0.0, 0.0, 1.0], (1, 3, 1), 1),
    ([2.0, 0.0, -1.0, 0.0, 3.0], (3, 5, 3), 1),
    ([1.0, 1.0, 1.0, 1.0, 1.0, 1.0], (2, 3, 2), 2),
    ([0.5, -2.0, 0.1, 7.0], (1, 2, 1), 2),
])
def test_pendulum_report_at_the_default_radius(g_coeffs, windings, leaves):
    # the whole report, stabilized_radius included: 0.05 and 0.025 agree
    w_t, w_v, w_w = windings
    assert pendulum_loop_windings(g_coeffs) == {
        "w_t": w_t, "w_v": w_v, "w_w": w_w, "leaves": leaves, "stabilized_radius": 0.025}


def test_one_newton_solve_per_loop_sample(monkeypatch):
    # original time comes from the trapezoid rule on the loop's own samples,
    # so no quadrature node costs a further solve
    counts = {"loops": 0, "solves": 0}
    trace, newton = hamiltonian._trace_pendulum_loop, hamiltonian._newton_track

    def counted_trace(*args):
        counts["loops"] += 1
        return trace(*args)

    def counted_newton(*args, **kwargs):
        counts["solves"] += 1
        return newton(*args, **kwargs)

    monkeypatch.setattr(hamiltonian, "_trace_pendulum_loop", counted_trace)
    monkeypatch.setattr(hamiltonian, "_newton_track", counted_newton)
    for g_coeffs in ([-6.0, 0.0, 6.0], [0.0, -1.0, 0.0, 1.0]):
        counts.update(loops=0, solves=0)
        pendulum_loop_windings(g_coeffs)
        assert counts["loops"] == 2
        assert counts["solves"] == counts["loops"] * (hamiltonian._SAMPLES_PER_TURN + 1)


def test_a_radius_outside_the_leading_order_regime_is_halved():
    # at radius 1 and 0.5 the weierstrass leaf is far from v ~ a th^3 and
    # both loops wind once in v; halving on past them recovers w_v = 3
    rep = pendulum_loop_windings([-6.0, 0.0, 6.0], loop_radius=1.0)
    assert (rep["w_t"], rep["w_v"], rep["w_w"]) == (1, 3, 1)
    assert rep["stabilized_radius"] < 0.5


def test_duffing_at_radius_one_resolves_its_windings():
    # duffing's loop at radius 1 was too coarse for winding_number, which
    # ended the command; it now fails the regime check and is halved
    rep = pendulum_loop_windings([0.0, -1.0, 0.0, 1.0], loop_radius=1.0)
    assert (rep["w_t"], rep["w_v"], rep["w_w"]) == (1, 2, 1)
    assert rep["leaves"] == 2


def test_a_winding_failure_halves_the_radius(monkeypatch):
    # a loop whose curve winding_number refuses is a failed radius like any
    # other: the first loop's refusal costs one halving, not the command
    winding, refused = hamiltonian.winding_number, []

    def refuse_first_loop(curve, center):
        if not refused:
            refused.append(True)
            raise TooCoarseError("sample spacing too coarse")
        return winding(curve, center)

    monkeypatch.setattr(hamiltonian, "winding_number", refuse_first_loop)
    rep = pendulum_loop_windings([-6.0, 0.0, 6.0])
    assert (rep["w_t"], rep["w_v"], rep["w_w"]) == (1, 3, 1)
    assert rep["stabilized_radius"] == 0.0125


def test_degenerate_leading_term_rejected():
    # leading coefficient numerically zero but not pruned
    with pytest.raises(DegenerateLeadingTermError):
        pendulum_loop_windings([-1.0, 0.0, 1e-13])
    # outright constant force has no degree to work with
    with pytest.raises(ValueError):
        pendulum_loop_windings([1.0])


def test_homogeneous_hamiltonian_windings():
    # Nondegenerate (m+1)-homogeneous H on level 1: at a simple root of
    # H(1, z) the detour closes after m-1 cycles with w_u = 1, w_z = m+1.
    from blowup.equilibria import EquilibriumRecord, classify_spectrum
    from blowup.holonomy import approach_blowup, masuda_detour

    # H = x^3/3 - x y^2 (3-homogeneous, m = 2): H1(z) = 1/3 - z^2,
    # simple roots z = +-1/sqrt(3); field (H_y, -H_x) = (-2xy, y^2 - x^2).
    # Real-time blow-up heads to the slope e = -1/sqrt(3), where both chart
    # eigenvalues are negative.
    H = P([(3, 0, 1.0 / 3.0), (1, 2, -1.0)])
    ham = PolynomialHamiltonian(H, 1.0)
    fld = hamiltonian_field(ham)
    sys = to_charts(fld)
    e = -1.0 / math.sqrt(3.0)
    rec = classify_spectrum(sys, EquilibriumRecord(Chart.UZ, (0.0 + 0.0j, complex(e))))
    assert rec.spectral_quotient == pytest.approx(1.0 / 3.0)  # 1:(m+1) structure
    assert rec.eigenvalues[0].real < 0 and rec.eigenvalues[1].real < 0
    # start on the level H = 1; the orbit dips through the finite region and
    # then blows up along y/x -> e
    x0 = 2.0
    roots = np.roots([-x0, 0.0, x0**3 / 3.0 - 1.0])
    y0 = complex(roots[0])
    cfg = IntegrationConfig(rel_tol=1e-12, abs_tol=1e-14, singularity_radius=0.05)
    approach = approach_blowup(sys, (complex(x0), y0), rec, horizon=3.0, cfg=cfg)
    assert approach.terminated_reason == Termination.ENTERED_SINGULARITY_BALL
    from blowup.holonomy import _blowup_time
    T, _ = _blowup_time(sys, approach, rec, cfg)
    gap = abs(approach.end.t - T)
    report = masuda_detour(sys, rec, approach, loop_radius=0.5 * gap, cycles=1,
                           cfg=IntegrationConfig(rel_tol=1e-12, abs_tol=1e-14, max_step=0.02))
    assert report.closed
    assert report.windings == {"w_t": 1, "w_u": 1, "w_z": 3}
