import cmath
import math
import random
from fractions import Fraction

import numpy as np
import pytest

from blowup.algebra import BivariatePolynomial, Chart, PlanarField, to_charts
from blowup.equilibria import (
    DegenerateSystemError,
    Domain,
    EquilibriumRecord,
    _coeffs_in_y_at,
    _newton_polish_1d,
    _poly_roots,
    classify_spectrum,
    find_equilibria,
    rational_spectral_quotient,
    small_divisor_scan,
)
from blowup.hamiltonian import PolynomialHamiltonian, hamiltonian_field
from blowup.scenarios import catalog_get, catalog_names

P = BivariatePolynomial.from_coeffs


def caricature(a: float):
    return to_charts(PlanarField(
        P([(2, 0, 1.0), (0, 2, a / 4.0)]),
        P([(0, 1, -1.0), (1, 1, a)]),
    ))


def asym_caricature(b1: float, b3: float):
    # dx/dt = x(x + b1 y),  dy/dt = -y + b1 x^2 + (3 b1 + b3)/4 y^2
    return to_charts(PlanarField(
        P([(2, 0, 1.0), (1, 1, b1)]),
        P([(0, 1, -1.0), (2, 0, b1), (0, 2, (3 * b1 + b3) / 4.0)]),
    ))


# ------------------------------------------------------------ find_equilibria

def test_caricature_infinity_roots_a2():
    recs = find_equilibria(caricature(2.0), "InfinityOnly")
    zs = sorted(_as_z(r) for r in recs if _as_z(r) is not None)
    assert len(zs) == 3
    assert zs == pytest.approx([-math.sqrt(2.0), 0.0, math.sqrt(2.0)], abs=1e-10)


def _as_z(rec):
    if rec.chart == Chart.UZ:
        return rec.location[1].real if abs(rec.location[1].imag) < 1e-9 else None
    w = rec.location[1]
    if abs(w) < 1e-12:
        return None  # z at infinity
    z = 1.0 / w
    return z.real if abs(z.imag) < 1e-9 else None


@pytest.mark.parametrize("a", [2.0, 3.0, 5.0])
def test_caricature_infinity_roots_general(a):
    recs = find_equilibria(caricature(a), "InfinityOnly")
    zs = sorted(z for r in recs if (z := _as_z(r)) is not None)
    e = 2.0 * math.sqrt(1.0 - 1.0 / a)
    assert zs == pytest.approx([-e, 0.0, e], abs=1e-10)


def test_cyclotomic_finite_roots():
    # dx/dt = x^3 - 1, dy/dt = -y: finite equilibria at cube roots of unity.
    sys = to_charts(PlanarField(P([(3, 0, 1.0), (0, 0, -1.0)]), P([(0, 1, -1.0)])))
    recs = find_equilibria(sys, "FiniteOnly")
    roots = sorted((r.location[0] for r in recs), key=lambda c: cmath.phase(c))
    expected = sorted((cmath.exp(2j * math.pi * k / 3) for k in range(3)), key=cmath.phase)
    assert len(roots) == 3
    for got, want in zip(roots, expected):
        assert abs(got - want) < 1e-12
        assert all(abs(r.location[1]) < 1e-12 for r in recs)


def test_residuals_are_polished():
    sys = caricature(3.7)
    for rec in find_equilibria(sys, "All"):
        fld = sys.field(rec.chart)
        r = fld(*rec.location)
        assert max(abs(r[0]), abs(r[1])) < 1e-12


@pytest.mark.parametrize("degree", range(1, 13))
def test_poly_roots_match_numpy(degree):
    rng = np.random.default_rng(degree)
    for _ in range(5):
        coeffs = list(rng.normal(size=degree + 1) + 1j * rng.normal(size=degree + 1))
        got = _poly_roots(coeffs)
        assert len(got) == degree
        for want in np.roots(coeffs[::-1]):
            nearest = min(got, key=lambda r: abs(r - want))
            assert abs(nearest - want) <= 1e-10 * abs(want)
            got.remove(nearest)


def test_poly_roots_split_off_exact_zeros():
    # x^3 (x - 1), low-order coefficients first
    roots = sorted(_poly_roots([0.0, 0.0, 0.0, -1.0, 1.0]), key=abs)
    assert roots[:3] == [0j, 0j, 0j]
    assert abs(roots[3] - 1.0) < 1e-15
    assert _poly_roots([3.0]) == []
    assert _poly_roots([2.0, 0.0]) == []


def _fraction_step(coeffs: list[complex], root: complex) -> complex:
    """Reference for the exact last Newton step: Fraction arithmetic, rounded once."""
    x, y = Fraction(root.real), Fraction(root.imag)
    vr = vi = dr = di = Fraction(0)
    for c in reversed(coeffs):
        dr, di = dr * x - di * y + vr, dr * y + di * x + vi
        vr, vi = vr * x - vi * y + Fraction(c.real), vr * y + vi * x + Fraction(c.imag)
    norm = dr * dr + di * di
    if not norm:
        return root
    return complex(float(x - (vr * dr + vi * di) / norm), float(y - (vi * dr - vr * di) / norm))


def _random_polynomials(rng: random.Random):
    """Complex polynomials of degree 1-9, low to high, by their coefficients or
    by their roots, with magnitudes spread over 1e-8 .. 1e6."""
    def draw() -> complex:
        return 10 ** rng.uniform(-8, 6) * cmath.exp(1j * rng.uniform(0, 2 * math.pi))

    for _ in range(150):
        degree = rng.randint(1, 9)
        yield [draw() for _ in range(degree + 1)]
        coeffs = [draw()]
        for _ in range(degree):
            root = draw()
            coeffs = [-root * coeffs[0]] + [a - root * b for a, b in zip(coeffs, coeffs[1:])] + [coeffs[-1]]
        yield coeffs


def _catalog_infinity_polynomials():
    for name in catalog_names():
        system = catalog_get(name).system
        csys = to_charts(hamiltonian_field(system) if isinstance(system, PolynomialHamiltonian) else system)
        yield _coeffs_in_y_at(csys.uz_field.g, 0)
        yield _coeffs_in_y_at(csys.vw_field.g, 0)


def test_exact_newton_step_in_integers_matches_the_fraction_reference():
    cases = 0
    for coeffs in [*_random_polynomials(random.Random(18)), *_catalog_infinity_polynomials()]:
        for root in _poly_roots(coeffs):
            assert _newton_polish_1d(coeffs, root, steps=0) == _fraction_step(coeffs, root), (coeffs, root)
            cases += 1
    assert cases > 1500


@pytest.mark.parametrize("name, params, n_xy", [
    pytest.param("scalar_poly", {"m": 2}, 1, id="scalar_poly-double-root"),
    pytest.param("galerkin_asymmetric", {}, 3, id="galerkin_asymmetric-split-origin"),
    *(pytest.param("homogeneous", {"gx": 3.0, "fy": fy}, 1, id=f"homogeneous-gx3-fy{fy}") for fy in (0.3, 0.5, 1.0)),
])
def test_multiple_finite_root_is_one_degenerate_origin(name, params, n_xy):
    # Each field vanishes to second order at the origin in some direction, so
    # the resultant has a multiple root there.  It must come out as one
    # equilibrium at the origin, not as a cluster of nearby points, and its
    # zero eigenvalue must make it degenerate.
    sys = to_charts(catalog_get(name, params).system)
    recs = [classify_spectrum(sys, r) for r in find_equilibria(sys, "All")]
    xy = [r for r in recs if r.chart == Chart.XY]
    assert len(xy) == n_xy
    origin = [r for r in xy if max(abs(c) for c in r.location) < 1e-12]
    assert len(origin) == 1
    assert origin[0].domain == Domain.DEGENERATE
    assert origin[0].semisimple is True


def test_roundoff_spectrum_is_degenerate():
    # A Jacobian of roundoff size next to a multiple equilibrium has
    # eigenvalues that are zero next to the field's coefficients, however
    # they compare with each other.
    sys = to_charts(catalog_get("homogeneous", {"gx": 3.0, "fy": 0.5}).system)
    rec = classify_spectrum(sys, EquilibriumRecord(Chart.XY, (1e-22 + 0j, 1e-22 + 0j)))
    assert rec.domain == Domain.DEGENERATE
    assert rec.semisimple is True


def test_degenerate_system_raises():
    # dx/dt = x, dy/dt = 0 has a whole line x = 0 of equilibria.
    sys = to_charts(PlanarField(P([(1, 0, 1.0)]), BivariatePolynomial({(0, 1): 0.0, (1, 0): 0.0, (0, 0): 0.0, (2, 0): 0.0, (1, 1): 0.0, (0, 2): 0.0} | {(1, 0): 1e-20})))
    # simpler: g identically zero is rejected at the field level; build g = 0*x
    with pytest.raises(DegenerateSystemError):
        find_equilibria(sys, "FiniteOnly")


# --------------------------------------------------------- classify_spectrum

def test_caricature_origin_spectrum():
    a = 2.0
    sys = caricature(a)
    rec = next(r for r in find_equilibria(sys, "InfinityOnly")
               if r.chart == Chart.UZ and abs(r.location[1]) < 1e-9)
    rec = classify_spectrum(sys, rec)
    assert rec.eigenvalues[0] == pytest.approx(-1.0)
    assert rec.eigenvalues[1] == pytest.approx(a - 1.0)
    assert rec.spectral_quotient == pytest.approx(1.0 / (1.0 - a))
    assert rec.domain == Domain.SIEGEL
    assert rec.semisimple is True


@pytest.mark.parametrize("a", [1.5, 2.0, 4.0, -1.0, 0.5])
def test_caricature_nontrivial_spectrum(a):
    sys = caricature(a)
    recs = [r for r in find_equilibria(sys, "InfinityOnly") if abs(_z_value(r)) > 1e-6]
    assert len(recs) == 2
    for rec in recs:
        rec = classify_spectrum(sys, rec)
        assert rec.spectral_quotient == pytest.approx(0.5 * a / (a - 1.0), abs=1e-10)
    # uz-chart eigenvalues at z = e_pm are (-a, 2(1-a))
    e = 2.0 * cmath.sqrt(1.0 - 1.0 / a)
    for loc in (e, -e):
        rec = classify_spectrum(sys, _record_at(sys, Chart.UZ, loc))
        assert rec.eigenvalues[0] == pytest.approx(-a, abs=1e-10)
        assert rec.eigenvalues[1] == pytest.approx(2.0 * (1.0 - a), abs=1e-10)


def _z_value(rec):
    if rec.chart == Chart.UZ:
        return rec.location[1]
    w = rec.location[1]
    return 1.0 / w if abs(w) > 1e-12 else complex("inf")


def test_caricature_a2_nontrivial_not_semisimple():
    # e_pm = +-sqrt(2) carry equal eigenvalues with a genuine Jordan block.
    # In the uz chart the pair is (-2, -2); the equilibria are also found by
    # the search in the vw chart, where the pair is scaled by the Euler ratio
    # but the non-semisimplicity is chart-independent.
    sys = caricature(2.0)
    for e in (math.sqrt(2.0), -math.sqrt(2.0)):
        rec = classify_spectrum(sys, _record_at(sys, Chart.UZ, e))
        assert rec.eigenvalues[0] == pytest.approx(-2.0, abs=1e-10)
        assert rec.eigenvalues[1] == pytest.approx(-2.0, abs=1e-10)
        assert rec.semisimple is False
        assert rec.spectral_quotient == pytest.approx(1.0)
    for rec in find_equilibria(sys, "InfinityOnly"):
        if abs(_z_value(rec)) > 1e-6:
            assert classify_spectrum(sys, rec).semisimple is False


def test_asymmetric_origin_spectrum_in_vw():
    b1, b3 = 1.0, 2.0
    beta = b3 / b1
    sys = asym_caricature(b1, b3)
    rec = next(r for r in find_equilibria(sys, "InfinityOnly")
               if r.chart == Chart.VW and abs(r.location[1]) < 1e-9)
    rec = classify_spectrum(sys, rec)
    assert rec.eigenvalues[0] * 1.0 == pytest.approx(-(beta + 3.0) * b1 / 4.0, abs=1e-10)
    assert rec.eigenvalues[1] == pytest.approx(-(beta - 1.0) * b1 / 4.0, abs=1e-10)
    assert rec.spectral_quotient == pytest.approx((beta + 3.0) / (beta - 1.0), abs=1e-10)


def test_linear_diag_grid_domains():
    # Prescribed eigenvalue pairs reproduce exactly, across both domains.
    rng = np.random.default_rng(3)
    for _ in range(20):
        mu1 = float(rng.uniform(-3, 3))
        mu2 = float(rng.uniform(-3, 3))
        if abs(mu1) < 0.2 or abs(mu2) < 0.2:
            continue
        sys = to_charts(PlanarField(P([(1, 0, -mu1)]), P([(0, 1, mu2 - mu1)])))
        rec = next(r for r in find_equilibria(sys, "InfinityOnly")
                   if r.chart == Chart.UZ and abs(r.location[1]) < 1e-9)
        rec = classify_spectrum(sys, rec)
        assert rec.eigenvalues[0] == pytest.approx(mu1, abs=1e-12)
        assert rec.eigenvalues[1] == pytest.approx(mu2, abs=1e-12)
        want = Domain.POINCARE if mu1 * mu2 > 0 else Domain.SIEGEL
        assert rec.domain == want
        # Poincare iff quotient real positive, for real pairs
        assert (rec.domain == Domain.POINCARE) == (rec.spectral_quotient.real > 0)


def test_chart_duality_of_shared_equilibrium():
    # At z = e != 0 the uz record and the vw record at w = 1/e carry equal
    # spectral quotients.
    a = 3.0
    sys = caricature(a)
    e = 2.0 * math.sqrt(1.0 - 1.0 / a)
    uz_rec = classify_spectrum(sys, _record_at(sys, Chart.UZ, e))
    vw_rec = classify_spectrum(sys, _record_at(sys, Chart.VW, 1.0 / e))
    assert uz_rec.spectral_quotient == pytest.approx(vw_rec.spectral_quotient, abs=1e-10)


def _record_at(sys, chart, coord):
    from blowup.equilibria import EquilibriumRecord, _newton_polish_2d
    pt = _newton_polish_2d(sys.field(chart), (0.0 + 0.0j, complex(coord)), steps=6)
    return EquilibriumRecord(chart, (0.0 + 0.0j, pt[1]))


def test_nonsemisimple_jordan_detected():
    # (x^2, x) has uz chart (-u, u - z): eigenvalues (-1, -1), not semisimple.
    sys = to_charts(PlanarField(P([(2, 0, 1.0)]), P([(1, 0, 1.0)])))
    rec = classify_spectrum(sys, _record_at(sys, Chart.UZ, 0.0))
    assert rec.eigenvalues == (pytest.approx(-1.0), pytest.approx(-1.0))
    assert rec.semisimple is False


def test_scalar_power_embedding_is_semisimple():
    # (x^2, -y) has uz eigenvalues (-1, -1) with diagonal Jacobian.
    sys = to_charts(PlanarField(P([(2, 0, 1.0)]), P([(0, 1, -1.0)])))
    rec = classify_spectrum(sys, _record_at(sys, Chart.UZ, 0.0))
    assert rec.semisimple is True


def test_degenerate_eigenvalue_marks_domain():
    # dx/dt = x^2, dy/dt = -y + x: vw chart has a zero eigenvalue somewhere?
    # Instead: field (x*y, -y) -> uz field has eigenvalue 0 at its equilibrium.
    sys = to_charts(PlanarField(P([(1, 1, 1.0)]), P([(0, 1, -1.0)])))
    recs = find_equilibria(sys, "InfinityOnly")
    classified = [classify_spectrum(sys, r) for r in recs]
    assert any(r.domain == Domain.DEGENERATE for r in classified)


# --------------------------------------------- rational_spectral_quotient

def test_rational_exact_half():
    assert rational_spectral_quotient(0.5, 1e-12, 10) == (1, 2)


def test_rational_near_third():
    assert rational_spectral_quotient(1.0 / 3.0 + 1e-12, 1e-9, 100) == (1, 3)


def test_rational_golden_mean_rejected():
    lam = (math.sqrt(5.0) - 1.0) / 2.0
    assert rational_spectral_quotient(lam, 1e-9, 50) is None


def test_rational_negative():
    assert rational_spectral_quotient(-1.5, 1e-12, 10) == (-3, 2)


def test_rational_all_coprime_pairs_roundtrip():
    for q in range(1, 20):
        for p in range(-15, 16):
            if p == 0 or math.gcd(abs(p), q) != 1:
                continue
            got = rational_spectral_quotient(p / q, 1e-11, 20)
            assert got == (p, q)


# --------------------------------------------------------------- resonance

def test_poincare_integer_quotient_resonant():
    # uz eigenvalues (-2, -1): quotient 2 -> resonant of order 2.
    sys = to_charts(PlanarField(P([(1, 0, 2.0)]), P([(0, 1, 1.0)])))
    rec = classify_spectrum(sys, _record_at(sys, Chart.UZ, 0.0))
    assert rec.spectral_quotient == pytest.approx(2.0)
    assert rec.resonance.kind == "Resonant"
    assert rec.resonance.order == 2


def test_poincare_two_thirds_nonresonant():
    sys = to_charts(PlanarField(P([(1, 0, 2.0)]), P([(0, 1, 1.0)])))
    # uz eigenvalues (-2, -3+2=-1)? build directly: want (-2, -3)
    sys = to_charts(PlanarField(P([(1, 0, 2.0)]), P([(0, 1, -1.0)])))
    rec = classify_spectrum(sys, _record_at(sys, Chart.UZ, 0.0))
    assert rec.spectral_quotient == pytest.approx(2.0 / 3.0)
    assert rec.resonance.kind == "Nonresonant"
    assert rec.rational_quotient == (2, 3)


def test_siegel_rational_resonant_by_convention():
    # uz eigenvalues (-1, 1): quotient -1, Siegel: resonant with note.
    sys = to_charts(PlanarField(P([(1, 0, 1.0)]), P([(0, 1, 2.0)])))
    rec = classify_spectrum(sys, _record_at(sys, Chart.UZ, 0.0))
    assert rec.domain == Domain.SIEGEL
    assert rec.spectral_quotient == pytest.approx(-1.0)
    assert rec.resonance.kind == "Resonant"
    assert any("siegel" in n for n in rec.notes)


def test_siegel_golden_indeterminate():
    g = (math.sqrt(5.0) - 1.0) / 2.0
    sys = to_charts(PlanarField(P([(1, 0, 1.0)]), P([(0, 1, 1.0 + g)])))
    rec = classify_spectrum(sys, _record_at(sys, Chart.UZ, 0.0))
    assert rec.domain == Domain.SIEGEL
    assert rec.spectral_quotient == pytest.approx(-1.0 / g)  # -phi
    assert rec.resonance.kind == "Indeterminate"


def test_nonreal_quotient_nonresonant():
    sys = to_charts(PlanarField(P([(1, 0, -(1 + 1j))]), P([(0, 1, (2.0 - 1.0j) - (1 + 1j))])))
    rec = classify_spectrum(sys, _record_at(sys, Chart.UZ, 0.0))
    assert rec.resonance.kind == "Nonresonant"
    assert rec.domain == Domain.POINCARE


def test_small_divisor_scan_ties_do_not_follow_roundoff():
    # linear_pendulum's spectra are rational, so many divisors tie exactly;
    # a 1-ulp change in either eigenvalue must not change which one a row names
    csys = to_charts(hamiltonian_field(catalog_get("linear_pendulum").system))
    records = [classify_spectrum(csys, r) for r in find_equilibria(csys, "All")]
    spectra = [r.eigenvalues for r in records if r.eigenvalues is not None and r.domain != Domain.DEGENERATE]
    assert spectra

    def nudged(z: complex, toward: float) -> complex:
        return complex(math.nextafter(z.real, toward), math.nextafter(z.imag, toward))

    for l1, l2 in spectra:
        rows = small_divisor_scan((l1, l2), max_order=30)
        for toward in (math.inf, -math.inf):
            for pair in ((nudged(l1, toward), l2), (l1, nudged(l2, toward))):
                for row, moved in zip(rows, small_divisor_scan(pair, max_order=30)):
                    assert (moved["alpha"], moved["component"]) == (row["alpha"], row["component"]), (pair, row)
                    assert moved["min_divisor"] == pytest.approx(row["min_divisor"], abs=1e-13)


def test_small_divisor_scan_reports_minima():
    # Saddle with golden-mean quotient: divisors shrink along Fibonacci orders.
    rows = small_divisor_scan((-1.0, (math.sqrt(5.0) - 1.0) / 2.0), max_order=50)
    assert len(rows) == 49
    assert all(r["min_divisor"] > 0 for r in rows)
    assert min(r["min_divisor"] for r in rows) < 0.03
