import cmath
import math

import pytest

from blowup.algebra import Chart, PlanarField, to_charts
from blowup.equilibria import classify_spectrum, find_equilibria, EquilibriumRecord
from blowup.hamiltonian import PolynomialHamiltonian
from blowup.scenarios import (
    ExcludedParameterError,
    MissingParameterError,
    UnknownNameError,
    catalog_get,
    catalog_names,
    galerkin_spectrum,
)


# ----------------------------------------------------------------- catalog

def test_catalog_names_cover_required_set():
    required = {
        "riccati", "scalar_poly", "cyclotomic", "linear_diag", "jordan_block",
        "reciprocal_linear", "homogeneous", "weierstrass", "duffing",
        "galerkin_symmetric", "galerkin_asymmetric", "linear_pendulum",
        "reciprocal_diag",
    }
    assert required <= set(catalog_names())


def test_unknown_name():
    with pytest.raises(UnknownNameError):
        catalog_get("nope")


def test_unknown_parameter():
    with pytest.raises(MissingParameterError):
        catalog_get("riccati", {"bogus": 1})


def test_riccati_expected_equilibria():
    entry = catalog_get("riccati", {"a": 1.0, "e1": 1.0, "e2": -1.0})
    sys = to_charts(entry.system)
    recs = find_equilibria(sys, "FiniteOnly")
    xs = sorted(r.location[0].real for r in recs)
    assert xs == pytest.approx([-1.0, 1.0])
    assert entry.expected["heteroclinic_endpoints"] == [1.0, -1.0]
    assert entry.expected["imaginary_period"] == pytest.approx(1j * math.pi)


def test_galerkin_symmetric_metadata():
    entry = catalog_get("galerkin_symmetric", {"a": 2.0})
    assert entry.expected["origin_quotient"] == pytest.approx(-1.0)
    assert entry.expected["e_pm"][0] == pytest.approx(math.sqrt(2.0))
    assert entry.expected["e_semisimple"] is False


def test_reciprocal_linear_closure_metadata():
    entry = catalog_get("reciprocal_linear", {"a": 1.0, "b": -1.0, "n1": 1, "n2": 2})
    assert entry.expected["closure_windings_at_multiplier_zero"] == 4
    assert isinstance(entry.system, PlanarField)


def test_reciprocal_diag_metadata():
    entry = catalog_get("reciprocal_diag")
    assert entry.expected["windings"] == {"w_t": 2, "w_x": 1, "w_y": 1}
    # the Euler-reduced field is the linear pendulum
    assert entry.system.f.terms == pytest.approx({(0, 1): 1.0})
    assert entry.system.g.terms == pytest.approx({(1, 0): 1.0})


def test_rational_node_rejects_resonant():
    with pytest.raises(ExcludedParameterError):
        catalog_get("rational_node", {"n1": 1, "n2": 2})
    with pytest.raises(ExcludedParameterError):
        catalog_get("rational_node", {"n1": 2, "n2": 4})


@pytest.mark.parametrize("name, key", [
    ("scalar_poly", "m"), ("cyclotomic", "m"),
    ("rational_node", "n1"), ("rational_node", "n2"),
    ("reciprocal_linear", "n1"), ("reciprocal_linear", "n2"),
])
def test_whole_number_parameters_are_not_truncated(name, key):
    default = catalog_get(name).parameters[key]
    # a whole float is the same parameter; anything else is refused, not rounded down
    assert catalog_get(name, {key: float(default)}).system == catalog_get(name).system
    for bad in (default + 0.5, math.nan, math.inf):
        with pytest.raises(ExcludedParameterError, match="whole number"):
            catalog_get(name, {key: bad})


def test_galerkin_excluded_parameters():
    with pytest.raises(ExcludedParameterError):
        catalog_get("galerkin_symmetric", {"a": 1.0})
    with pytest.raises(ExcludedParameterError):
        catalog_get("galerkin_asymmetric", {"b1": -1.0})


@pytest.mark.parametrize("b3", [1.0, 2.0, -3.0])  # beta = 1, 1 + 1/b1^2, -3
def test_galerkin_spectrum_refuses_excluded_beta(b3):
    with pytest.raises(ExcludedParameterError):
        galerkin_spectrum("asymmetric", {"b1": 1.0, "b3": b3})


def test_hamiltonian_entries_build_hamiltonians():
    for name in ("weierstrass", "duffing", "linear_pendulum"):
        entry = catalog_get(name)
        assert isinstance(entry.system, PolynomialHamiltonian)


# --------------------------------------------------------- galerkin_spectrum

@pytest.mark.parametrize("a", [-2.0, -1.0, 0.5, 1.5, 2.0, 3.0, 4.0])
def test_symmetric_spectrum_matches_classifier(a):
    entry = catalog_get("galerkin_symmetric", {"a": a})
    sys = to_charts(entry.system)
    expected = galerkin_spectrum("symmetric", {"a": a})
    for row in expected:
        rec = classify_spectrum(
            sys, _polished(sys, Chart.UZ, row["location_z"]))
        l1, l2 = rec.eigenvalues
        assert l1 == pytest.approx(row["eigenvalues"][0], abs=1e-10)
        assert l2 == pytest.approx(row["eigenvalues"][1], abs=1e-10)
        assert rec.spectral_quotient == pytest.approx(row["quotient"], abs=1e-10)
        assert rec.semisimple == row["semisimple"]


@pytest.mark.parametrize("b1,b3", [(1.0, 0.0), (1.0, 3.0), (2.0, 1.0), (0.5, -1.0), (1.5, 6.0)])
def test_asymmetric_spectrum_matches_classifier(b1, b3):
    entry = catalog_get("galerkin_asymmetric", {"b1": b1, "b3": b3})
    sys = to_charts(entry.system)
    expected = galerkin_spectrum("asymmetric", {"b1": b1, "b3": b3})
    for row in expected:
        rec = classify_spectrum(
            sys, _polished(sys, Chart.VW, row["location_w"]))
        l1, l2 = rec.eigenvalues
        assert l1 == pytest.approx(row["eigenvalues"][0], abs=1e-10)
        assert l2 == pytest.approx(row["eigenvalues"][1], abs=1e-10)
        assert rec.spectral_quotient == pytest.approx(row["quotient"], abs=1e-10)


def _polished(sys, chart, coord):
    from blowup.equilibria import _newton_polish_2d
    pt = _newton_polish_2d(sys.field(chart), (0.0 + 0.0j, complex(coord)), steps=8)
    return EquilibriumRecord(chart, (0.0 + 0.0j, pt[1]))


def test_asymmetric_negative_discriminant_poincare_nonresonant():
    # b1 = 1, beta = 3: d = 1 + 1*(1-3) = -1 < 0: complex conjugate pair,
    # Poincare domain, nonresonant.
    entry = catalog_get("galerkin_asymmetric", {"b1": 1.0, "b3": 3.0})
    assert entry.expected["discriminant"] == pytest.approx(-1.0)
    sys = to_charts(entry.system)
    for e in entry.expected["e_pm"]:
        rec = classify_spectrum(sys, _polished(sys, Chart.VW, e))
        assert abs(rec.spectral_quotient.imag) > 1e-6
        assert rec.domain == "Poincare"
        assert rec.resonance.kind == "Nonresonant"


def test_symmetric_a_negative_quotient_in_unit_interval():
    # a = -1: e_pm real, unstable nodes, quotient a/(2(a-1)) = 1/4 in (0, 1/2).
    entry = catalog_get("galerkin_symmetric", {"a": -1.0})
    sys = to_charts(entry.system)
    for e in entry.expected["e_pm"]:
        rec = classify_spectrum(sys, _polished(sys, Chart.UZ, e))
        lam = rec.spectral_quotient.real
        assert lam == pytest.approx(0.25, abs=1e-10)
        assert 0.0 < lam < 0.5


def test_cyclotomic_equilibria_roundtrip():
    for m in (2, 3, 5):
        entry = catalog_get("cyclotomic", {"m": m})
        sys = to_charts(entry.system)
        recs = find_equilibria(sys, "FiniteOnly")
        got = sorted((r.location[0] for r in recs), key=lambda c: cmath.phase(c))
        want = sorted(entry.expected["finite_roots"], key=cmath.phase)
        assert len(got) == m
        for g, w in zip(got, want):
            assert abs(g - w) < 1e-12
        inf_recs = find_equilibria(sys, "InfinityOnly")
        zs = [r for r in inf_recs if r.chart == Chart.UZ]
        assert any(abs(r.location[1]) < 1e-12 for r in zs)
