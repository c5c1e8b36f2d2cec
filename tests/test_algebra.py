import math
import random
import struct

import numpy as np
import pytest

import blowup.algebra
from blowup.algebra import (
    BivariatePolynomial,
    Chart,
    DegenerateFieldError,
    PlanarField,
    chart_point,
    evaluate,
    jacobian,
    to_charts,
)
from blowup.hamiltonian import PolynomialHamiltonian, hamiltonian_field
from blowup.scenarios import catalog_get, catalog_names

P = BivariatePolynomial.from_coeffs


def test_evaluate_zero_polynomial_is_exactly_zero():
    z = BivariatePolynomial({})
    assert evaluate(z, 2.3 + 1j, -7.0) == 0.0
    assert z.is_zero


def test_evaluate_monomial():
    p = P([(2, 0, 1.0)])  # x^2
    assert evaluate(p, 2.0, 5.0) == 4.0


def test_evaluate_symmetric_caricature_f_by_hand():
    # f = x^2 + (a/4) y^2 at a = 2: f(1, 2) = 1 + 0.5*4 = 3
    p = P([(2, 0, 1.0), (0, 2, 0.5)])
    assert evaluate(p, 1.0, 2.0) == pytest.approx(3.0)


def test_zero_coefficients_are_pruned():
    p = P([(2, 0, 1.0), (1, 1, 0.0), (0, 3, 1e-16)])
    assert set(p.terms) == {(2, 0)}
    assert p.degree == 2


def test_arithmetic_cancellation_prunes_degree():
    p = P([(3, 0, 1.0), (1, 0, 2.0)])
    q = P([(3, 0, -1.0)])
    assert (p + q).degree == 1


def test_negative_exponent_rejected():
    with pytest.raises(ValueError):
        BivariatePolynomial({(-1, 0): 1.0})


def caricature_field(a: float) -> PlanarField:
    # dx/dt = x^2 + (a/4) y^2,  dy/dt = y(-1 + a x)
    f = P([(2, 0, 1.0), (0, 2, a / 4.0)])
    g = P([(0, 1, -1.0), (1, 1, a)])
    return PlanarField(f, g)


def test_to_charts_symmetric_caricature_a2():
    # Expected uz system at a=2: du/dt1 = -u(1 + z^2/2), dz/dt1 = z(1 - u - z^2/2)
    sys = to_charts(caricature_field(2.0))
    uf = sys.uz_field.f
    ug = sys.uz_field.g
    assert uf.terms == pytest.approx({(1, 0): -1.0, (1, 2): -0.5})
    assert ug.terms == pytest.approx({(0, 1): 1.0, (1, 1): -1.0, (0, 3): -0.5})
    assert sys.euler_exponent == 1


def test_to_charts_symmetric_caricature_vw_general_a():
    # dv/dt2 = v(v - a w),  dw/dt2 = a/4 + v w - (a-1) w^2
    a = 3.0
    sys = to_charts(caricature_field(a))
    vf = sys.vw_field.f
    vg = sys.vw_field.g
    assert vf.terms == pytest.approx({(2, 0): 1.0, (1, 1): -a})
    assert vg.terms == pytest.approx({(0, 0): a / 4.0, (1, 1): 1.0, (0, 2): -(a - 1.0)})


def test_to_charts_diagonal_linear():
    # f = l1 x, g = l2 y (m=1) -> uz = (-l1 u, (l2 - l1) z)
    l1, l2 = 2.0 + 1.0j, -0.5
    fld = PlanarField(P([(1, 0, l1)]), P([(0, 1, l2)]))
    sys = to_charts(fld)
    assert sys.uz_field.f.terms == pytest.approx({(1, 0): -l1})
    assert sys.uz_field.g.terms == pytest.approx({(0, 1): l2 - l1})
    assert sys.euler_exponent == 0


def test_to_charts_pure_riccati_by_hand_substitution():
    # f = x^2, g = 0 is degenerate as written; embed with g = -y (dummy line).
    # Hand substitution: f1 = u^2 f(1/u, z/u) = 1, g1 = u^2 (-z/u) = -u z,
    # so uz = (-u, -z - u z).
    fld = PlanarField(P([(2, 0, 1.0)]), P([(0, 1, -1.0)]))
    sys = to_charts(fld)
    assert sys.uz_field.f.terms == pytest.approx({(1, 0): -1.0})
    assert sys.uz_field.g.terms == pytest.approx({(0, 1): -1.0, (1, 1): -1.0})
    # vw chart by the same hand substitution: f2 = w^2, g2 = -v,
    # vw = (-v * g2, -w g2 + f2) = (v^2, v w + w^2)
    assert sys.vw_field.f.terms == pytest.approx({(2, 0): 1.0})
    assert sys.vw_field.g.terms == pytest.approx({(1, 1): 1.0, (0, 2): 1.0})


def test_to_charts_rejects_zero_field():
    with pytest.raises(DegenerateFieldError):
        PlanarField(BivariatePolynomial({}), BivariatePolynomial({}))


def test_infinity_invariance_is_structural():
    # First uz component is divisible by u at the coefficient level.
    rng = np.random.default_rng(7)
    for _ in range(10):
        f = P([(2, 0, rng.normal()), (1, 1, rng.normal()), (0, 2, rng.normal()), (1, 0, rng.normal())])
        g = P([(2, 0, rng.normal()), (0, 1, rng.normal()), (0, 0, rng.normal())])
        sys = to_charts(PlanarField(f, g))
        assert all(j >= 1 for j, _ in sys.uz_field.f.terms)
        assert all(j >= 1 for j, _ in sys.vw_field.f.terms)


def test_to_charts_is_linear_in_the_field():
    fld = caricature_field(2.0)
    c = 3.0 - 2.0j
    sys = to_charts(fld)
    sys_scaled = to_charts(fld.scaled(c))
    for chart in Chart.ALL:
        for name in ("f", "g"):
            p = getattr(sys.field(chart), name)
            q = getattr(sys_scaled.field(chart), name)
            assert q.terms == pytest.approx({jk: c * v for jk, v in p.terms.items()})


def test_jacobian_diagonal_linear():
    fld = PlanarField(P([(1, 0, 2.0 + 1j)]), P([(0, 1, -3.0)]))
    J = jacobian(fld, 0.7, -1.3)
    assert J[0][0] == pytest.approx(2.0 + 1j)
    assert J[1][1] == pytest.approx(-3.0)
    assert J[0][1] == J[1][0] == 0.0


def test_jacobian_caricature_uz_origin():
    a = 1.7
    sys = to_charts(caricature_field(a))
    J = jacobian(sys.uz_field, 0.0, 0.0)
    assert J[0][0] == pytest.approx(-1.0)
    assert J[1][1] == pytest.approx(a - 1.0)


def test_jacobian_matches_finite_differences():
    # Central difference with step 1e-6 agrees to 1e-7 at random points.
    rng = np.random.default_rng(23)
    fields = [
        caricature_field(2.0),
        PlanarField(P([(2, 0, 1.0)]), P([(0, 1, -1.0)])),
        PlanarField(P([(1, 0, 1.0), (0, 2, 0.3)]), P([(1, 1, 2.0), (0, 1, -1.0)])),
    ]
    h = 1e-6
    for fld in fields:
        for _ in range(50):
            x, y = (complex(*rng.normal(size=2)) for _ in range(2))
            J = jacobian(fld, x, y)
            fd = np.empty((2, 2), dtype=complex)
            for col, (dx, dy) in enumerate(((h, 0.0), (0.0, h))):
                fp = np.array(fld(x + dx, y + dy))
                fm = np.array(fld(x - dx, y - dy))
                fd[:, col] = (fp - fm) / (2 * h)
            assert np.allclose(np.array(J), fd, atol=1e-7)


def test_riccati_derivative_finite_difference_oracle():
    fld = PlanarField(P([(2, 0, 1.0)]), P([(0, 1, -1.0)]))
    x = 3.0
    h = 1e-6
    fd = (evaluate(fld.f, x + h, 0.0) - evaluate(fld.f, x - h, 0.0)) / (2 * h)
    assert jacobian(fld, x, 0.0)[0][0] == pytest.approx(fd, abs=1e-8)
    assert jacobian(fld, x, 0.0)[0][0] == pytest.approx(6.0)


def _chart_velocity_to_xy(sys, chart, coords):
    """Field value in a blow-up chart mapped to an original-time xy velocity."""
    m1 = sys.euler_exponent
    a, b = coords
    da, db = sys.field(chart)(a, b)
    rho = a**m1  # dt = a^(m-1) d(chart time)
    da, db = da / rho, db / rho
    if chart == Chart.UZ:
        u, z = a, b
        du, dz = da, db
        return -du / u**2, (dz * u - z * du) / u**2
    if chart == Chart.VW:
        v, w = a, b
        dv, dw = da, db
        return (dw * v - w * dv) / v**2, -dv / v**2
    return da, db


@pytest.mark.parametrize("a", [2.0, -1.0, 0.5])
def test_chart_agreement_on_overlaps(a):
    # 100 random points with all six coordinates moderate: the three chart
    # fields agree after coordinate mapping and Euler-multiplier ratio.
    rng = np.random.default_rng(int(10 * a) + 100)
    sys = to_charts(caricature_field(a))
    count = 0
    while count < 100:
        x = complex(rng.uniform(-2, 2), rng.uniform(-2, 2))
        y = complex(rng.uniform(-2, 2), rng.uniform(-2, 2))
        coords = {
            Chart.XY: (x, y),
            Chart.UZ: chart_point((x, y), Chart.XY, Chart.UZ),
            Chart.VW: chart_point((x, y), Chart.XY, Chart.VW),
        }
        mags = [abs(c) for pair in coords.values() for c in pair]
        if min(mags) < 0.1 or max(mags) > 10.0:
            continue
        count += 1
        ref = np.array(sys.xy_field(x, y))
        scale = max(1.0, float(np.max(np.abs(ref))))
        for chart in (Chart.UZ, Chart.VW):
            vel = np.array(_chart_velocity_to_xy(sys, chart, coords[chart]))
            assert np.max(np.abs(vel - ref)) < 1e-10 * scale


def test_chart_point_round_trips():
    pt = (0.3 + 0.4j, -1.2 + 0.1j)
    for chart in Chart.ALL:
        mapped = chart_point(pt, Chart.XY, chart)
        back = chart_point(mapped, chart, Chart.XY)
        assert back[0] == pytest.approx(pt[0])
        assert back[1] == pytest.approx(pt[1])


def test_degree_m_is_joint_max():
    fld = PlanarField(P([(1, 0, 1.0)]), P([(0, 3, 2.0)]))
    assert fld.degree_m == 3
    # Degenerate lower-degree component is zero-padded by the chart maps:
    sys = to_charts(fld)
    assert all(j >= 1 for j, _ in sys.uz_field.f.terms)


# ------------------------------------------------- compiled field evaluator

def _bits(values) -> list[bytes]:
    # bit patterns, so -0.0 differs from 0.0 and a nan equals itself
    return [struct.pack("<dd", v.real, v.imag) for v in values]


_POINTS = [(0.3 + 0.1j, -0.2j), (2.0, 5.0), (-1.5 - 2.5j, 0.7 + 3.1j), (0j, complex(-0.0, -0.0)),
           (-0.0, 1e-300j), (1e155 + 1e155j, -3.0), (7, -2), (complex(math.inf, 1.0), 0.5j),
           (1.5, complex(-2.0, math.inf))]


def _assert_compiled_is_evaluate(fld: PlanarField) -> None:
    for x, y in _POINTS:
        assert _bits(fld(x, y)) == _bits((evaluate(fld.f, x, y), evaluate(fld.g, x, y))), (fld, x, y)


def _random_poly(rng: random.Random) -> BivariatePolynomial:
    return BivariatePolynomial({
        (rng.randrange(7), rng.randrange(7)): complex(rng.uniform(-3, 3), rng.choice([rng.uniform(-3, 3), -0.0]))
        for _ in range(rng.randrange(1, 12))
    })


def test_compiled_field_matches_evaluate_on_random_sparse_polynomials():
    rng = random.Random(7)
    for _ in range(40):
        _assert_compiled_is_evaluate(PlanarField(_random_poly(rng), _random_poly(rng)))


@pytest.mark.parametrize("f, g", [
    pytest.param({}, {(0, 2): 1.5 - 1j, (3, 1): -2.0}, id="empty-f"),
    pytest.param({(1, 4): 0.5j}, {}, id="empty-g"),
    pytest.param({(0, 0): -2.0 + 0.5j}, {(0, 0): complex(3.0, -0.0)}, id="constant"),
    pytest.param({(2.0, 0): 1.0, (1, 1.0): -0.5j}, {(0.0, 3.0): 2.0}, id="float-exponents"),
])
def test_compiled_field_matches_evaluate_on_edge_cases(f, g):
    fld = PlanarField(BivariatePolynomial(f), BivariatePolynomial(g))
    assert all(type(e) is int for p in (fld.f, fld.g) for jk in p.terms for e in jk)
    _assert_compiled_is_evaluate(fld)


@pytest.mark.parametrize("name", catalog_names())
def test_compiled_chart_fields_match_evaluate_on_the_catalog(name):
    system = catalog_get(name).system
    csys = to_charts(hamiltonian_field(system) if isinstance(system, PolynomialHamiltonian) else system)
    for chart in Chart.ALL:
        _assert_compiled_is_evaluate(csys.field(chart))


def test_field_is_compiled_once_per_instance(monkeypatch):
    compiled = []
    real = blowup.algebra._compile_field
    monkeypatch.setattr(blowup.algebra, "_compile_field", lambda f, g: compiled.append(f) or real(f, g))
    fld = PlanarField(P([(2, 0, 1.0)]), P([(0, 1, -1.0)]))
    twin = PlanarField(P([(2, 0, 1.0)]), P([(0, 1, -1.0)]))
    for _ in range(3):
        fld(0.5, 0.25j)
        twin(0.5, 0.25j)
    assert len(compiled) == 2
    assert fld == twin


def test_fields_of_one_monomial_structure_share_their_source():
    # the source is built and compiled once per monomial structure and bound
    # to each field's own coefficients
    blowup.algebra._field_code.cache_clear()
    f_keys, g_keys = ((3, 1), (0, 0), (1, 2)), ((0, 4), (2, 0))
    rng = random.Random(18)
    fields = [PlanarField(*(BivariatePolynomial({jk: complex(rng.uniform(-3, 3), rng.uniform(-3, 3)) for jk in keys})
                            for keys in (f_keys, g_keys))) for _ in range(2)]
    assert fields[0] != fields[1]
    for fld in fields:
        _assert_compiled_is_evaluate(fld)
    info = blowup.algebra._field_code.cache_info()
    assert (info.misses, info.hits) == (1, 1)


# ------------------------------------------------- truncated composition

def _sparse_poly(rng: random.Random, constant: bool) -> BivariatePolynomial:
    terms = {}
    for _ in range(rng.randrange(1, 7)):
        d = rng.randrange(1, 6)
        j = rng.randrange(d + 1)
        # some coefficients sit a few PRUNE_TOL from the pruning threshold
        scale = rng.choice([1.0, 1.0, 3 * blowup.algebra.PRUNE_TOL])
        terms[(j, d - j)] = scale * complex(rng.uniform(-2, 2), rng.uniform(-2, 2))
    if constant:
        terms[(0, 0)] = complex(rng.uniform(-1, 1), rng.uniform(-1, 1))
    return BivariatePolynomial(terms)


def _term_bits(p: BivariatePolynomial) -> list:
    return [(jk, _bits([c])) for jk, c in p.terms.items()]


def _reference_compose(p, a, b, n):
    """``compose`` as first written: each product formed in full, then truncated."""
    def mul(q, r):
        terms = {}
        for (j1, k1), c1 in q.terms.items():
            for (j2, k2), c2 in r.terms.items():
                jk = (j1 + j2, k1 + k2)
                terms[jk] = terms.get(jk, 0.0) + c1 * c2
        return BivariatePolynomial(terms)

    x_pows, y_pows = [P([(0, 0, 1.0)])], [P([(0, 0, 1.0)])]
    for _ in range(max(j for j, _ in p.terms)):
        x_pows.append(mul(x_pows[-1], a).truncated(n))
    for _ in range(max(k for _, k in p.terms)):
        y_pows.append(mul(y_pows[-1], b).truncated(n))
    acc = BivariatePolynomial({})
    for (j, k), c in p.terms.items():
        acc = acc + mul(x_pows[j], y_pows[k]).scaled(c).truncated(n)
    return acc


def test_truncated_compose_is_the_truncated_full_composition_bit_for_bit():
    # the coefficients and the key order both; the normal-form reports rest on this
    rng = random.Random(12)
    for _ in range(60):
        p = _sparse_poly(rng, constant=rng.random() < 0.3)
        a = _sparse_poly(rng, constant=rng.random() < 0.5)
        b = _sparse_poly(rng, constant=rng.random() < 0.5)
        full = p.compose(a, b)
        for n in range(2, 9):
            kept = p.compose(a, b, max_degree=n)
            assert list(kept.terms.items()) == list(full.truncated(n).terms.items())
            # bit patterns too, so -0.0 counts
            assert _term_bits(kept) == _term_bits(full.truncated(n)) == _term_bits(_reference_compose(p, a, b, n))
