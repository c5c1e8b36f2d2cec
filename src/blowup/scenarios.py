"""Built-in catalog of reference systems with closed-form expected values.

Every entry builds a fully numeric system (a planar field or a polynomial
Hamiltonian) from its parameters and records the quantities that can be
written in closed form: equilibrium positions, eigenvalue pairs, spectral
quotients, expected detour closure counts, and winding numbers.  The test
suite and the CLI demos treat these expected maps as oracles.

Also here: the exact count of orientation-preserving equivalence classes of
generic degree-m scalar flows on the Riemann sphere, equal to the number of
planar trees with m vertices, evaluated in exact rational arithmetic.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from fractions import Fraction
from math import comb, gcd
from typing import Any, Callable

from blowup.algebra import BivariatePolynomial, PlanarField
from blowup.hamiltonian import PolynomialHamiltonian

__all__ = [
    "CatalogEntry",
    "UnknownNameError",
    "MissingParameterError",
    "ExcludedParameterError",
    "OutOfRangeError",
    "catalog_get",
    "catalog_names",
    "tree_count",
    "galerkin_spectrum",
    "GOLDEN_MEAN",
]

P = BivariatePolynomial.from_coeffs

GOLDEN_MEAN = (math.sqrt(5.0) - 1.0) / 2.0


class UnknownNameError(KeyError):
    pass


class MissingParameterError(KeyError):
    pass


class ExcludedParameterError(ValueError):
    pass


class OutOfRangeError(ValueError):
    pass


@dataclass(frozen=True)
class CatalogEntry:
    name: str
    system: PlanarField | PolynomialHamiltonian
    parameters: dict[str, Any]
    expected: dict[str, Any]
    citation: str
    suggested_start: tuple[complex, complex] | None = None


def _need(params: dict, defaults: dict) -> dict:
    merged = dict(defaults)
    for key, val in params.items():
        if key not in defaults:
            raise MissingParameterError(f"unknown parameter {key!r}; accepts {sorted(defaults)}")
        merged[key] = val
    missing = [k for k, v in merged.items() if v is None]
    if missing:
        raise MissingParameterError(f"missing required parameters {missing}")
    return merged


def _whole(p: dict, key: str) -> int:
    """``p[key]`` as an int; a value that is not a whole number is excluded."""
    try:
        if int(p[key]) == p[key]:
            return int(p[key])
    except (TypeError, ValueError, OverflowError):
        pass
    raise ExcludedParameterError(f"{key} must be a whole number, got {p[key]!r}")


def _riccati(params):
    p = _need(params, {"a": 1.0, "e1": 1.0, "e2": -1.0})
    a, e1, e2 = complex(p["a"]), complex(p["e1"]), complex(p["e2"])
    if a == 0 or e1 == e2:
        raise ExcludedParameterError("a = 0 and e1 = e2 are excluded")
    f = P([(2, 0, a), (1, 0, -a * (e1 + e2)), (0, 0, a * e1 * e2)])
    fld = PlanarField(f, P([(0, 1, -1.0)]))
    expected = {
        "equilibria_x": [e1, e2],
        "eigenvalue_at_e1": a * (e1 - e2),
        "eigenvalue_at_e2": a * (e2 - e1),
        "heteroclinic_endpoints": [e1, e2],
        "imaginary_period": 2j * math.pi / (a * (e1 - e2)),
    }
    return CatalogEntry("riccati", fld, p, expected,
                        "quadratic scalar flow embedded on the invariant line y = 0",
                        suggested_start=(2.0 + 0.0j, 0.0j))


def _scalar_poly(params):
    p = _need(params, {"m": 2})
    m = _whole(p, "m")
    if m < 2:
        raise ExcludedParameterError("degree m must be at least 2")
    fld = PlanarField(P([(m, 0, 1.0)]), P([(0, 1, -1.0)]))
    expected = {
        "blowup_time_from": lambda x0: x0 ** (1 - m) / (m - 1),
        "detour_cycles": m - 1,
        "windings": {"w_t": m - 1, "w_u": 1, "w_z": 0},
        "star_branches": m - 1,
    }
    return CatalogEntry("scalar_poly", fld, p, expected,
                        "pure power scalar flow; closure after m-1 time cycles",
                        suggested_start=(2.0 + 0.0j, 0.0j))


def _cyclotomic(params):
    p = _need(params, {"m": 3})
    m = _whole(p, "m")
    if m < 2:
        raise ExcludedParameterError("degree m must be at least 2")
    fld = PlanarField(P([(m, 0, 1.0), (0, 0, -1.0)]), P([(0, 1, -1.0)]))
    roots = [cmath.exp(2j * math.pi * k / m) for k in range(m)]
    expected = {"finite_roots": roots, "infinity_z_root": 0.0}
    return CatalogEntry("cyclotomic", fld, p, expected,
                        "roots-of-unity equilibria on the invariant line",
                        suggested_start=(2.0 + 0.0j, 0.0j))


def _linear_diag(params):
    p = _need(params, {"l1": 1.0, "l2": -1.0})
    l1, l2 = complex(p["l1"]), complex(p["l2"])
    fld = PlanarField(P([(1, 0, l1)]), P([(0, 1, l2)]))
    expected = {
        "uz_eigenvalues": (-l1, l2 - l1),
        "x_over_y_multiplier": cmath.exp(2j * math.pi * l1 / l2) if l2 != 0 else None,
    }
    if l1 != l2:
        expected["u_holonomy_multiplier"] = cmath.exp(2j * math.pi * (-l1) / (l2 - l1))
    return CatalogEntry("linear_diag", fld, p, expected,
                        "diagonal linear flow; all holonomies in closed form")


def _linear_diag_for_quotient(params):
    # uz-chart quotient q: uz eigenvalues (-1, -1/q).
    p = _need(params, {"q": 0.5})
    q = complex(p["q"])
    if q == 0:
        raise ExcludedParameterError("quotient must be nonzero")
    entry = _linear_diag({"l1": 1.0, "l2": 1.0 - 1.0 / q})
    return CatalogEntry("linear_quotient", entry.system, p,
                        {**entry.expected, "uz_quotient": q},
                        entry.citation)


def _jordan_block(params):
    _need(params, {})
    # (x^2, x) has uz chart (-u, u - z): a genuine Jordan block at infinity.
    fld = PlanarField(P([(2, 0, 1.0)]), P([(1, 0, 1.0)]))
    expected = {
        "uz_eigenvalues": (-1.0, -1.0),
        "semisimple": False,
        "cycle_discrepancy": lambda k, u0: 2.0 * math.pi * k * abs(u0),
    }
    return CatalogEntry("jordan_block", fld, {}, expected,
                        "non-semisimple double eigenvalue at infinity; no detour ever closes",
                        suggested_start=(2.0 + 0.0j, 0.0j))


def _rational_node(params):
    p = _need(params, {"n1": 2, "n2": 3, "gamma": 1.0})
    n1, n2 = _whole(p, "n1"), _whole(p, "n2")
    gamma = complex(p["gamma"])
    if n1 < 1 or n2 < 1 or gcd(n1, n2) != 1:
        raise ExcludedParameterError("n1, n2 must be positive coprime integers")
    if (n1 == 1) != (n2 == 1):
        raise ExcludedParameterError("integer quotient is resonant; pick coprime n1, n2 >= 2 or n1 = n2 = 1")
    # uz chart is (-n2 u, -n1 z + gamma u^2): fiber eigenvalue -n2, base -n1.
    # One simple time loop drives one u-loop, so closure takes exactly n2
    # cycles; the z-trace then winds n1 times.
    fld = PlanarField(
        P([(2, 0, float(n2))]),
        P([(1, 1, float(n2 - n1)), (0, 0, gamma)]),
    )
    expected = {
        "uz_eigenvalues": (-float(n2), -float(n1)),
        "closure_cycles": n2,
        "windings": {"w_t": n2, "w_u": n2, "w_z": n1},
        "detour_quotient": Fraction(n1, n2),
        "per_cycle_multiplier": cmath.exp(2j * math.pi * n1 / n2),
    }
    return CatalogEntry("rational_node", fld, p, expected,
                        "constructed stable node at infinity with prescribed rational closure",
                        suggested_start=(2.0 + 0.0j, 0.2 + 0.0j))


def _golden_node(params):
    p = _need(params, {"gamma": 1.0})
    gamma = complex(p["gamma"])
    g = GOLDEN_MEAN
    # uz chart is (-u, -g z + gamma u^2): base multiplier exp(2 pi i g) per cycle.
    fld = PlanarField(
        P([(2, 0, 1.0)]),
        P([(1, 1, 1.0 - g), (0, 0, gamma)]),
    )
    expected = {
        "uz_eigenvalues": (-1.0, -g),
        "per_cycle_multiplier": cmath.exp(2j * math.pi * g),
        "best_cycle_below_100": 89,
    }
    # The start is tuned so that the straightened base coordinate sits near
    # half the fiber magnitude when a loop of radius 1e-2 is reached: the
    # single-cycle discrepancy then lands well above 0.3 of the fiber while
    # the 89-cycle near-recurrence drops well below 0.05 of it.
    return CatalogEntry("golden_node", fld, p, expected,
                        "node with golden-mean quotient; detours almost close along Fibonacci cycles",
                        suggested_start=(2.0 + 0.0j, -0.2496 + 0.0j))


def _reciprocal_linear(params):
    p = _need(params, {"a": 1.0, "b": -1.0, "n1": 1, "n2": 2})
    n1, n2 = _whole(p, "n1"), _whole(p, "n2")
    if not (0 < n1 < n2):
        raise ExcludedParameterError("need 0 < n1 < n2")
    fld = PlanarField(P([(1, 0, -float(n1))]), P([(0, 1, -float(n2))]))
    expected = {
        "euler_multiplier_roots": [complex(p["a"]), complex(p["b"])],
        "closure_windings_at_multiplier_zero": 2 * n2,
        "stable_leaf_windings": 2,
        "leaf_relation_exponents": (n2, n1),
    }
    return CatalogEntry("reciprocal_linear", fld, p, expected,
                        "linear foliation carrying the reciprocal system's time structure")


def _reciprocal_diag(params):
    _need(params, {})
    # 1/x, 1/y carries the foliation of the linear pendulum (y, x) after the
    # time rescaling dt = x y dt1.
    fld = PlanarField(P([(0, 1, 1.0)]), P([(1, 0, 1.0)]))
    expected = {
        "windings": {"w_t": 2, "w_x": 1, "w_y": 1},
        "energy": "y^2/2 - x^2/2",
    }
    return CatalogEntry("reciprocal_diag", fld, {}, expected,
                        "reciprocal diagonal system, Euler-reduced to the linear pendulum")


def _homogeneous(params):
    p = _need(params, {"fy": 1.0, "gx": 2.0})
    fy, gx = complex(p["fy"]), complex(p["gx"])
    if abs(gx - 1.0) <= 1e-12:
        raise ExcludedParameterError("gx = 1 is excluded")
    fld = PlanarField(P([(2, 0, 1.0), (0, 2, fy)]), P([(1, 1, gx)]))
    # f1(z) = 1 + fy z^2, g1(z) = gx z, P(z) = (gx - 1) z - fy z^3.
    roots = [0.0 + 0.0j]
    if abs(fy) > 1e-12:
        r = cmath.sqrt((gx - 1.0) / fy)
        roots += [r, -r]
    quot = {}
    for e in roots:
        f1 = 1.0 + fy * e * e
        dP = (gx - 1.0) - 3.0 * fy * e * e
        quot[_key(e)] = -f1 / dP
    expected = {"infinity_roots": roots, "holonomy_quotients": quot}
    return CatalogEntry("homogeneous", fld, p, expected,
                        "quadratic homogeneous field; linear holonomy at every slope")


def _key(e: complex) -> str:
    return f"{e.real:.12g}{e.imag:+.12g}j"


def _weierstrass(params):
    p = _need(params, {"c": 0.5})
    # force g(x) = 6(x^2 - 1): H = y^2/2 - (2x^3 - 6x)
    H = P([(0, 2, 0.5), (3, 0, -2.0), (1, 0, 6.0)])
    ham = PolynomialHamiltonian(H, complex(p["c"]))
    expected = {
        "force_degree": 2,
        "pendulum_windings": {"w_t": 1, "w_v": 3, "w_w": 1},
        "leaves": 1,
    }
    return CatalogEntry("weierstrass", ham, p, expected,
                        "elliptic pendulum with quadratic force 6(x^2-1)")


def _duffing(params):
    p = _need(params, {"c": 0.5})
    # force g(x) = x^3 - x: H = y^2/2 - (x^4/4 - x^2/2)
    H = P([(0, 2, 0.5), (4, 0, -0.25), (2, 0, 0.5)])
    ham = PolynomialHamiltonian(H, complex(p["c"]))
    expected = {
        "force_degree": 3,
        "pendulum_windings": {"w_t": 1, "w_v": 2, "w_w": 1},
        "leaves": 2,
    }
    return CatalogEntry("duffing", ham, p, expected,
                        "cubic-force pendulum; two leaves close after half a root-parameter cycle")


def _linear_pendulum(params):
    p = _need(params, {"c": 0.5})
    H = P([(0, 2, 0.5), (2, 0, -0.5)])
    ham = PolynomialHamiltonian(H, complex(p["c"]))
    expected = {"solution": "(sinh t, cosh t) on level 1/2", "period": 2j * math.pi}
    return CatalogEntry("linear_pendulum", ham, p, expected,
                        "hyperbolic-sine pendulum, the degree-1 sanity case")


def _galerkin_symmetric(params):
    p = _need(params, {"a": 2.0})
    a = float(p["a"])
    if a in (0.0, 1.0):
        raise ExcludedParameterError("a = 0 and a = 1 are excluded")
    fld = PlanarField(
        P([(2, 0, 1.0), (0, 2, a / 4.0)]),
        P([(0, 1, -1.0), (1, 1, a)]),
    )
    return CatalogEntry("galerkin_symmetric", fld, p, _symmetric_expected(a),
                        "two-mode projection of the quadratic heat flow, symmetric coefficient",
                        suggested_start=(1.0 + 0.0j, 0.1 + 0.0j))


def _symmetric_expected(a: float) -> dict:
    e = 2.0 * cmath.sqrt(1.0 - 1.0 / a)
    return {
        "origin_eigenvalues": (-1.0, a - 1.0),
        "origin_quotient": 1.0 / (1.0 - a),
        "e_pm": [e, -e],
        "e_eigenvalues": (-a, 2.0 * (1.0 - a)),
        "e_quotient": 0.5 * a / (a - 1.0),
        "e_semisimple": a != 2.0,
    }


def _galerkin_asymmetric(params):
    p = _need(params, {"b1": 1.0, "b3": 0.0})
    b1, b3 = float(p["b1"]), float(p["b3"])
    if b1 <= 0.0:
        raise ExcludedParameterError("b1 must be positive")
    beta = b3 / b1
    if beta in (-3.0, 1.0) or abs(beta - (1.0 + 1.0 / b1**2)) < 1e-12:
        raise ExcludedParameterError("beta in {-3, 1, 1 + 1/b1^2} is excluded")
    fld = PlanarField(
        P([(2, 0, 1.0), (1, 1, b1)]),
        P([(0, 1, -1.0), (2, 0, b1), (0, 2, (3.0 * b1 + b3) / 4.0)]),
    )
    return CatalogEntry("galerkin_asymmetric", fld, p, _asymmetric_expected(b1, b3),
                        "two-mode projection of the quadratic heat flow, asymmetric coefficient",
                        suggested_start=(0.0 + 0.0j, 2.0 + 0.0j))


def _asymmetric_expected(b1: float, b3: float) -> dict:
    beta = b3 / b1
    d = 1.0 + b1 * b1 * (1.0 - beta)
    sq = cmath.sqrt(d)
    e_pm = [(1.0 + sq) / (2.0 * b1), (1.0 - sq) / (2.0 * b1)]
    return {
        "beta": beta,
        "discriminant": d,
        "origin_vw_eigenvalues": (-(beta + 3.0) * b1 / 4.0, -(beta - 1.0) * b1 / 4.0),
        "origin_quotient": (beta + 3.0) / (beta - 1.0),
        "e_pm": e_pm,
        "e_eigenvalues": {
            _key(e): (-e - b1, -e - b1 * (1.0 - beta) / 2.0) for e in e_pm
        },
    }


_BUILDERS: dict[str, Callable[[dict], CatalogEntry]] = {
    "riccati": _riccati,
    "scalar_poly": _scalar_poly,
    "cyclotomic": _cyclotomic,
    "linear_diag": _linear_diag,
    "linear_quotient": _linear_diag_for_quotient,
    "jordan_block": _jordan_block,
    "rational_node": _rational_node,
    "golden_node": _golden_node,
    "reciprocal_linear": _reciprocal_linear,
    "reciprocal_diag": _reciprocal_diag,
    "homogeneous": _homogeneous,
    "weierstrass": _weierstrass,
    "duffing": _duffing,
    "linear_pendulum": _linear_pendulum,
    "galerkin_symmetric": _galerkin_symmetric,
    "galerkin_asymmetric": _galerkin_asymmetric,
}


def catalog_names() -> list[str]:
    return sorted(_BUILDERS)


def catalog_get(name: str, params: dict | None = None) -> CatalogEntry:
    """Instantiate a catalog system with fully numeric parameters."""
    try:
        builder = _BUILDERS[name]
    except KeyError:
        raise UnknownNameError(f"unknown catalog entry {name!r}; see catalog_names()") from None
    return builder(params or {})


def tree_count(m: int) -> int:
    """Number of planar trees with m vertices, m between 2 and 30.

    Counts equivalence classes of generic degree-m scalar flows on the
    Riemann sphere via their reduced connection graphs.  Evaluated through
    the cycle-index sum over chord diagrams: with n = m - 1,

        A_m = C(2n, n)/(2 n m)  +  [m even] C(m, m/2)/(4 n)
              + (1/(2n)) * sum over divisors k of n with k <= m-2
                           of C(2k, k) * phi(n/k),

    where the k = 1 divisor term reduces to phi(n)/n.  Exact rational
    arithmetic throughout; integrality of the result is asserted.
    """
    if not (2 <= m <= 30):
        raise OutOfRangeError("m must lie between 2 and 30")
    n = m - 1
    total = Fraction(comb(2 * n, n), 2 * n * m)
    if m % 2 == 0:
        total += Fraction(comb(m, m // 2), 4 * n)
    for k in range(1, m - 1):
        if n % k == 0:
            total += Fraction(comb(2 * k, k) * _totient(n // k), 2 * n)
    if total.denominator != 1:
        raise ArithmeticError(f"tree count for m={m} not integral: {total}")
    return int(total)


def _totient(n: int) -> int:
    count = 0
    for k in range(1, n + 1):
        if gcd(k, n) == 1:
            count += 1
    return count


def galerkin_spectrum(variant: str, params: dict) -> list[dict]:
    """Closed-form expected equilibrium records for the caricature systems.

    The parameters are checked by the catalog builder of the variant, so
    every excluded value raises ``ExcludedParameterError`` here too.
    """
    if variant not in ("symmetric", "asymmetric"):
        raise UnknownNameError(f"unknown variant {variant!r}")
    exp = catalog_get(f"galerkin_{variant}", params).expected
    if variant == "symmetric":
        out = [
            {
                "location_z": 0.0,
                "eigenvalues": exp["origin_eigenvalues"],
                "quotient": exp["origin_quotient"],
                "semisimple": True,
            }
        ]
        for e in exp["e_pm"]:
            out.append(
                {
                    "location_z": e,
                    "eigenvalues": exp["e_eigenvalues"],
                    "quotient": exp["e_quotient"],
                    "semisimple": exp["e_semisimple"],
                }
            )
        return out
    out = [
        {
            "location_w": 0.0,
            "eigenvalues": exp["origin_vw_eigenvalues"],
            "quotient": exp["origin_quotient"],
            "semisimple": True,
        }
    ]
    for e in exp["e_pm"]:
        evs = exp["e_eigenvalues"][_key(e)]
        out.append(
            {
                "location_w": e,
                "eigenvalues": evs,
                "quotient": evs[0] / evs[1],
                "semisimple": True,
            }
        )
    return out
