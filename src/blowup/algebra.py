"""Exact-structure complex polynomial algebra and projective chart construction.

Polynomials in two variables are kept as sparse maps from integer exponent
pairs to complex coefficients.  All structural operations (differentiation,
chart transforms, homogenization) manipulate exponents exactly; only the
coefficients live in double precision.  Coefficients whose magnitude drops
below ``PRUNE_TOL`` after arithmetic are discarded, so cancellation cannot
inflate the degree.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Iterable

__all__ = [
    "BivariatePolynomial",
    "PlanarField",
    "ChartSystem",
    "Chart",
    "DegenerateFieldError",
    "evaluate",
    "to_charts",
    "jacobian",
    "solve_2x2",
    "chart_point",
]

PRUNE_TOL = 1e-14


class DegenerateFieldError(ValueError):
    """Raised when an identically-zero field is handed to a chart transform."""


def _exponent_pair(j, k) -> tuple[int, int]:
    if j < 0 or k < 0 or j != int(j) or k != int(k):
        raise ValueError(f"exponent pair {(j, k)} is not a pair of nonnegative integers")
    return int(j), int(k)


@dataclass(frozen=True)
class BivariatePolynomial:
    """Sparse polynomial sum(c_{jk} x^j y^k) with complex coefficients.

    ``terms`` maps exponent pairs ``(j, k)`` to nonzero coefficients.  The
    zero polynomial has an empty map and declared degree 0.  Integral float
    exponents such as ``2.0`` are stored as ``int``.
    """

    terms: dict[tuple[int, int], complex] = field(default_factory=dict)

    def __post_init__(self):
        cleaned = {jk: complex(c) for jk, c in self.terms.items() if abs(c) > PRUNE_TOL}
        for j, k in cleaned:
            if type(j) is not int or type(k) is not int or j < 0 or k < 0:
                cleaned = {_exponent_pair(j, k): c for (j, k), c in cleaned.items()}
                break
        object.__setattr__(self, "terms", cleaned)

    @property
    def degree(self) -> int:
        """Total degree; 0 for the zero polynomial."""
        return max((j + k for j, k in self.terms), default=0)

    @property
    def is_zero(self) -> bool:
        return not self.terms

    @classmethod
    def from_coeffs(cls, entries: Iterable[tuple[int, int, complex]]) -> "BivariatePolynomial":
        terms: dict[tuple[int, int], complex] = {}
        for j, k, c in entries:
            terms[(j, k)] = terms.get((j, k), 0.0) + complex(c)
        return cls(terms)

    def __call__(self, x: complex, y: complex) -> complex:
        return evaluate(self, x, y)

    def __add__(self, other: "BivariatePolynomial") -> "BivariatePolynomial":
        terms = dict(self.terms)
        for jk, c in other.terms.items():
            terms[jk] = terms.get(jk, 0.0) + c
        return BivariatePolynomial(terms)

    def __sub__(self, other: "BivariatePolynomial") -> "BivariatePolynomial":
        return self + other.scaled(-1.0)

    def __mul__(self, other: "BivariatePolynomial") -> "BivariatePolynomial":
        terms: dict[tuple[int, int], complex] = {}
        for (j1, k1), c1 in self.terms.items():
            for (j2, k2), c2 in other.terms.items():
                jk = (j1 + j2, k1 + k2)
                terms[jk] = terms.get(jk, 0.0) + c1 * c2
        return BivariatePolynomial(terms)

    def scaled(self, c: complex) -> "BivariatePolynomial":
        return BivariatePolynomial({jk: c * v for jk, v in self.terms.items()})

    def truncated(self, max_degree: int) -> "BivariatePolynomial":
        return BivariatePolynomial({jk: c for jk, c in self.terms.items() if jk[0] + jk[1] <= max_degree})

    def partial_x(self) -> "BivariatePolynomial":
        return BivariatePolynomial({(j - 1, k): j * c for (j, k), c in self.terms.items() if j > 0})

    def partial_y(self) -> "BivariatePolynomial":
        return BivariatePolynomial({(j, k - 1): k * c for (j, k), c in self.terms.items() if k > 0})

    def reversed_uz(self, m: int) -> "BivariatePolynomial":
        """Return ``u^m * p(1/u, z/u)`` as a polynomial in (u, z).

        Exponent remap (j, k) -> (m-j-k, k); requires degree <= m.
        """
        if self.degree > m:
            raise ValueError(f"degree {self.degree} exceeds homogenization degree {m}")
        return BivariatePolynomial({(m - j - k, k): c for (j, k), c in self.terms.items()})

    def reversed_vw(self, m: int) -> "BivariatePolynomial":
        """Return ``v^m * p(w/v, 1/v)`` as a polynomial in (v, w)."""
        if self.degree > m:
            raise ValueError(f"degree {self.degree} exceeds homogenization degree {m}")
        return BivariatePolynomial({(m - j - k, j): c for (j, k), c in self.terms.items()})

    def compose(
        self,
        first: "BivariatePolynomial",
        second: "BivariatePolynomial",
        max_degree: int | None = None,
    ) -> "BivariatePolynomial":
        """Substitute (x, y) -> (first, second), optionally truncating the result.

        Powers are built incrementally and truncated as we go, so truncated
        composition stays cheap even at normal-form orders.
        """
        one = BivariatePolynomial({(0, 0): 1.0})
        x_pows = [one]
        y_pows = [one]
        max_j = max((j for j, _ in self.terms), default=0)
        max_k = max((k for _, k in self.terms), default=0)
        for _ in range(max_j):
            nxt = x_pows[-1] * first
            x_pows.append(nxt.truncated(max_degree) if max_degree is not None else nxt)
        for _ in range(max_k):
            nxt = y_pows[-1] * second
            y_pows.append(nxt.truncated(max_degree) if max_degree is not None else nxt)
        acc = BivariatePolynomial({})
        for (j, k), c in self.terms.items():
            term = (x_pows[j] * y_pows[k]).scaled(c)
            acc = acc + (term.truncated(max_degree) if max_degree is not None else term)
        return acc

    def shifted(self, x0: complex, y0: complex) -> "BivariatePolynomial":
        """Return p(x0 + x, y0 + y)."""
        x_shift = BivariatePolynomial({(1, 0): 1.0, (0, 0): x0})
        y_shift = BivariatePolynomial({(0, 1): 1.0, (0, 0): y0})
        return self.compose(x_shift, y_shift)

    def __repr__(self) -> str:
        if not self.terms:
            return "BivariatePolynomial(0)"
        bits = [f"({c:.6g})*x^{j}*y^{k}" for (j, k), c in sorted(self.terms.items())]
        return "BivariatePolynomial(" + " + ".join(bits) + ")"


@dataclass(frozen=True)
class PlanarField:
    """Polynomial vector field (f, g) on C^2 with joint maximal degree m."""

    f: BivariatePolynomial
    g: BivariatePolynomial

    def __post_init__(self):
        if self.f.is_zero and self.g.is_zero:
            raise DegenerateFieldError("field is identically zero")

    @property
    def degree_m(self) -> int:
        return max(max(self.f.degree, self.g.degree), 1)

    def __call__(self, x: complex, y: complex) -> tuple[complex, complex]:
        """``(evaluate(f, x, y), evaluate(g, x, y))``, bit for bit, through an
        evaluator compiled on the first call and kept on this instance."""
        try:
            compiled = self.__dict__["_compiled"]
        except KeyError:
            compiled = _compile_field(self.f, self.g)
            object.__setattr__(self, "_compiled", compiled)
        return compiled(x, y)

    def scaled(self, c: complex) -> "PlanarField":
        return PlanarField(self.f.scaled(c), self.g.scaled(c))


class Chart:
    """Chart labels for the projective compactification of C^2."""

    XY = "XY"
    UZ = "UZ"
    VW = "VW"
    ALL = ("XY", "UZ", "VW")


@dataclass(frozen=True)
class ChartSystem:
    """The three chart vector fields covering CP^2, plus the time bookkeeping.

    ``xy_field`` is the original field in time t.  ``uz_field`` lives in the
    blow-up coordinates u = 1/x, z = y/x with its own time t1, and
    ``vw_field`` in v = 1/y, w = x/y with time t2.  The chart times relate to
    original time through dt = u^(m-1) dt1 = v^(m-1) dt2, where the exponent
    m-1 is stored as ``euler_exponent``.
    """

    xy_field: PlanarField
    uz_field: PlanarField
    vw_field: PlanarField
    euler_exponent: int

    def field(self, chart: str) -> PlanarField:
        if chart == Chart.XY:
            return self.xy_field
        if chart == Chart.UZ:
            return self.uz_field
        if chart == Chart.VW:
            return self.vw_field
        raise ValueError(f"unknown chart {chart!r}")


def evaluate(p: BivariatePolynomial, x: complex, y: complex) -> complex:
    """Evaluate sum(c_{jk} x^j y^k); the empty sum is exactly 0."""
    if not p.terms:
        return 0.0 + 0.0j
    max_j = max(j for j, _ in p.terms)
    max_k = max(k for _, k in p.terms)
    x_pows = [1.0 + 0.0j]
    for _ in range(max_j):
        x_pows.append(x_pows[-1] * x)
    y_pows = [1.0 + 0.0j]
    for _ in range(max_k):
        y_pows.append(y_pows[-1] * y)
    return sum(c * x_pows[j] * y_pows[k] for (j, k), c in p.terms.items())


def _compile_field(f: BivariatePolynomial, g: BivariatePolynomial) -> Callable[[complex, complex], tuple[complex, complex]]:
    """Straight-line code for ``(evaluate(f, x, y), evaluate(g, x, y))``.

    It does exactly ``evaluate``'s arithmetic, so its floats are identical:
    the power chains start at ``1+0j`` and are shared by f and g, each term
    is ``c * x^j * y^k``, and each sum runs from 0 in dict order.  The
    coefficients are bound as names, never formatted into the source.
    """
    coeffs: list[complex] = []

    def total(p: BivariatePolynomial) -> str:
        if not p.terms:
            return "0j"  # evaluate's empty sum
        terms = ["0"]
        for (j, k), c in p.terms.items():
            terms.append(f"c{len(coeffs)} * x{int(j)} * y{int(k)}")
            coeffs.append(c)
        return " + ".join(terms)

    f_src, g_src = total(f), total(g)
    lines = []
    for var, powers in (("x", [j for p in (f, g) for j, _ in p.terms]),
                        ("y", [k for p in (f, g) for _, k in p.terms])):
        if powers:
            lines.append(f"{var}0 = 1.0 + 0.0j")
            lines.extend(f"{var}{i} = {var}{i - 1} * {var}" for i in range(1, int(max(powers)) + 1))
    names = ", ".join(f"c{i}" for i in range(len(coeffs)))
    src = "".join(
        [f"def bind({names}):\n", "    def field(x, y):\n"]
        + [f"        {line}\n" for line in lines]
        + [f"        return {f_src}, {g_src}\n", "    return field\n"]
    )
    namespace: dict = {}
    exec(src, namespace)
    return namespace["bind"](*coeffs)


def to_charts(fld: PlanarField) -> ChartSystem:
    """Extend a polynomial field to the blow-up charts of CP^2.

    With m the joint degree and f1(u,z) = u^m f(1/u, z/u) etc., the blow-up
    systems are

        du/dt1 = -u f1,   dz/dt1 = -z f1 + g1,
        dv/dt2 = -v g2,   dw/dt2 = -w g2 + f2,

    all polynomial, with chart times dt = u^(m-1) dt1 = v^(m-1) dt2.  The
    first component of each blow-up field is divisible by u (resp. v), which
    makes the sphere at infinity invariant.
    """
    m = fld.degree_m
    u_mono = BivariatePolynomial({(1, 0): 1.0})
    z_mono = BivariatePolynomial({(0, 1): 1.0})
    f1 = fld.f.reversed_uz(m)
    g1 = fld.g.reversed_uz(m)
    uz = PlanarField(u_mono * f1.scaled(-1.0), z_mono * f1.scaled(-1.0) + g1)
    f2 = fld.f.reversed_vw(m)
    g2 = fld.g.reversed_vw(m)
    vw = PlanarField(u_mono * g2.scaled(-1.0), z_mono * g2.scaled(-1.0) + f2)
    return ChartSystem(xy_field=fld, uz_field=uz, vw_field=vw, euler_exponent=m - 1)


def jacobian(fld: PlanarField, x: complex, y: complex) -> tuple[tuple[complex, complex], tuple[complex, complex]]:
    """Exact 2x2 Jacobian of (f, g) at (x, y) by polynomial differentiation."""
    return (
        (evaluate(fld.f.partial_x(), x, y), evaluate(fld.f.partial_y(), x, y)),
        (evaluate(fld.g.partial_x(), x, y), evaluate(fld.g.partial_y(), x, y)),
    )


def solve_2x2(
    m: tuple[tuple[complex, complex], tuple[complex, complex]], rhs: tuple[complex, complex]
) -> tuple[complex, complex]:
    """Solve m . s = rhs by Cramer's rule; a singular m raises ZeroDivisionError."""
    (a, b), (c, d) = m
    det = a * d - b * c
    return (d * rhs[0] - b * rhs[1]) / det, (a * rhs[1] - c * rhs[0]) / det


def chart_point(coords: tuple[complex, complex], from_chart: str, to_chart: str) -> tuple[complex, complex]:
    """Map a point between charts; raises ZeroDivisionError off the overlap.

    Overlaps: (x, y) = (1/u, z/u) = (w/v, 1/v), and z = 1/w.
    """
    if from_chart == to_chart:
        return coords
    a, b = coords
    if from_chart == Chart.XY:
        x, y = a, b
    elif from_chart == Chart.UZ:
        x, y = 1.0 / a, b / a
    elif from_chart == Chart.VW:
        x, y = b / a, 1.0 / a
    else:
        raise ValueError(f"unknown chart {from_chart!r}")
    if to_chart == Chart.XY:
        return x, y
    if to_chart == Chart.UZ:
        return 1.0 / x, y / x
    if to_chart == Chart.VW:
        return 1.0 / y, x / y
    raise ValueError(f"unknown chart {to_chart!r}")
