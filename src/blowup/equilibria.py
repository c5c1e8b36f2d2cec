"""Location and spectral classification of equilibria of a chart system.

Equilibria at infinity are the roots of the restriction of the blow-up
systems to u = 0 (resp. v = 0); finite equilibria come from resultant
elimination of f = g = 0.  Classification decides the Poincare/Siegel
domain, semisimplicity, and resonance of the eigenvalue pair, with rational
spectral quotients detected through continued-fraction convergents.

Floating point cannot certify irrationality, so a quotient that matches no
rational below the denominator bound is reported as ``Indeterminate`` rather
than nonresonant whenever rationality would change the verdict.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from fractions import Fraction

import numpy as np

from blowup.algebra import (
    BivariatePolynomial,
    Chart,
    ChartSystem,
    PlanarField,
    jacobian,
)

__all__ = [
    "Domain",
    "Resonance",
    "EquilibriumRecord",
    "DegenerateSystemError",
    "find_equilibria",
    "classify_spectrum",
    "rational_spectral_quotient",
    "small_divisor_scan",
]


class DegenerateSystemError(ValueError):
    """A whole coordinate line consists of equilibria."""


class Domain:
    POINCARE = "Poincare"
    SIEGEL = "Siegel"
    DEGENERATE = "Degenerate"


@dataclass(frozen=True)
class Resonance:
    kind: str  # "Nonresonant" | "Resonant" | "Indeterminate"
    order: int | None = None

    @staticmethod
    def nonresonant() -> "Resonance":
        return Resonance("Nonresonant")

    @staticmethod
    def resonant(order: int) -> "Resonance":
        return Resonance("Resonant", order)

    @staticmethod
    def indeterminate() -> "Resonance":
        return Resonance("Indeterminate")


@dataclass(frozen=True)
class EquilibriumRecord:
    chart: str
    location: tuple[complex, complex]
    eigenvalues: tuple[complex, complex] | None = None
    spectral_quotient: complex | None = None
    semisimple: bool | None = None
    domain: str | None = None
    resonance: Resonance | None = None
    rational_quotient: tuple[int, int] | None = None
    notes: tuple[str, ...] = ()


def _poly_roots(coeffs_low_to_high: list[complex]) -> list[complex]:
    """Roots by companion matrix (numpy), low-order coefficients first."""
    arr = np.array(coeffs_low_to_high, dtype=complex)
    while arr.size and abs(arr[-1]) < 1e-300:
        arr = arr[:-1]
    if arr.size <= 1:
        return []
    return [complex(r) for r in np.roots(arr[::-1])]


def _restrict_first_zero(p: BivariatePolynomial) -> list[complex]:
    """Coefficients of z -> p(0, z), low to high."""
    deg = max((k for (j, k) in p.terms if j == 0), default=0)
    coeffs = [0.0 + 0.0j] * (deg + 1)
    for (j, k), c in p.terms.items():
        if j == 0:
            coeffs[k] += c
    return coeffs


def _newton_polish_1d(coeffs: list[complex], root: complex, steps: int = 3) -> complex:
    dcoeffs = [k * c for k, c in enumerate(coeffs)][1:]
    for _ in range(steps):
        val = sum(c * root**k for k, c in enumerate(coeffs))
        der = sum(c * root**k for k, c in enumerate(dcoeffs))
        if abs(der) < 1e-300:
            break
        root = root - val / der
    return root


def _newton_polish_2d(fld: PlanarField, pt: tuple[complex, complex], steps: int = 4) -> tuple[complex, complex]:
    x, y = pt
    for _ in range(steps):
        fx, fy = fld(x, y)
        J = np.array(jacobian(fld, x, y), dtype=complex)
        try:
            dx, dy = np.linalg.solve(J, np.array([fx, fy]))
        except np.linalg.LinAlgError:
            break
        x, y = x - dx, y - dy
    return x, y


def _dedupe(points: list[complex], tol: float = 1e-8) -> list[complex]:
    out: list[complex] = []
    for p in points:
        if all(abs(p - q) > tol * max(1.0, abs(q)) for q in out):
            out.append(p)
    return out


def find_equilibria(system: ChartSystem, search: str = "All") -> list[EquilibriumRecord]:
    """Locate equilibria; ``search`` is one of FiniteOnly, InfinityOnly, All.

    Infinity equilibria are roots e of the second blow-up component
    restricted to u = 0 (and of the vw analogue at v = 0), deduplicated via
    z = 1/w; each is reported in the chart where its coordinate is smaller.
    Finite equilibria solve f = g = 0 by resultant elimination followed by
    two-dimensional Newton polishing.
    """
    records: list[EquilibriumRecord] = []
    if search in ("InfinityOnly", "All"):
        records.extend(_infinity_equilibria(system))
    if search in ("FiniteOnly", "All"):
        records.extend(_finite_equilibria(system.xy_field))
    return records


def _infinity_equilibria(system: ChartSystem) -> list[EquilibriumRecord]:
    p_uz = _restrict_first_zero(system.uz_field.g)
    q_vw = _restrict_first_zero(system.vw_field.g)
    if all(abs(c) < 1e-300 for c in p_uz) and all(abs(c) < 1e-300 for c in q_vw):
        raise DegenerateSystemError("the whole sphere at infinity consists of equilibria")
    z_roots = [_newton_polish_1d(p_uz, r) for r in _poly_roots(p_uz)]
    w_roots = [_newton_polish_1d(q_vw, r) for r in _poly_roots(q_vw)]
    z_roots = _dedupe(z_roots)
    w_roots = _dedupe(w_roots)
    records: list[EquilibriumRecord] = []
    seen_z: list[complex] = []
    for e in z_roots:
        if abs(e) <= 1.0 + 1e-9:
            records.append(EquilibriumRecord(Chart.UZ, (0.0 + 0.0j, e)))
            seen_z.append(e)
    for e in w_roots:
        if abs(e) < 1e-12:
            records.append(EquilibriumRecord(Chart.VW, (0.0 + 0.0j, e)))  # z at infinity
        elif abs(e) < 1.0 - 1e-9:
            records.append(EquilibriumRecord(Chart.VW, (0.0 + 0.0j, e)))
        elif abs(e) <= 1.0 + 1e-9 and not _matches_any(1.0 / e, seen_z):
            records.append(EquilibriumRecord(Chart.VW, (0.0 + 0.0j, e)))
    return records


def _matches_any(value: complex, pool: list[complex], tol: float = 1e-8) -> bool:
    return any(abs(value - q) <= tol * max(1.0, abs(q)) for q in pool)


def _resultant_coeffs(f: BivariatePolynomial, g: BivariatePolynomial) -> np.ndarray:
    """Coefficients (low to high) of Res_y(f, g) as a polynomial in x.

    Computed by evaluation at Chebyshev-like sample points and interpolation;
    the degree never exceeds deg(f)*deg(g) at desk scale.
    """
    deg_bound = f.degree * g.degree + 1
    n = deg_bound + 1
    xs = np.exp(2j * np.pi * np.arange(n) / n) * 1.07  # roots of unity, scaled
    vals = np.empty(n, dtype=complex)
    for i, x0 in enumerate(xs):
        fy = _coeffs_in_y_at(f, x0)
        gy = _coeffs_in_y_at(g, x0)
        vals[i] = _sylvester_det(fy, gy)
    V = np.vander(xs, n, increasing=True)
    return np.linalg.solve(V, vals)


def _coeffs_in_y_at(p: BivariatePolynomial, x0: complex) -> np.ndarray:
    deg = max((k for _, k in p.terms), default=0)
    out = np.zeros(deg + 1, dtype=complex)
    for (j, k), c in p.terms.items():
        out[k] += c * x0**j
    return out


def _sylvester_det(a: np.ndarray, b: np.ndarray) -> complex:
    """Resultant of two univariate polynomials given low-to-high coefficients."""
    a = np.trim_zeros(a, "b")
    b = np.trim_zeros(b, "b")
    if a.size == 0 or b.size == 0:
        return 0.0
    m, n = a.size - 1, b.size - 1
    if m == 0 and n == 0:
        return 1.0
    if m == 0:
        return a[0] ** n
    if n == 0:
        return b[0] ** m
    S = np.zeros((m + n, m + n), dtype=complex)
    for i in range(n):
        S[i, i : i + m + 1] = a[::-1]
    for i in range(m):
        S[n + i, i : i + n + 1] = b[::-1]
    return complex(np.linalg.det(S))


def _finite_equilibria(fld: PlanarField) -> list[EquilibriumRecord]:
    if fld.f.is_zero or fld.g.is_zero:
        raise DegenerateSystemError("a field component vanishes identically; equilibria are not isolated")
    res = _resultant_coeffs(fld.f, fld.g)
    if np.max(np.abs(res)) < 1e-12:
        raise DegenerateSystemError("resultant vanishes identically; f and g share a curve of zeros")
    x_roots = _dedupe(_poly_roots(list(res)))
    records: list[EquilibriumRecord] = []
    found: list[tuple[complex, complex]] = []
    for x0 in x_roots:
        fy = _coeffs_in_y_at(fld.f, x0)
        gy = _coeffs_in_y_at(fld.g, x0)
        y_candidates = _poly_roots(list(fy)) + _poly_roots(list(gy))
        if not y_candidates and fy.size == 1 and gy.size == 1:
            continue
        for y0 in _dedupe(y_candidates, tol=1e-6):
            x1, y1 = _newton_polish_2d(fld, (x0, y0))
            r1, r2 = fld(x1, y1)
            if max(abs(r1), abs(r2)) < 1e-12 and not _point_in(found, (x1, y1)):
                found.append((x1, y1))
                records.append(EquilibriumRecord(Chart.XY, (x1, y1)))
    return records


def _point_in(pool: list[tuple[complex, complex]], pt: tuple[complex, complex], tol: float = 1e-8) -> bool:
    return any(
        abs(pt[0] - q[0]) <= tol * max(1.0, abs(q[0])) and abs(pt[1] - q[1]) <= tol * max(1.0, abs(q[1]))
        for q in pool
    )


def rational_spectral_quotient(lam: float, tol: float, denominator_bound: int) -> tuple[int, int] | None:
    """First continued-fraction convergent p/q of lam with |lam - p/q| < tol.

    Scans convergents with q <= denominator_bound; returns the reduced pair
    (p, q) with q > 0, or None when no convergent passes the tolerance.
    """
    if not math.isfinite(lam):
        raise ValueError("quotient must be finite")
    # convergents via the Euclidean recursion
    a = lam
    p_prev, q_prev = 1, 0
    p_cur, q_cur = int(math.floor(a)), 1
    for _ in range(64):
        if q_cur > denominator_bound:
            break
        if abs(lam - p_cur / q_cur) < tol:
            frac = Fraction(p_cur, q_cur)
            return int(frac.numerator), int(frac.denominator)
        frac_part = a - math.floor(a)
        if frac_part < 1e-300:
            break
        a = 1.0 / frac_part
        p_prev, p_cur = p_cur, int(math.floor(a)) * p_cur + p_prev
        q_prev, q_cur = q_cur, int(math.floor(a)) * q_cur + q_prev
    return None


def _eigen_2x2(J: np.ndarray) -> tuple[complex, complex]:
    """Eigenvalues ordered so the first belongs to the chart's first axis.

    For triangular Jacobians (every infinity equilibrium) the diagonal order
    is kept: the first eigenvalue drives the blow-up fiber coordinate.  For
    full matrices the numpy order is normalized lexicographically.
    """
    if abs(J[0, 1]) < 1e-13 * max(1.0, float(np.max(np.abs(J)))):
        return complex(J[0, 0]), complex(J[1, 1])
    if abs(J[1, 0]) < 1e-13 * max(1.0, float(np.max(np.abs(J)))):
        return complex(J[0, 0]), complex(J[1, 1])
    vals = np.linalg.eigvals(J)
    vals = sorted(vals, key=lambda v: (round(v.real, 12), round(v.imag, 12)))
    return complex(vals[0]), complex(vals[1])


def classify_spectrum(
    system: ChartSystem,
    eq: EquilibriumRecord,
    tol: float = 1e-9,
    denominator_bound: int = 50,
) -> EquilibriumRecord:
    """Populate eigenvalues, domain, semisimplicity, and resonance of ``eq``.

    Domain: Poincare when the segment [l1, l2] stays a distance
    tol*max|l_i| away from 0, Siegel otherwise, Degenerate when an
    eigenvalue is that small itself.  Resonance for real quotients follows
    the node rule (resonant iff the quotient or its reciprocal is an integer
    >= 2) on the Poincare side and the saddle rule (every rational quotient
    resonant) on the Siegel side; the saddle rule is a convention choice for
    negative quotients and is flagged in the record notes.
    """
    fld = system.field(eq.chart)
    x0, y0 = eq.location
    res = fld(x0, y0)
    if max(abs(res[0]), abs(res[1])) > 1e-10:
        raise ValueError(f"location residual {max(abs(res[0]), abs(res[1])):.3g} too large")
    J = np.array(jacobian(fld, x0, y0), dtype=complex)
    l1, l2 = _eigen_2x2(J)
    scale = max(abs(l1), abs(l2))
    notes: list[str] = []
    if scale == 0.0:
        return replace(
            eq,
            eigenvalues=(l1, l2),
            spectral_quotient=None,
            semisimple=bool(np.max(np.abs(J)) < 1e-13),
            domain=Domain.DEGENERATE,
            resonance=Resonance.indeterminate(),
            notes=tuple(notes),
        )
    # semisimplicity: distinct eigenvalues always; equal ones need J ~ scalar
    if abs(l1 - l2) > 1e-10 * scale:
        semisimple = True
    else:
        off = max(abs(J[0, 1]), abs(J[1, 0]), abs(J[0, 0] - J[1, 1]))
        semisimple = bool(off < 1e-10 * scale)
    if min(abs(l1), abs(l2)) < tol * scale:
        domain = Domain.DEGENERATE
        return replace(
            eq,
            eigenvalues=(l1, l2),
            spectral_quotient=None,
            semisimple=semisimple,
            domain=domain,
            resonance=Resonance.indeterminate(),
            notes=tuple(notes),
        )
    lam = l1 / l2
    seg_dist = _segment_distance_to_zero(l1, l2)
    domain = Domain.POINCARE if seg_dist > tol * scale else Domain.SIEGEL
    rational: tuple[int, int] | None = None
    if abs(lam.imag) > tol * max(1.0, abs(lam)):
        resonance = Resonance.nonresonant()
    else:
        rational = rational_spectral_quotient(lam.real, tol, denominator_bound)
        if rational is None:
            resonance = Resonance.indeterminate()
        else:
            n1, n2 = rational
            if domain == Domain.POINCARE:
                if (abs(n1) == 1 and n2 >= 2) or (n2 == 1 and abs(n1) >= 2):
                    resonance = Resonance.resonant(max(abs(n1), n2))
                else:
                    resonance = Resonance.nonresonant()
            else:
                resonance = Resonance.resonant(abs(n1) + n2 + 1)
                notes.append("siegel-rational-convention: every rational saddle quotient reported resonant")
    return replace(
        eq,
        eigenvalues=(l1, l2),
        spectral_quotient=lam,
        semisimple=semisimple,
        domain=domain,
        resonance=resonance,
        rational_quotient=rational,
        notes=tuple(notes),
    )


def _segment_distance_to_zero(a: complex, b: complex) -> float:
    d = b - a
    if abs(d) < 1e-300:
        return abs(a)
    t = -(a * d.conjugate()).real / abs(d) ** 2
    t = min(max(t, 0.0), 1.0)
    return abs(a + t * d)


def small_divisor_scan(eigenvalues: tuple[complex, complex], max_order: int = 50) -> list[dict]:
    """Finite scan of |l_i - (a1 l1 + a2 l2)| over 2 <= a1+a2 <= max_order.

    Returns one row per order with the minimal divisor magnitude and its
    multi-index; a numerical survey of the small-divisor behaviour, never a
    proof of any Diophantine condition.
    """
    l1, l2 = eigenvalues
    rows = []
    for order in range(2, max_order + 1):
        best = None
        for a1 in range(order + 1):
            a2 = order - a1
            combo = a1 * l1 + a2 * l2
            for iota, li in ((1, l1), (2, l2)):
                mag = abs(li - combo)
                if best is None or mag < best[0]:
                    best = (mag, (a1, a2), iota)
        rows.append(
            {
                "order": order,
                "min_divisor": best[0],
                "alpha": list(best[1]),
                "component": best[2],
            }
        )
    return rows
