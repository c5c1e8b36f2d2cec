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

import cmath
import math
import sys
from dataclasses import dataclass, replace
from fractions import Fraction

from blowup.algebra import (
    BivariatePolynomial,
    Chart,
    ChartSystem,
    PlanarField,
    jacobian,
    solve_2x2,
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

_EPS = sys.float_info.epsilon
_ABERTH_CAP = 100
_NEWTON_CAP = 60
_MAX_SCAN_ORDER = 1000
_SPECTRAL_TOL = 1e-9
_DENOMINATOR_BOUND = 50


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
    """Roots by Aberth-Ehrlich iteration, low-order coefficients first.

    Exact zero roots are split off first.  The others start on a circle of
    the roots' geometric-mean modulus and are updated one at a time (Bini,
    "Numerical computation of polynomial zeros by means of Aberth's method",
    Numer. Algorithms 13, 1996) until each correction is at roundoff relative
    to its root, or the value drops below the rounding error of its Horner
    evaluation, which is where a multiple root stops moving.  Outside the
    unit disc the reversed polynomial is evaluated at 1/z, so no power of a
    large root overflows.
    """
    c = [complex(v) for v in coeffs_low_to_high]
    while c and abs(c[-1]) < 1e-300:
        c.pop()
    if len(c) <= 1:
        return []
    zeros = next(k for k, v in enumerate(c) if v != 0)
    c = c[zeros:]
    n = len(c) - 1
    if n == 0:
        return [0j] * zeros
    rev = c[::-1]
    radius = abs(c[0] / c[-1]) ** (1.0 / n)
    roots = [radius * cmath.exp(1j * (2.0 * math.pi * k / n + 0.4)) for k in range(n)]
    active = set(range(n))
    for _ in range(_ABERTH_CAP):
        for i in sorted(active):
            z = roots[i]
            inside = abs(z) <= 1.0
            val, der, bound = _horner(c, z) if inside else _horner(rev, 1.0 / z)
            if abs(val) <= 4.0 * _EPS * bound:
                active.discard(i)
                continue
            ratio = der / val if inside else (n - der / (val * z)) / z  # p'(z) / p(z)
            denom = ratio - sum(1.0 / (z - other) for other in roots if other != z)
            step = 1.0 / denom if denom else math.inf
            if not cmath.isfinite(step):
                continue
            roots[i] = z - step
            if abs(step) <= _EPS * abs(roots[i]):
                active.discard(i)
        if not active:
            break
    return [0j] * zeros + roots


def _horner(c: list[complex], z: complex) -> tuple[complex, complex, float]:
    """p(z), p'(z), and the rounding-error scale sum |c_k| |z|^k of p(z)."""
    val, der, bound, az = 0j, 0j, 0.0, abs(z)
    for v in reversed(c):
        der = der * z + val
        val = val * z + v
        bound = bound * az + abs(v)
    return val, der, bound


def _newton_polish_1d(coeffs: list[complex], root: complex, steps: int = _NEWTON_CAP) -> complex:
    """Newton's method on a univariate polynomial until the step is at roundoff.

    The last step is evaluated in exact rational arithmetic and rounded once:
    from within a few ulps of a simple root it lands on the double nearest to
    the root, which floating-point steps reach only by chance.
    """
    for _ in range(steps):
        val, der, _ = _horner(coeffs, root)
        step = val / der if der else math.inf
        if not cmath.isfinite(step):
            break
        root -= step
        if abs(step) <= _EPS * abs(root):
            break
    x, y = Fraction(root.real), Fraction(root.imag)
    vr = vi = dr = di = Fraction(0)
    for c in reversed(coeffs):
        dr, di = dr * x - di * y + vr, dr * y + di * x + vi
        vr, vi = vr * x - vi * y + Fraction(c.real), vr * y + vi * x + Fraction(c.imag)
    norm = dr * dr + di * di  # p / p' = p conj(p') / |p'|^2
    if not norm:
        return root
    return complex(float(x - (vr * dr + vi * di) / norm), float(y - (vi * dr - vr * di) / norm))


def _newton_polish_2d(fld: PlanarField, pt: tuple[complex, complex], steps: int = _NEWTON_CAP) -> tuple[complex, complex]:
    """Newton's method on f = g = 0 until the step is at roundoff.

    A singular Jacobian, or a step that overflows, stops the polish where it is.
    """
    x, y = pt
    for _ in range(steps):
        try:
            dx, dy = solve_2x2(jacobian(fld, x, y), fld(x, y))
        except ZeroDivisionError:
            break
        if not (cmath.isfinite(dx) and cmath.isfinite(dy)):
            break
        x, y = x - dx, y - dy
        if max(abs(dx), abs(dy)) <= _EPS * max(abs(x), abs(y)):
            break
    return x, y


def _close(p: complex, q: complex, tol: float = 1e-8) -> bool:
    """Whether p equals q to ``tol`` relative to max(1, |q|)."""
    return abs(p - q) <= tol * max(1.0, abs(q))


def _dedupe(points: list[complex], tol: float = 1e-8) -> list[complex]:
    out: list[complex] = []
    for p in points:
        if not any(_close(p, q, tol) for q in out):
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
    p_uz = _coeffs_in_y_at(system.uz_field.g, 0)
    q_vw = _coeffs_in_y_at(system.vw_field.g, 0)
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
        if abs(e) < 1.0 - 1e-9 or (abs(e) <= 1.0 + 1e-9 and not any(_close(1.0 / e, q) for q in seen_z)):
            records.append(EquilibriumRecord(Chart.VW, (0.0 + 0.0j, e)))
    return records


def _resultant_coeffs(f: BivariatePolynomial, g: BivariatePolynomial) -> list[complex]:
    """Coefficients (low to high) of Res_y(f, g) as a polynomial in x.

    Res_y is sampled at x_k = 1.07 w^k, w = exp(2 pi i / n), with n above the
    degree bound deg(f) * deg(g); interpolating at scaled roots of unity is an
    inverse DFT, divided by 1.07^j for coefficient j.  Coefficients within
    the rounding error of that sum, n eps max|c|, are zero: above the true
    degree they would only add roots near infinity, and below a root at
    x = 0 they would split it into a cluster.
    """
    n = f.degree * g.degree + 2
    unit = [cmath.exp(2j * math.pi * k / n) for k in range(n)]
    vals = [_sylvester_det(_coeffs_in_y_at(f, 1.07 * w), _coeffs_in_y_at(g, 1.07 * w)) for w in unit]
    coeffs = [sum(v * unit[-j * k % n] for k, v in enumerate(vals)) / (n * 1.07**j) for j in range(n)]
    noise = n * _EPS * max(abs(c) for c in coeffs)
    return [c if abs(c) > noise else 0j for c in coeffs]


def _coeffs_in_y_at(p: BivariatePolynomial, x0: complex) -> list[complex]:
    deg = max((k for _, k in p.terms), default=0)
    out = [0j] * (deg + 1)
    for (j, k), c in p.terms.items():
        out[k] += c * x0**j
    return out


def _sylvester_det(a: list[complex], b: list[complex]) -> complex:
    """Resultant of two univariate polynomials given low-to-high coefficients.

    The Sylvester determinant, by Gaussian elimination with partial pivoting.
    """
    while a and a[-1] == 0:
        a = a[:-1]
    while b and b[-1] == 0:
        b = b[:-1]
    if not a or not b:
        return 0j
    m, n = len(a) - 1, len(b) - 1
    if m == 0:
        return a[0] ** n
    if n == 0:
        return b[0] ** m
    size = m + n
    S = [[0j] * size for _ in range(size)]
    for i in range(n):
        S[i][i : i + m + 1] = a[::-1]
    for i in range(m):
        S[n + i][i : i + n + 1] = b[::-1]
    det = 1 + 0j
    for col in range(size):
        piv = max(range(col, size), key=lambda r: abs(S[r][col]))
        if S[piv][col] == 0:
            return 0j
        if piv != col:
            S[col], S[piv] = S[piv], S[col]
            det = -det
        top = S[col]
        det *= top[col]
        for row in S[col + 1 :]:
            factor = row[col] / top[col]
            for k in range(col + 1, size):
                row[k] -= factor * top[k]
    return det


def _finite_equilibria(fld: PlanarField) -> list[EquilibriumRecord]:
    if fld.f.is_zero or fld.g.is_zero:
        raise DegenerateSystemError("a field component vanishes identically; equilibria are not isolated")
    res = _resultant_coeffs(fld.f, fld.g)
    if max(abs(c) for c in res) < 1e-12:
        raise DegenerateSystemError("resultant vanishes identically; f and g share a curve of zeros")
    x_roots = _dedupe(_poly_roots(res))
    records: list[EquilibriumRecord] = []
    found: list[tuple[complex, complex]] = []
    for x0 in x_roots:
        fy = _coeffs_in_y_at(fld.f, x0)
        gy = _coeffs_in_y_at(fld.g, x0)
        y_candidates = _poly_roots(fy) + _poly_roots(gy)
        if not y_candidates and len(fy) == 1 and len(gy) == 1:
            continue
        for y0 in _dedupe(y_candidates, tol=1e-6):
            x1, y1 = _newton_polish_2d(fld, (x0, y0))
            r1, r2 = fld(x1, y1)
            if max(abs(r1), abs(r2)) < 1e-12 and not any(_close(x1, a) and _close(y1, b) for a, b in found):
                found.append((x1, y1))
                records.append(EquilibriumRecord(Chart.XY, (x1, y1)))
    return records


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


def _eigen_2x2(J: tuple[tuple[complex, complex], tuple[complex, complex]]) -> tuple[complex, complex]:
    """Eigenvalues ordered so the first belongs to the chart's first axis.

    For triangular Jacobians (every infinity equilibrium) the diagonal order
    is kept: the first eigenvalue drives the blow-up fiber coordinate.  For
    full matrices the larger root is tr/2 +- sqrt(((a - d)/2)^2 + bc), the
    other det / larger (no cancellation), and the pair is ordered
    lexicographically.
    """
    (a, b), (c, d) = J
    size = max(1.0, abs(a), abs(b), abs(c), abs(d))
    if abs(b) < 1e-13 * size or abs(c) < 1e-13 * size:
        return a, d
    half, root = (a + d) / 2, cmath.sqrt(((a - d) / 2) ** 2 + b * c)
    big = half + root if abs(half + root) >= abs(half - root) else half - root
    other = (a * d - b * c) / big if big else 0j
    return tuple(sorted((big, other), key=lambda v: (round(v.real, 12), round(v.imag, 12))))


def classify_spectrum(system: ChartSystem, eq: EquilibriumRecord) -> EquilibriumRecord:
    """Populate eigenvalues, domain, semisimplicity, and resonance of ``eq``.

    With tol = ``_SPECTRAL_TOL``, the domain is Poincare when the segment
    [l1, l2] stays a distance tol*max|l_i| away from 0, Siegel otherwise,
    Degenerate when an eigenvalue is below tol times the larger of max|l_i|
    and the chart field's largest coefficient.  A real quotient is rational
    when a convergent with denominator at most ``_DENOMINATOR_BOUND`` lies
    within tol of it.  Resonance for real quotients follows the node rule
    (resonant iff the quotient or its reciprocal is an integer >= 2) on the
    Poincare side and the saddle rule (every rational quotient resonant) on
    the Siegel side; the saddle rule is a convention choice for negative
    quotients and is flagged in the record notes.
    """
    fld = system.field(eq.chart)
    x0, y0 = eq.location
    res = fld(x0, y0)
    if max(abs(res[0]), abs(res[1])) > 1e-10:
        raise ValueError(f"location residual {max(abs(res[0]), abs(res[1])):.3g} too large")
    J = jacobian(fld, x0, y0)
    l1, l2 = _eigen_2x2(J)
    # eigenvalues that are roundoff next to the field's own coefficients are
    # zero: semisimplicity and degeneracy are measured against both
    scale = max(abs(l1), abs(l2), *(abs(c) for p in (fld.f, fld.g) for c in p.terms.values()))
    notes: list[str] = []
    # semisimplicity: distinct eigenvalues always; equal ones need J ~ scalar
    if abs(l1 - l2) > 1e-10 * scale:
        semisimple = True
    else:
        (j00, j01), (j10, j11) = J
        semisimple = max(abs(j01), abs(j10), abs(j00 - j11)) < 1e-10 * scale
    if min(abs(l1), abs(l2)) < _SPECTRAL_TOL * scale:
        domain = Domain.DEGENERATE
        return replace(
            eq,
            eigenvalues=(l1, l2),
            spectral_quotient=None,
            semisimple=semisimple,
            domain=domain,
            resonance=Resonance("Indeterminate"),
            notes=tuple(notes),
        )
    lam = l1 / l2
    seg_dist = _segment_distance_to_zero(l1, l2)
    domain = Domain.POINCARE if seg_dist > _SPECTRAL_TOL * max(abs(l1), abs(l2)) else Domain.SIEGEL
    rational: tuple[int, int] | None = None
    if abs(lam.imag) > _SPECTRAL_TOL * max(1.0, abs(lam)):
        resonance = Resonance("Nonresonant")
    else:
        rational = rational_spectral_quotient(lam.real, _SPECTRAL_TOL, _DENOMINATOR_BOUND)
        if rational is None:
            resonance = Resonance("Indeterminate")
        else:
            n1, n2 = rational
            if domain == Domain.POINCARE:
                if (abs(n1) == 1 and n2 >= 2) or (n2 == 1 and abs(n1) >= 2):
                    resonance = Resonance("Resonant", max(abs(n1), n2))
                else:
                    resonance = Resonance("Nonresonant")
            else:
                resonance = Resonance("Resonant", abs(n1) + n2 + 1)
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
    proof of any Diophantine condition.  Divisors within a few ulps of the
    minimum (rational spectra tie exactly) count as equal, and the row names
    the smallest ``(component, alpha)`` among them.  The scan is quadratic in
    ``max_order``, so orders above 1000 are refused.
    """
    if max_order > _MAX_SCAN_ORDER:
        raise ValueError(f"max_order {max_order} exceeds {_MAX_SCAN_ORDER}; the scan is quadratic in it")
    l1, l2 = eigenvalues
    # roundoff of one divisor at order n is a few eps * (n + 1) * max|l|
    ulp_scale = 8.0 * sys.float_info.epsilon * max(abs(l1), abs(l2))
    rows = []
    for order in range(2, max_order + 1):
        divisors = []
        for a1 in range(order + 1):
            a2 = order - a1
            combo = a1 * l1 + a2 * l2
            for iota, li in ((1, l1), (2, l2)):
                divisors.append((abs(li - combo), iota, (a1, a2)))
        cutoff = min(d[0] for d in divisors) + (order + 1) * ulp_scale
        mag, iota, alpha = min((d for d in divisors if d[0] <= cutoff), key=lambda d: d[1:])
        rows.append(
            {
                "order": order,
                "min_divisor": mag,
                "alpha": list(alpha),
                "component": iota,
            }
        )
    return rows
