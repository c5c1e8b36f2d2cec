"""Formal diagonalization at nonresonant semisimple equilibria.

The transform (u, z) = Psi(u~, z~) is built degree by degree: at each total
degree n, every monomial coefficient c of the nonlinear residue in component
iota is cancelled by the compensating coefficient -c / (lambda_iota -
alpha . lambda) of the same monomial in Psi, after which the field is pulled
back exactly through the enlarged transform and the next degree is attacked.  Small denominators are
refused outright: any scanned divisor at or below 1e-8 * max|lambda| raises, with
the offending multi-index attached, instead of polluting the transform with
huge coefficients.

When the source system has an invariant fiber line (first blow-up component
divisible by u), the construction never produces a pure-z~ monomial in
Psi^u, so the transform preserves the fibration; this is what lets detours
in straightened coordinates reproduce the algebraic leaf equations exactly
to truncation order.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from blowup.algebra import BivariatePolynomial, Chart, ChartSystem, PlanarField, jacobian
from blowup.equilibria import EquilibriumRecord

__all__ = [
    "TruncatedTransform",
    "NormalFormError",
    "ResonantAtOrderError",
    "NotSemisimpleError",
    "poincare_linearize",
    "conjugacy_residual",
]

_ROUNDOFF_FLOOR = 1e-13


class NormalFormError(RuntimeError):
    pass


class ResonantAtOrderError(NormalFormError):
    def __init__(self, order: int, alpha: tuple[int, int], component: int, divisor: float):
        self.order = order
        self.alpha = alpha
        self.component = component
        self.divisor = divisor
        super().__init__(
            f"resonant denominator at order {order}: component {component}, "
            f"alpha={alpha}, |divisor|={divisor:.3g}"
        )


class NotSemisimpleError(NormalFormError):
    pass


@dataclass(frozen=True)
class TruncatedTransform:
    """Polynomial change of coordinates with identity linear part.

    ``components`` maps (u~, z~) to the local coordinates in which the field
    was handed over (after shifting the equilibrium to the origin and
    normalizing the linear part); ``inverse_components`` composes back to the
    identity up to terms of total degree beyond ``order_N``.  ``linear_map``
    and ``offset`` record the affine normalization so that points in the
    original chart can be pushed through the transform.
    """

    order_N: int
    components: tuple[BivariatePolynomial, BivariatePolynomial]
    inverse_components: tuple[BivariatePolynomial, BivariatePolynomial]
    eigenvalues: tuple[complex, complex]
    linear_map: tuple[tuple[complex, complex], tuple[complex, complex]]
    offset: tuple[complex, complex]
    min_divisor: float
    max_coefficient: float

    def to_straightened(self, point: tuple[complex, complex]) -> tuple[complex, complex]:
        """Chart point -> straightened coordinates (inverse transform)."""
        a = point[0] - self.offset[0]
        b = point[1] - self.offset[1]
        (m00, m01), (m10, m11) = self.linear_map
        det = m00 * m11 - m01 * m10
        loc = ((m11 * a - m01 * b) / det, (-m10 * a + m00 * b) / det)
        return (
            self.inverse_components[0](loc[0], loc[1]),
            self.inverse_components[1](loc[0], loc[1]),
        )

    def from_straightened(self, point: tuple[complex, complex]) -> tuple[complex, complex]:
        """Straightened coordinates -> chart point."""
        a = self.components[0](point[0], point[1])
        b = self.components[1](point[0], point[1])
        (m00, m01), (m10, m11) = self.linear_map
        return (
            self.offset[0] + m00 * a + m01 * b,
            self.offset[1] + m10 * a + m11 * b,
        )


def _localized_field(
    system: ChartSystem, eq: EquilibriumRecord
) -> tuple[tuple[BivariatePolynomial, BivariatePolynomial], tuple[complex, complex],
           tuple[tuple[complex, complex], tuple[complex, complex]]]:
    """Shift eq to the origin and normalize the linear part to diagonal.

    Returns the localized components, the eigenvalues, and the linear map V
    used (local = V . eigen).  For triangular Jacobians V is unit triangular,
    which keeps the first coordinate equal to the fiber coordinate.
    """
    fld = system.field(eq.chart)
    x0, y0 = eq.location
    J = np.array(jacobian(fld, x0, y0), dtype=complex)
    scale = float(np.max(np.abs(J)))
    l1, l2 = eq.eigenvalues
    if abs(l1 - l2) < 1e-10 * max(abs(l1), abs(l2), 1.0):
        off = max(abs(J[0, 1]), abs(J[1, 0]), abs(J[0, 0] - J[1, 1]))
        if off > 1e-10 * scale:
            raise NotSemisimpleError("equal eigenvalues with a nontrivial Jordan block")
        V = np.eye(2, dtype=complex)
    elif abs(J[0, 1]) < 1e-12 * scale:
        # lower triangular: eigenvector of l1 is (1, xi), of l2 is (0, 1)
        xi = J[1, 0] / (l1 - l2)
        V = np.array([[1.0, 0.0], [xi, 1.0]], dtype=complex)
    elif abs(J[1, 0]) < 1e-12 * scale:
        xi = J[0, 1] / (l2 - l1)
        V = np.array([[1.0, xi], [0.0, 1.0]], dtype=complex)
    else:
        vals, vecs = np.linalg.eig(J)
        # order columns to match (l1, l2)
        if abs(vals[0] - l1) > abs(vals[1] - l1):
            vecs = vecs[:, ::-1]
        V = vecs / np.diag(vecs).reshape(1, 2)  # normalize diagonal to 1 where possible
    Vinv = np.linalg.inv(V)
    shifted = (fld.f.shifted(x0, y0), fld.g.shifted(x0, y0))
    # new coordinates s: local = V s; field_s = V^{-1} field(V s)
    s1 = BivariatePolynomial({(1, 0): complex(V[0, 0]), (0, 1): complex(V[0, 1])})
    s2 = BivariatePolynomial({(1, 0): complex(V[1, 0]), (0, 1): complex(V[1, 1])})
    comp = [shifted[0].compose(s1, s2), shifted[1].compose(s1, s2)]
    out1 = comp[0].scaled(complex(Vinv[0, 0])) + comp[1].scaled(complex(Vinv[0, 1]))
    out2 = comp[0].scaled(complex(Vinv[1, 0])) + comp[1].scaled(complex(Vinv[1, 1]))
    return (out1, out2), (l1, l2), ((complex(V[0, 0]), complex(V[0, 1])), (complex(V[1, 0]), complex(V[1, 1])))


def _pullback(
    field: tuple[BivariatePolynomial, BivariatePolynomial],
    psi: tuple[BivariatePolynomial, BivariatePolynomial],
    order: int,
) -> tuple[BivariatePolynomial, BivariatePolynomial]:
    """(DPsi)^{-1} (F o Psi) truncated at total degree ``order``."""
    f_comp = field[0].compose(psi[0], psi[1], max_degree=order)
    g_comp = field[1].compose(psi[0], psi[1], max_degree=order)
    d11 = psi[0].partial_x()
    d12 = psi[0].partial_y()
    d21 = psi[1].partial_x()
    d22 = psi[1].partial_y()
    one = BivariatePolynomial({(0, 0): 1.0})
    e11, e12 = d11 - one, d12
    e21, e22 = d21, d22 - one
    # Neumann series for (I + E)^{-1}: E has no constant terms, so powers
    # beyond ``order`` vanish after truncation.
    inv11, inv12, inv21, inv22 = one, BivariatePolynomial({}), BivariatePolynomial({}), one
    t11, t12, t21, t22 = e11, e12, e21, e22
    sign = -1.0
    for _ in range(order):
        inv11 = inv11 + t11.scaled(sign)
        inv12 = inv12 + t12.scaled(sign)
        inv21 = inv21 + t21.scaled(sign)
        inv22 = inv22 + t22.scaled(sign)
        n11 = (t11 * e11 + t12 * e21).truncated(order)
        n12 = (t11 * e12 + t12 * e22).truncated(order)
        n21 = (t21 * e11 + t22 * e21).truncated(order)
        n22 = (t21 * e12 + t22 * e22).truncated(order)
        t11, t12, t21, t22 = n11, n12, n21, n22
        sign *= -1.0
        if t11.is_zero and t12.is_zero and t21.is_zero and t22.is_zero:
            break
    out1 = (inv11 * f_comp + inv12 * g_comp).truncated(order)
    out2 = (inv21 * f_comp + inv22 * g_comp).truncated(order)
    return out1, out2


def poincare_linearize(system: ChartSystem, eq: EquilibriumRecord, order_N: int = 8) -> TruncatedTransform:
    """Diagonalizing transform to polynomial order ``order_N`` at ``eq``.

    Eliminates nonlinear terms degree by degree; each removed monomial
    contributes its coefficient divided by lambda_iota - alpha . lambda to
    the transform.  Raises ``ResonantAtOrderError`` the moment a divisor
    drops to 1e-8 * max|lambda| or below, which includes every divisor of a
    zero spectrum (exact resonances and near-resonances are treated alike: a
    transform with exploding coefficients is worthless).
    """
    if eq.eigenvalues is None:
        raise ValueError("classify the equilibrium first")
    if order_N < 2:
        raise ValueError("order_N must be at least 2")
    if order_N > 14:
        raise ValueError("orders beyond 14 are numerically meaningless in double precision")
    if eq.semisimple is False:
        raise NotSemisimpleError("equilibrium is not semisimple")
    local, (l1, l2), V = _localized_field(system, eq)
    guard = 1e-8 * max(abs(l1), abs(l2))
    # pre-scan all divisors up to order_N so resonance surfaces before work
    for n in range(2, order_N + 1):
        for a1 in range(n + 1):
            a2 = n - a1
            combo = a1 * l1 + a2 * l2
            for iota, li in ((1, l1), (2, l2)):
                if abs(li - combo) <= guard:
                    raise ResonantAtOrderError(n, (a1, a2), iota, abs(li - combo))

    ident = (BivariatePolynomial({(1, 0): 1.0}), BivariatePolynomial({(0, 1): 1.0}))
    psi = ident
    min_div = math.inf
    for n in range(2, order_N + 1):
        current = _pullback(local, psi, n)
        addition: dict[int, dict[tuple[int, int], complex]] = {1: {}, 2: {}}
        for iota, comp in ((1, current[0]), (2, current[1])):
            li = l1 if iota == 1 else l2
            for (a1, a2), c in comp.terms.items():
                if a1 + a2 != n:
                    continue
                div = li - (a1 * l1 + a2 * l2)
                min_div = min(min_div, abs(div))
                addition[iota][(a1, a2)] = -c / div
        psi = (
            psi[0] + BivariatePolynomial(addition[1]),
            psi[1] + BivariatePolynomial(addition[2]),
        )
    # verify: pulled-back field is diagonal through order_N
    final = _pullback(local, psi, order_N)
    lin = (BivariatePolynomial({(1, 0): l1}), BivariatePolynomial({(0, 1): l2}))
    for got, want in zip(final, lin):
        resid = got - want
        worst = max((abs(c) for c in resid.terms.values()), default=0.0)
        if worst > 1e-9 * max(abs(l1), abs(l2)):
            raise NormalFormError(f"elimination left residual coefficients of size {worst:.3g}")

    inverse = _compose_inverse(psi, order_N)
    max_coeff = max(
        (abs(c) for p in psi for c in p.terms.values()),
        default=1.0,
    )
    return TruncatedTransform(
        order_N=order_N,
        components=psi,
        inverse_components=inverse,
        eigenvalues=(l1, l2),
        linear_map=V,
        offset=eq.location,
        min_divisor=float(min_div) if min_div < math.inf else float("nan"),
        max_coefficient=float(max_coeff),
    )


def _compose_inverse(
    psi: tuple[BivariatePolynomial, BivariatePolynomial], order: int
) -> tuple[BivariatePolynomial, BivariatePolynomial]:
    """Fixed-point inversion: Phi = id - (Psi - id) o Phi, truncated."""
    ident = (BivariatePolynomial({(1, 0): 1.0}), BivariatePolynomial({(0, 1): 1.0}))
    nl = (psi[0] - ident[0], psi[1] - ident[1])
    phi = ident
    for _ in range(order):
        phi = (
            ident[0] - nl[0].compose(phi[0], phi[1], max_degree=order),
            ident[1] - nl[1].compose(phi[0], phi[1], max_degree=order),
        )
    return phi


def conjugacy_residual(
    system: ChartSystem,
    eq: EquilibriumRecord,
    transform: TruncatedTransform,
    ball_radius: float,
    sample_count: int = 64,
    seed: int = 2024,
) -> dict:
    """Deviation of the pulled-back field from its diagonal linearization.

    Samples points in the straightened ball, pushes them through the
    transform, evaluates the original field there, pulls the vector back
    through the Jacobian of the transform, and measures the gap to
    diag(l1, l2).  ``fitted_order`` is the log2 slope of the max residual
    across radii (r, r/2, r/4); residuals at the roundoff floor are treated
    as exact and give an infinite slope.
    """
    if ball_radius > 0.5:
        raise ValueError("ball_radius must not exceed 0.5")
    radii = (ball_radius, ball_radius / 2.0, ball_radius / 4.0)
    l1, l2 = transform.eigenvalues
    local, _, _ = _localized_field(system, eq)
    rng = np.random.default_rng(seed)
    angles = rng.uniform(0.0, 2.0 * math.pi, size=(sample_count, 2))
    scales = rng.uniform(0.5, 1.0, size=sample_count)
    maxima = []
    for r in radii:
        worst = 0.0
        for (a1, a2), sc in zip(angles, scales):
            pt = (r * sc * cmath.exp(1j * a1), r * sc * cmath.exp(1j * a2))
            img = (transform.components[0](pt[0], pt[1]), transform.components[1](pt[0], pt[1]))
            vec = np.array([local[0](img[0], img[1]), local[1](img[0], img[1])])
            Dpsi = np.array(
                [
                    [transform.components[0].partial_x()(pt[0], pt[1]),
                     transform.components[0].partial_y()(pt[0], pt[1])],
                    [transform.components[1].partial_x()(pt[0], pt[1]),
                     transform.components[1].partial_y()(pt[0], pt[1])],
                ],
                dtype=complex,
            )
            pulled = np.linalg.solve(Dpsi, vec)
            gap = pulled - np.array([l1 * pt[0], l2 * pt[1]])
            worst = max(worst, float(np.max(np.abs(gap))))
        maxima.append(worst)
    if max(maxima) < _ROUNDOFF_FLOOR:
        slope = float("inf")
    else:
        floored = [max(v, 1e-300) for v in maxima]
        slopes = [
            math.log(floored[i] / floored[i + 1]) / math.log(2.0)
            for i in range(len(radii) - 1)
        ]
        slope = min(slopes)
    return {
        "radii": radii,
        "max_residual": maxima[0],
        "max_residuals": tuple(maxima),
        "fitted_order": slope,
    }
