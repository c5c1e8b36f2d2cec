"""Formal diagonalization at nonresonant semisimple equilibria.

The transform (u, z) = Psi(u~, z~) solves the conjugacy equation
F o Psi = DPsi . Lambda p, Lambda = diag(lambda_1, lambda_2), degree by
degree: while Psi is exact below total degree n, every degree-n monomial
coefficient c of F o Psi in component iota is cancelled by the compensating
coefficient -c / (lambda_iota - alpha . lambda) of the same monomial in Psi.
The inverse Phi = Psi^-1 is solved in the same loop, from its own equation
DPhi . F = Lambda Phi, which is linear in Phi: with N the part of F of degree
2 and above, and Phi exact below n, its degree-n coefficient is
[DPhi_iota . N]_alpha / (lambda_iota - alpha . lambda), over the same
divisors.  No composition builds Phi.
Small denominators are refused outright: any scanned divisor at or below
1e-8 * max|lambda| raises, with the offending multi-index attached, instead
of polluting the transform with huge coefficients.

When the source system has an invariant fiber line (first blow-up component
divisible by u), the construction never produces a pure-z~ monomial in
Psi^u, so the transform preserves the fibration; this is what lets detours
in straightened coordinates reproduce the algebraic leaf equations exactly
to truncation order.
"""

from __future__ import annotations

import cmath
import math
import random
from dataclasses import dataclass

from blowup.algebra import BivariatePolynomial, ChartSystem, PlanarField, jacobian, solve_2x2
from blowup.equilibria import Domain, EquilibriumRecord, small_divisor_scan

__all__ = [
    "TruncatedTransform",
    "NormalFormError",
    "ResonantAtOrderError",
    "NotSemisimpleError",
    "poincare_linearize",
    "conjugacy_residual",
]

_ROUNDOFF_FLOOR = 1e-13
_RESIDUAL_SAMPLES = 64
_RESIDUAL_SEED = 2024


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
    normalizing the linear part); ``local_field`` is that field, the one the
    transform conjugates.  ``inverse_components`` is solved from
    DPhi . F = Lambda Phi, not by inverting ``components``, and composes with
    them to the identity up to terms of total degree beyond ``order_N``.
    ``linear_map`` and ``offset`` record the affine normalization so that
    points in the original chart can be pushed through the transform.
    """

    order_N: int
    components: tuple[BivariatePolynomial, BivariatePolynomial]
    inverse_components: tuple[BivariatePolynomial, BivariatePolynomial]
    eigenvalues: tuple[complex, complex]
    linear_map: tuple[tuple[complex, complex], tuple[complex, complex]]
    offset: tuple[complex, complex]
    local_field: tuple[BivariatePolynomial, BivariatePolynomial]
    min_divisor: float
    max_coefficient: float

    def to_straightened(self, point: tuple[complex, complex]) -> tuple[complex, complex]:
        """Chart point -> straightened coordinates (inverse transform)."""
        loc = solve_2x2(self.linear_map, (point[0] - self.offset[0], point[1] - self.offset[1]))
        return (
            self.inverse_components[0](loc[0], loc[1]),
            self.inverse_components[1](loc[0], loc[1]),
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
    (j00, j01), (j10, j11) = jacobian(fld, x0, y0)
    scale = max(abs(j00), abs(j01), abs(j10), abs(j11))
    l1, l2 = eq.eigenvalues
    if abs(l1 - l2) < 1e-10 * max(abs(l1), abs(l2), 1.0):  # semisimple, so J is scalar
        V = ((1.0, 0.0), (0.0, 1.0))
    elif abs(j01) < 1e-12 * scale:
        # lower triangular: eigenvector of l1 is (1, xi), of l2 is (0, 1)
        V = ((1.0, 0.0), (j10 / (l1 - l2), 1.0))
    elif abs(j10) < 1e-12 * scale:
        V = ((1.0, j01 / (l2 - l1)), (0.0, 1.0))
    else:  # eigenvector columns scaled to a unit diagonal
        V = ((1.0, j01 / (l2 - j00)), ((l1 - j00) / j01, 1.0))
    (v00, v01), (v10, v11) = V
    det = v00 * v11 - v01 * v10
    shifted = (fld.f.shifted(x0, y0), fld.g.shifted(x0, y0))
    # new coordinates s: local = V s; field_s = V^{-1} field(V s)
    s1 = BivariatePolynomial({(1, 0): v00, (0, 1): v01})
    s2 = BivariatePolynomial({(1, 0): v10, (0, 1): v11})
    comp = [shifted[0].compose(s1, s2), shifted[1].compose(s1, s2)]
    out1 = comp[0].scaled(v11 / det) + comp[1].scaled(-v01 / det)
    out2 = comp[0].scaled(-v10 / det) + comp[1].scaled(v00 / det)
    return (out1, out2), (l1, l2), tuple(tuple(complex(v) for v in row) for row in V)


def poincare_linearize(system: ChartSystem, eq: EquilibriumRecord, order_N: int = 8) -> TruncatedTransform:
    """Diagonalizing transform to polynomial order ``order_N`` at ``eq``.

    Solves F o Psi = DPsi . Lambda p degree by degree; each degree-n
    coefficient of F o Psi contributes itself divided by lambda_iota -
    alpha . lambda to the transform, and the finished transform is checked
    against that equation through ``order_N``.  The inverse takes its
    degree-n terms from DPhi . N over the same divisors, in the same loop.
    Raises ``ResonantAtOrderError`` the moment a divisor drops to
    1e-8 * max|lambda| or below (exact resonances and near-resonances are
    treated alike: a transform with exploding coefficients is worthless), and
    at order 2 for a ``Degenerate`` record, whose spectrum holds a 0.
    """
    if eq.eigenvalues is None:
        raise ValueError("classify the equilibrium first")
    if order_N < 2:
        raise ValueError("order_N must be at least 2")
    if order_N > 14:
        raise ValueError("orders beyond 14 are numerically meaningless in double precision")
    if eq.semisimple is False:
        raise NotSemisimpleError("equilibrium is not semisimple")
    if eq.domain == Domain.DEGENERATE:
        # an eigenvalue that is 0 next to the field's scale makes the other one
        # equal to l1 + l2, a resonance at order 2 whatever roundoff says
        small = 0 if abs(eq.eigenvalues[0]) <= abs(eq.eigenvalues[1]) else 1
        raise ResonantAtOrderError(2, (1, 1), 2 - small, abs(eq.eigenvalues[small]))
    local, (l1, l2), V = _localized_field(system, eq)
    guard = 1e-8 * max(abs(l1), abs(l2))
    # pre-scan all divisors up to order_N so resonance surfaces before work
    for row in small_divisor_scan((l1, l2), order_N):
        if row["min_divisor"] <= guard:
            raise ResonantAtOrderError(row["order"], tuple(row["alpha"]), row["component"], row["min_divisor"])

    psi = phi = (BivariatePolynomial({(1, 0): 1.0}), BivariatePolynomial({(0, 1): 1.0}))
    nonlinear = [BivariatePolynomial({jk: c for jk, c in comp.terms.items() if sum(jk) >= 2}) for comp in local]
    min_div = math.inf
    for n in range(2, order_N + 1):
        psi_add, phi_add = [{}, {}], [{}, {}]
        for i, (li, comp, p) in enumerate(zip((l1, l2), local, phi)):
            # the degree-n terms of F o Psi and of DPhi . N, Phi known below n
            forced = comp.compose(psi[0], psi[1], max_degree=n)
            driven = p.partial_x() * nonlinear[0] + p.partial_y() * nonlinear[1]
            for (a1, a2), c in forced.terms.items():
                if a1 + a2 == n:
                    div = li - (a1 * l1 + a2 * l2)
                    min_div = min(min_div, abs(div))
                    psi_add[i][(a1, a2)] = -c / div
            for (a1, a2), c in driven.terms.items():
                if a1 + a2 == n:
                    phi_add[i][(a1, a2)] = c / (li - (a1 * l1 + a2 * l2))
        psi = tuple(p + BivariatePolynomial(terms) for p, terms in zip(psi, psi_add))
        phi = tuple(p + BivariatePolynomial(terms) for p, terms in zip(phi, phi_add))
    # verify: F o Psi = DPsi . Lambda p through order_N
    for comp, p in zip(local, psi):
        flowed = BivariatePolynomial({(a1, a2): (a1 * l1 + a2 * l2) * c for (a1, a2), c in p.terms.items()})
        resid = comp.compose(psi[0], psi[1], max_degree=order_N) - flowed
        worst = max((abs(c) for c in resid.terms.values()), default=0.0)
        if worst > 1e-9 * max(abs(l1), abs(l2)):
            raise NormalFormError(f"elimination left residual coefficients of size {worst:.3g}")

    max_coeff = max(
        (abs(c) for p in psi for c in p.terms.values()),
        default=1.0,
    )
    return TruncatedTransform(
        order_N=order_N,
        components=psi,
        inverse_components=phi,
        eigenvalues=(l1, l2),
        linear_map=V,
        offset=eq.location,
        local_field=local,
        min_divisor=float(min_div) if min_div < math.inf else float("nan"),
        max_coefficient=float(max_coeff),
    )


def conjugacy_residual(transform: TruncatedTransform, ball_radius: float) -> dict:
    """Deviation of the pulled-back field from its diagonal linearization.

    Samples points in the straightened ball, pushes them through the
    transform, evaluates there the field it was solved against, pulls the
    vector back through the Jacobian of the transform, and measures the gap to
    diag(l1, l2).  ``fitted_order`` is the smaller log2 slope of the max
    residual across radii (r, r/2, r/4), taken only over neighbouring pairs
    whose smaller residual is at or above the roundoff floor: a slope of
    roundoff is no order.  With no such pair it is infinite.
    """
    if not 0.0 < ball_radius <= 0.5:  # also refuses NaN
        raise ValueError(f"ball_radius must lie in (0, 0.5], got {ball_radius!r}")
    radii = (ball_radius, ball_radius / 2.0, ball_radius / 4.0)
    l1, l2 = transform.eigenvalues
    rng = random.Random(_RESIDUAL_SEED)
    samples = [(rng.uniform(0.0, 2.0 * math.pi), rng.uniform(0.0, 2.0 * math.pi), rng.uniform(0.5, 1.0))
               for _ in range(_RESIDUAL_SAMPLES)]
    # Psi, the field and the two rows of DPsi, each compiled once
    psi = PlanarField(*transform.components)
    field = PlanarField(*transform.local_field)
    dpsi = [PlanarField(p.partial_x(), p.partial_y()) for p in transform.components]
    maxima = []
    for r in radii:
        worst = 0.0
        for a1, a2, sc in samples:
            pt = (r * sc * cmath.exp(1j * a1), r * sc * cmath.exp(1j * a2))
            pulled = solve_2x2([row(*pt) for row in dpsi], field(*psi(*pt)))
            worst = max(worst, abs(pulled[0] - l1 * pt[0]), abs(pulled[1] - l2 * pt[1]))
        maxima.append(worst)
    slopes = [math.log(big / small) / math.log(2.0)
              for big, small in zip(maxima, maxima[1:]) if min(big, small) >= _ROUNDOFF_FLOOR]
    return {
        "radii": radii,
        "max_residuals": tuple(maxima),
        "fitted_order": min(slopes, default=math.inf),
    }
