"""Hamiltonian structure: fields from polynomial Hamiltonians and the
pendulum loop test.

A polynomial H of degree m+1 generates the degree-m field (H_y, -H_x), along
whose complex-time leaves H is constant.

The pendulum loop test traces the energy-zero leaf of H = y^2/2 - G(x)
around the totally degenerate equilibrium v = w = 0 at infinity.  With the
regularizing root parameter th (w = th^(m-1), v ~ a th^(m+1)) the traced
loops close with windings (m-1, m+1, m-1) for (t, v, w) when the force
degree m is even; odd m splits the picture into two leaves, each closing
after half a th-cycle with the windings halved.  Each sample of a loop is
one Newton solve in v; original time is the trapezoid rule in the angle of
th over those same samples, which converges geometrically on the periodic
integrand.  A loop where v strays from its leading order a th^(m+1) by more
than half is outside the regime these windings describe, and the radius is
halved instead.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

from blowup.algebra import BivariatePolynomial, PlanarField
from blowup.flow import FlowError, winding_number

__all__ = [
    "PolynomialHamiltonian",
    "DegenerateLeadingTermError",
    "hamiltonian_field",
    "pendulum_loop_windings",
]

_SAMPLES_PER_TURN = 720
_MAX_HALVINGS = 6


class DegenerateLeadingTermError(ValueError):
    """The leading potential coefficient vanishes; no blow-up leaf to trace."""


@dataclass(frozen=True)
class PolynomialHamiltonian:
    H: BivariatePolynomial
    level_c: complex = 0j

    def __post_init__(self):
        if self.H.degree < 2:
            raise ValueError("Hamiltonian must have degree at least 2")

    @property
    def field_degree(self) -> int:
        return self.H.degree - 1


def hamiltonian_field(ham: PolynomialHamiltonian) -> PlanarField:
    """The field (H_y, -H_x); H is constant along its complex-time leaves."""
    return PlanarField(ham.H.partial_y(), ham.H.partial_x().scaled(-1.0))


def _potential_from_coeffs(g_coeffs: list[complex]) -> list[complex]:
    """Antiderivative coefficients (low to high) of the force polynomial."""
    return [0.0] + [c / (k + 1) for k, c in enumerate(g_coeffs)]


def _energy_relation(G_low_to_high: list[complex], m: int) -> BivariatePolynomial:
    """E(v, w) = v^(m-1) - 2 sum_j G_{j} w^j v^(m+1-j) on the zero level.

    G is indexed here by the power of x: G(x) = sum_j G_low[j] x^j with
    degree m+1.  The relation is the vw-chart zero set of y^2/2 - G(x).
    """
    terms = {(m - 1, 0): 1.0 + 0.0j}
    for j, Gj in enumerate(G_low_to_high):
        if abs(Gj) < 1e-300:
            continue
        key = (m + 1 - j, j)
        terms[key] = terms.get(key, 0.0) - 2.0 * Gj
    return BivariatePolynomial(terms)


def pendulum_loop_windings(
    g_coeffs: list[complex],
    loop_radius: float = 0.05,
) -> dict:
    """Windings of the traced blow-up loop of the pendulum y'' = g(y-position).

    ``g_coeffs`` are the force coefficients low-to-high; its degree m >= 2
    fixes the leading potential coefficient G0 = g_m/(m+1), which must not
    vanish.  The routine solves the energy relation for v along the circle
    w = th^(m-1) (half a circle of th per leaf when m is odd) with one
    Newton solve per sample, integrates original time dt = v^(m-1) dt2 by
    the trapezoid rule in the angle of th on those samples, and extracts
    integer windings.  The radius is halved, at most ``_MAX_HALVINGS``
    times, until two successive radii agree; the smaller is
    ``stabilized_radius``.  A radius whose loop leaves the leading-order
    regime (max |v / (a th^(m+1)) - 1| > 1/2), fails to solve, or gives a
    curve too coarse or open for ``winding_number`` is halved without a
    result.
    """
    if not 0.0 < loop_radius < math.inf:  # also refuses NaN
        raise ValueError(f"loop radius must be finite and positive, got {loop_radius!r}")
    g = [complex(c) for c in g_coeffs]
    while g and abs(g[-1]) < 1e-300:
        g.pop()
    m = len(g) - 1
    if m < 2:
        raise ValueError("force degree must be at least 2")
    G = _potential_from_coeffs(g)
    G0 = G[m + 1]
    if abs(G0) < 1e-12:
        raise DegenerateLeadingTermError("leading potential coefficient vanishes")

    leaves = 1 if m % 2 == 0 else 2
    result = None
    radius = loop_radius
    for _ in range(_MAX_HALVINGS):
        try:
            wt, wv, ww = _trace_pendulum_loop(g, G, m, G0, radius)
        except (ValueError, ArithmeticError, FlowError):
            radius *= 0.5
            continue
        if result == (wt, wv, ww):
            return {"w_t": wt, "w_v": wv, "w_w": ww, "leaves": leaves, "stabilized_radius": radius}
        result = (wt, wv, ww)
        radius *= 0.5
    raise RuntimeError("winding extraction did not stabilize under radius halving")


def _trace_pendulum_loop(g, G, m, G0, theta_radius):
    """One traced loop of ``_SAMPLES_PER_TURN`` samples; returns measured (w_t, w_v, w_w).

    The samples are th = R e^(i phi) at equal steps of phi, one Newton solve
    each, seeded by the cubic through the previous four.  Original time is
    the trapezoid rule in phi on those same samples: dt/dphi = v^(m-1) / w'
    * i (m-1) w is periodic over the traced loop, where the trapezoid rule
    converges geometrically.  A loop on which v strays from its leading
    order a th^(m+1) by more than half is outside the regime the windings
    describe, and raises ``ValueError``.
    """
    n = _SAMPLES_PER_TURN
    # theta range: full turn for even m (single leaf), half for odd m.
    span = 2.0 * math.pi if m % 2 == 0 else math.pi
    relation = _energy_relation(G, m)
    relation_and_dv = PlanarField(relation, relation.partial_x())
    a = (2.0 * G0) ** (1.0 / (m - 1.0))

    vs: list[complex] = []
    ws: list[complex] = []
    rates: list[complex] = []
    for k in range(n + 1):
        th = theta_radius * cmath.exp(1j * span * k / n)
        w = th ** (m - 1)
        lead = a * th ** (m + 1)
        v = _newton_track(relation_and_dv, v_guess=_extrapolate(vs) if vs else lead, w=w)
        if abs(v / lead - 1.0) > 0.5:
            raise ValueError(f"loop radius {theta_radius:g} is outside the leading-order regime")
        # dw/dt2 = v^(m-1) - w v^m g(w/v), and dt = v^(m-1) dt2
        wdot = v ** (m - 1) - w * _v_pow_g(v, w, g, m)
        vs.append(v)
        ws.append(w)
        rates.append(v ** (m - 1) / wdot * 1j * (m - 1) * w)

    half_step = 0.5 * span / n
    ts = [0.0 + 0.0j]
    for r0, r1 in zip(rates, rates[1:]):
        ts.append(ts[-1] + half_step * (r0 + r1))

    # Windings about the blow-up point: t about its own mean-removed center 0
    # after removing the constant of integration, v and w about 0.
    t_center = _fit_center(ts)
    wt = winding_number([t - t_center for t in ts], 0.0)
    wv = winding_number(vs, 0.0)
    ww = winding_number(ws, 0.0)
    return abs(wt), abs(wv), abs(ww)


def _extrapolate(samples: list[complex]) -> complex:
    """The next value of an equally spaced sequence from the polynomial
    through its last four values, or through all of them while fewer."""
    if len(samples) >= 4:
        return 4.0 * (samples[-1] + samples[-3]) - 6.0 * samples[-2] - samples[-4]
    if len(samples) == 3:
        return 3.0 * (samples[-1] - samples[-2]) + samples[-3]
    return 2.0 * samples[-1] - samples[-2] if len(samples) == 2 else samples[-1]


def _v_pow_g(v, w, g, m):
    """v^m g(w/v) expanded as sum g_j w^j v^(m-j)."""
    return sum(gj * w**j * v ** (m - j) for j, gj in enumerate(g))


def _newton_track(relation_and_dv: PlanarField, v_guess: complex, w: complex) -> complex:
    """Newton's method in v on the energy relation E(v, w) = 0 at fixed w.

    ``relation_and_dv`` is the pair (E, dE/dv) as one compiled field, so each
    iterate evaluates both in one call.
    """
    v = v_guess
    for _ in range(40):
        val, der = relation_and_dv(v, w)
        if abs(der) < 1e-300:
            raise ArithmeticError("tangential branch point while tracking the leaf")
        step = val / der
        v = v - step
        if abs(step) < 1e-15 * max(abs(v), 1e-30):
            return v
    if abs(relation_and_dv(v, w)[0]) > 1e-10 * max(1.0, abs(v)):
        raise ArithmeticError("leaf tracking did not converge")
    return v


def _fit_center(samples: list[complex]) -> complex:
    """Blow-up time as the limit point of the loop: the traced t-values orbit
    the (finite) blow-up time; its position is the mean of a closed loop."""
    loop = samples[:-1]
    return sum(loop) / len(loop)
