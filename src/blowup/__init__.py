"""Complex-time analysis of planar polynomial ODEs.

The package compactifies polynomial fields on CP^2 via the blow-up charts
u = 1/x, z = y/x and v = 1/y, w = x/y, integrates the chart systems along
arbitrary paths in complex time, classifies blow-up equilibria by their
spectral quotients, measures the closure discrepancy of complex-time detours
around finite-time blow-up, and computes formal diagonalizing transforms at
nonresonant equilibria.
"""

from blowup.algebra import (
    BivariatePolynomial,
    Chart,
    ChartSystem,
    PlanarField,
    evaluate,
    jacobian,
    to_charts,
)

__all__ = [
    "BivariatePolynomial",
    "Chart",
    "ChartSystem",
    "PlanarField",
    "evaluate",
    "jacobian",
    "to_charts",
]

__version__ = "0.1.0"
