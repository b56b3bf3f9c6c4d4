"""Limiting spectral law of a two-sample Fisher matrix.

The Fisher matrix F = S2^{-1} S1 pairs a sample covariance S1 built from T
observations with an independent noise-only sample covariance S2 built from
n observations, both p-dimensional, in the proportional regime

    p / T -> c > 0,        p / n -> y in (0, 1).

Without spikes the eigenvalues of F converge to the Wachter law F_{c,y}.
Its absolutely continuous part is

    f(x) = (1 - y) sqrt((b - x)(x - b1)) / (2 pi x (c + x y)),   b1 <= x <= b,

with support edges

    b1 = ((1 - r) / (1 - y))^2,   b = ((1 + r) / (1 - y))^2,
    r  = sqrt(c + y - c y),

plus a point mass 1 - 1/c at the origin when c > 1 (S1 is then rank
deficient).  This module evaluates the law in closed form: density, support and
point mass.  The test suite checks each closed form against its defining
integral by quadrature.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ParameterError, finite_array, require_real

__all__ = [
    "FisherParams",
    "SupportEdges",
    "support_edges",
    "critical_interval",
    "mass_at_zero",
    "density",
]


@dataclass(frozen=True)
class FisherParams:
    """Limiting dimension ratios of a Fisher matrix ensemble.

    Attributes:
        c: limit of p / T, the dimension-to-signal-sample ratio.  Any
            positive value; c > 1 puts a point mass at zero.
        y: limit of p / n, the dimension-to-noise-sample ratio.  Must lie
            strictly inside (0, 1) so that S2 stays invertible.
    """

    c: float
    y: float

    def __post_init__(self) -> None:
        c, y = require_real(self.c, "ratio c"), require_real(self.y, "ratio y")
        if c <= 0.0:
            raise ParameterError(f"ratio c must be finite and positive, got {c}")
        if not 0.0 < y < 1.0:
            raise ParameterError(f"ratio y must lie in (0, 1), got {y}")
        object.__setattr__(self, "c", c)
        object.__setattr__(self, "y", y)

    @property
    def edge_root(self) -> float:
        """sqrt(c + y - c*y); half-width parameter of edges and critical interval.

        Evaluated as c(1 - y) + y, a sum of positive terms, so c = 1 gives
        exactly 1 and the lower edge collapses to an exact 0.
        """
        return math.sqrt(self.c * (1.0 - self.y) + self.y)


@dataclass(frozen=True)
class SupportEdges:
    """Endpoints of the bulk support [lower, upper] of the continuous part."""

    lower: float
    upper: float


def support_edges(params: FisherParams) -> SupportEdges:
    """Edges of the bulk: ((1 -+ r) / (1 - y))^2 with r = sqrt(c + y - c y).

    Raises:
        ParameterError: if an edge overflows the float range.
    """
    scale = 1.0 / (1.0 - params.y)
    root = params.edge_root
    try:
        return SupportEdges(lower=(scale * (1.0 - root)) ** 2, upper=(scale * (1.0 + root)) ** 2)
    except OverflowError:
        raise ParameterError(
            f"the support edges at c={params.c}, y={params.y} overflow the float range"
        ) from None


def critical_interval(params: FisherParams) -> tuple[float, float]:
    """Open interval of spike values that do NOT detach from the bulk.

    Centered at the pole 1/(1 - y) of the transition map, half-width
    pole * sqrt(c + y - c y).
    """
    pole = 1.0 / (1.0 - params.y)
    root = params.edge_root
    return pole * (1.0 - root), pole * (1.0 + root)


def spike_value(a) -> float:
    """The rule every spike value obeys: a finite positive real other than 1."""
    a = require_real(a, "spike value")
    if a <= 0.0:
        raise ParameterError(f"spike value must be positive, got {a}")
    if a == 1.0:
        raise ParameterError("spike value 1 is the unspiked baseline, not a spike")
    return a


def require_detached(params: FisherParams, a) -> float:
    """A spike strictly outside the closed critical interval, so it has an isolated outlier."""
    a = spike_value(a)
    low, high = critical_interval(params)
    if low <= a <= high:
        raise ParameterError(
            f"spike value {a} lies in the critical interval [{low}, {high}] "
            "(boundary included); it has no isolated outlier"
        )
    return a


def mass_at_zero(params: FisherParams) -> float:
    """Point mass of the law at the origin: max(0, 1 - 1/c)."""
    return max(0.0, 1.0 - 1.0 / params.c)


def density(params: FisherParams, x):
    """Density of the continuous part, evaluated elementwise.

    Total on the real line: returns 0 outside [lower, upper] (and exactly 0
    at the edges).  The point mass at the origin for c > 1 is not part of
    the density; query `mass_at_zero` for it.

    Args:
        x: scalar or array of finite real evaluation points (`finite_array`'s rule).

    Returns:
        Array of densities with the shape of `x` (scalar in, scalar out).
    """
    edges = support_edges(params)
    arr = finite_array(x, "density points", ndim=None)
    # The formula runs strictly inside only: the edges are exactly 0, and at
    # c = 1 the lower edge is the pole x = 0.
    inside = (arr > edges.lower) & (arr < edges.upper)
    out = np.zeros(arr.shape)
    t = arr[inside]
    out[inside] = (
        (1.0 - params.y) * np.sqrt((edges.upper - t) * (t - edges.lower))
        / (2.0 * math.pi * t * (params.c + t * params.y))
    )
    return float(out) if out.ndim == 0 else out
