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
deficient).  This module evaluates the law in closed form: density, support,
point mass, the Stieltjes transform

    s(z) = int (x - z)^{-1} dF_{c,y}(x),

the companion transform of the weighted law y + y x dF, and the weighted
resolvent moments that drive the outlier CLT.  Every closed form can be
cross-checked against the defining integral through the quadrature helper
`integrate_against_density`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy import integrate

from .errors import ParameterError, require_real

__all__ = [
    "FisherParams",
    "SupportEdges",
    "MomentValues",
    "support_edges",
    "critical_interval",
    "mass_at_zero",
    "density",
    "stieltjes",
    "companion_stieltjes",
    "moment_values",
    "integrate_against_density",
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
        if not (math.isfinite(self.c) and self.c > 0.0):
            raise ParameterError(f"ratio c must be finite and positive, got {self.c}")
        if not (math.isfinite(self.y) and 0.0 < self.y < 1.0):
            raise ParameterError(f"ratio y must lie in (0, 1), got {self.y}")

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
    """Edges of the bulk: ((1 -+ r) / (1 - y))^2 with r = sqrt(c + y - c y)."""
    scale = 1.0 / (1.0 - params.y)
    root = params.edge_root
    return SupportEdges(lower=(scale * (1.0 - root)) ** 2, upper=(scale * (1.0 + root)) ** 2)


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
        x: scalar or array of evaluation points.

    Returns:
        Array of densities with the shape of `x` (scalar in, scalar out).
    """
    edges = support_edges(params)
    arr = np.asarray(x, dtype=float)
    inside = (arr >= edges.lower) & (arr <= edges.upper)
    # Evaluate only strictly inside; edge values are exactly 0 by the sqrt.
    safe = np.where(inside, arr, 0.5 * (edges.lower + edges.upper))
    prod = np.clip((edges.upper - safe) * (safe - edges.lower), 0.0, None)
    vals = (1.0 - params.y) * np.sqrt(prod) / (2.0 * math.pi * safe * (params.c + safe * params.y))
    out = np.where(inside, vals, 0.0)
    return float(out) if out.ndim == 0 else out


def _require_exterior(params: FisherParams, z: float, edges: SupportEdges) -> None:
    if not math.isfinite(z):
        raise ParameterError(f"evaluation point must be finite, got {z}")
    if edges.lower <= z <= edges.upper:
        raise ParameterError(
            f"evaluation point {z} lies inside the bulk support "
            f"[{edges.lower}, {edges.upper}]"
        )
    if z == 0.0:
        raise ParameterError("evaluation point 0 sits on the point mass; transform undefined")
    pole = -params.c / params.y
    if abs(z - pole) <= 1e-12 * max(1.0, abs(pole)):
        raise ParameterError(
            f"evaluation point {z} hits the removable singularity at -c/y = {pole}; "
            "evaluate at a nearby point instead"
        )


def _signed_radical(params: FisherParams, z: float, edges: SupportEdges) -> float:
    """Branch-resolved sqrt((1 - c + z(1 - y))^2 - 4z), analytic off the bulk.

    The argument factors as (1 - y)^2 (z - upper)(z - lower), so it is
    nonnegative exactly off the open bulk.  The branch making the transforms
    Stieltjes (decay at infinity, correct sign of the imaginary part) takes
    the positive square root above the bulk and the negative one below it,
    on the whole half line including negative arguments.
    """
    disc = (1.0 - params.c + z * (1.0 - params.y)) ** 2 - 4.0 * z
    root = math.sqrt(max(disc, 0.0))
    return root if z > edges.upper else -root


def _numerator(params: FisherParams, z: float) -> float:
    """c(z(1 - y) + 1 - c) + 2zy - c * radical, shared by both transforms."""
    edges = support_edges(params)
    _require_exterior(params, z, edges)
    c, y = params.c, params.y
    return c * (z * (1.0 - y) + 1.0 - c) + 2.0 * z * y - c * _signed_radical(params, z, edges)


def stieltjes(params: FisherParams, z: float) -> float:
    """Stieltjes transform s(z) = int (x - z)^{-1} dF_{c,y}(x) for real z off support.

    The point mass at the origin (c > 1) is included.  `z` must lie outside
    the closed bulk [lower, upper] and away from 0.

    Raises:
        ParameterError: if z is inside the bulk support, equals 0, or hits
            the removable singularity of the closed form at -c/y.
    """
    num = _numerator(params, z)
    c, y = params.c, params.y
    return 1.0 / (z * c) - 1.0 / z - num / (2.0 * z * c * (c + z * y))


def companion_stieltjes(params: FisherParams, z: float) -> float:
    """Companion transform of the weighted measure y 1_{x>0} + y x dF_{c,y}(x).

    Satisfies the exact relation companion(z) + (1 - c)/z = c * s(z) and the
    quadratic z(c + zy) m^2 + (c(z(1-y)+1-c) + 2zy) m + (c + y - cy) = 0.
    Same domain as `stieltjes`; the closed form has a removable singularity
    at z = -c/y, rejected exactly and inaccurate in a small neighborhood.
    """
    num = _numerator(params, z)
    c, y = params.c, params.y
    return -num / (2.0 * z * (c + z * y))


@dataclass(frozen=True)
class MomentValues:
    """Weighted resolvent moments of the bulk law at an outlier location.

    All five integrals are taken against the full law dF (point mass
    included) at an evaluation point `lam` strictly outside the support,
    with the gap written g(x) = lam - x:

        stieltjes    int 1   / (x - lam) dF(x)
        inv_gap_sq   int 1   / g(x)^2    dF(x)
        x_gap        int x   / g(x)      dF(x)
        x_gap_sq     int x   / g(x)^2    dF(x)
        xx_gap_sq    int x^2 / g(x)^2    dF(x)
    """

    stieltjes: float
    inv_gap_sq: float
    x_gap: float
    x_gap_sq: float
    xx_gap_sq: float


def moment_values(params: FisherParams, a: float) -> MomentValues:
    """Closed-form moments at lam = phi(a), the outlier location of spike a.

    Valid for a strictly super- or sub-critical spike (strictly outside the
    closed critical interval); there lam keeps a positive distance from the
    bulk and every integral below converges.  With D = a^2 (y - 1) + 2a +
    c - 1 the five moments reduce to rational functions of (a, c, y).

    Raises:
        ParameterError: if a <= 0, a == 1, or a is not strictly outside the
            critical interval.
    """
    a = require_detached(params, a)
    c, y = params.c, params.y
    am1 = a - 1.0
    apc = a + c - 1.0
    top = a * (y - 1.0) + 1.0
    dd = -1.0 + 2.0 * a + c + a * a * (y - 1.0)
    s_val = top / (am1 * apc)
    m1 = top * top * (-1.0 + 2.0 * a + a * a * (y - 1.0) + y * (c - 1.0)) / (
        am1 * am1 * apc * apc * dd
    )
    m2 = 1.0 / am1
    m3 = -top * top / (am1 * am1 * dd)
    m4 = (-1.0 + 2.0 * a + c + a * a * (-1.0 + c * (y - 1.0))) / (am1 * am1 * dd)
    return MomentValues(stieltjes=s_val, inv_gap_sq=m1, x_gap=m2, x_gap_sq=m3, xx_gap_sq=m4)


def integrate_against_density(params: FisherParams, func) -> float:
    """Quadrature of int func(x) f_{c,y}(x) dx over the continuous part.

    Substituting x = lower + (upper - lower) sin^2(theta) removes the
    square-root edge singularities, so smooth integrands converge to near
    machine accuracy.  The point mass at the origin is NOT included; add
    `mass_at_zero(params) * func(0.0)` for moments of the full law.

    Args:
        func: callable mapping a float inside the support to a float.

    Returns:
        The integral, with quadrature tolerance around 1e-12.
    """
    edges = support_edges(params)
    span = edges.upper - edges.lower
    c, y = params.c, params.y
    pref = (1.0 - y) / (2.0 * math.pi)

    if edges.lower == 0.0:
        # c == 1 exactly: the 1/x pole cancels against sin^2 from the pullback.
        def integrand(theta: float) -> float:
            x = span * math.sin(theta) ** 2
            return func(x) * pref * 2.0 * span * math.cos(theta) ** 2 / (c + x * y)

    else:

        def integrand(theta: float) -> float:
            x = edges.lower + span * math.sin(theta) ** 2
            jac = span * span * math.sin(2.0 * theta) ** 2 / 2.0
            return func(x) * pref * jac / (x * (c + x * y))

    val, _ = integrate.quad(
        integrand, 0.0, math.pi / 2.0, limit=400, epsabs=1e-13, epsrel=1e-12
    )
    return val
