"""Verification oracles: closed forms and quadratures the tests check the package against.

None of these is needed to run a study or the command line.  The chain
quadrature -> `moment_values` -> `clt_constants` ties the package's closed
forms to the paper's integrals; `stieltjes`, `companion_stieltjes`,
`effective_spikes`, `phi_small_y_reduction` and `detectability` restate the
paper's identities and limits in the form the tests compare with;
`limit_draws` samples the limit law at given ratios.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np
from scipy import integrate

from spikedfisher.detect import SignalModel
from spikedfisher.errors import ParameterError, require_real
from spikedfisher.spikes import SpikeSpec, clt_constants, sample_limit_batch
from spikedfisher.wachter import (
    FisherParams,
    SupportEdges,
    critical_interval,
    require_detached,
    support_edges,
)


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


def phi_small_y_reduction(c: float, x: float) -> float:
    """Small-y limit of the transition map: x + c x / (x - 1).

    As y -> 0 the Fisher ensemble degenerates to a one-sample spiked
    covariance model and phi collapses to its classical transition map.

    Raises:
        ParameterError: if c <= 0 or x == 1 (pole of the reduced map).
    """
    if not (math.isfinite(c) and c > 0.0):
        raise ParameterError(f"ratio c must be finite and positive, got {c}")
    x = require_real(x, "spike value")
    if x == 1.0:
        raise ParameterError("reduced transition map has a pole at 1")
    return x + c * x / (x - 1.0)


def effective_spikes(model: SignalModel) -> np.ndarray:
    """Descending eigenvalues of A^T Sigma2^{-1} A = M^T M, the effective spikes.

    These play the role of a - 1 in the spiked Fisher ensemble: signal i is
    asymptotically detectable when effective spike + 1 clears the critical
    interval.  A rank-deficient mixing matrix yields fewer than k nonzero
    values; the full vector is returned as-is with a warning.
    """
    if model.num_signals == 0:
        return np.zeros(0)
    vals = np.linalg.eigvalsh(model.whitened.T @ model.whitened)[::-1].copy()
    tol = 1e-12 * max(1.0, float(vals[0]))
    nonzero = int(np.count_nonzero(vals > tol))
    if nonzero < model.num_signals:
        warnings.warn(
            f"mixing matrix has numerical rank {nonzero}, below its "
            f"{model.num_signals} columns; trailing effective spikes are zero",
            stacklevel=2,
        )
    return vals


def detectability(model: SignalModel, params: FisherParams) -> int:
    """Number of signals whose effective spike detaches from the bulk.

    Counts effective spikes with value + 1 strictly above the critical
    interval; the detector is consistent exactly when this equals k.
    """
    _, high = critical_interval(params)
    return int(np.count_nonzero(effective_spikes(model) + 1.0 > high))


def limit_draws(rng, params: FisherParams, spec: SpikeSpec, fourth_moment=3.0, size=1):
    """`sample_limit_batch` with each spike's law derived at `params` and `fourth_moment`."""
    constants = tuple(clt_constants(params, value, fourth_moment) for value in spec.values)
    return sample_limit_batch(rng, spec, constants, size=size)
