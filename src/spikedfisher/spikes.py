"""Phase transition and outlier fluctuations of spiked Fisher matrices.

A finite-rank perturbation multiplies the first population covariance by
Omega = U diag(a_1 I_{n_1}, ..., a_k I_{n_k}) U^T on an M-dimensional
block (M = n_1 + ... + n_k), each spike a_i > 0, a_i != 1.  Whether a
spike detaches from the Wachter bulk is governed by the transition map

    phi(a) = a (a + c - 1) / (a - 1 - a y)

and the critical interval (pole (1 - r), pole (1 + r)) around its pole
pole = 1/(1 - y), with r = sqrt(c + y - c y): spikes strictly outside
produce outliers at phi(a), spikes inside are swallowed by the bulk edge.

For a detached spike the packet of sample eigenvalues associated with a_i,
scaled by sqrt(p) around phi(a_i), converges jointly to the eigenvalues of
-U_i^T R U_i / delta_i: R is a symmetric Gaussian M x M matrix and U_i
spans the spike's eigenspace.  The limit is Gaussian exactly when the spike
is simple.  `CLTConstants` holds each spike's law (from `clt_constants`),
and `sample_limit_batch` draws from it so Monte Carlo spectra can be
compared against it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import NumericalError, ParameterError, require_count, require_real
from .randomness import ensure_generator
from .wachter import (
    FisherParams,
    critical_interval,
    require_detached,
    spike_value,
    support_edges,
)

__all__ = [
    "SpikeSpec",
    "CLTConstants",
    "phi",
    "spike_limit",
    "phi_small_y_reduction",
    "clt_constants",
    "sample_limit_batch",
]

BASIS_ORTHO_TOL = 1e-12


@dataclass(frozen=True, eq=False)
class SpikeSpec:
    """Finite-rank spike configuration.

    Attributes:
        spikes: sequence of (value, multiplicity) pairs, stored as a
            tuple.  Multiplicities are integers >= 1.  Values must be
            finite, positive, different from 1, and listed in canonical order:
            all values above 1 first in strictly decreasing order, then
            all values below 1 in strictly decreasing order.  An empty
            tuple describes the unspiked null model.
        basis: optional M x M orthonormal matrix whose columns carry the
            spike eigenspaces (columns grouped per spike, in spike order).
            None means the identity basis.
    """

    spikes: tuple[tuple[float, int], ...] = ()
    basis: np.ndarray | None = None

    def __post_init__(self) -> None:
        if not isinstance(self.spikes, (list, tuple)):
            raise ParameterError(f"spikes must be a list of (value, multiplicity) pairs, got {self.spikes!r}")
        cleaned = []
        for entry in self.spikes:
            if not isinstance(entry, (list, tuple)) or len(entry) != 2:
                raise ParameterError(f"spike entry {entry!r} is not a (value, multiplicity) pair")
            value, mult = entry
            cleaned.append((spike_value(value), require_count(mult, "spike multiplicity", 1)))
        object.__setattr__(self, "spikes", tuple(cleaned))

        values = [v for v, _ in cleaned]
        above = [v for v in values if v > 1.0]
        below = [v for v in values if v < 1.0]
        if values != above + below:
            raise ParameterError(
                "spikes above 1 must all precede spikes below 1; got values "
                f"{values}"
            )
        for group in (above, below):
            if any(x <= z for x, z in zip(group, group[1:])):
                raise ParameterError(
                    f"spike values must be strictly decreasing within each group, got {values}"
                )

        if self.basis is not None:
            m = self.rank
            try:
                basis = np.array(self.basis, dtype=float)
            except (TypeError, ValueError):
                raise ParameterError("basis must be a numeric matrix with rows of equal length") from None
            if basis.shape != (m, m):
                raise ParameterError(
                    f"basis must be {m} x {m} to match total spike multiplicity, "
                    f"got shape {basis.shape}"
                )
            gram_err = np.max(np.abs(basis.T @ basis - np.eye(m)), initial=0.0)
            if not gram_err <= BASIS_ORTHO_TOL:
                raise ParameterError(
                    f"basis columns are not orthonormal (max Gram deviation {gram_err:.3e}, "
                    f"tolerance {BASIS_ORTHO_TOL})"
                )
            basis.setflags(write=False)
            object.__setattr__(self, "basis", basis)

    @property
    def values(self) -> tuple[float, ...]:
        return tuple(v for v, _ in self.spikes)

    @property
    def multiplicities(self) -> tuple[int, ...]:
        return tuple(m for _, m in self.spikes)

    @property
    def rank(self) -> int:
        """Total perturbation rank M = sum of multiplicities."""
        return sum(m for _, m in self.spikes)

    def basis_or_identity(self) -> np.ndarray:
        if self.basis is not None:
            return self.basis
        return np.eye(self.rank)

    def block_columns(self, index: int) -> np.ndarray:
        """M x n_i slice of the basis spanning spike `index` (0-based)."""
        start = sum(self.multiplicities[:index])
        stop = start + self.multiplicities[index]
        return self.basis_or_identity()[:, start:stop]

    def require_fits(self, p: int) -> None:
        """Reject a dimension p below the total spike rank."""
        if p < self.rank:
            raise ParameterError(f"total spike rank {self.rank} exceeds the dimension p={p}")

    def packet_indices(self, p: int) -> tuple[np.ndarray, ...]:
        """0-based positions of each spike's packet in the descending spectrum.

        Spikes above 1 push their packets to the top of the spectrum (the
        i-th such packet occupies ranks n_1 + ... + n_{i-1} + 1 onward);
        spikes below 1 pull theirs to the bottom, stacked from rank p
        upward in reverse spike order.
        """
        self.require_fits(p)
        mults = self.multiplicities
        k0 = sum(1 for v in self.values if v > 1.0)
        out = []
        offset = 0
        for n_i in mults[:k0]:
            out.append(np.arange(offset, offset + n_i))
            offset += n_i
        suffix = sum(mults[k0:])
        offset = p - suffix
        for n_i in mults[k0:]:
            out.append(np.arange(offset, offset + n_i))
            offset += n_i
        return tuple(out)


def phi(params: FisherParams, a: float) -> float:
    """Transition map phi(a) = a (a + c - 1) / (a - 1 - a y).

    Defined for any finite a away from the pole 1/(1 - y).  For spikes
    strictly outside the critical interval this is the outlier location.

    Raises:
        ParameterError: if a is not finite or sits at the pole.
    """
    a = require_real(a, "spike value")
    denom = a - 1.0 - a * params.y
    if denom == 0.0:
        raise ParameterError(
            f"spike value {a} sits at the pole 1/(1-y) of the transition map"
        )
    return a * (a + params.c - 1.0) / denom


def spike_limit(params: FisherParams, a: float) -> float:
    """Almost-sure limit of the sample eigenvalues attached to spike a.

    phi(a) when a is strictly outside the critical interval; the bulk edge
    (upper for a > 1, lower for a < 1) when a is inside or on its boundary.
    The map is continuous across the boundary: phi equals the edge there.

    Raises:
        ParameterError: if a <= 0 or a == 1.
    """
    a = spike_value(a)
    low, high = critical_interval(params)
    if a > high or a < low:
        return phi(params, a)
    edges = support_edges(params)
    return edges.upper if a > 1.0 else edges.lower


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


@dataclass(frozen=True)
class CLTConstants:
    """The sqrt(p) fluctuation law of one detached spike.

    Spike i's packet converges to the eigenvalues of -U_i^T R U_i / delta,
    with R a symmetric Gaussian M x M matrix: off-diagonal variance theta,
    diagonal variance 2 theta + (fourth_moment - 3) omega.

    Attributes:
        lam: outlier location phi(a).
        delta: derivative-type normalizer.
        theta: off-diagonal variance of R.
        omega: kurtosis coupling of the diagonal variance.
        fourth_moment: E[w^4] of the standardized matrix entries.
    """

    lam: float
    delta: float
    theta: float
    omega: float
    fourth_moment: float

    def _variance_form(self, quartic: float) -> float:
        """2 theta + (fourth_moment - 3) omega quartic: the variance of u^T R u."""
        return 2.0 * self.theta + (self.fourth_moment - 3.0) * self.omega * quartic

    @property
    def sigma_sq(self) -> float:
        """Limit variance of a simple spike carried by a coordinate vector."""
        return self._variance_form(1.0) / (self.delta * self.delta)

    def projection_variance(self, direction: np.ndarray) -> float:
        """Limit variance of a simple spike carried by the unit vector `direction`.

        The limit -u^T R u / delta is centered normal with variance
        (2 theta + (fourth_moment - 3) omega sum u_m^4) / delta^2: sigma_sq
        for a coordinate vector, a smaller kurtosis term for spread-out ones.

        Raises:
            ParameterError: if `direction` is not a finite unit vector.
        """
        u = np.asarray(direction, dtype=float)
        if u.ndim != 1 or u.size == 0 or not np.all(np.isfinite(u)):
            raise ParameterError(f"direction must be a finite 1-d vector, got shape {u.shape}")
        norm = float(np.linalg.norm(u))
        if abs(norm - 1.0) > 1e-8:
            raise ParameterError(f"direction must have unit norm, got {norm}")
        return self._variance_form(float(np.sum(u**4))) / (self.delta * self.delta)


def clt_constants(params: FisherParams, a: float, fourth_moment: float = 3.0) -> CLTConstants:
    """CLT constants of a strictly detached spike.

    With D = a^2 (y - 1) + 2a + c - 1 (negative off the critical interval):

        delta = (1 - a - c)(1 + a(y - 1))^2 / ((a - 1) D)
        theta = a^2 (a + c - 1)^2 (c y - c - y) / D
        omega = a^2 (a + c - 1)^2 (c + y) / (a - 1)^2

    `fourth_moment` is E[w^4] of the standardized matrix entries (3 for
    Gaussian, 1 for symmetric Bernoulli); it must be at least 1 by the
    Cauchy-Schwarz bound E[w^4] >= (E[w^2])^2.

    Raises:
        ParameterError: for a non-detached spike or fourth_moment < 1.
        NumericalError: for a spike so large that the constants overflow.
    """
    a = require_detached(params, a)
    if not (math.isfinite(fourth_moment) and fourth_moment >= 1.0):
        raise ParameterError(
            f"standardized fourth moment must be at least 1, got {fourth_moment}"
        )
    c, y = params.c, params.y
    try:
        dd = a * a * (y - 1.0) + 2.0 * a + c - 1.0
        consts = CLTConstants(
            lam=phi(params, a),
            delta=(1.0 - a - c) * (1.0 + a * (y - 1.0)) ** 2 / ((a - 1.0) * dd),
            theta=a * a * (a + c - 1.0) ** 2 * (c * y - c - y) / dd,
            omega=a * a * (a + c - 1.0) ** 2 * (c + y) / (a - 1.0) ** 2,
            fourth_moment=fourth_moment,
        )
        values = (consts.lam, consts.delta, consts.theta, consts.omega, consts.sigma_sq)
        if not all(map(math.isfinite, values)):
            raise OverflowError
    except OverflowError:
        raise NumericalError(
            f"spike value {a!r} is too large for the CLT constants: they overflow the float range"
        ) from None
    return consts


def sample_limit_batch(
    rng,
    params: FisherParams,
    spec: SpikeSpec,
    fourth_moment: float = 3.0,
    size: int = 1,
) -> list[np.ndarray]:
    """Batch of independent draws from the joint limiting fluctuation law.

    For spike i, one draw is the descending spectrum of -(U_i^T R_i U_i) /
    delta_i, where U_i is the spike's basis block and R_i a fresh M x M
    matrix of the spike's law (`CLTConstants`): its diagonal is drawn
    first, then its upper triangle row by row.  Blocks of different spikes
    are independent.

    Returns:
        One (size, n_i) array per spike, rows independent, columns sorted
        descending.
    """
    rng = ensure_generator(rng)
    size = require_count(size, "batch size", 1)
    m = spec.rank
    diag = np.arange(m)
    rows, cols = np.triu_indices(m, k=1)
    out = []
    for i, (value, mult) in enumerate(spec.spikes):
        consts = clt_constants(params, value, fourth_moment)
        rmats = np.zeros((size, m, m))
        rmats[:, diag, diag] = rng.normal(0.0, math.sqrt(consts._variance_form(1.0)), (size, m))
        if m > 1:
            upper = rng.normal(0.0, math.sqrt(consts.theta), (size, rows.size))
            rmats[:, rows, cols] = upper
            rmats[:, cols, rows] = upper
        u_i = spec.block_columns(i)
        projected = -np.einsum("mj,smn,nk->sjk", u_i, rmats, u_i, optimize=True) / consts.delta
        if mult == 1:
            vals = projected[:, 0, 0][:, None]
        else:
            vals = np.linalg.eigvalsh(projected)[:, ::-1]
        out.append(np.ascontiguousarray(vals))
    return out
