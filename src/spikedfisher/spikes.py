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
scaled by sqrt(p) around phi(a_i), converges jointly to the spectrum of a
GOE-type M x M random matrix projected onto the spike's eigenspace.  This
module evaluates the map, the CLT constants, and samples that limiting law
directly so Monte Carlo spectra can be compared against it.
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
    "projection_variance",
    "draw_fluctuation_matrix",
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
    """Constants of the sqrt(p) fluctuation law of one detached spike.

    Attributes:
        lam: outlier location phi(a).
        delta: derivative-type normalizer; fluctuations are eigenvalues of
            the fluctuation matrix scaled by -1/delta.
        theta: off-diagonal variance of the fluctuation matrix.
        omega: kurtosis coupling; the diagonal variance is
            2 theta + (fourth_moment - 3) omega.
        sigma_sq: scalar variance (2 theta + (fourth_moment - 3) omega)
            / delta^2 of a simple spike with a coordinate eigenvector.
    """

    lam: float
    delta: float
    theta: float
    omega: float
    sigma_sq: float


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
        lam = phi(params, a)
        delta = (1.0 - a - c) * (1.0 + a * (y - 1.0)) ** 2 / ((a - 1.0) * dd)
        theta = a * a * (a + c - 1.0) ** 2 * (c * y - c - y) / dd
        omega = a * a * (a + c - 1.0) ** 2 * (c + y) / (a - 1.0) ** 2
        sigma_sq = (2.0 * theta + (fourth_moment - 3.0) * omega) / (delta * delta)
        if not all(map(math.isfinite, (lam, delta, theta, omega, sigma_sq))):
            raise OverflowError
    except OverflowError:
        raise NumericalError(
            f"spike value {a!r} is too large for the CLT constants: they overflow the float range"
        ) from None
    return CLTConstants(lam=lam, delta=delta, theta=theta, omega=omega, sigma_sq=sigma_sq)


def projection_variance(
    params: FisherParams,
    a: float,
    direction: np.ndarray,
    fourth_moment: float = 3.0,
) -> float:
    """Limit variance of a simple spike carried by the unit vector `direction`.

    The scalar limit -u^T R u / delta of a rank-one spike is centered
    normal with variance (2 theta + (fourth_moment - 3) omega sum u_m^4)
    / delta^2.  For a coordinate vector the quartic sum is 1 and this
    reduces to sigma_sq; for spread-out vectors the kurtosis correction
    shrinks.

    Raises:
        ParameterError: if `direction` is not a finite unit vector.
    """
    u = np.asarray(direction, dtype=float)
    if u.ndim != 1 or u.size == 0 or not np.all(np.isfinite(u)):
        raise ParameterError(f"direction must be a finite 1-d vector, got shape {u.shape}")
    norm = float(np.linalg.norm(u))
    if abs(norm - 1.0) > 1e-8:
        raise ParameterError(f"direction must have unit norm, got {norm}")
    consts = clt_constants(params, a, fourth_moment)
    quartic = float(np.sum(u**4))
    var_form = 2.0 * consts.theta + (fourth_moment - 3.0) * consts.omega * quartic
    return var_form / (consts.delta * consts.delta)


def draw_fluctuation_matrix(
    rng,
    params: FisherParams,
    a: float,
    dim: int,
    fourth_moment: float = 3.0,
    size: int | None = None,
):
    """Symmetric Gaussian fluctuation matrices of spike a.

    Entries are independent up to symmetry: diagonal variance
    2 theta + (fourth_moment - 3) omega, off-diagonal variance theta.
    Diagonal entries are drawn first, then the upper triangle row by row.

    Args:
        rng: Generator or seed accepted by `ensure_generator`.
        dim: matrix dimension (the total spike rank M).
        size: None for a single (dim, dim) matrix, else a batch count
            giving shape (size, dim, dim).
    """
    rng = ensure_generator(rng)
    require_count(dim, "matrix dimension", 1)
    consts = clt_constants(params, a, fourth_moment)
    diag_var = 2.0 * consts.theta + (fourth_moment - 3.0) * consts.omega
    batch = 1 if size is None else require_count(size, "batch size", 1)
    out = np.zeros((batch, dim, dim))
    idx = np.arange(dim)
    out[:, idx, idx] = rng.normal(0.0, math.sqrt(diag_var), (batch, dim))
    if dim > 1:
        rows, cols = np.triu_indices(dim, k=1)
        upper = rng.normal(0.0, math.sqrt(consts.theta), (batch, rows.size))
        out[:, rows, cols] = upper
        out[:, cols, rows] = upper
    return out[0] if size is None else out


def sample_limit_batch(
    rng,
    params: FisherParams,
    spec: SpikeSpec,
    fourth_moment: float = 3.0,
    size: int = 1,
) -> list[np.ndarray]:
    """Batch of independent draws from the joint limiting fluctuation law.

    For spike i with constants (lam_i, delta_i, theta_i, omega_i), one draw
    is the descending spectrum of -(U_i^T R_i U_i) / delta_i where R_i is a
    fresh M x M fluctuation matrix and U_i the spike's basis block; blocks
    of different spikes are independent.

    Returns:
        One (size, n_i) array per spike, rows independent, columns sorted
        descending.
    """
    rng = ensure_generator(rng)
    m = spec.rank
    out = []
    for i, (value, mult) in enumerate(spec.spikes):
        consts = clt_constants(params, value, fourth_moment)
        rmats = draw_fluctuation_matrix(rng, params, value, m, fourth_moment, size)
        u_i = spec.block_columns(i)
        projected = -np.einsum("mj,smn,nk->sjk", u_i, rmats, u_i, optimize=True) / consts.delta
        if mult == 1:
            vals = projected[:, 0, 0][:, None]
        else:
            vals = np.linalg.eigvalsh(projected)[:, ::-1]
        out.append(np.ascontiguousarray(vals))
    return out
