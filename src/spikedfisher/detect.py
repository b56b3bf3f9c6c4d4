"""Signal counting from two-sample Fisher spectra.

In the signal-plus-noise record model x_t = A s_t + e_t the number k of
signal channels equals the number of eigenvalues of A^T Sigma2^{-1} A = M^T M
whose value + 1 detaches from the Fisher bulk; M = Sigma2^{-1/2} A
(`SignalModel.whitened`) mixes the whitened records Sigma2^{-1/2} x_t, whose
Fisher spectrum is that of the raw records.  The paper's counter
takes the sample eigenvalues above the bulk edge plus a vanishing offset:

    count = #{ i : l_i >= b + d_n },     d_n = log(log p) / p^(2/3)

with b the upper bulk edge at the finite-sample ratios (p/T, p/n).  The
count is consistent whenever every effective spike is detectable, i.e.
strictly above the critical interval, but d_n is far below the scale of
the edge fluctuations at moderate p (0.049 against a Tracy-Widom scale
of 0.60 at p = 200), so on null data the count alone is positive in
about 15% of samples.

The default detector therefore puts a level-5% test of the global null in
front of the count:

    k_hat = count   if l_1 >= g,     k_hat = 0   otherwise,
    g = max(t_TW, b + d_n),

where t_TW is the 95% point of the largest Fisher root under the null,
from the Tracy-Widom approximation of the logit of the largest Jacobi
root (Johnstone 2008, Ann. Statist. 36:2638).  Only the first eigenvalue
is held to the calibrated level; the others are counted against b + d_n.  An
explicit shift replaces the whole rule by the count above b + shift.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import ParameterError, finite_array, require_real
from .sampling import ModelDims, _data_spectrum, _one_blas_thread
from .wachter import support_edges

__all__ = [
    "SignalModel",
    "DetectorConfig",
    "estimate_count",
    "records_spectrum",
    "detect",
    "standard_mixing",
    "block_noise_model",
    "equicorrelated_model",
    "null_model",
]

_SYM_RTOL = 1e-8
# 95% quantile of the Tracy-Widom law for real data (beta = 1).
_TW1_Q95 = 0.9793


@dataclass(frozen=True, eq=False)
class SignalModel:
    """Record model x = A s + e with iid unit-variance signals.

    Attributes:
        mixing: p x k mixing matrix A (k may be 0 for a pure-noise model).
        noise_cov: p x p positive definite noise covariance Sigma2.
        dims: finite-sample dimensions; dims.p must match the matrices.
        whitened: M = Sigma2^{-1/2} A (symmetric root), the mixing of the
            whitened records; computed, not settable.
    """

    mixing: np.ndarray
    noise_cov: np.ndarray
    dims: ModelDims
    whitened: np.ndarray = field(init=False, repr=False)

    def __post_init__(self) -> None:
        mixing = finite_array(self.mixing, "mixing matrix").copy()
        noise = finite_array(self.noise_cov, "noise covariance").copy()
        p, k = mixing.shape
        if p != self.dims.p:
            raise ParameterError(f"mixing matrix has {p} rows but dims.p={self.dims.p}")
        if noise.shape != (p, p):
            raise ParameterError(
                f"noise covariance must be a square matrix with the mixing matrix's {p} rows, "
                f"got shape {noise.shape}"
            )
        if k > p:
            raise ParameterError(f"more signal channels ({k}) than records ({p})")
        scale = max(1.0, float(np.max(np.abs(noise))))
        if np.max(np.abs(noise - noise.T)) > _SYM_RTOL * scale:
            raise ParameterError("noise covariance must be symmetric")
        # One eigh validates Sigma2 and whitens A, on one BLAS thread: the count moves its bits.
        with _one_blas_thread():
            vals, vecs = np.linalg.eigh(noise)
            if vals[0] <= 0.0:
                raise ParameterError(
                    f"noise covariance must be positive definite; smallest eigenvalue {vals[0]:.3e}"
                )
            whitened = (vecs / np.sqrt(vals)) @ (vecs.T @ mixing)
        for name, mat in (("mixing", mixing), ("noise_cov", noise), ("whitened", whitened)):
            mat.setflags(write=False)
            object.__setattr__(self, name, mat)

    @property
    def num_signals(self) -> int:
        return self.mixing.shape[1]


@dataclass(frozen=True)
class DetectorConfig:
    """Threshold rule of the signal counter.

    By default eigenvalues are counted at or above b + d_n with the
    vanishing offset d_n = log(log p) / p^(2/3) (natural logarithms; needs
    p >= 3 to be positive), and the count is reported only when the top
    eigenvalue clears the gate max(t_TW, b + d_n), the Tracy-Widom 95%
    point of the null's largest root; otherwise the count is 0.  This
    holds the false-alarm rate on null data near 5% at fixed p.

    Attributes:
        shift: fixed amount added to the bulk edge, or None for the default
            gated rule.  An explicit shift counts every eigenvalue at or
            above b + shift and applies no gate (the gate equals the
            threshold), so shift = log(log p)/p^(2/3) gives the paper's
            ungated rule.
    """

    shift: float | None = None

    def __post_init__(self) -> None:
        if self.shift is not None:
            shift = require_real(self.shift, "threshold shift")
            if shift <= 0.0:
                raise ParameterError(f"threshold shift must be positive, got {shift}")
            object.__setattr__(self, "shift", shift)

    def offset(self, p: int) -> float:
        """Resolved threshold shift at dimension p."""
        if self.shift is not None:
            return self.shift
        if p < 3:
            raise ParameterError(
                f"default threshold rule log(log p)/p^(2/3) needs p >= 3, got p={p}"
            )
        return math.log(math.log(p)) / p ** (2.0 / 3.0)

    def levels(self, dims: ModelDims) -> tuple[float, float]:
        """Counting threshold b + offset and the gate on the top eigenvalue.

        b is the upper bulk edge at the finite-sample ratios (p/T, p/n).

        Returns:
            (threshold, gate) with gate >= threshold.
        """
        threshold = support_edges(dims.fisher_params()).upper + self.offset(dims.p)
        if self.shift is not None:
            return threshold, threshold
        return threshold, max(_tracy_widom_q95(dims.p, dims.n, dims.T), threshold)


def _tracy_widom_q95(p: int, n: int, t_len: int) -> float:
    """95% point of the largest eigenvalue of S2^{-1} S1 under the null.

    Johnstone's (2008) centring and scale for the logit of the largest
    root of (A + B)^{-1} A, A ~ W_p(I, T) and B ~ W_p(I, n), mapped back
    through l = (n/T) exp(logit).
    """
    big_n = n + t_len - 1.0
    gamma = 2.0 * math.asin(math.sqrt((min(p, t_len) - 0.5) / big_n))
    phi = 2.0 * math.asin(math.sqrt((max(p, t_len) - 0.5) / big_n))
    mu = 2.0 * math.log(math.tan((phi + gamma) / 2.0))
    sigma = (
        16.0 / (big_n**2 * math.sin(phi + gamma) ** 2 * math.sin(phi) * math.sin(gamma))
    ) ** (1.0 / 3.0)
    return n / t_len * math.exp(mu + _TW1_Q95 * sigma)


def estimate_count(
    eigenvalues: np.ndarray,
    dims: ModelDims,
    config: DetectorConfig = DetectorConfig(),
) -> int:
    """Signal count: eigenvalues at or above the shifted bulk edge.

    The count is 0 unless the top eigenvalue clears the gate of
    `DetectorConfig.levels`.

    Args:
        eigenvalues: the whole spectrum, dims.p values sorted in descending
            order (the natural output order of the samplers).
        dims: the (p, n, T) the spectrum came from.

    Raises:
        ParameterError: unless the input is a 1-d array of dims.p finite
            values sorted descending.
    """
    vals = finite_array(eigenvalues, "eigenvalues", ndim=1)
    if vals.size != dims.p:
        raise ParameterError(f"need all dims.p={dims.p} eigenvalues, got {vals.size}")
    if np.any(np.diff(vals) > 0.0):
        raise ParameterError("eigenvalues must be sorted in descending order")
    threshold, gate = config.levels(dims)
    if vals[0] < gate:
        return 0
    return int(np.count_nonzero(vals >= threshold))


def records_spectrum(
    signal_records: np.ndarray,
    noise_records: np.ndarray,
    center: bool = False,
) -> tuple[np.ndarray, ModelDims]:
    """Fisher spectrum of raw records plus their dimensions.

    The p x T signal-bearing and p x n noise-only records take the data path
    of a simulated replicate (`sampling._data_spectrum`): S1 and S2 are their
    Grams, and the last p - min(p, T) eigenvalues, past S1's rank, are zeros.

    Args:
        center: subtract each row's sample mean first; records are assumed
            centered by default.  Centering spends one degree of freedom of
            each record set, so the Grams are divided by T - 1 and n - 1 and
            the returned dims are (p, n - 1, T - 1), at which the null law of
            Gaussian records is that of the uncentered spectrum (this needs
            p < n - 1 and T >= 2).

    Returns:
        Descending eigenvalues and the ModelDims they are scored at:
        (p, n, T) read from the shapes, or (p, n - 1, T - 1) with `center`.

    Raises:
        ParameterError: unless both records are finite real matrices with
            one row count p and p < n (p < n - 1 and T >= 2 with `center`).
        NumericalError: if a Gram overflows, or S2 is singular to rounding, e.g. with a
            copied record row.
    """
    x = finite_array(signal_records, "signal records")
    z = finite_array(noise_records, "noise records")
    if x.shape[0] != z.shape[0]:
        raise ParameterError(
            f"signal and noise records disagree on the dimension: "
            f"{x.shape[0]} vs {z.shape[0]} rows"
        )
    dims = ModelDims(p=x.shape[0], n=z.shape[1], T=x.shape[1])  # checks p < n
    if center:
        x = x - x.mean(axis=1, keepdims=True)
        z = z - z.mean(axis=1, keepdims=True)
        try:
            dims = ModelDims(p=dims.p, n=dims.n - 1, T=dims.T - 1)
        except ParameterError as exc:
            raise ParameterError(
                f"centered records have n - 1 and T - 1 degrees of freedom: {exc}"
            ) from None
    return _data_spectrum(x, z, dims), dims


def detect(
    signal_records: np.ndarray,
    noise_records: np.ndarray,
    config: DetectorConfig = DetectorConfig(),
    center: bool = False,
) -> int:
    """Estimate the signal count from raw records.

    Applies `estimate_count` to the Fisher spectrum of the records at
    their dimensions; see `records_spectrum`.
    """
    return estimate_count(*records_spectrum(signal_records, noise_records, center), config)


def standard_mixing(p: int) -> np.ndarray:
    """Three-column benchmark mixing matrix used by the simulation studies.

    Column 1 is sqrt(10) e_1; columns 2 and 3 are sqrt(5) times unit
    vectors supported on coordinates 2 and 3, (1,1)/sqrt(2) and
    (1,-1)/sqrt(2).  Under identity noise the effective spikes are
    (10, 5, 5).

    Raises:
        ParameterError: if p < 3.
    """
    if p < 3:
        raise ParameterError(f"benchmark mixing matrix needs p >= 3, got p={p}")
    mixing = np.zeros((p, 3))
    mixing[0, 0] = math.sqrt(10.0)
    mixing[1, 1] = math.sqrt(5.0) / math.sqrt(2.0)
    mixing[2, 1] = math.sqrt(5.0) / math.sqrt(2.0)
    mixing[1, 2] = math.sqrt(5.0) / math.sqrt(2.0)
    mixing[2, 2] = -math.sqrt(5.0) / math.sqrt(2.0)
    return mixing


def block_noise_model(dims: ModelDims) -> SignalModel:
    """Benchmark model with two-block heteroscedastic noise.

    Noise covariance diag(1, ..., 1, 2, ..., 2) with p/2 entries each
    (p must be even); mixing matrix `standard_mixing`.  Effective spikes
    stay (10, 5, 5) because the mixing columns live in the unit-variance
    block.
    """
    if dims.p % 2 != 0:
        raise ParameterError(f"two-block noise needs an even dimension, got p={dims.p}")
    variances = np.ones(dims.p)
    variances[dims.p // 2 :] = 2.0
    return SignalModel(
        mixing=standard_mixing(dims.p), noise_cov=np.diag(variances), dims=dims
    )


def equicorrelated_model(dims: ModelDims, rho: float = 0.1) -> SignalModel:
    """Benchmark model with equicorrelated noise.

    Noise covariance (1 - rho) I + rho 11^T, positive definite for
    rho in (-1/(p-1), 1); mixing matrix `standard_mixing`.
    """
    rho = require_real(rho, "equicorrelation rho")
    if not (rho * (dims.p - 1) > -1.0 and rho < 1.0):
        raise ParameterError(
            f"equicorrelation must lie in (-1/(p-1), 1) for p={dims.p}, got {rho}"
        )
    noise = np.full((dims.p, dims.p), rho)
    np.fill_diagonal(noise, 1.0)
    return SignalModel(mixing=standard_mixing(dims.p), noise_cov=noise, dims=dims)


def null_model(dims: ModelDims) -> SignalModel:
    """Pure-noise model: no signal channels, identity noise covariance."""
    return SignalModel(
        mixing=np.zeros((dims.p, 0)), noise_cov=np.eye(dims.p), dims=dims
    )
