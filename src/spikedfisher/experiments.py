"""Monte Carlo studies over replicated Fisher spectra.

Two studies, each run from its own typed config: `run_clt_study(CltConfig)`
pairs empirical sqrt(p)-scaled outlier packets with draws from the limiting
fluctuation law, `run_detection_study(DetectionConfig)` tabulates the signal
counter along a dimension ladder.  Both end in the sampling core: a CLT
replicate is `sampling.sample_spectrum`, a detection replicate solves its
whitened records with `sampling._gram_pencil` (`_detection_spectrum`).
Replicates are embarrassingly parallel;
each one derives its own counter-based stream from (master_seed, stream
tag, replicate index), so results are bit-identical for any thread count
and any scheduling order.  While the replicates run, BLAS runs on one
thread (`sampling._one_blas_thread`): worker threads, at most one per
core, are the only parallelism, and the bits do not depend on the
machine's BLAS thread setting.
"""

from __future__ import annotations

import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import Callable, ClassVar

import numpy as np
from scipy import stats as scipy_stats

from .detect import DetectorConfig, SignalModel, _whitened_mixing, estimate_count
from .errors import ParameterError, require_count
from .randomness import require_seed, stream_generator
from .sampling import (
    EntryDistribution,
    ModelDims,
    _gram_pencil,
    _one_blas_thread,
    sample_spectrum,
    spectrum_packets,
)
from .spikes import CLTConstants, SpikeSpec, clt_constants, sample_limit_batch

__all__ = [
    "CltConfig",
    "DetectionConfig",
    "CltStudyResult",
    "FrequencyTable",
    "SummaryStats",
    "run_clt_study",
    "run_detection_study",
    "silverman_bandwidth",
    "kde_1d",
    "kde_2d",
    "summarize",
]

# Stream tags keep the three consumers of the master seed independent.
_SPECTRUM_STREAM = 1
_LIMIT_STREAM = 2
_DETECT_STREAM = 3

COUNT_BIN_LABELS = ("0", "1", "2", "3", "4", "5+")


def _check_study(config) -> None:
    """The rules both study configs share: entry law, replicates, seed."""
    if not isinstance(config.dist, EntryDistribution):
        raise ParameterError(f"dist must be an EntryDistribution, got {config.dist!r}")
    replicates = require_count(config.replicates, "replicates", config.MIN_REPLICATES)
    object.__setattr__(config, "replicates", replicates)
    object.__setattr__(config, "master_seed", require_seed(config.master_seed))


@dataclass(frozen=True, eq=False)
class CltConfig:
    """A fluctuation study at one (p, n, T).

    Attributes:
        dims: a ModelDims, or anything `ModelDims.coerce` accepts.
        spec: the spikes; at least one, total rank at most p.  Detachment
            is checked when the study starts.
        dist: entry distribution of the data matrices.
        replicates: Monte Carlo replicates, at least 2 (summaries and
            density estimates need spread).
        master_seed: root of all replicate streams (nonnegative, 64-bit).
    """

    MIN_REPLICATES: ClassVar[int] = 2

    dims: ModelDims
    spec: SpikeSpec
    dist: EntryDistribution
    replicates: int
    master_seed: int

    def __post_init__(self) -> None:
        object.__setattr__(self, "dims", ModelDims.coerce(self.dims))
        if not isinstance(self.spec, SpikeSpec) or not self.spec.spikes:
            raise ParameterError("a CLT study needs a SpikeSpec with at least one spike")
        self.spec.require_fits(self.dims.p)
        _check_study(self)


@dataclass(frozen=True, eq=False)
class DetectionConfig:
    """A detection study along a dimension ladder.

    Attributes:
        ladder: at least one rung, each as `CltConfig.dims`.
        model: builder mapping each rung's ModelDims to its SignalModel.
        dist: entry distribution of signals and noise.
        replicates: Monte Carlo replicates per rung, at least 1.
        master_seed: root of all replicate streams (nonnegative, 64-bit).
        detector: threshold rule of the signal counter.
    """

    MIN_REPLICATES: ClassVar[int] = 1

    ladder: tuple[ModelDims, ...]
    model: Callable[[ModelDims], SignalModel]
    dist: EntryDistribution
    replicates: int
    master_seed: int
    detector: DetectorConfig = field(default_factory=DetectorConfig)

    def __post_init__(self) -> None:
        if not isinstance(self.ladder, (list, tuple)) or not self.ladder:
            raise ParameterError("dimension ladder must contain at least one (p, n, T)")
        object.__setattr__(self, "ladder", tuple(ModelDims.coerce(d) for d in self.ladder))
        if not callable(self.model):
            raise ParameterError(f"model must be a builder of SignalModels, got {self.model!r}")
        if not isinstance(self.detector, DetectorConfig):
            raise ParameterError(f"detector must be a DetectorConfig, got {self.detector!r}")
        _check_study(self)


@dataclass(frozen=True, eq=False)
class CltStudyResult:
    """Outcome of a fluctuation study at one (p, n, T).

    `constants[i]` is spike i's limit law; `empirical[i]` stacks
    sqrt(p)(l - lam_i) over replicates (shape (replicates, n_i), rows in
    replicate order, columns descending within the packet) and `limit[i]`
    holds as many independent draws of that law.
    """

    dims: ModelDims
    spec: SpikeSpec
    dist: EntryDistribution
    constants: tuple[CLTConstants, ...]
    empirical: tuple[np.ndarray, ...]
    limit: tuple[np.ndarray, ...]


@dataclass(frozen=True, eq=False)
class FrequencyTable:
    """Relative frequencies of the estimated count, one column per rung."""

    row_labels: tuple[str, ...]
    column_labels: tuple[str, ...]
    frequencies: np.ndarray

    def __post_init__(self) -> None:
        freq = np.asarray(self.frequencies, dtype=float)
        if freq.shape != (len(self.row_labels), len(self.column_labels)):
            raise ParameterError(
                f"frequency table shape {freq.shape} does not match "
                f"{len(self.row_labels)} rows x {len(self.column_labels)} columns"
            )
        if np.any(freq < 0.0):
            raise ParameterError("frequencies must be nonnegative")
        sums = freq.sum(axis=0)
        if np.max(np.abs(sums - 1.0)) > 1e-12:
            raise ParameterError(f"each column must sum to 1, got sums {sums}")
        freq = freq.copy()
        freq.setflags(write=False)
        object.__setattr__(self, "frequencies", freq)

    def column(self, label: str) -> np.ndarray:
        try:
            j = self.column_labels.index(label)
        except ValueError:
            raise ParameterError(
                f"no column {label!r}; have {self.column_labels}"
            ) from None
        return self.frequencies[:, j]


def _map_indexed(worker, count: int, threads: int) -> list:
    """Run worker(0..count-1), results in index order regardless of threads.

    BLAS runs on one thread meanwhile, and at most one worker starts per
    core: a larger `threads` is accepted and capped.
    """
    require_count(threads, "thread count", 1)
    workers = min(threads, count, os.cpu_count() or 1)
    with _one_blas_thread():
        if workers <= 1:
            return [worker(i) for i in range(count)]
        with ThreadPoolExecutor(max_workers=workers) as pool:
            return list(pool.map(worker, range(count)))


def run_clt_study(config: CltConfig, threads: int = 1) -> CltStudyResult:
    """Monte Carlo fluctuation study with paired limit-law draws.

    Replicate r simulates one spectrum from the stream (master_seed,
    spectrum tag, r) and extracts sqrt(p)(l - phi(a_i)) per spike packet;
    an equally sized batch of limit-law draws comes from its own stream,
    so empirical and limit samples are independent.

    Raises:
        ParameterError: unless every spike is detached at the config's
            finite-sample ratios.
    """
    dims, spec = config.dims, config.spec
    params = dims.fisher_params()
    v4 = config.dist.fourth_moment
    # Validates detachment of every spike before any sampling starts.
    consts = tuple(clt_constants(params, v, v4) for v in spec.values)
    scale = math.sqrt(dims.p)

    def one(rep: int) -> tuple[np.ndarray, ...]:
        rng = stream_generator(config.master_seed, _SPECTRUM_STREAM, rep)
        sample = sample_spectrum(rng, dims, spec, config.dist)
        packets = spectrum_packets(sample, spec)
        return tuple(scale * (packet - c.lam) for packet, c in zip(packets, consts))

    per_replicate = _map_indexed(one, config.replicates, threads)
    empirical = tuple(np.vstack(column) for column in zip(*per_replicate))
    limit_rng = stream_generator(config.master_seed, _LIMIT_STREAM)
    limit = tuple(
        sample_limit_batch(limit_rng, params, spec, v4, size=config.replicates)
    )
    return CltStudyResult(
        dims=dims,
        spec=spec,
        dist=config.dist,
        constants=consts,
        empirical=empirical,
        limit=limit,
    )


def _detection_spectrum(rng, mixing: np.ndarray, dims: ModelDims, dist: EntryDistribution) -> np.ndarray:
    """Spectrum of the records A s + Sigma2^{1/2} e and Sigma2^{1/2} z from the stream s, e, z.

    Congruence by Sigma2^{-1/2} keeps the pencil's eigenvalues for every sample and
    entry law, and turns the records into M s + e and z (M: `detect._whitened_mixing`).
    """
    s = dist.draw(rng, (mixing.shape[1], dims.T))
    x = mixing @ s + dist.draw(rng, (dims.p, dims.T))
    return _gram_pencil(x, dist.draw(rng, (dims.p, dims.n)))


def run_detection_study(config: DetectionConfig, threads: int = 1) -> FrequencyTable:
    """Frequency table of the estimated signal count along the ladder.

    The config's builder makes one SignalModel per rung, whitened once
    (`detect._whitened_mixing`).  Each replicate draws its records from its
    own stream (`_detection_spectrum`), counts signals at the rung's
    finite-sample ratios, and lands in one of the count bins 0..4 or "5+".

    Raises:
        ParameterError: if the builder rejects a rung, or returns anything
            but a SignalModel of that rung's dimensions.
    """
    models = [config.model(dims) for dims in config.ladder]
    for dims, model in zip(config.ladder, models):
        if not isinstance(model, SignalModel):
            raise ParameterError(f"model builder returned {type(model).__name__}, not a SignalModel")
        if model.dims != dims:
            raise ParameterError(f"model builder returned dims {model.dims} for rung {dims}")

    freq = np.zeros((len(COUNT_BIN_LABELS), len(models)))
    for entry, model in enumerate(models):
        mixing, params = _whitened_mixing(model), model.dims.fisher_params()

        # Runs to completion inside this iteration, so it may read the loop variables.
        def one(rep: int) -> int:
            rng = stream_generator(config.master_seed, _DETECT_STREAM, entry, rep)
            vals = _detection_spectrum(rng, mixing, model.dims, config.dist)
            return estimate_count(vals, params, config.detector)

        for k_hat in _map_indexed(one, config.replicates, threads):
            freq[min(k_hat, len(COUNT_BIN_LABELS) - 1), entry] += 1
    freq /= config.replicates

    if len({d.p for d in config.ladder}) == len(config.ladder):
        labels = tuple(f"p={d.p}" for d in config.ladder)
    else:
        labels = tuple(f"p={d.p},n={d.n},T={d.T}" for d in config.ladder)
    return FrequencyTable(row_labels=COUNT_BIN_LABELS, column_labels=labels, frequencies=freq)


def _sample(values) -> np.ndarray:
    """A 1-d array of at least 2 finite values: what a spread estimate needs."""
    arr = np.asarray(values, dtype=float)
    if arr.ndim != 1 or arr.size < 2:
        raise ParameterError(f"need a 1-d sample of size >= 2, got shape {arr.shape}")
    if not np.all(np.isfinite(arr)):
        raise ParameterError("sample contains non-finite values")
    return arr


def silverman_bandwidth(samples: np.ndarray) -> float:
    """Normal-reference bandwidth 1.06 sd m^(-1/5) with the unbiased sd.

    Raises:
        ParameterError: with fewer than 2 samples or zero spread (the
            bandwidth would degenerate to 0).
    """
    arr = _sample(samples)
    sd = float(arr.std(ddof=1))
    if sd == 0.0:
        raise ParameterError("all samples are equal; bandwidth would be zero")
    return 1.06 * sd * arr.size ** (-0.2)


def kde_1d(samples: np.ndarray, grid: np.ndarray) -> np.ndarray:
    """Gaussian kernel density estimate on a grid, Silverman bandwidth."""
    arr = np.asarray(samples, dtype=float)
    h = silverman_bandwidth(arr)
    pts = np.asarray(grid, dtype=float)
    z = (pts[:, None] - arr[None, :]) / h
    return np.exp(-0.5 * z * z).sum(axis=1) / (arr.size * h * math.sqrt(2.0 * math.pi))


def kde_2d(
    samples: np.ndarray, grid_x: np.ndarray, grid_y: np.ndarray
) -> np.ndarray:
    """Product-kernel density estimate of paired samples on a lattice.

    Gaussian kernels with an independent Silverman bandwidth per axis.

    Args:
        samples: (m, 2) array of paired observations, m >= 2.

    Returns:
        Surface of shape (len(grid_x), len(grid_y)); entry (i, j) is the
        density at (grid_x[i], grid_y[j]).
    """
    arr = np.asarray(samples, dtype=float)
    if arr.ndim != 2 or arr.shape[1] != 2 or arr.shape[0] < 2:
        raise ParameterError(
            f"2-d KDE needs an (m, 2) sample with m >= 2, got shape {arr.shape}"
        )
    h_x = silverman_bandwidth(arr[:, 0])
    h_y = silverman_bandwidth(arr[:, 1])
    zx = (np.asarray(grid_x, dtype=float)[:, None] - arr[None, :, 0]) / h_x
    zy = (np.asarray(grid_y, dtype=float)[:, None] - arr[None, :, 1]) / h_y
    kern_x = np.exp(-0.5 * zx * zx)
    kern_y = np.exp(-0.5 * zy * zy)
    return kern_x @ kern_y.T / (arr.shape[0] * h_x * h_y * 2.0 * math.pi)


@dataclass(frozen=True)
class SummaryStats:
    """Location, spread, and a goodness-of-fit distance for one sample."""

    mean: float
    variance: float
    ks_distance: float


def summarize(
    values: np.ndarray,
    ref_mean: float | None = None,
    ref_var: float | None = None,
) -> SummaryStats:
    """Sample mean, unbiased variance, and KS distance to a reference normal.

    The reference defaults to the normal matched to the sample's own mean
    and variance, which makes `ks_distance` the standardized-sample KS
    statistic.

    Raises:
        ParameterError: with fewer than 2 values, non-finite values, or a
            nonpositive reference variance.
    """
    arr = _sample(values)
    mean = float(arr.mean())
    variance = float(arr.var(ddof=1))
    if ref_mean is None:
        ref_mean = mean
    if ref_var is None:
        ref_var = variance
    if not (math.isfinite(ref_var) and ref_var > 0.0):
        raise ParameterError(f"reference variance must be positive, got {ref_var}")
    cdf = scipy_stats.norm(loc=ref_mean, scale=math.sqrt(ref_var)).cdf
    ks = float(scipy_stats.kstest(arr, cdf).statistic)
    return SummaryStats(mean=mean, variance=variance, ks_distance=ks)
