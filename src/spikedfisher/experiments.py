"""Monte Carlo studies over replicated Fisher spectra.

Two studies, each run from its own typed config: `run_clt_study(CltConfig)`
pairs empirical sqrt(p)-scaled outlier packets with draws from the limiting
fluctuation law, `run_detection_study(DetectionConfig)` tabulates the signal
counter along a ladder of record models.  Both end in the sampling core: a CLT
replicate is `sampling.sample_spectrum`; a detection replicate draws its
whitened records (`_detection_records`) and counts its signals from two
factorizations of the pencil, by inertia (`sampling._gram_count`), since
the count needs no eigenvalue.  Replicates are embarrassingly parallel;
each one derives its own counter-based stream from (master_seed, stream
tag, replicate index), so results are bit-identical for any thread count
and any scheduling order.  While a study runs, BLAS runs on one
thread (`sampling._one_blas_thread`): worker threads, at most one per
core, are the only parallelism, and the bits do not depend on the
machine's BLAS thread setting.
"""

from __future__ import annotations

import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import ClassVar

import numpy as np

from .detect import DetectorConfig, SignalModel
from .errors import ParameterError, finite_array, require_buffer, require_count, require_real
from .randomness import require_seed, stream_generator
from .sampling import (
    EntryDistribution,
    ModelDims,
    _gram_count,
    _one_blas_thread,
    sample_spectrum,
    spectrum_packets,
)
from .spikes import CLTConstants, SpikeSpec, clt_constants, sample_limit_batch
from .wachter import support_edges

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

# The solvers resolve an eigenvalue to about eps times the largest one; a study
# whose floor exceeds this fraction of a packet's limit SD is rejected
# (docs/decisions.md, "The rounding floor").
_ROUNDING_FLOOR_FRACTION = 0.5


def require_replicates(value, minimum: int) -> int:
    """A replicate count of at least `minimum` that passes the size rule.

    A study keeps one result per replicate, so a count beyond the rule is
    rejected before anything is allocated.
    """
    replicates = require_count(value, "replicates", minimum)
    require_buffer((replicates,), "replicates")
    return replicates


def _check_study(config) -> None:
    """The rules both study configs share: entry law, replicates, seed."""
    if not isinstance(config.dist, EntryDistribution):
        raise ParameterError(f"dist must be an EntryDistribution, got {config.dist!r}")
    replicates = require_replicates(config.replicates, config.MIN_REPLICATES)
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
        # One row per replicate: each spike member's statistic and limit draw.
        require_buffer((self.replicates, 2 * self.spec.rank), "the replicates table")


@dataclass(frozen=True, eq=False)
class DetectionConfig:
    """A detection study along a ladder of record models.

    Attributes:
        models: at least one SignalModel, one per rung; each rung runs at
            its model's dims.
        dist: entry distribution of signals and noise.
        replicates: Monte Carlo replicates per rung, at least 1.
        master_seed: root of all replicate streams (nonnegative, 64-bit).
        detector: threshold rule of the signal counter.
    """

    MIN_REPLICATES: ClassVar[int] = 1

    models: tuple[SignalModel, ...]
    dist: EntryDistribution
    replicates: int
    master_seed: int
    detector: DetectorConfig = field(default_factory=DetectorConfig)

    def __post_init__(self) -> None:
        models = self.models
        if not isinstance(models, (list, tuple)) or not models or not all(
            isinstance(m, SignalModel) for m in models
        ):
            raise ParameterError("models must be a nonempty sequence of SignalModels, one per rung")
        object.__setattr__(self, "models", tuple(models))
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

    At most one worker starts per core: a larger `threads` is accepted and
    capped.
    """
    require_count(threads, "thread count", 1)
    workers = min(threads, count, os.cpu_count() or 1)
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
        ParameterError: if a spike is not detached at the finite-sample
            ratios, or a packet's limit SD sqrt(sigma_sq / p) is below the
            solvers' rounding floor (`_ROUNDING_FLOOR_FRACTION`).
    """
    dims, spec = config.dims, config.spec
    params = dims.fisher_params()
    v4 = config.dist.fourth_moment
    # Validates detachment of every spike before any sampling starts.
    consts = tuple(clt_constants(params, v, v4) for v in spec.values)
    top = max(support_edges(params).upper, *(c.lam for c in consts))
    floor = np.finfo(float).eps * top
    spread = min(math.sqrt(c.sigma_sq / dims.p) for c in consts)
    if floor > _ROUNDING_FLOOR_FRACTION * spread:
        raise ParameterError(
            f"the solvers' rounding floor {floor:.3e} (eps times the top eigenvalue's limit "
            f"{top:.3e}) exceeds {_ROUNDING_FLOOR_FRACTION} of the smallest packet's limit SD "
            f"{spread:.3e}: that packet would be rounding noise"
        )
    scale = math.sqrt(dims.p)

    def one(rep: int) -> tuple[np.ndarray, ...]:
        rng = stream_generator(config.master_seed, _SPECTRUM_STREAM, rep)
        sample = sample_spectrum(rng, dims, spec, config.dist)
        packets = spectrum_packets(sample, spec)
        return tuple(scale * (packet - c.lam) for packet, c in zip(packets, consts))

    with _one_blas_thread():
        per_replicate = _map_indexed(one, config.replicates, threads)
        limit_rng = stream_generator(config.master_seed, _LIMIT_STREAM)
        limit = tuple(
            sample_limit_batch(limit_rng, params, spec, v4, size=config.replicates)
        )
    empirical = tuple(np.vstack(column) for column in zip(*per_replicate))
    return CltStudyResult(constants=consts, empirical=empirical, limit=limit)


def _detection_records(
    rng, model: SignalModel, dist: EntryDistribution
) -> tuple[np.ndarray, np.ndarray]:
    """Whitened records (M s + e, z) for the records A s + Sigma2^{1/2} e and Sigma2^{1/2} z.

    The stream gives s, e, z in that order.  Congruence by Sigma2^{-1/2} keeps
    the pencil's eigenvalues for every sample and entry law, and turns the raw
    records into these (M: `SignalModel.whitened`).
    """
    dims = model.dims
    s = dist.draw(rng, (model.num_signals, dims.T))
    x = model.whitened @ s + dist.draw(rng, (dims.p, dims.T))
    return x, dist.draw(rng, (dims.p, dims.n))


def run_detection_study(config: DetectionConfig, threads: int = 1) -> FrequencyTable:
    """Frequency table of the estimated signal count along the ladder of models.

    Each rung's detector levels are read once at its model's dims.  Each
    replicate draws its records from its own stream (`_detection_records`),
    counts signals by inertia (`sampling._gram_count`), and lands in one of
    the count bins 0..4 or "5+".
    """
    freq = np.zeros((len(COUNT_BIN_LABELS), len(config.models)))
    with _one_blas_thread():
        for entry, model in enumerate(config.models):
            threshold, gate = config.detector.levels(model.dims)

            # Runs to completion inside this iteration, so it may read the loop variables.
            def one(rep: int) -> int:
                rng = stream_generator(config.master_seed, _DETECT_STREAM, entry, rep)
                x, z = _detection_records(rng, model, config.dist)
                return _gram_count(x, z, model.dims, threshold, gate)

            for k_hat in _map_indexed(one, config.replicates, threads):
                freq[min(k_hat, len(COUNT_BIN_LABELS) - 1), entry] += 1
    freq /= config.replicates

    ladder = [m.dims for m in config.models]
    if len({d.p for d in ladder}) == len(ladder):
        labels = tuple(f"p={d.p}" for d in ladder)
    else:
        labels = tuple(f"p={d.p},n={d.n},T={d.T}" for d in ladder)
    return FrequencyTable(row_labels=COUNT_BIN_LABELS, column_labels=labels, frequencies=freq)


def _sample(values) -> np.ndarray:
    """A 1-d array of at least 2 finite values: what a spread estimate needs."""
    arr = finite_array(values, "sample", ndim=1)
    if arr.size < 2:
        raise ParameterError(f"need a sample of size >= 2, got {arr.size} values")
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
    arr = _sample(samples)
    h = silverman_bandwidth(arr)
    pts = finite_array(grid, "KDE grid", ndim=1)
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
    arr = finite_array(samples, "2-d KDE sample")
    if arr.shape[1] != 2 or arr.shape[0] < 2:
        raise ParameterError(
            f"2-d KDE needs an (m, 2) sample with m >= 2, got shape {arr.shape}"
        )
    h_x = silverman_bandwidth(arr[:, 0])
    h_y = silverman_bandwidth(arr[:, 1])
    zx = (finite_array(grid_x, "KDE grid x", ndim=1)[:, None] - arr[None, :, 0]) / h_x
    zy = (finite_array(grid_y, "KDE grid y", ndim=1)[:, None] - arr[None, :, 1]) / h_y
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
        ParameterError: with fewer than 2 values, non-finite values, a
            non-finite reference mean, or a reference variance that is not
            finite and positive.
    """
    arr = _sample(values)
    mean = float(arr.mean())
    variance = float(arr.var(ddof=1))
    ref_mean = require_real(mean if ref_mean is None else ref_mean, "reference mean")
    ref_var = require_real(variance if ref_var is None else ref_var, "reference variance")
    if ref_var <= 0.0:
        raise ParameterError(f"reference variance must be positive, got {ref_var}")
    # The KS statistic as scipy.stats.kstest computes it, to within an ulp.
    z = (np.sort(arr) - ref_mean) / math.sqrt(ref_var)
    cdf = np.fromiter((0.5 * math.erfc(-v / math.sqrt(2)) for v in z.tolist()), float, z.size)
    steps = np.arange(arr.size + 1.0) / arr.size
    ks = float(max((steps[1:] - cdf).max(), (cdf - steps[:-1]).max()))
    return SummaryStats(mean=mean, variance=variance, ks_distance=ks)
